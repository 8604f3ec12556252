"""Score-threshold label assignment with a per-ground-truth rescue step.

Assignment follows the conventional max-score matcher: each anchor is
labeled by its best score over all ground truths, then every ground truth
reclaims its own best anchor if that score clears a minimum threshold.
The module also aggregates assignment outcomes into size-bucketed reports
and serializes them to JSON and CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum

import numpy as np

from . import _count, _real, _shown

# ps_matrix and iou_matrix are no longer called here, but they stay
# importable from this module: perfbench/child.py wraps them by this path.
from .geometry import (  # noqa: F401
    AnchorSet,
    _iou_rows,
    _scorable,
    _scratch,
    _whole,
    anchor_tiles,
    boxes_to_array,
    iou_matrix,
    overlapping,
    row_blocks,
)
from .similarity import DatasetNormalizers, _ps_rows, ps_matrix  # noqa: F401

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "Metric",
    "AssignThresholds",
    "AssignResult",
    "ImageCounts",
    "BucketStats",
    "StatsReport",
    "assign",
    "assign_with_metric",
    "count_with_metric",
    "assignment_stats",
    "check_bucket_edges",
    "report_to_dict",
    "reports_to_json",
    "reports_to_csv",
]

# Per-anchor label codes.
POSITIVE = 1
NEGATIVE = 0
IGNORE = -1


class Metric(str, Enum):
    """Score function used to match anchors against ground truths."""

    PS = "ps"
    IOU = "iou"


@dataclass(frozen=True)
class AssignThresholds:
    """Decision thresholds for the assigner.

    Attributes:
        pos_thr: Anchors whose best score reaches this are positive.
        neg_thr: Anchors whose best score falls below this are negative;
            scores in [neg_thr, pos_thr) are ignored.
        min_pos_thr: A ground truth reclaims its best anchor as positive
            when that score reaches this, overriding the band labels.
    """

    pos_thr: float = 0.7
    neg_thr: float = 0.3
    min_pos_thr: float = 0.3

    def __post_init__(self) -> None:
        for name in ("pos_thr", "neg_thr", "min_pos_thr"):
            value = _real(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0.0, 1.0], got {value!r}")
            object.__setattr__(self, name, value)
        if self.pos_thr <= 0:
            raise ValueError(f"pos_thr must be positive, got {self.pos_thr!r}")
        if self.neg_thr >= 1:
            raise ValueError(f"neg_thr must be below 1, got {self.neg_thr!r}")
        if self.neg_thr > self.pos_thr:
            raise ValueError(
                f"neg_thr ({self.neg_thr!r}) must not exceed pos_thr ({self.pos_thr!r})"
            )


@dataclass(frozen=True)
class AssignResult:
    """Per-anchor assignment outcome.

    Attributes:
        labels: int8 array of POSITIVE/NEGATIVE/IGNORE codes, one per anchor.
        gt_index: int64 array; the matched ground-truth index where the
            label is POSITIVE, -1 elsewhere.
        best_score: float64 array of each anchor's max score over ground
            truths (0 when there are none).
    """

    labels: np.ndarray
    gt_index: np.ndarray
    best_score: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int8)
        gt_index = np.asarray(self.gt_index, dtype=np.int64)
        best_score = np.asarray(self.best_score, dtype=np.float64)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "gt_index", gt_index)
        object.__setattr__(self, "best_score", best_score)
        if not (labels.shape == gt_index.shape == best_score.shape) or labels.ndim != 1:
            raise ValueError("labels, gt_index, and best_score must be 1-d and equal length")
        # The codes are exactly the integers IGNORE..POSITIVE (-1..1).
        if labels.size and (labels.min() < IGNORE or labels.max() > POSITIVE):
            raise ValueError("labels must contain only POSITIVE/NEGATIVE/IGNORE codes")
        # gt_index >= 0 exactly where positive, and never below -1, so it
        # is -1 everywhere else.
        if (gt_index.size and gt_index.min() < -1) or np.count_nonzero(
            (gt_index >= 0) != (labels == POSITIVE)
        ):
            raise ValueError("gt_index must be set exactly where the label is positive")

    @property
    def num_anchors(self) -> int:
        return int(self.labels.shape[0])

    def positives_per_gt(self, num_gts: int) -> np.ndarray:
        """Count of positive anchors matched to each ground truth."""
        matched = self.gt_index[self.labels == POSITIVE]
        if matched.size and int(matched.max()) >= num_gts:
            raise ValueError(
                f"result references gt {int(matched.max())} but only {num_gts} gts were given"
            )
        return np.bincount(matched, minlength=num_gts)

    def counts(self, gt_areas) -> "ImageCounts":
        """This result's ImageCounts record, for gts of these areas (px^2) by row."""
        areas = np.asarray(gt_areas, dtype=np.float64)
        negative = int(np.count_nonzero(self.labels == NEGATIVE))
        # areas.size, not len(): a 0-d or 2-d array is ImageCounts' to reject.
        return ImageCounts(areas, self.positives_per_gt(areas.size), negative, self.num_anchors)


class _GtBest:
    """Each gt's running best (score, lowest anchor) across anchor tiles.

    With the best anchor it keeps that anchor's pre-rescue state, its
    best_score and matched gt, so a rescue can be undone and redone
    without the tile it came from.
    """

    def __init__(self, num_gts: int):
        self.score = np.full(num_gts, -np.inf)
        self.anchor = np.zeros(num_gts, dtype=np.int64)
        self.best_at = np.zeros(num_gts)
        self.match_at = np.full(num_gts, -1, dtype=np.int64)

    def update(self, start: int, top, arg, best, match) -> None:
        # Strict >: on a tie an earlier tile, so the lower anchor, stays.
        better = top > self.score
        at = arg[better]
        self.score[better] = top[better]
        self.anchor[better] = start + at
        self.best_at[better] = best[at]
        self.match_at[better] = match[at]

    def rescues(self, min_pos_thr: float) -> dict[int, int]:
        """Each rescued anchor, mapped to the gt that claims it last in gt
        order: of the gts whose best score reaches min_pos_thr, a later
        gt's rescue overrides an earlier one's on the same anchor."""
        gts = np.flatnonzero(self.score >= min_pos_thr).tolist()
        return dict(zip(self.anchor[gts].tolist(), gts))


def _fold(tiles, gt_best: _GtBest, floor: float, pos_thr: float, buffers):
    """The one pass behind every assignment: a fold over anchor tiles.

    tiles yields (start, length, gts, blocks) per tile, in anchor order:
    blocks yields (rows, windows) per score block of the gts gts[rows],
    in gt order, over the tile's anchors. A window (b, values, level,
    width, r, c) holds the 2-d scores values of gt gts[rows][b] at the
    tile's anchors level.reshape(-1, width)[r, c] (geometry._iou_rows),
    and each gt's windows come in anchor order. A score matrix gives each
    row one window, the whole tile (geometry._whole), and so does the PS
    kernel while it scores every pair of a block; under a cutoff it
    yields per-level windows, some cut, and none where a gt cannot reach
    the cutoff (similarity._ps_rows). Every score outside a gt's windows
    is floor, or below the cutoff of the sink that set one, which reads
    such a score as floor (count_with_metric); no score is below floor,
    so the fold reads only the windows. buffers(start, length) gives the
    tile's best-score and matched-gt arrays, which start at floor and -1.

    Each window folds into the per-anchor best with one np.maximum, and
    the matched gt is tracked only where it reaches pos_thr: there a
    strict > against the running best keeps the lowest gt on ties, as
    windows come in gt order for each anchor. Each gt's max and argmax
    (lowest anchor on ties) in the tile merge into gt_best; a gt whose
    windows never pass floor (or that has none) keeps floor at the tile's
    anchor 0, its argmax over a row of floor. A column whose max is a
    zero held as both -0.0 and +0.0 keeps the earliest row's sign, as a
    strict > fold does: np.maximum(values, best) returns its second
    operand on that tie, which tests/test_assigner.py pins.

    Yields (best, match) per tile once the tile is folded, before the
    rescue; the sink reads them before it asks for the next tile.

    Raises:
        ValueError: If a window holds a non-finite score.
    """
    num_gts = gt_best.score.shape[0]
    for start, length, gts, blocks in tiles:
        best, match = buffers(start, length)
        best.fill(floor)
        # Written only where a window reaches pos_thr, so -1 stays everywhere else.
        match.fill(-1)
        top = np.full(num_gts, floor)
        arg = np.zeros(num_gts, dtype=np.int64)
        for rows, windows in blocks:
            ids = gts[rows].tolist()
            for b, values, level, width, r, c in windows:
                if not np.isfinite(values).all():
                    raise ValueError("score matrix contains non-finite values")
                g = ids[b]
                # The first max in row-major order: the window's lowest anchor.
                i, j = divmod(int(values.argmax()), values.shape[1])
                peak = values[i, j]
                if peak > top[g]:
                    top[g] = peak
                    arg[g] = level.start + (r.start + i) * width + c.start + j
                seen = best[level].reshape(-1, width)[r, c]
                if peak >= pos_thr:
                    gain = values >= pos_thr
                    gain &= values > seen
                    np.copyto(match[level].reshape(-1, width)[r, c], g, where=gain)
                np.maximum(values, seen, out=seen)
        gt_best.update(start, top, arg, best, match)
        yield best, match


def _assign_tiles(tiles, num_gts: int, num_anchors: int, thr: AssignThresholds, floor: float) -> AssignResult:
    """The AssignResult sink: the fold writes each tile into the result."""
    if num_gts == 0 or num_anchors == 0:
        return AssignResult(
            labels=np.full(num_anchors, NEGATIVE, dtype=np.int8),
            gt_index=np.full(num_anchors, -1, dtype=np.int64),
            best_score=np.zeros(num_anchors, dtype=np.float64),
        )
    best_score = np.empty(num_anchors)
    gt_index = np.empty(num_anchors, dtype=np.int64)
    gt_best = _GtBest(num_gts)

    def buffers(start: int, length: int):
        return best_score[start : start + length], gt_index[start : start + length]

    for _ in _fold(tiles, gt_best, floor, thr.pos_thr, buffers):
        pass
    # As neg_thr <= pos_thr, 2 * [>= pos_thr] - [>= neg_thr] is POSITIVE (1),
    # IGNORE (-1) or NEGATIVE (0).
    labels = (best_score >= thr.pos_thr).view(np.int8) * np.int8(2)
    labels -= (best_score >= thr.neg_thr).view(np.int8)
    for anchor, g in gt_best.rescues(thr.min_pos_thr).items():
        labels[anchor] = POSITIVE
        gt_index[anchor] = g
    return AssignResult(labels=labels, gt_index=gt_index, best_score=best_score)


@dataclass(frozen=True, eq=False)
class ImageCounts:
    """One image's assignment outcome, as much of it as a report reads.

    The record assignment_stats folds, made by count_with_metric or
    AssignResult.counts, and checked when made (ValueError otherwise).

    Attributes:
        gt_areas: float64 area (px^2) of each ground truth, finite and >= 0.
        positives_per_gt: int64 count (>= 0) of the positive anchors
            matched to each ground truth, one per area.
        negative: Negative anchors, 0 <= negative <= anchors - positive.
        anchors: All anchors; the rest are ignored.
    """

    gt_areas: np.ndarray
    positives_per_gt: np.ndarray
    negative: int
    anchors: int

    def __post_init__(self) -> None:
        areas = np.asarray(self.gt_areas, dtype=np.float64)
        per_gt = np.asarray(self.positives_per_gt)
        if areas.ndim != 1:
            raise ValueError(f"gt areas must be 1-d, got shape {areas.shape}")
        bad = areas[~(np.isfinite(areas) & (areas >= 0))]
        if bad.size:
            raise ValueError(f"gt areas must be finite and non-negative, got {float(bad[0])!r}")
        if per_gt.shape != areas.shape:
            raise ValueError(f"counts cover {per_gt.size} gts but there are {areas.size} gt areas")
        if per_gt.size and (per_gt.dtype.kind not in "iu" or per_gt.min() < 0):
            raise ValueError("positives_per_gt must be non-negative integers")
        positive = int(per_gt.sum())
        negative, anchors = _count(self.negative, "negative"), _count(self.anchors, "anchors")
        if not 0 <= negative <= anchors - positive:
            raise ValueError(
                f"negative anchors must be in [0, anchors - positive], got {_shown(negative)} "
                f"of {_shown(anchors)} anchors with {positive} positive"
            )
        object.__setattr__(self, "gt_areas", areas)
        object.__setattr__(self, "positives_per_gt", per_gt.astype(np.int64, copy=False))
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "anchors", anchors)

    @property
    def positive(self) -> int:
        """Positive anchors: the sum of positives_per_gt."""
        return int(self.positives_per_gt.sum())

    def __add__(self, other: "ImageCounts") -> "ImageCounts":
        """Counts of two assignments of one image's gts (per-level parts)."""
        if not np.array_equal(self.gt_areas, other.gt_areas):
            raise ValueError("only counts of the same image's gts add up: the gt areas differ")
        return ImageCounts(
            self.gt_areas,
            self.positives_per_gt + other.positives_per_gt,
            self.negative + other.negative,
            self.anchors + other.anchors,
        )


def _count_tiles(tiles, gt_areas: np.ndarray, num_anchors: int, thr: AssignThresholds, floor: float) -> ImageCounts:
    """The counting sink: label totals and per-gt positives, tile by tile.

    Memory is one tile's arrays, and they are this thread's reused buffers
    (geometry._Scratch), so no image makes its own. Before the rescue, an
    anchor is positive exactly where it has a matched gt (best_score >=
    pos_thr). Each rescued anchor's count is then undone from the
    pre-rescue state _GtBest kept and redone as a positive of the gt that
    claims it last, so the counts equal those of the AssignResult the
    same fold makes.
    """
    num_gts = len(gt_areas)
    per_gt = np.zeros(num_gts, dtype=np.int64)
    if num_gts == 0 or num_anchors == 0:
        return ImageCounts(gt_areas, per_gt, num_anchors, num_anchors)
    negative = 0
    gt_best = _GtBest(num_gts)

    def buffers(start: int, length: int):
        return _scratch.take("best", (length,)), _scratch.take("match", (length,), np.int64)

    for best, match in _fold(tiles, gt_best, floor, thr.pos_thr, buffers):
        matched = match[match >= 0]
        per_gt += np.bincount(matched, minlength=num_gts)
        negative += int(np.count_nonzero(best < thr.neg_thr))
    for g in gt_best.rescues(thr.min_pos_thr).values():
        # Every gt that claims an anchor kept the same pre-rescue state of it.
        was = int(gt_best.match_at[g])
        if was >= 0:
            per_gt[was] -= 1
        elif gt_best.best_at[g] < thr.neg_thr:
            negative -= 1
        per_gt[g] += 1
    return ImageCounts(gt_areas, per_gt, negative, num_anchors)


def _matrix_tiles(score: np.ndarray):
    """(start, length, gts, blocks) per column tile of a score matrix."""
    gts = np.arange(score.shape[0])
    for start, columns in anchor_tiles(score.T):
        tile = columns.T
        yield start, tile.shape[1], gts, ((rows, _whole(tile[rows])) for rows in row_blocks(*tile.shape))


def assign(score, thr: AssignThresholds = AssignThresholds()) -> AssignResult:
    """Label anchors from a score matrix.

    The rule steps, applied in order:
      1. Each anchor's best_score is its max score over ground truths
         (0 when the matrix has zero rows). Where that max is a zero held
         as both -0.0 and +0.0, it keeps the sign of the earliest row.
      2. best_score < neg_thr: negative.
      3. best_score >= pos_thr: positive, matched to the argmax ground truth.
         The matched gt is tracked only for these anchors; every other
         anchor's gt_index is -1.
      4. Scores in [neg_thr, pos_thr): ignore.
      5. Rescue: for each ground truth in index order, its argmax anchor
         becomes positive for it when that score >= min_pos_thr, overriding
         the band label. A later ground truth overrides an earlier one when
         both claim the same anchor.
    Every argmax tie breaks toward the lowest index, whichever row blocks
    and column tiles the tied entries fall in. The matrix is folded in the
    tiles and row blocks assign_with_metric uses.

    Args:
        score: Finite matrix of shape (num_gts, num_anchors).
        thr: Decision thresholds.

    Returns:
        AssignResult over the anchors (columns).
    """
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2:
        raise ValueError(f"score must be 2-d (gts x anchors), got shape {score.shape}")
    num_gts, num_anchors = score.shape
    return _assign_tiles(_matrix_tiles(score), num_gts, num_anchors, thr, -np.inf)


def _metric_tiles(g: np.ndarray, anchors, norm: DatasetNormalizers | None, metric: Metric, cutoff: float = 0.0):
    """(start, length, gts, blocks) per anchor tile, scored with metric.

    IoU is exact 0.0 for a gt that does not meet a tile's bounding box,
    so a tile cut from a larger set scores only the gts that meet it. PS
    skips a gt's level where no score can reach cutoff (similarity._ps_rows).
    Every score block is a view of this thread's one score buffer.
    """
    every = np.arange(g.shape[0])
    alloc = lambda rows, shape: _scratch.take("score", shape)  # noqa: E731
    for start, tile in anchor_tiles(anchors):
        if metric is Metric.PS:
            yield start, len(tile), every, _ps_rows(g, tile, norm, alloc, cutoff)
        else:
            # Kept for time: unpruned, counts match but IoU on a 4000x3000 image with 100 gts takes 2x.
            gts = overlapping(g, tile) if tile is not anchors and isinstance(tile, AnchorSet) else every
            yield start, len(tile), gts, _iou_rows(g[gts], tile, alloc)


def _checked(anchors, norm, metric):
    """The metric, and the anchors as the kernels take them."""
    metric = Metric(metric)
    if metric is Metric.PS and norm is None:
        raise ValueError("the PS metric requires dataset normalizers")
    return metric, _scorable(anchors)


def assign_with_metric(
    gts,
    anchors,
    norm: DatasetNormalizers | None,
    thr: AssignThresholds = AssignThresholds(),
    metric: Metric | str = Metric.PS,
) -> AssignResult:
    """Score the anchors with the chosen metric and assign in one pass.

    The anchors are scored one tile at a time (geometry.anchor_tiles),
    one gt row block at a time within a tile, and each block is folded
    straight into the assignment, so the score matrix never exists and
    scoring needs memory for one tile beyond the result's 17 bytes per
    anchor. The result is bit-identical to assign(ps_matrix(...)) or
    assign(iou_matrix(...)).

    Args:
        gts: Ground-truth boxes.
        anchors: Anchor boxes. An AnchorSet is used as it is: the grid
            kernels read only its tables and make no per-anchor boxes.
        norm: Dataset normalizers; required for the PS metric, ignored
            for IoU.
        thr: Decision thresholds.
        metric: Metric.PS or Metric.IOU (or their string values).
    """
    metric, a = _checked(anchors, norm, metric)
    g = boxes_to_array(gts)
    # PS and IoU scores are never below +0.0 and never -0.0.
    return _assign_tiles(_metric_tiles(g, a, norm, metric), g.shape[0], len(a), thr, 0.0)


def count_with_metric(
    g: np.ndarray,
    anchors,
    norm: DatasetNormalizers | None,
    thr: AssignThresholds = AssignThresholds(),
    metric: Metric | str = Metric.PS,
) -> ImageCounts:
    """The counts of assign_with_metric's result, in memory for one tile.

    The same fold as assign_with_metric, with a sink that counts each
    tile's labels and per-gt positives and then drops the tile, so no
    per-anchor array of the image is made: working memory is one tile's,
    whatever the image size. The record equals
    assign_with_metric(...).counts(areas) for the gt areas w * h, which it
    carries as gt_areas.

    PS pairs are scored only where a score can reach the cutoff c =
    min(neg_thr, min_pos_thr) (similarity._ps_rows): a gt is skipped on a
    level where its shape term alone passes -ln c, and cut to the
    bounding rows and columns it can reach on a level that is wide enough
    for it. The counts stay exact, as the sink compares scores only with
    thresholds at or above c: a label compares an anchor's best score
    with neg_thr and pos_thr, both >= c; a matched gt is tracked only at
    >= pos_thr; a rescue needs a gt's best score >= min_pos_thr >= c; and
    a rescue's undo compares the anchor's pre-rescue best with neg_thr
    alone. So a score below c may read as the floor +0.0, and c = 0
    scores every pair. A pair that is not scored cannot raise the fold's
    non-finite error.

    Args:
        g: Validated (G, 4) float64 center-form (cx, cy, w, h)
            ground-truth array, as from boxes_to_array or a DatasetIndex;
            it is not checked again.
        anchors: Anchor boxes, or an AnchorSet.
        norm: Dataset normalizers; required for the PS metric.
        thr: Decision thresholds.
        metric: Metric.PS or Metric.IOU (or their string values).
    """
    metric, a = _checked(anchors, norm, metric)
    cutoff = min(thr.neg_thr, thr.min_pos_thr)
    return _count_tiles(_metric_tiles(g, a, norm, metric, cutoff), g[:, 2] * g[:, 3], len(a), thr, 0.0)


@dataclass(frozen=True)
class BucketStats:
    """Assignment outcomes for ground truths in one size bucket.

    mean_positives_per_gt is None when the bucket holds no ground truths.
    The JSON and CSV reports hold these fields in this order.
    """

    name: str
    gt_count: int
    mean_positives_per_gt: float | None
    gts_without_positive: int
    positive_anchors: int


@dataclass(frozen=True)
class StatsReport:
    """Size-bucketed assignment statistics for one metric.

    The total label counts partition the anchors: total_positive +
    total_negative + total_ignore = total_anchors.
    """

    metric: str
    thresholds: AssignThresholds
    bucket_edges: tuple[float, ...]
    buckets: tuple[BucketStats, ...]
    total_positive: int
    total_negative: int
    total_ignore: int
    total_anchors: int


def _bucket_names(edges: tuple[float, ...]) -> list[str]:
    if not edges:
        return ["all"]
    names = [f"area<{edges[0]:g}"]
    for lo, hi in zip(edges, edges[1:]):
        names.append(f"{lo:g}<=area<{hi:g}")
    names.append(f"area>={edges[-1]:g}")
    return names


def check_bucket_edges(bucket_edges) -> tuple[float, ...]:
    """Report bucket edges as floats: finite, non-negative, strictly increasing.

    Raises:
        ValueError: If the edges are not all three.
    """
    edges = tuple(_real(e, "bucket edges") for e in bucket_edges)
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be strictly increasing, got {edges}")
    if any(e < 0 for e in edges):
        raise ValueError(f"bucket edges must be non-negative, got {edges}")
    return edges


def assignment_stats(
    counts,
    thr: AssignThresholds,
    metric: Metric | str,
    bucket_edges=(1024.0, 9216.0),
) -> StatsReport:
    """Aggregate per-image assignment outcomes into a bucketed report.

    counts is consumed as a stream, one image at a time: each ImageCounts
    record is folded into per-bucket integer sums and dropped, so a
    generator needs memory for one image's record, however many images
    there are. A record of count_with_metric holds no per-anchor array;
    an AssignResult enters through AssignResult.counts, and per-level
    parts of one image as the sum of their records.

    Args:
        counts: Iterable of ImageCounts, one per image. Each carries its
            gt areas, which pick the gts' buckets.
        thr: Thresholds the assignments used (recorded in the report).
        metric: Metric name recorded in the report.
        bucket_edges: Ascending area edges; k edges produce k+1 buckets.
            Defaults to the COCO small/medium/large split (32^2, 96^2).

    Returns:
        StatsReport with one record per bucket, in edge order.

    Raises:
        ValueError: On bad edges, or if an entry is not an ImageCounts
            (naming its position).
    """
    edges = check_bucket_edges(bucket_edges)
    metric = Metric(metric)

    num_buckets = len(edges) + 1
    edge_array = np.asarray(edges)
    gt_count = np.zeros(num_buckets, dtype=np.int64)
    positive_sum = np.zeros(num_buckets, dtype=np.int64)
    zero_positive = np.zeros(num_buckets, dtype=np.int64)
    total_negative = 0
    total_anchors = 0

    images = 0  # not enumerate, whose reused tuple would keep the last record
    for record in counts:
        if not isinstance(record, ImageCounts):
            raise ValueError(f"entry {images} of counts is a {type(record).__name__}, not an ImageCounts")
        images += 1
        per_gt = record.positives_per_gt
        bucket_of = np.searchsorted(edge_array, record.gt_areas, side="right")
        total_negative += record.negative
        total_anchors += record.anchors
        # Drop this image's record before the iterator makes the next one.
        del record
        gt_count += np.bincount(bucket_of, minlength=num_buckets)
        # Integer counts summed as float64 weights are exact below 2**53.
        positive_sum += np.bincount(bucket_of, weights=per_gt, minlength=num_buckets).astype(
            np.int64
        )
        zero_positive += np.bincount(bucket_of[per_gt == 0], minlength=num_buckets)

    buckets = []
    for name, count, pos, zero in zip(_bucket_names(edges), gt_count, positive_sum, zero_positive):
        mean = float(pos / count) if count else None
        buckets.append(
            BucketStats(
                name=name,
                gt_count=int(count),
                mean_positives_per_gt=mean,
                gts_without_positive=int(zero),
                positive_anchors=int(pos),
            )
        )
    total_positive = int(positive_sum.sum())
    return StatsReport(
        metric=metric.value,
        thresholds=thr,
        bucket_edges=edges,
        buckets=tuple(buckets),
        total_positive=total_positive,
        total_negative=total_negative,
        total_ignore=total_anchors - total_positive - total_negative,
        total_anchors=total_anchors,
    )


# The report's total_* fields, under their JSON "totals" keys.
_TOTALS = ("positive", "negative", "ignore", "anchors")


def report_to_dict(report: StatsReport) -> dict:
    """Plain-dict form of a report, suitable for json.dumps."""
    return {
        "metric": report.metric,
        "thresholds": asdict(report.thresholds),
        "bucket_edges": list(report.bucket_edges),
        "totals": {key: getattr(report, f"total_{key}") for key in _TOTALS},
        "buckets": [asdict(b) for b in report.buckets],
    }


def reports_to_json(reports) -> str:
    """Serialize reports to a schema-versioned JSON document."""
    doc = {"schema_version": 1, "reports": [report_to_dict(r) for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    """Serialize reports as CSV, one row per (metric, bucket): the metric,
    the bucket's fields (its name as "bucket"), then the totals. An empty
    bucket's undefined mean (null in JSON) becomes an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    _, *counts = (f.name for f in fields(BucketStats))
    writer.writerow(["metric", "bucket", *counts, *(f"total_{key}" for key in _TOTALS)])
    for report in reports:
        totals = [getattr(report, f"total_{key}") for key in _TOTALS]
        writer.writerows([report.metric, *astuple(b), *totals] for b in report.buckets)
    return buf.getvalue()
