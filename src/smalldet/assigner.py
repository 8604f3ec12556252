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
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# ps_matrix and iou_matrix are no longer called here, but they stay
# importable from this module: perfbench/child.py wraps them by this path.
from .geometry import AnchorSet, boxes_to_array, iou_matrix, iou_rows, row_blocks  # noqa: F401
from .similarity import DatasetNormalizers, ps_matrix, ps_rows  # noqa: F401

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "Metric",
    "AssignThresholds",
    "AssignResult",
    "BucketStats",
    "StatsReport",
    "assign",
    "assign_with_metric",
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
        for name, lo, hi in (
            ("pos_thr", 0.0, 1.0),
            ("neg_thr", 0.0, 1.0),
            ("min_pos_thr", 0.0, 1.0),
        ):
            v = getattr(self, name)
            # bool is an int subclass; True must not pass as a threshold of 1
            if isinstance(v, bool) or not (
                isinstance(v, (int, float)) and math.isfinite(v) and lo <= v <= hi
            ):
                raise ValueError(f"{name} must be in [{lo}, {hi}], got {v!r}")
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
        return _count_matched(self.gt_index[self.labels == POSITIVE], num_gts)


def _count_matched(matched: np.ndarray, num_gts: int) -> np.ndarray:
    """Per-gt counts of the matched gt indices of positive anchors."""
    if matched.size and int(matched.max()) >= num_gts:
        raise ValueError(
            f"result references gt {int(matched.max())} but only {num_gts} gts were given"
        )
    return np.bincount(matched, minlength=num_gts) if num_gts else np.zeros(0, dtype=np.int64)


def _assign_rows(blocks, num_gts: int, num_anchors: int, thr: AssignThresholds) -> AssignResult:
    """The streaming pass behind assign and assign_with_metric.

    Consumes (rows, block) score blocks that cover the gt rows in order.
    Each row folds into the per-anchor best score with one np.maximum.
    The best gt is tracked only where a row reaches pos_thr, that is on
    anchors that end up positive: there a strict > against the running
    best keeps the lowest gt on ties, within a block and across blocks.
    Rows whose max stays below pos_thr skip that step. Each gt's best
    anchor comes from argmax, which keeps the lowest anchor on ties. A
    column whose max is a zero held as both -0.0 and +0.0 keeps the
    earliest row's sign, as a strict > fold does: np.maximum(row, best)
    returns its second operand on that tie, which tests/test_assigner.py
    pins. Working memory is O(num_anchors) beyond the blocks themselves.

    Raises:
        ValueError: If a block holds a non-finite score.
    """
    if num_gts == 0 or num_anchors == 0:
        return AssignResult(
            labels=np.full(num_anchors, NEGATIVE, dtype=np.int8),
            gt_index=np.full(num_anchors, -1, dtype=np.int64),
            best_score=np.zeros(num_anchors, dtype=np.float64),
        )

    pos_thr = thr.pos_thr
    best_score = np.full(num_anchors, -np.inf)
    # Written only where a row reaches pos_thr, so -1 stays everywhere else.
    gt_index = np.full(num_anchors, -1, dtype=np.int64)
    gt_best_anchor = np.empty(num_gts, dtype=np.int64)
    gt_best_score = np.empty(num_gts, dtype=np.float64)
    for rows, block in blocks:
        if not np.isfinite(block).all():
            raise ValueError("score matrix contains non-finite values")
        row_best = block.argmax(axis=1)
        row_top = block[np.arange(block.shape[0]), row_best]
        gt_best_anchor[rows] = row_best
        gt_best_score[rows] = row_top
        for g, row, top in zip(range(rows.start, rows.stop), block, row_top):
            if top >= pos_thr:
                reached = np.flatnonzero(row >= pos_thr)
                gt_index[reached[row[reached] > best_score[reached]]] = g
            np.maximum(row, best_score, out=best_score)

    # As neg_thr <= pos_thr, 2 * [>= pos_thr] - [>= neg_thr] is POSITIVE (1),
    # IGNORE (-1) or NEGATIVE (0).
    labels = (best_score >= pos_thr).view(np.int8) * np.int8(2)
    labels -= (best_score >= thr.neg_thr).view(np.int8)
    for g in np.flatnonzero(gt_best_score >= thr.min_pos_thr):
        anchor = gt_best_anchor[g]
        labels[anchor] = POSITIVE
        gt_index[anchor] = g

    return AssignResult(labels=labels, gt_index=gt_index, best_score=best_score)


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
    the tied rows fall in. The matrix rows are streamed through the same
    pass assign_with_metric uses.

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
    blocks = ((rows, score[rows]) for rows in row_blocks(num_gts, num_anchors))
    return _assign_rows(blocks, num_gts, num_anchors, thr)


def assign_with_metric(
    gts,
    anchors,
    norm: DatasetNormalizers | None,
    thr: AssignThresholds = AssignThresholds(),
    metric: Metric | str = Metric.PS,
) -> AssignResult:
    """Score the anchors with the chosen metric and assign in one pass.

    Scores are computed one gt row block at a time and folded straight
    into the assignment, so the full score matrix never exists; the
    result is bit-identical to assign(ps_matrix(...)) or
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
    metric = Metric(metric)
    if metric is Metric.PS and norm is None:
        raise ValueError("the PS metric requires dataset normalizers")
    g = boxes_to_array(gts)
    a = anchors if isinstance(anchors, AnchorSet) else boxes_to_array(anchors)
    blocks = ps_rows(g, a, norm) if metric is Metric.PS else iou_rows(g, a)
    return _assign_rows(blocks, g.shape[0], len(a), thr)


@dataclass(frozen=True)
class BucketStats:
    """Assignment outcomes for ground truths in one size bucket.

    mean_positives_per_gt is None when the bucket holds no ground truths.
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
    edges = tuple(float(e) for e in bucket_edges)
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be strictly increasing, got {edges}")
    if any(not math.isfinite(e) or e < 0 for e in edges):
        raise ValueError(f"bucket edges must be finite and non-negative, got {edges}")
    return edges


# Marks an exhausted iterator in assignment_stats.
_END = object()


def assignment_stats(
    results,
    gt_areas,
    thr: AssignThresholds,
    metric: Metric | str,
    bucket_edges=(1024.0, 9216.0),
) -> StatsReport:
    """Aggregate per-image assignment results into a bucketed report.

    Both inputs are consumed as streams, one image at a time, and only
    per-bucket integer sums are kept, so a generator of results needs
    memory for one image's results, however many images there are.

    Args:
        results: Iterable of per-image results. Each entry is an
            AssignResult, or a sequence of AssignResult over disjoint
            anchor subsets of the same image (per-level assignment); these
            are summed per gt.
        gt_areas: Iterable of per-image arrays of ground-truth areas
            (px^2), parallel to results. Ground truth g of image i is the
            one scored by row g of that image's matrices.
        thr: Thresholds the assignments used (recorded in the report).
        metric: Metric name recorded in the report.
        bucket_edges: Ascending area edges; k edges produce k+1 buckets.
            Defaults to the COCO small/medium/large split (32^2, 96^2).

    Returns:
        StatsReport with one record per bucket, in edge order.

    Raises:
        ValueError: If results and gt_areas differ in length (found when
            the shorter one runs out), if an image's areas are not 1-d or
            hold a non-finite or negative area (naming the image's
            position), or on bad edges or results.
    """
    edges = check_bucket_edges(bucket_edges)
    metric = Metric(metric)

    num_buckets = len(edges) + 1
    edge_array = np.asarray(edges)
    gt_count = np.zeros(num_buckets, dtype=np.int64)
    positive_sum = np.zeros(num_buckets, dtype=np.int64)
    zero_positive = np.zeros(num_buckets, dtype=np.int64)
    total_positive = 0
    total_negative = 0
    total_anchors = 0

    area_lists = iter(gt_areas)
    images = 0
    for image_results in results:
        areas = next(area_lists, _END)
        if areas is _END:
            raise ValueError(f"got more image results than the {images} gt area lists")
        images += 1
        if isinstance(image_results, AssignResult):
            image_results = (image_results,)
        if not image_results:
            raise ValueError("each image needs at least one AssignResult")
        areas = np.asarray(areas, dtype=np.float64)
        if areas.ndim != 1:
            raise ValueError(f"gt areas of image {images - 1} must be 1-d, got shape {areas.shape}")
        bad = areas[~(np.isfinite(areas) & (areas >= 0))]
        if bad.size:
            raise ValueError(
                f"gt areas of image {images - 1} must be finite and non-negative, got {float(bad[0])!r}"
            )
        num_gts = int(areas.shape[0])
        per_gt = np.zeros(num_gts, dtype=np.int64)
        for result in image_results:
            matched = result.gt_index[result.labels == POSITIVE]
            per_gt += _count_matched(matched, num_gts)
            total_positive += matched.size
            total_negative += int(np.count_nonzero(result.labels == NEGATIVE))
            total_anchors += result.num_anchors
        # Drop this image's results before the iterator makes the next ones.
        del image_results, result
        bucket_of = np.searchsorted(edge_array, areas, side="right")
        gt_count += np.bincount(bucket_of, minlength=num_buckets)
        # Integer counts summed as float64 weights are exact below 2**53.
        positive_sum += np.bincount(bucket_of, weights=per_gt, minlength=num_buckets).astype(
            np.int64
        )
        zero_positive += np.bincount(bucket_of[per_gt == 0], minlength=num_buckets)
    if next(area_lists, _END) is not _END:
        raise ValueError(f"got {images} image results but more gt area lists")

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


def report_to_dict(report: StatsReport) -> dict:
    """Plain-dict form of a report, suitable for json.dumps."""
    return {
        "metric": report.metric,
        "thresholds": {
            "pos_thr": report.thresholds.pos_thr,
            "neg_thr": report.thresholds.neg_thr,
            "min_pos_thr": report.thresholds.min_pos_thr,
        },
        "bucket_edges": list(report.bucket_edges),
        "totals": {
            "positive": report.total_positive,
            "negative": report.total_negative,
            "ignore": report.total_ignore,
            "anchors": report.total_anchors,
        },
        "buckets": [
            {
                "name": b.name,
                "gt_count": b.gt_count,
                "mean_positives_per_gt": b.mean_positives_per_gt,
                "gts_without_positive": b.gts_without_positive,
                "positive_anchors": b.positive_anchors,
            }
            for b in report.buckets
        ],
    }


def reports_to_json(reports) -> str:
    """Serialize reports to a schema-versioned JSON document."""
    doc = {"schema_version": 1, "reports": [report_to_dict(r) for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


_CSV_COLUMNS = [
    "metric",
    "bucket",
    "gt_count",
    "mean_positives_per_gt",
    "gts_without_positive",
    "positive_anchors",
    "total_positive",
    "total_negative",
    "total_ignore",
    "total_anchors",
]


def reports_to_csv(reports) -> str:
    """Serialize reports as CSV, one row per (metric, bucket).

    Numbers match the JSON form exactly; an undefined mean (empty bucket,
    null in JSON) becomes an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for report in reports:
        for b in report.buckets:
            mean = "" if b.mean_positives_per_gt is None else repr(b.mean_positives_per_gt)
            writer.writerow(
                [
                    report.metric,
                    b.name,
                    b.gt_count,
                    mean,
                    b.gts_without_positive,
                    b.positive_anchors,
                    report.total_positive,
                    report.total_negative,
                    report.total_ignore,
                    report.total_anchors,
                ]
            )
    return buf.getvalue()
