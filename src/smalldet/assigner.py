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
from .geometry import boxes_to_array, iou_matrix, iou_rows, row_blocks  # noqa: F401
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
            if not (isinstance(v, (int, float)) and math.isfinite(v) and lo <= v <= hi):
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
        positive = labels == POSITIVE
        if np.any(gt_index[positive] < 0) or np.any(gt_index[~positive] != -1):
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
        return np.bincount(matched, minlength=num_gts) if num_gts else np.zeros(0, dtype=np.int64)


def _assign_rows(blocks, num_gts: int, num_anchors: int, thr: AssignThresholds) -> AssignResult:
    """The streaming pass behind assign and assign_with_metric.

    Consumes (rows, block) score blocks that cover the gt rows in order,
    keeping a running per-anchor best score and best gt (a strict > keeps
    the lowest gt index on ties) and each gt's best anchor (argmax keeps
    the lowest anchor index on ties). Working memory is O(num_anchors)
    beyond the blocks themselves.

    Raises:
        ValueError: If a block holds a non-finite score.
    """
    if num_gts == 0 or num_anchors == 0:
        return AssignResult(
            labels=np.full(num_anchors, NEGATIVE, dtype=np.int8),
            gt_index=np.full(num_anchors, -1, dtype=np.int64),
            best_score=np.zeros(num_anchors, dtype=np.float64),
        )

    best_score = np.full(num_anchors, -np.inf)
    best_gt = np.zeros(num_anchors, dtype=np.int64)
    better = np.empty(num_anchors, dtype=bool)
    gt_best_anchor = np.empty(num_gts, dtype=np.int64)
    gt_best_score = np.empty(num_gts, dtype=np.float64)
    for rows, block in blocks:
        if not np.isfinite(block).all():
            raise ValueError("score matrix contains non-finite values")
        for g, row in zip(range(rows.start, rows.stop), block):
            np.greater(row, best_score, out=better)
            np.copyto(best_score, row, where=better)
            np.copyto(best_gt, g, where=better)
        row_best = block.argmax(axis=1)
        gt_best_anchor[rows] = row_best
        gt_best_score[rows] = block[np.arange(block.shape[0]), row_best]

    labels = np.full(num_anchors, IGNORE, dtype=np.int8)
    labels[best_score < thr.neg_thr] = NEGATIVE
    positive = best_score >= thr.pos_thr
    labels[positive] = POSITIVE
    gt_index = np.where(positive, best_gt, -1)
    for g in np.flatnonzero(gt_best_score >= thr.min_pos_thr):
        anchor = gt_best_anchor[g]
        labels[anchor] = POSITIVE
        gt_index[anchor] = g

    return AssignResult(labels=labels, gt_index=gt_index, best_score=best_score)


def assign(score, thr: AssignThresholds = AssignThresholds()) -> AssignResult:
    """Label anchors from a score matrix.

    The rule steps, applied in order:
      1. Each anchor's best_score is its max score over ground truths
         (0 when the matrix has zero rows).
      2. best_score < neg_thr: negative.
      3. best_score >= pos_thr: positive, matched to the argmax ground truth.
      4. Scores in [neg_thr, pos_thr): ignore.
      5. Rescue: for each ground truth in index order, its argmax anchor
         becomes positive for it when that score >= min_pos_thr, overriding
         the band label. A later ground truth overrides an earlier one when
         both claim the same anchor.
    Every argmax tie breaks toward the lowest index. The matrix rows are
    streamed through the same pass assign_with_metric uses.

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
        anchors: Anchor boxes.
        norm: Dataset normalizers; required for the PS metric, ignored
            for IoU.
        thr: Decision thresholds.
        metric: Metric.PS or Metric.IOU (or their string values).
    """
    metric = Metric(metric)
    if metric is Metric.PS and norm is None:
        raise ValueError("the PS metric requires dataset normalizers")
    g = boxes_to_array(gts)
    a = boxes_to_array(anchors)
    blocks = ps_rows(g, a, norm) if metric is Metric.PS else iou_rows(g, a)
    return _assign_rows(blocks, g.shape[0], a.shape[0], thr)


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


def assignment_stats(
    results,
    gt_areas,
    thr: AssignThresholds,
    metric: Metric | str,
    bucket_edges=(1024.0, 9216.0),
) -> StatsReport:
    """Aggregate per-image assignment results into a bucketed report.

    Args:
        results: Per-image results. Each entry is an AssignResult, or a
            sequence of AssignResult over disjoint anchor subsets of the
            same image (per-level assignment); these are summed per gt.
        gt_areas: Per-image arrays of ground-truth areas (px^2), parallel
            to results. Ground truth g of image i is the one scored by
            row g of that image's matrices.
        thr: Thresholds the assignments used (recorded in the report).
        metric: Metric name recorded in the report.
        bucket_edges: Ascending area edges; k edges produce k+1 buckets.
            Defaults to the COCO small/medium/large split (32^2, 96^2).

    Returns:
        StatsReport with one record per bucket, in edge order.
    """
    edges = tuple(float(e) for e in bucket_edges)
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be strictly increasing, got {edges}")
    if any(not math.isfinite(e) or e < 0 for e in edges):
        raise ValueError(f"bucket edges must be finite and non-negative, got {edges}")
    if len(results) != len(gt_areas):
        raise ValueError(
            f"got {len(results)} image results but {len(gt_areas)} gt area lists"
        )
    metric = Metric(metric)

    num_buckets = len(edges) + 1
    gt_count = np.zeros(num_buckets, dtype=np.int64)
    positive_sum = np.zeros(num_buckets, dtype=np.int64)
    zero_positive = np.zeros(num_buckets, dtype=np.int64)
    total = {POSITIVE: 0, NEGATIVE: 0, IGNORE: 0}
    total_anchors = 0

    for image_results, areas in zip(results, gt_areas):
        if isinstance(image_results, AssignResult):
            image_results = (image_results,)
        if not image_results:
            raise ValueError("each image needs at least one AssignResult")
        areas = np.asarray(areas, dtype=np.float64)
        num_gts = int(areas.shape[0])
        per_gt = np.zeros(num_gts, dtype=np.int64)
        for result in image_results:
            per_gt += result.positives_per_gt(num_gts)
            total[POSITIVE] += int(np.count_nonzero(result.labels == POSITIVE))
            total[NEGATIVE] += int(np.count_nonzero(result.labels == NEGATIVE))
            total[IGNORE] += int(np.count_nonzero(result.labels == IGNORE))
            total_anchors += result.num_anchors
        bucket_of = np.searchsorted(np.asarray(edges), areas, side="right")
        for b in range(num_buckets):
            mask = bucket_of == b
            gt_count[b] += int(np.count_nonzero(mask))
            positive_sum[b] += int(per_gt[mask].sum())
            zero_positive[b] += int(np.count_nonzero(per_gt[mask] == 0))

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
        total_positive=total[POSITIVE],
        total_negative=total[NEGATIVE],
        total_ignore=total[IGNORE],
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
