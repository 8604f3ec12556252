"""Label assignment rule, metric wiring, and bucketed statistics."""

import csv
import io
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from smalldet import (
    IGNORE,
    AnchorGridSpec,
    NormalizerAccumulator,
    NEGATIVE,
    POSITIVE,
    AssignResult,
    AssignThresholds,
    Box,
    DatasetNormalizers,
    ImageCounts,
    Metric,
    assign,
    accumulate,
    assign_with_metric,
    assignment_stats,
    count_with_metric,
    finalize,
    generate_anchors,
    iou_matrix,
    ps_matrix,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
)
from smalldet import geometry
from smalldet.assigner import _count_tiles, _matrix_tiles
import oracles
from oracles import assign_ref

DEFAULT = AssignThresholds()


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.gt_index, b.gt_index)
    np.testing.assert_array_equal(a.best_score, b.best_score)


def check_against_ref(scores, thr=DEFAULT):
    result = assign(scores, thr)
    labels, gt_index, best = assign_ref(
        scores, pos_thr=thr.pos_thr, neg_thr=thr.neg_thr, min_pos_thr=thr.min_pos_thr
    )
    np.testing.assert_array_equal(result.labels, labels)
    np.testing.assert_array_equal(result.gt_index, gt_index)
    np.testing.assert_array_equal(result.best_score, best)
    return result


def test_threshold_defaults_and_validation():
    assert (DEFAULT.pos_thr, DEFAULT.neg_thr, DEFAULT.min_pos_thr) == (0.7, 0.3, 0.3)
    with pytest.raises(ValueError):
        AssignThresholds(pos_thr=0.2, neg_thr=0.5)
    with pytest.raises(ValueError):
        AssignThresholds(pos_thr=0.0)
    with pytest.raises(ValueError):
        AssignThresholds(neg_thr=1.0)
    with pytest.raises(ValueError):
        AssignThresholds(min_pos_thr=1.5)
    for bad in (dict(pos_thr=True), dict(neg_thr=False), dict(min_pos_thr=True),
                dict(pos_thr=10**400), dict(min_pos_thr=10**400)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AssignThresholds(**bad)


def test_assign_no_gts_all_negative():
    result = assign(np.zeros((0, 5)), DEFAULT)
    np.testing.assert_array_equal(result.labels, [NEGATIVE] * 5)
    np.testing.assert_array_equal(result.gt_index, [-1] * 5)
    np.testing.assert_array_equal(result.best_score, [0.0] * 5)


def test_assign_single_perfect_match():
    result = assign([[1.0]], DEFAULT)
    assert result.labels[0] == POSITIVE
    assert result.gt_index[0] == 0
    assert result.best_score[0] == 1.0


def test_assign_worked_example():
    result = check_against_ref(np.array([[0.5, 0.2], [0.4, 0.6]]))
    np.testing.assert_array_equal(result.labels, [POSITIVE, POSITIVE])
    np.testing.assert_array_equal(result.gt_index, [0, 1])
    np.testing.assert_array_equal(result.best_score, [0.5, 0.6])


def test_rescue_collision_later_gt_wins():
    """Two gts sharing one anchor: the later rescue pass claims it."""
    result = check_against_ref(np.array([[0.9], [0.8]]))
    assert result.labels[0] == POSITIVE
    assert result.gt_index[0] == 1


def test_rescue_collision_leaves_earlier_gt_without_positive():
    """The documented gap in the coverage guarantee, pinned as-is.

    Both gts have anchor 0 as their best anchor. gt 0 clears even pos_thr
    there (IoU 90/110), but gt 1 (IoU 70/130) rescues it last and keeps
    it, so gt 0 ends with no positive although its best score is >= 0.3.
    """
    gts = [Box(21, 20, 10, 10), Box(17, 20, 10, 10)]
    anchors = [Box(20, 20, 10, 10), Box(80, 80, 10, 10)]
    scores = iou_matrix(gts, anchors)
    assert scores[0].max() >= DEFAULT.pos_thr and scores[1].max() >= DEFAULT.min_pos_thr
    result = assign_with_metric(gts, anchors, None, DEFAULT, Metric.IOU)
    assert_same_result(result, check_against_ref(scores))
    np.testing.assert_array_equal(result.gt_index, [1, -1])
    np.testing.assert_array_equal(result.positives_per_gt(2), [0, 1])


def test_column_tie_breaks_to_lowest_gt_then_rescue_overrides():
    result = check_against_ref(np.array([[0.8], [0.8]]))
    # Step 3 assigns gt 0 (lowest index on the tie); gt 1's rescue then takes over.
    assert result.gt_index[0] == 1


def test_row_tie_rescues_lowest_anchor():
    result = check_against_ref(np.array([[0.4, 0.4]]))
    np.testing.assert_array_equal(result.labels, [POSITIVE, IGNORE])
    np.testing.assert_array_equal(result.gt_index, [0, -1])


def test_band_is_ignored_without_rescue():
    scores = np.array([[0.65, 0.5, 0.1]])
    result = check_against_ref(scores)
    # Anchor 0 is the row argmax and rescued; anchor 1 stays in the band.
    np.testing.assert_array_equal(result.labels, [POSITIVE, IGNORE, NEGATIVE])


def test_assign_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(200):
        num_gts = int(rng.integers(0, 9))
        num_anchors = int(rng.integers(1, 65))
        scores = rng.uniform(size=(num_gts, num_anchors))
        if num_gts and rng.uniform() < 0.3:
            scores = np.round(scores, 1)  # force exact ties
        check_against_ref(scores)


def test_assign_rejects_non_finite():
    with pytest.raises(ValueError):
        assign(np.array([[0.5, float("nan")]]), DEFAULT)
    with pytest.raises(ValueError):
        assign(np.array([[float("inf")]]), DEFAULT)


def test_assign_with_metric_trivial_cases():
    norm = DatasetNormalizers(1.0, 1.0)
    box = Box(10, 10, 4, 4)
    ps_result = assign_with_metric([box], [box], norm, DEFAULT, Metric.PS)
    assert ps_result.labels[0] == POSITIVE

    far = Box(500, 500, 4, 4)
    iou_result = assign_with_metric([box], [far], None, DEFAULT, Metric.IOU)
    assert iou_result.labels[0] == NEGATIVE


def test_assign_with_metric_composes():
    rng = np.random.default_rng(32)
    gts = [Box(*rng.uniform(5, 50, size=2), *rng.uniform(1, 20, size=2)) for _ in range(6)]
    anchors = [Box(*rng.uniform(5, 50, size=2), *rng.uniform(1, 20, size=2)) for _ in range(40)]
    norm = DatasetNormalizers(0.8, 1.1)

    via_metric = assign_with_metric(gts, anchors, norm, DEFAULT, "ps")
    direct = assign(ps_matrix(gts, anchors, norm), DEFAULT)
    np.testing.assert_array_equal(via_metric.labels, direct.labels)
    np.testing.assert_array_equal(via_metric.gt_index, direct.gt_index)
    np.testing.assert_array_equal(via_metric.best_score, direct.best_score)

    via_iou = assign_with_metric(gts, anchors, None, DEFAULT, Metric.IOU)
    direct_iou = assign(iou_matrix(gts, anchors), DEFAULT)
    np.testing.assert_array_equal(via_iou.labels, direct_iou.labels)


def test_streaming_ties_resolve_to_lowest_index(monkeypatch):
    # One gt row per block, so the duplicate gts are scored in different blocks.
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 1)
    box = Box(20, 20, 8, 8)
    gts = [box, box]
    anchors = [Box(60, 60, 8, 8), box, box, Box(22, 20, 8, 8)]
    norm = DatasetNormalizers(1.0, 1.0)
    # Anchors 1 and 2 score 1.0 for both gts, so step 3 matches both to gt 0.
    # Each gt's best anchor is anchor 1, the lower of its tied pair; gt 1
    # rescues it last and keeps it. Anchor 3 (PS 0.88, IoU 0.6) ties too.
    ps = assign_with_metric(gts, anchors, norm, DEFAULT, Metric.PS)
    np.testing.assert_array_equal(ps.gt_index, [-1, 1, 0, 0])
    assert_same_result(ps, check_against_ref(ps_matrix(gts, anchors, norm)))
    iou_result = assign_with_metric(gts, anchors, None, DEFAULT, Metric.IOU)
    np.testing.assert_array_equal(iou_result.labels, [NEGATIVE, POSITIVE, POSITIVE, IGNORE])
    np.testing.assert_array_equal(iou_result.gt_index, [-1, 1, 0, -1])
    assert_same_result(iou_result, check_against_ref(iou_matrix(gts, anchors)))


# One, two and three gt rows per block over five anchors.
FOLD_BLOCKS = [5, 10, None]


@pytest.mark.parametrize("block_pairs", FOLD_BLOCKS)
def test_fold_tie_across_blocks_keeps_lowest_gt(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    # Anchor 1 ties at 0.9 between gt 1 and gt 2, which sit in different
    # blocks unless all rows share one. Each gt's own best anchor is
    # elsewhere, so no rescue touches anchor 1.
    scores = np.array(
        [
            [0.10, 0.80, 0.95, 0.10, 0.10],
            [0.10, 0.90, 0.20, 0.10, 0.97],
            [0.10, 0.90, 0.20, 0.96, 0.10],
        ]
    )
    result = check_against_ref(scores)
    np.testing.assert_array_equal(result.labels, [NEGATIVE] + [POSITIVE] * 4)
    np.testing.assert_array_equal(result.gt_index, [-1, 1, 0, 2, 1])


@pytest.mark.parametrize("block_pairs", FOLD_BLOCKS)
def test_fold_later_gt_beats_an_earlier_positive(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    # Anchor 0 reaches pos_thr for gt 0 first, then gt 1 and gt 2 beat it
    # in turn; anchor 1 is positive for gt 0 alone.
    scores = np.array(
        [
            [0.75, 0.72, 0.99, 0.10, 0.10],
            [0.80, 0.10, 0.10, 0.98, 0.10],
            [0.85, 0.10, 0.10, 0.10, 0.97],
        ]
    )
    result = check_against_ref(scores)
    np.testing.assert_array_equal(result.gt_index, [2, 0, 0, 1, 2])
    np.testing.assert_array_equal(result.best_score, [0.85, 0.72, 0.99, 0.98, 0.97])


def test_fold_image_without_a_score_at_pos_thr():
    # Only the rescue makes positives: gt 0 claims anchor 2, gt 1 anchor 1.
    result = check_against_ref(np.array([[0.5, 0.2, 0.65, 0.1], [0.1, 0.69, 0.3, 0.2]]))
    np.testing.assert_array_equal(result.labels, [IGNORE, POSITIVE, POSITIVE, NEGATIVE])
    np.testing.assert_array_equal(result.gt_index, [-1, 1, 0, -1])
    # Below the rescue floor too: every anchor is negative and unmatched.
    low = check_against_ref(np.array([[0.1, 0.2, 0.29], [0.0, 0.25, 0.1]]))
    np.testing.assert_array_equal(low.labels, [NEGATIVE] * 3)
    np.testing.assert_array_equal(low.gt_index, [-1] * 3)
    # A row whose max is exactly pos_thr does match: anchor 0 through the
    # rescue, anchor 1 through the fold.
    edge = check_against_ref(np.array([[0.7, 0.7, 0.1]]))
    np.testing.assert_array_equal(edge.gt_index, [0, 0, -1])
    norm = DatasetNormalizers(1.0, 1.0)
    for metric in Metric:
        far = assign_with_metric([Box(10, 10, 4, 4)], [Box(300, 300, 4, 4)], norm, DEFAULT, metric)
        assert far.labels.tolist() == [NEGATIVE]
        assert far.gt_index.tolist() == [-1]


def test_rescue_overrides_a_band_label_and_a_fold_match():
    # Anchor 0 is in the band (0.6) and gt 0's best: rescued to gt 0.
    # Anchor 1 is positive for gt 1 by the fold (0.9), but it is also
    # gt 2's best anchor (0.8), so gt 2's rescue takes it over.
    result = check_against_ref(np.array([[0.6, 0.1, 0.1], [0.1, 0.9, 0.1], [0.1, 0.8, 0.2]]))
    np.testing.assert_array_equal(result.labels, [POSITIVE, POSITIVE, NEGATIVE])
    np.testing.assert_array_equal(result.gt_index, [0, 2, -1])


@pytest.mark.parametrize("block_pairs", [37, 74, None])
def test_fold_keeps_the_earliest_rows_signed_zero(monkeypatch, block_pairs):
    """best_score keeps the bits of the earliest row that reaches the max.

    With a strict > fold, -0.0 and +0.0 do not replace each other, so a
    column whose max is zero keeps the sign of its first zero. The rows
    are long enough for vector loops and their tails.
    """
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(38)
    scores = rng.choice([-0.0, 0.0, -0.5], size=(4, 37))
    scores[:, :2] = [[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]
    result = assign(scores, DEFAULT)
    _, _, best = assign_ref(scores)
    assert np.signbit(result.best_score[:2]).tolist() == [True, False]
    np.testing.assert_array_equal(result.best_score.view(np.int64), np.array(best).view(np.int64))
    np.testing.assert_array_equal(result.labels, [NEGATIVE] * 37)


def test_streaming_zero_gts_and_zero_anchors():
    norm = DatasetNormalizers(1.0, 1.0)
    anchors = [Box(5, 5, 4, 4), Box(9, 5, 4, 4), Box(30, 30, 8, 8)]
    no_anchors = np.empty((0, 4))
    for metric in Metric:
        none = assign_with_metric([], anchors, norm, DEFAULT, metric)
        np.testing.assert_array_equal(none.labels, [NEGATIVE] * 3)
        np.testing.assert_array_equal(none.gt_index, [-1] * 3)
        np.testing.assert_array_equal(none.best_score, [0.0] * 3)
        assert assign_with_metric(anchors[:1], no_anchors, norm, DEFAULT, metric).num_anchors == 0
        assert assign_with_metric([], no_anchors, norm, DEFAULT, metric).num_anchors == 0
    assert ps_matrix([], anchors, norm).shape == (0, 3)
    assert iou_matrix(anchors, no_anchors).shape == (3, 0)
    assert assign(np.empty((2, 0)), DEFAULT).num_anchors == 0


def test_streaming_rejects_non_finite_scores():
    # An offset that overflows to inf times m = n = 0 is NaN.
    far = [Box(1e308, 0, 1, 1)]
    near = [Box(-1e308, 0, 1, 1)]
    zero = DatasetNormalizers(0.0, 0.0)
    # A box whose area overflows to inf has a NaN IoU with itself.
    huge = [Box(0, 0, 1.7e308, 1.7e308)]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            assign_with_metric(far, near, zero, DEFAULT, Metric.PS)
        with pytest.raises(ValueError, match="non-finite"):
            assign(ps_matrix(far, near, zero), DEFAULT)
        with pytest.raises(ValueError, match="non-finite"):
            assign_with_metric(huge, huge, None, DEFAULT, Metric.IOU)


def test_streaming_gt_count_not_divisible_by_block(monkeypatch):
    rng = np.random.default_rng(35)
    gts = np.column_stack([rng.uniform(5, 50, (7, 2)), rng.uniform(1, 20, (7, 2))])
    anchors = np.column_stack([rng.uniform(5, 50, (50, 2)), rng.uniform(1, 20, (50, 2))])
    norm = DatasetNormalizers(0.8, 1.1)
    one_block = {m: assign_with_metric(gts, anchors, norm, DEFAULT, m) for m in Metric}
    one_block_ps = ps_matrix(gts, anchors, norm)

    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 3 * 50)
    blocks = [(rows.start, rows.stop) for rows in geometry.row_blocks(7, 50)]
    assert blocks == [(0, 3), (3, 6), (6, 7)]
    for metric in Metric:
        blocked = assign_with_metric(gts, anchors, norm, DEFAULT, metric)
        assert_same_result(blocked, one_block[metric])
    np.testing.assert_array_equal(ps_matrix(gts, anchors, norm), one_block_ps)
    check_against_ref(one_block_ps)
    assert_same_result(one_block[Metric.PS], assign(one_block_ps, DEFAULT))


@pytest.mark.parametrize("block_pairs", [None, 1000])
def test_assign_with_metric_matches_matrix_path_per_level(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    anchor_set = generate_anchors(
        AnchorGridSpec(
            levels=((8.0, 8.0), (16.0, 16.0), (32.0, 32.0)),
            image_w=128.0,
            image_h=96.0,
            ratios=(0.5, 1.0, 2.0),
            scales=(1.0, 2.0),
        )
    )
    rng = np.random.default_rng(36)
    gts = np.column_stack([rng.uniform(0, 128, (9, 2)), rng.uniform(2, 40, (9, 2))])
    norm = finalize(accumulate(NormalizerAccumulator(), gts, anchor_set))
    for boxes in anchor_set.level_sets:
        assert_same_result(
            assign_with_metric(gts, boxes, norm, DEFAULT, Metric.PS),
            check_against_ref(ps_matrix(gts, boxes, norm)),
        )
        assert_same_result(
            assign_with_metric(gts, boxes, None, DEFAULT, Metric.IOU),
            check_against_ref(iou_matrix(gts, boxes)),
        )


def test_anchor_set_is_read_only_and_scores_like_a_writable_copy():
    anchor_set = generate_anchors(
        AnchorGridSpec(
            levels=((8.0, 8.0), (16.0, 16.0)),
            image_w=96.0,
            image_h=64.0,
            ratios=(0.5, 1.0, 2.0),
            scales=(1.0, 2.0),
        )
    )
    assert not anchor_set.boxes.flags.writeable
    with pytest.raises(ValueError):
        anchor_set.boxes[0, 0] = 1.0
    assert anchor_set.corners is anchor_set.corners
    assert not anchor_set.corners.flags.writeable
    copy = np.array(anchor_set.boxes, order="C")
    assert copy.flags.writeable

    rng = np.random.default_rng(37)
    gts = np.column_stack([rng.uniform(0, 96, (5, 2)), rng.uniform(2, 40, (5, 2))])
    norm = finalize(accumulate(NormalizerAccumulator(), gts, copy))
    # The set's per-axis tables give the same sums up to rounding.
    from_set = accumulate(NormalizerAccumulator(), gts, anchor_set)
    from_copy = accumulate(NormalizerAccumulator(), gts, copy)
    assert from_set.pair_count == from_copy.pair_count
    assert from_set.sum_x == pytest.approx(from_copy.sum_x, rel=1e-12, abs=0)
    assert from_set.sum_y == pytest.approx(from_copy.sum_y, rel=1e-12, abs=0)
    for metric in Metric:
        assert_same_result(
            assign_with_metric(gts, anchor_set, norm, DEFAULT, metric),
            assign_with_metric(gts, copy, norm, DEFAULT, metric),
        )
    np.testing.assert_array_equal(ps_matrix(gts, anchor_set, norm), ps_matrix(gts, copy, norm))
    np.testing.assert_array_equal(iou_matrix(gts, anchor_set), iou_matrix(gts, copy))

def test_ps_metric_requires_normalizers():
    with pytest.raises(ValueError):
        assign_with_metric([Box(0, 0, 1, 1)], [Box(0, 0, 1, 1)], None, DEFAULT, Metric.PS)


def test_assign_result_validation_and_per_gt_counts():
    def make(labels, gt_index):
        return AssignResult(
            labels=np.array(labels, dtype=np.int8),
            gt_index=np.array(gt_index, dtype=np.int64),
            best_score=np.zeros(len(labels)),
        )

    for labels in ([2, 0], [0, -2]):
        with pytest.raises(ValueError, match="only POSITIVE/NEGATIVE/IGNORE codes"):
            make(labels, [-1, -1])
    for labels, gt_index in (
        ([NEGATIVE], [2]),  # matched but not positive
        ([POSITIVE], [-1]),  # positive but unmatched
        ([IGNORE, POSITIVE], [-2, 0]),  # below -1 off the positives
        ([POSITIVE, NEGATIVE], [0, -5]),
    ):
        with pytest.raises(ValueError, match="set exactly where the label is positive"):
            make(labels, gt_index)
    with pytest.raises(ValueError, match="1-d and equal length"):
        make([NEGATIVE, NEGATIVE], [-1])
    result = assign(np.array([[0.9, 0.8, 0.1], [0.2, 0.3, 0.95]]), DEFAULT)
    counts = result.positives_per_gt(2)
    assert counts.sum() == int(np.count_nonzero(result.labels == POSITIVE))
    np.testing.assert_array_equal(counts, [2, 1])
    with pytest.raises(ValueError, match="result references gt 1 but only 1 gts were given"):
        result.positives_per_gt(1)
    with pytest.raises(ValueError, match="result references gt 1 but only 1 gts were given"):
        result.counts([100.0])
    assert make([], []).positives_per_gt(0).tolist() == []


def test_stats_empty_and_single_gt():
    empty = assignment_stats([], DEFAULT, Metric.PS)
    assert empty.total_anchors == 0
    assert all(b.gt_count == 0 and b.mean_positives_per_gt is None for b in empty.buckets)

    result = assign(np.array([[0.9, 0.95, 0.1]]), DEFAULT)
    report = assignment_stats([result.counts(np.array([100.0]))], DEFAULT, Metric.PS)
    small = report.buckets[0]
    assert small.name == "area<1024"
    assert small.gt_count == 1
    assert small.mean_positives_per_gt == 2.0
    assert small.gts_without_positive == 0
    assert report.total_positive + report.total_negative + report.total_ignore == 3


def test_stats_totals_match_recount():
    rng = np.random.default_rng(33)
    results = []
    areas = []
    for _ in range(6):
        num_gts = int(rng.integers(1, 5))
        scores = rng.uniform(size=(num_gts, 30))
        results.append(assign(scores, DEFAULT))
        areas.append(rng.uniform(10, 20000, size=num_gts))
    report = assignment_stats([r.counts(a) for r, a in zip(results, areas)], DEFAULT, Metric.IOU)

    positives = sum(int(np.count_nonzero(r.labels == POSITIVE)) for r in results)
    anchors = sum(r.labels.shape[0] for r in results)
    assert report.total_positive == positives
    assert report.total_anchors == anchors
    assert sum(b.gt_count for b in report.buckets) == sum(len(a) for a in areas)
    assert sum(b.positive_anchors for b in report.buckets) == positives


def test_stats_accepts_per_level_result_lists():
    scores_a = np.array([[0.5, 0.1]])
    scores_b = np.array([[0.4]])
    pooled = assign(np.array([[0.5, 0.1, 0.4]]), DEFAULT)
    split = [assign(scores_a, DEFAULT), assign(scores_b, DEFAULT)]

    # Per-level parts of one image enter the report as one summed record.
    pooled_report = assignment_stats([pooled.counts([400.0])], DEFAULT, Metric.PS)
    split_report = assignment_stats([split[0].counts([400.0]) + split[1].counts([400.0])], DEFAULT, Metric.PS)
    # Splitting changes the rescue outcome per level, not the bookkeeping:
    # the split run rescues one anchor per level.
    assert pooled_report.buckets[0].mean_positives_per_gt == 1.0
    assert split_report.buckets[0].mean_positives_per_gt == 2.0
    assert split_report.total_anchors == pooled_report.total_anchors == 3


def random_image_counts(rng, images=7):
    """One ImageCounts per image; every third image sums two per-level parts."""
    records = []
    for i in range(images):
        num_gts = int(rng.integers(0, 4))
        areas = rng.uniform(10, 20000, size=num_gts)
        parts = [assign(rng.uniform(size=(num_gts, 20)), DEFAULT).counts(areas) for _ in range(1 + (i % 3 == 0))]
        records.append(sum(parts[1:], parts[0]))
    return records


def test_stats_over_a_generator_equals_stats_over_a_list():
    records = random_image_counts(np.random.default_rng(38))
    from_list = assignment_stats(records, DEFAULT, Metric.PS)
    from_stream = assignment_stats(iter(records), DEFAULT, Metric.PS)
    assert from_stream == from_list
    # Images 0, 3 and 6 hold two parts of 20 anchors each.
    assert from_list.total_anchors == 20 * (7 + 3)


def test_image_counts_rejects_bad_areas():
    for bad, match in (
        (np.full((2, 1), 50.0), r"gt areas must be 1-d, got shape \(2, 1\)"),
        (np.array(5.0), r"gt areas must be 1-d, got shape \(\)"),
        (np.full(2, np.nan), r"gt areas must be finite and non-negative, got nan"),
        (np.full(2, np.inf), r"gt areas must be finite and non-negative, got inf"),
        (np.full(2, -5.0), r"gt areas must be finite and non-negative, got -5.0"),
    ):
        with pytest.raises(ValueError, match=match):
            ImageCounts(bad, np.array([1, 0]), 3, 6)
        # A result's record is checked the same way.
        with pytest.raises(ValueError, match=match):
            assign(np.array([[0.9, 0.1], [0.1, 0.2]]), DEFAULT).counts(bad)


def test_image_counts_sum_only_the_same_image():
    # Two records over different gts used to broadcast their per-gt counts
    # (1 gt against 3): a report over the sum showed 3 positive anchors in
    # the bucket but total_positive 1.
    one = ImageCounts(np.array([50.0]), np.array([1]), 0, 5)
    three = ImageCounts(np.array([50.0, 60.0, 70.0]), np.array([0, 0, 0]), 2, 5)
    with pytest.raises(ValueError, match="gt areas differ"):
        one + three
    with pytest.raises(ValueError, match="gt areas differ"):
        one + ImageCounts(np.array([51.0]), np.array([0]), 2, 5)
    both = one + ImageCounts(np.array([50.0]), np.array([2]), 2, 5)
    assert (both.positives_per_gt.tolist(), both.positive, both.negative, both.anchors) == ([3], 3, 2, 10)


def test_image_counts_rejects_counts_that_do_not_add_up():
    # ImageCounts([-4, 9] per gt, 5 positive, -3 negative, 2 anchors) used
    # to report total_negative = -3.
    areas = np.array([10.0, 20.0])
    for per_gt, negative, anchors, match in (
        ([-4, 9], -3, 2, "non-negative integers"),
        ([-4, 9], 0, 9, "non-negative integers"),
        ([1.0, 2.0], 0, 9, "non-negative integers"),
        ([True, False], 0, 9, "non-negative integers"),
        ([1, 2], -3, 9, "negative anchors must be in"),
        ([1, 2], 7, 9, r"got 7 of 9 anchors with 3 positive"),
        ([4, 9], 0, 2, r"got 0 of 2 anchors with 13 positive"),
        ([1], 0, 9, "counts cover 1 gts but there are 2 gt areas"),
    ):
        with pytest.raises(ValueError, match=match):
            ImageCounts(areas, np.array(per_gt), negative, anchors)
    with pytest.raises(ValueError, match="negative must be an integer"):
        ImageCounts(areas, np.array([1, 2]), 1.5, 9)
    record = ImageCounts([10.0, 20.0], [1, 2], 6, 9)
    assert record.positives_per_gt.dtype == np.int64 and record.gt_areas.dtype == np.float64
    assert (record.positive, record.negative, record.anchors) == (3, 6, 9)
    assert ImageCounts([], [], 0, 0).positive == 0


def test_stats_rejects_entries_that_are_not_image_counts():
    result = assign(np.array([[0.9, 0.1]]), DEFAULT)
    good = result.counts([100.0])
    for bad in (object(), [], [result], result, (good,)):
        with pytest.raises(ValueError, match=rf"entry 1 of counts is a {type(bad).__name__}, not an ImageCounts"):
            assignment_stats([good, bad], DEFAULT, Metric.PS)


def test_stats_does_not_retain_results():
    refs = []

    def stream():
        for _ in range(4):
            # The report has folded the previous result and let it go.
            assert all(ref() is None for ref in refs)
            record = assign(np.array([[0.9, 0.2, 0.1]]), DEFAULT).counts([100.0])
            refs.append(weakref.ref(record))
            yield record
            del record

    report = assignment_stats(stream(), DEFAULT, Metric.PS)
    assert len(refs) == 4
    assert report.total_anchors == 12
    assert report.buckets[0].positive_anchors == 4

def test_stats_bucket_edges_and_names():
    report = assignment_stats([], DEFAULT, Metric.PS, bucket_edges=(4.0, 100.0))
    assert [b.name for b in report.buckets] == ["area<4", "4<=area<100", "area>=100"]
    with pytest.raises(ValueError):
        assignment_stats([], DEFAULT, Metric.PS, bucket_edges=(100.0, 4.0))


def test_report_serialization_identical_numbers():
    rng = np.random.default_rng(34)
    counts = [assign(rng.uniform(size=(3, 25)), DEFAULT).counts(np.array([50.0, 2000.0, 12000.0]))]
    reports = [
        assignment_stats(counts, DEFAULT, metric)
        for metric in (Metric.PS, Metric.IOU)
    ]

    payload = json.loads(reports_to_json(reports))
    assert payload["schema_version"] == 1
    assert [r["metric"] for r in payload["reports"]] == ["ps", "iou"]

    rows = list(csv.DictReader(io.StringIO(reports_to_csv(reports))))
    assert len(rows) == 2 * 3
    for row in rows:
        report = next(r for r in payload["reports"] if r["metric"] == row["metric"])
        bucket = next(b for b in report["buckets"] if b["name"] == row["bucket"])
        assert int(row["gt_count"]) == bucket["gt_count"]
        assert int(row["positive_anchors"]) == bucket["positive_anchors"]
        mean = bucket["mean_positives_per_gt"]
        if mean is None:
            assert row["mean_positives_per_gt"] == ""
        else:
            assert float(row["mean_positives_per_gt"]) == mean

    as_dict = report_to_dict(reports[0])
    assert as_dict["totals"]["anchors"] == reports[0].total_anchors


def count_matrix(scores, thr=DEFAULT):
    """The counting sink's record of assign(scores), from the same fold."""
    scores = np.asarray(scores, dtype=np.float64)
    areas = np.linspace(100.0, 20000.0, scores.shape[0])
    return _count_tiles(_matrix_tiles(scores), areas, scores.shape[1], thr, -np.inf)


def assert_counts_match(counts, result, num_gts):
    np.testing.assert_array_equal(counts.positives_per_gt, result.positives_per_gt(num_gts))
    assert counts.positive == int(np.count_nonzero(result.labels == POSITIVE))
    assert counts.negative == int(np.count_nonzero(result.labels == NEGATIVE))
    assert counts.anchors == result.num_anchors
    assert assignment_stats([counts], DEFAULT, Metric.PS) == assignment_stats(
        [result.counts(counts.gt_areas)], DEFAULT, Metric.PS
    )


# Three anchors per tile over six anchors, one anchor per tile, or one tile.
TILE_BUDGETS = [3, 1, None]


@pytest.mark.parametrize("block_pairs", TILE_BUDGETS)
def test_tile_ties_keep_the_lowest_anchor_and_the_lowest_gt(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    # gt 0 reaches 0.9 in both tiles (anchors 1 and 4) and gt 2 reaches
    # 0.5 in both (anchors 2 and 5): each rescues the lower anchor. Anchor
    # 4 ties at 0.9 between gt 0 and gt 1, whose own best is anchor 3, so
    # the fold matches it to gt 0 and no rescue touches it.
    scores = np.array(
        [
            [0.1, 0.9, 0.1, 0.1, 0.9, 0.1],
            [0.1, 0.1, 0.1, 0.95, 0.9, 0.1],
            [0.1, 0.1, 0.5, 0.1, 0.1, 0.5],
        ]
    )
    result = check_against_ref(scores)
    np.testing.assert_array_equal(result.gt_index, [-1, 0, 2, 1, 0, -1])
    np.testing.assert_array_equal(result.labels, [NEGATIVE, POSITIVE, POSITIVE, POSITIVE, POSITIVE, IGNORE])
    assert_counts_match(count_matrix(scores), result, 3)


@pytest.mark.parametrize("block_pairs", TILE_BUDGETS)
def test_rescue_collision_across_tiles(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    # Both gts have their runner-up in the first tile and their best on
    # anchor 4 in the second. gt 0 holds anchor 4 by the fold (0.8), then
    # gt 1 rescues it last and keeps it: gt 0 ends with no positive.
    scores = np.array(
        [
            [0.6, 0.1, 0.1, 0.1, 0.8, 0.1],
            [0.1, 0.1, 0.65, 0.1, 0.75, 0.1],
        ]
    )
    result = check_against_ref(scores)
    np.testing.assert_array_equal(result.gt_index, [-1, -1, -1, -1, 1, -1])
    np.testing.assert_array_equal(result.positives_per_gt(2), [0, 1])
    counts = count_matrix(scores)
    np.testing.assert_array_equal(counts.positives_per_gt, [0, 1])
    assert_counts_match(counts, result, 2)


@pytest.mark.parametrize("block_pairs", TILE_BUDGETS)
def test_rescue_takes_a_positive_from_another_gt_across_tiles(monkeypatch, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    # Anchor 0 is positive for gt 0 by the fold (0.9). gt 1 reaches 0.8 on
    # anchors 0 and 3, in different tiles; its rescue takes the lower,
    # anchor 0, from gt 0, whose own rescue stays on anchor 5. The count
    # of gt 0's positive on anchor 0 is undone, then redone for gt 1.
    scores = np.array(
        [
            [0.9, 0.1, 0.1, 0.1, 0.1, 0.95],
            [0.8, 0.1, 0.1, 0.8, 0.1, 0.1],
        ]
    )
    result = check_against_ref(scores)
    np.testing.assert_array_equal(result.gt_index, [1, -1, -1, 1, -1, 0])
    counts = count_matrix(scores)
    np.testing.assert_array_equal(counts.positives_per_gt, [1, 2])
    assert (counts.positive, counts.negative) == (3, 3)
    assert_counts_match(counts, result, 2)
    # A rescue of a negative or ignored anchor adds a positive instead.
    band = np.array([[0.5, 0.1, 0.1, 0.2, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1, 0.35, 0.1]])
    low = AssignThresholds(0.7, 0.4, 0.3)
    band_counts = count_matrix(band, low)
    assert (band_counts.positive, band_counts.negative) == (2, 4)
    assert_counts_match(band_counts, check_against_ref(band, low), 2)


@pytest.mark.parametrize("block_pairs", [1, 2, 5])
def test_non_finite_score_in_a_later_tile_raises(monkeypatch, block_pairs):
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    scores = np.full((2, 6), 0.5)
    scores[1, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        assign(scores, DEFAULT)
    with pytest.raises(ValueError, match="non-finite"):
        count_matrix(scores)
    # Through a metric: only the last anchor is far enough off for its
    # offset to overflow, and m = n = 0 turns inf into NaN.
    anchors = np.array([[0.0, 0.0, 1.0, 1.0]] * 5 + [[-1e308, 0.0, 1.0, 1.0]])
    gts = np.array([[1e308, 0.0, 1.0, 1.0]])
    zero = DatasetNormalizers(0.0, 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            assign_with_metric(gts, anchors, zero, DEFAULT, Metric.PS)
        with pytest.raises(ValueError, match="non-finite"):
            count_with_metric(gts, anchors, zero, DEFAULT, Metric.PS)


GRID_LAYOUTS = {
    "one level": dict(levels=((8.0, 8.0),), ratios=(0.5, 1.0, 2.0), scales=(2.0, 4.0)),
    "three levels": dict(levels=((4.0, 8.0), (8.0, 16.0), (16.0, 32.0)), ratios=(0.5, 2.0), scales=(1.0, 2.0)),
}


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("layout", sorted(GRID_LAYOUTS))
# The levels of the 150x90 image hold 6 to 23 rows of 40 to 152 anchors.
# 803 anchors cut 12 rows of 114 into 7 + 5 and 23 rows of 152 into four
# tiles of 5 and one of 3; 17 anchors are less than any row.
@pytest.mark.parametrize("block_pairs", [17, 7 * 114 + 5, None])
def test_tiled_grid_assignment_is_exact(monkeypatch, layout, clip, block_pairs):
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    anchors = generate_anchors(AnchorGridSpec(image_w=150.0, image_h=90.0, clip=clip, **GRID_LAYOUTS[layout]))
    if block_pairs is not None:
        assert len(list(geometry.anchor_tiles(anchors))) > anchors.num_levels
    rng = np.random.default_rng(41)
    gts = np.column_stack([rng.uniform(-10, 160, 9), rng.uniform(-10, 100, 9), rng.uniform(2, 60, (9, 2))])
    gts[5] = gts[2]  # a duplicate gt ties with an earlier one everywhere
    norm = finalize(accumulate(NormalizerAccumulator(), gts, anchors))
    for thr in (DEFAULT, AssignThresholds(0.5, 0.2, 0.1)):
        for part in (anchors, *anchors.level_sets):  # pooled, then --per-level
            for metric, scores in ((Metric.PS, ps_matrix(gts, part, norm)), (Metric.IOU, iou_matrix(gts, part))):
                result = assign_with_metric(gts, part, norm, thr, metric)
                labels, gt_index, best = assign_ref(
                    scores, pos_thr=thr.pos_thr, neg_thr=thr.neg_thr, min_pos_thr=thr.min_pos_thr
                )
                np.testing.assert_array_equal(result.labels, labels)
                np.testing.assert_array_equal(result.gt_index, gt_index)
                np.testing.assert_array_equal(result.best_score.view(np.int64), np.array(best).view(np.int64))
                counts = count_with_metric(gts, part, norm, thr, metric)
                assert_counts_match(counts, result, gts.shape[0])


def test_counting_sink_equals_stats_over_results_on_random_cases(monkeypatch):
    rng = np.random.default_rng(42)
    for case in range(30):
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", int(rng.choice([13, 97, 400, 1 << 16])))
        anchors = generate_anchors(AnchorGridSpec(
            levels=((6.0, 8.0), (12.0, 20.0))[: 1 + case % 2],
            image_w=float(rng.integers(20, 120)), image_h=float(rng.integers(20, 120)),
            ratios=(0.5, 1.0, 2.0), scales=(1.0, 2.5), clip=bool(case % 3 == 0)))
        num_gts = int(rng.integers(0, 7))
        gts = np.column_stack([rng.uniform(0, 120, (num_gts, 2)), rng.uniform(1, 50, (num_gts, 2))])
        norm = DatasetNormalizers(float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5)))
        thr = AssignThresholds(*sorted(rng.uniform(0.05, 0.9, 2))[::-1], float(rng.uniform(0, 0.6)))
        for metric in Metric:
            result = assign_with_metric(gts, anchors, norm, thr, metric)
            counts = count_with_metric(gts, anchors, norm, thr, metric)
            # count_with_metric takes each gt's area as w * h.
            np.testing.assert_array_equal(counts.gt_areas, gts[:, 2] * gts[:, 3])
            assert_counts_match(counts, result, num_gts)
        # Per-level: the records of the level sets sum like the results'.
        areas = gts[:, 2] * gts[:, 3]
        parts = [count_with_metric(gts, part, norm, thr, Metric.IOU) for part in anchors.level_sets]
        results = [assign_with_metric(gts, part, norm, thr, Metric.IOU).counts(areas) for part in anchors.level_sets]
        assert assignment_stats([sum(parts[1:], parts[0])], thr, Metric.IOU) == assignment_stats(
            [sum(results[1:], results[0])], thr, Metric.IOU
        )


def test_stats_checks_count_records_against_the_areas():
    # A record holds one count per gt area, so no report can pair the
    # counts of one image with the areas of another.
    counts = count_matrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert counts.gt_areas.shape == counts.positives_per_gt.shape == (2,)
    with pytest.raises(ValueError, match="counts cover 2 gts but there are 3 gt areas"):
        ImageCounts([1.0, 2.0, 3.0], counts.positives_per_gt, counts.negative, counts.anchors)


# The window fold reads each IoU tile only inside each gt's windows
# (geometry._iou_rows), and a PS row as one whole-tile window. The cases
# below put windows where that could go wrong; each is checked against
# the literal assignment steps on the full pairwise matrix, whose rows
# every fold once read whole.
def full_row_reference(gts, anchors, norm, thr, metric):
    boxes = np.array(anchors.boxes) if isinstance(anchors, geometry.AnchorSet) else anchors
    if metric is Metric.PS:
        scores = oracles.pair_ps_matrix(gts, boxes, norm)
    else:
        scores = oracles.pair_iou_matrix(gts, boxes)
    labels, gt_index, best = assign_ref(scores, pos_thr=thr.pos_thr, neg_thr=thr.neg_thr,
                                        min_pos_thr=thr.min_pos_thr)
    return scores, np.array(labels), np.array(gt_index), np.array(best, dtype=np.float64)


def check_window_fold(gts, anchors, norm, thresholds=(DEFAULT, AssignThresholds(0.5, 0.2, 0.0))):
    """Both sinks on the set and on each of its levels (--per-level) against
    the full-row reference, bit for bit; returns the pooled IoU result."""
    parts = [anchors, *anchors.level_sets] if isinstance(anchors, geometry.AnchorSet) else [anchors]
    pooled = {}
    for thr in thresholds:
        for part in parts:
            for metric in Metric:
                result = assign_with_metric(gts, part, norm, thr, metric)
                _, labels, gt_index, best = full_row_reference(gts, part, norm, thr, metric)
                np.testing.assert_array_equal(result.labels, labels)
                np.testing.assert_array_equal(result.gt_index, gt_index)
                np.testing.assert_array_equal(result.best_score.view(np.int64), best.view(np.int64))
                counts = count_with_metric(gts, part, norm, thr, metric)
                expected = result.counts(gts[:, 2] * gts[:, 3])
                np.testing.assert_array_equal(counts.positives_per_gt, expected.positives_per_gt)
                assert (counts.negative, counts.anchors) == (expected.negative, expected.anchors)
                pooled[thr, metric, part is anchors] = result
    return pooled[thresholds[-1], Metric.IOU, True]


def windows_of(gts, anchors):
    """Each gt's IoU windows, as (level start, values) pairs."""
    found = {g: [] for g in range(gts.shape[0])}
    for rows, windows in geometry._iou_rows(gts, anchors, lambda rows, shape: np.empty(shape)):
        for b, values, level, width, r, c in windows:
            found[rows.start + b].append((level.start, values.copy()))
    return found


@pytest.mark.parametrize("block_pairs", [None, 60, 7])
@pytest.mark.parametrize("clip", [False, True])
def test_window_fold_at_the_grid_edge_and_off_the_grid(monkeypatch, clip, block_pairs):
    # Two levels over a 60x44 image; 60 anchors cut level 0's rows into
    # tiles of one grid row and 7 into tiles of part of a row. The gts
    # cross each border and corner, one covers the image, and one lies
    # past every anchor's reach, so it has no window.
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    anchors = generate_anchors(AnchorGridSpec(levels=((8.0, 8.0), (24.0, 20.0)), image_w=60.0, image_h=44.0,
                                              ratios=(0.5, 1.0, 2.0), scales=(1.0, 2.0), clip=clip))
    gts = np.array([[0.0, 20.0, 10.0, 6.0], [60.0, 10.0, 8.0, 14.0], [30.0, 0.0, 12.0, 8.0],
                    [30.0, 44.0, 6.0, 6.0], [0.0, 0.0, 9.0, 9.0], [60.0, 44.0, 20.0, 11.0],
                    [30.0, 22.0, 80.0, 60.0], [-60.0, 22.0, 4.0, 4.0], [59.0, 43.0, 3.0, 2.0]])
    norm = finalize(accumulate(NormalizerAccumulator(), gts, anchors))
    found = windows_of(gts, anchors)
    assert not found[7] and all(found[g] for g in range(gts.shape[0]) if g != 7)
    result = check_window_fold(gts, anchors, norm)
    # The gt with no window scores 0 everywhere: under a zero min_pos_thr
    # it claims anchor 0, unless a later gt claims it too.
    assert result.gt_index[0] in (7, 8) and result.labels[0] == POSITIVE


def test_a_window_whose_maximum_is_zero_takes_anchor_0():
    # Wide (40 x 2.5) and tall (2.5 x 40) anchors on a 4x4 grid. The last
    # gt meets the columns of the wide anchors and the rows of the tall
    # ones, so its window is not empty, but no anchor meets it on both
    # axes: every IoU in the window is 0.
    anchors = generate_anchors(AnchorGridSpec(levels=((16.0, 10.0),), image_w=64.0, image_h=64.0,
                                              ratios=(1 / 16, 16.0)))
    gts = np.array([[8.0, 8.0, 20.0, 20.0], [16.0, 16.0, 2.0, 2.0]])
    values = windows_of(gts, anchors)[1]
    assert values and all(v.size and not np.any(v) for _, v in values)
    norm = finalize(accumulate(NormalizerAccumulator(), gts, anchors))
    result = check_window_fold(gts, anchors, norm)
    assert result.labels[0] == POSITIVE and result.gt_index[0] == 1


@pytest.mark.parametrize("block_pairs", [None, 4, 1])
def test_window_ties_keep_the_lowest_anchor_across_levels_and_tiles(monkeypatch, block_pairs):
    # Level 0 (stride 8) and level 1 (stride 24) both hold an 8x8 anchor
    # at (12, 12), so gt 0, which is that box, ties at 1.0 across levels.
    # gt 1 lies half way between the anchors of grid rows 0 and 1 of
    # level 0: it ties across tiles when a tile is one grid row (4
    # anchors) or one anchor. gt 2 repeats gt 0, so it ties with it on
    # every anchor.
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    anchors = generate_anchors(AnchorGridSpec(levels=((8.0, 8.0), (24.0, 8.0)), image_w=32.0, image_h=32.0))
    gts = np.array([[12.0, 12.0, 8.0, 8.0], [4.0, 8.0, 8.0, 8.0], [12.0, 12.0, 8.0, 8.0]])
    norm = DatasetNormalizers(0.5, 0.5)
    next_level = anchors.level_offsets[1][0]
    for metric in Metric:
        scores = full_row_reference(gts, anchors, norm, DEFAULT, metric)[0]
        assert np.flatnonzero(scores[0] == 1.0).tolist() == [5, next_level]
        assert np.flatnonzero(scores[1] == scores[1].max()).tolist() == [0, 4]
    result = check_window_fold(gts, anchors, norm)
    # Both tied anchors reach pos_thr and match gt 0, the lower of the tied
    # gts; gts 0 and 2 then rescue the lower anchor, and gt 2 claims it
    # last. gt 1 rescues the anchor of grid row 0.
    assert result.gt_index[5] == 2 and result.gt_index[next_level] == 0
    assert result.gt_index[0] == 1


def test_window_fold_on_plain_arrays():
    # A plain array is one cell whose window is all of it or none.
    rng = np.random.default_rng(27)
    anchors = np.column_stack([rng.uniform(0, 100, (300, 2)), rng.uniform(2, 40, (300, 2))])
    gts = np.concatenate([anchors[[3, 3, 17]], [[500.0, 500.0, 5.0, 5.0]],
                          np.column_stack([rng.uniform(0, 100, (5, 2)), rng.uniform(2, 40, (5, 2))])])
    found = windows_of(gts, anchors)
    assert [len(found[g]) for g in range(gts.shape[0])] == [1, 1, 1, 0, 1, 1, 1, 1, 1]
    check_window_fold(gts, anchors, DatasetNormalizers(0.8, 0.6))


def test_counting_a_dense_image_stays_within_one_tile_buffer():
    # The coco-dense-cold shape: the default CLI layout on a 1600x1600
    # image (90,000 anchors, two tiles) and 120 gts. Once this thread's
    # buffers exist, counting an image allocates less than one more tile
    # buffer of geometry._BLOCK_PAIRS float64 values (0.52 MB): 0.18-0.20
    # MB under PS and 0.21-0.24 MB under IoU, measured.
    anchors = generate_anchors(AnchorGridSpec(levels=((16.0, 16.0),), image_w=1600.0, image_h=1600.0,
                                              ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0)))
    rng = np.random.default_rng(5)
    side = rng.uniform(4.0, 300.0, 120)
    gts = np.column_stack([rng.uniform(0, 1600, (120, 2)), side * rng.uniform(0.7, 1.4, 120), side])
    norm = DatasetNormalizers(1.964, 1.949)
    for metric in Metric:
        first = count_with_metric(gts, anchors, norm, DEFAULT, metric)
        tracemalloc.start()
        try:
            again = count_with_metric(gts, anchors, norm, DEFAULT, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= geometry._BLOCK_PAIRS * 8, f"{metric.value}: {peak / 1e6:.2f} MB"
        np.testing.assert_array_equal(again.positives_per_gt, first.positives_per_gt)
        assert again.negative == first.negative
