"""Label assignment rule, metric wiring, and bucketed statistics."""

import csv
import io
import json
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
    Metric,
    assign,
    accumulate,
    assign_with_metric,
    assignment_stats,
    finalize,
    generate_anchors,
    iou_matrix,
    ps_matrix,
    report_to_dict,
    reports_to_csv,
    reports_to_json,
)
from smalldet import geometry
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
    for bad in (dict(pos_thr=True), dict(neg_thr=False), dict(min_pos_thr=True)):
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
        assignment_stats([result], [[100.0]], DEFAULT, Metric.PS)
    assert make([], []).positives_per_gt(0).tolist() == []


def test_stats_empty_and_single_gt():
    empty = assignment_stats([], [], DEFAULT, Metric.PS)
    assert empty.total_anchors == 0
    assert all(b.gt_count == 0 and b.mean_positives_per_gt is None for b in empty.buckets)

    result = assign(np.array([[0.9, 0.95, 0.1]]), DEFAULT)
    report = assignment_stats([result], [np.array([100.0])], DEFAULT, Metric.PS)
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
    report = assignment_stats(results, areas, DEFAULT, Metric.IOU)

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

    pooled_report = assignment_stats([pooled], [[400.0]], DEFAULT, Metric.PS)
    split_report = assignment_stats([split], [[400.0]], DEFAULT, Metric.PS)
    # Splitting changes the rescue outcome per level, not the bookkeeping:
    # the split run rescues one anchor per level.
    assert pooled_report.buckets[0].mean_positives_per_gt == 1.0
    assert split_report.buckets[0].mean_positives_per_gt == 2.0
    assert split_report.total_anchors == pooled_report.total_anchors == 3


def random_image_results(rng, images=7):
    """Per-image results and gt areas; every third image is split per level."""
    results, areas = [], []
    for i in range(images):
        num_gts = int(rng.integers(0, 4))
        parts = [assign(rng.uniform(size=(num_gts, 20)), DEFAULT) for _ in range(1 + (i % 3 == 0))]
        results.append(parts if len(parts) > 1 else parts[0])
        areas.append(rng.uniform(10, 20000, size=num_gts))
    return results, areas


def test_stats_over_a_generator_equals_stats_over_a_list():
    results, areas = random_image_results(np.random.default_rng(38))
    assert any(isinstance(r, list) for r in results)
    from_list = assignment_stats(results, areas, DEFAULT, Metric.PS)
    from_stream = assignment_stats(iter(results), iter(areas), DEFAULT, Metric.PS)
    assert from_stream == from_list
    assert from_list.total_anchors == 20 * sum(len(r) if isinstance(r, list) else 1 for r in results)


def test_stats_rejects_unequal_lengths_in_either_direction():
    results, areas = random_image_results(np.random.default_rng(39), images=3)
    for extra_results, extra_areas in ((results, areas[:2]), (results[:2], areas)):
        with pytest.raises(ValueError, match="gt area lists"):
            assignment_stats(extra_results, extra_areas, DEFAULT, Metric.PS)
        with pytest.raises(ValueError, match="gt area lists"):
            assignment_stats(iter(extra_results), iter(extra_areas), DEFAULT, Metric.PS)


def test_stats_rejects_bad_areas_naming_the_image():
    results, areas = random_image_results(np.random.default_rng(40), images=3)
    num_gts = len(areas[1])
    assert num_gts > 0
    for bad, match in (
        (np.full((num_gts, 1), 50.0), r"image 1 must be 1-d, got shape"),
        (np.array(5.0), r"image 1 must be 1-d, got shape \(\)"),
        (np.full(num_gts, np.nan), r"image 1 must be finite and non-negative, got nan"),
        (np.full(num_gts, np.inf), r"image 1 must be finite and non-negative, got inf"),
        (np.full(num_gts, -5.0), r"image 1 must be finite and non-negative, got -5.0"),
    ):
        with pytest.raises(ValueError, match=match):
            assignment_stats(results, [areas[0], bad, areas[2]], DEFAULT, Metric.PS)


def test_stats_does_not_retain_results():
    refs = []

    def stream():
        for _ in range(4):
            # The report has folded the previous result and let it go.
            assert all(ref() is None for ref in refs)
            result = assign(np.array([[0.9, 0.2, 0.1]]), DEFAULT)
            refs.append(weakref.ref(result))
            yield result
            del result

    report = assignment_stats(stream(), [[100.0]] * 4, DEFAULT, Metric.PS)
    assert len(refs) == 4
    assert report.total_anchors == 12
    assert report.buckets[0].positive_anchors == 4

def test_stats_bucket_edges_and_names():
    report = assignment_stats([], [], DEFAULT, Metric.PS, bucket_edges=(4.0, 100.0))
    assert [b.name for b in report.buckets] == ["area<4", "4<=area<100", "area>=100"]
    with pytest.raises(ValueError):
        assignment_stats([], [], DEFAULT, Metric.PS, bucket_edges=(100.0, 4.0))


def test_report_serialization_identical_numbers():
    rng = np.random.default_rng(34)
    results = [assign(rng.uniform(size=(3, 25)), DEFAULT)]
    areas = [np.array([50.0, 2000.0, 12000.0])]
    reports = [
        assignment_stats(results, areas, DEFAULT, metric)
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
