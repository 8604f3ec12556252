"""Box arithmetic, IoU, and anchor grid generation."""

import math

import numpy as np
import pytest

from smalldet import (
    AnchorGridSpec,
    Box,
    boxes_to_array,
    from_topleft,
    generate_anchors,
    iou,
    iou_matrix,
    make_box,
)
from oracles import iou_grid_sample, iou_ref


def random_boxes(rng, count, span=100.0, side_lo=0.5, side_hi=20.0):
    out = []
    for _ in range(count):
        out.append(
            Box(
                float(rng.uniform(-span, span)),
                float(rng.uniform(-span, span)),
                float(rng.uniform(side_lo, side_hi)),
                float(rng.uniform(side_lo, side_hi)),
            )
        )
    return out


def test_make_box_identity_fields():
    b = make_box(10, 10, 4, 4)
    assert (b.cx, b.cy, b.w, b.h) == (10.0, 10.0, 4.0, 4.0)
    assert make_box(0, 0, 1, 1) == Box(0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "fields",
    [
        (5, 5, 0, 4),
        (5, 5, 4, 0),
        (5, 5, -1, 4),
        (float("nan"), 0, 1, 1),
        (0, float("inf"), 1, 1),
        (0, 0, float("inf"), 1),
        (True, 0, 1, 1),
        (0, 0, 1, False),
        (10**400, 0, 1, 1),
        (0, 0, 1, 10**400),
    ],
)
def test_make_box_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        Box(*fields)
    # make_box converts with float(), so a bool reaches Box as 1.0 or 0.0,
    # and an int past the float range raises float()'s OverflowError.
    if not any(isinstance(f, bool) or f == 10**400 for f in fields):
        with pytest.raises(ValueError):
            make_box(*fields)


def test_from_topleft_conversion():
    assert from_topleft(0, 0, 4, 4) == Box(2.0, 2.0, 4.0, 4.0)
    assert from_topleft(8, 8, 4, 4) == Box(10.0, 10.0, 4.0, 4.0)
    assert from_topleft(1, 2, 2, 6) == Box(2.0, 5.0, 2.0, 6.0)


def test_iou_identity_and_disjoint():
    rng = np.random.default_rng(11)
    for b in random_boxes(rng, 50):
        assert iou(b, b) == 1.0
    assert iou(Box(0, 0, 2, 2), Box(100, 100, 2, 2)) == 0.0


def test_iou_hand_value_one_third():
    """Unit-offset overlap: intersection 2, union 6."""
    a = Box(1, 1, 2, 2)
    b = Box(2, 1, 2, 2)
    value = iou(a, b)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(iou_grid_sample((1, 1, 2, 2), (2, 1, 2, 2)), abs=5e-3)


def test_iou_symmetry_exact():
    rng = np.random.default_rng(12)
    boxes = random_boxes(rng, 40, span=10.0)
    for a, b in zip(boxes[::2], boxes[1::2]):
        assert iou(a, b) == iou(b, a)


def test_iou_scale_invariance():
    rng = np.random.default_rng(13)
    boxes = random_boxes(rng, 60, span=10.0)
    for a, b in zip(boxes[::2], boxes[1::2]):
        base = iou(a, b)
        for k in (1e-3, 0.5, 7.0, 1e3):
            scaled = iou(
                Box(a.cx * k, a.cy * k, a.w * k, a.h * k),
                Box(b.cx * k, b.cy * k, b.w * k, b.h * k),
            )
            assert scaled == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_iou_matrix_matches_scalar_and_reference():
    rng = np.random.default_rng(14)
    gts = random_boxes(rng, 8, span=15.0)
    anchors = random_boxes(rng, 5, span=15.0)
    matrix = iou_matrix(gts, anchors)
    assert matrix.shape == (8, 5)
    for g, gt in enumerate(gts):
        for a, anchor in enumerate(anchors):
            assert matrix[g, a] == iou(gt, anchor)
            ref = iou_ref((gt.cx, gt.cy, gt.w, gt.h), (anchor.cx, anchor.cy, anchor.w, anchor.h))
            assert matrix[g, a] == pytest.approx(ref, abs=1e-12)
    assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)


def test_generate_anchors_single_cell():
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=8, image_h=8)
    anchors = generate_anchors(spec)
    assert len(anchors) == 1
    np.testing.assert_array_equal(anchors.boxes[0], [4.0, 4.0, 8.0, 8.0])


def test_generate_anchors_grid_order():
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=16, image_h=16)
    anchors = generate_anchors(spec)
    assert len(anchors) == 4
    centers = [tuple(row[:2]) for row in anchors.boxes]
    assert centers == [(4.0, 4.0), (12.0, 4.0), (4.0, 12.0), (12.0, 12.0)]


def test_generate_anchors_ratio_shapes():
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=8, image_h=8, ratios=(4.0,))
    box = generate_anchors(spec).boxes[0]
    assert box[2] == pytest.approx(4.0, abs=1e-12)
    assert box[3] == pytest.approx(16.0, abs=1e-12)


@pytest.mark.parametrize(
    "levels, message",
    [
        ([[4, 4, 4]], "levels[0] must be [stride, base_size], got [4, 4, 4]"),
        (((8.0, 8.0), (4.0,)), "levels[1] must be [stride, base_size], got (4.0,)"),
        ([5], "levels[0] must be [stride, base_size], got 5"),
        (5, "levels must be a sequence of [stride, base_size] pairs, got 5"),
        ([[4] * 5000], "levels[0] must be [stride, base_size], got [4, 4, 4,"),
    ],
    ids=["three-numbers", "one-number", "bare-number", "not-a-sequence", "long-entry"],
)
def test_grid_spec_names_a_malformed_levels_entry(levels, message):
    with pytest.raises(ValueError) as raised:
        AnchorGridSpec(levels=levels, image_w=8, image_h=8)
    assert str(raised.value).startswith(message)
    assert len(str(raised.value)) <= 100


def test_generate_anchors_count_formula():
    rng = np.random.default_rng(15)
    for _ in range(10):
        image_w = float(rng.integers(10, 200))
        image_h = float(rng.integers(10, 200))
        ratios = tuple(rng.uniform(0.25, 4.0, size=int(rng.integers(1, 4))))
        scales = tuple(rng.uniform(0.5, 8.0, size=int(rng.integers(1, 4))))
        spec = AnchorGridSpec(
            levels=((4.0, 8.0), (8.0, 16.0), (16.0, 32.0)),
            image_w=image_w,
            image_h=image_h,
            ratios=ratios,
            scales=scales,
        )
        anchors = generate_anchors(spec)
        expected = sum(
            math.ceil(image_h / stride) * math.ceil(image_w / stride) * len(ratios) * len(scales)
            for stride, _ in spec.levels
        )
        assert len(anchors) == expected
        assert anchors.level_offsets[-1][1] == expected


def test_generate_anchors_deterministic():
    spec = AnchorGridSpec(
        levels=((4.0, 8.0), (8.0, 16.0)), image_w=64, image_h=48, ratios=(0.5, 1.0, 2.0)
    )
    first = generate_anchors(spec)
    second = generate_anchors(spec)
    np.testing.assert_array_equal(first.boxes, second.boxes)
    assert first.level_offsets == second.level_offsets


def test_level_offsets_partition_and_views():
    spec = AnchorGridSpec(levels=((8.0, 8.0), (16.0, 16.0)), image_w=32, image_h=32)
    anchors = generate_anchors(spec)
    assert anchors.num_levels == 2
    assert anchors.level_sets is anchors.level_sets
    total = 0
    for level, part in enumerate(anchors.level_sets):
        start, end = anchors.level_offsets[level]
        assert part.level_offsets == ((0, end - start),)
        # Made from the parent's level table: equal to its slices.
        np.testing.assert_array_equal(part.boxes, anchors.boxes[start:end])
        assert part.grid == (anchors.grid[level],)
        assert not part.boxes.flags.writeable
        total += len(part)
    assert total == len(anchors)
    single = generate_anchors(AnchorGridSpec(levels=((8.0, 8.0),), image_w=32, image_h=32))
    assert single.level_sets == (single,)


def test_clip_keeps_anchors_inside_image():
    spec = AnchorGridSpec(
        levels=((8.0, 64.0),), image_w=16, image_h=16, scales=(4.0,), clip=True
    )
    boxes = generate_anchors(spec).boxes
    x0 = boxes[:, 0] - boxes[:, 2] / 2
    x1 = boxes[:, 0] + boxes[:, 2] / 2
    y0 = boxes[:, 1] - boxes[:, 3] / 2
    y1 = boxes[:, 1] + boxes[:, 3] / 2
    assert np.all(x0 >= -1e-9) and np.all(x1 <= 16 + 1e-9)
    assert np.all(y0 >= -1e-9) and np.all(y1 <= 16 + 1e-9)
    assert np.all(boxes[:, 2] > 0) and np.all(boxes[:, 3] > 0)


def test_boxes_to_array_accepts_common_forms():
    expected = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    np.testing.assert_array_equal(boxes_to_array([Box(1, 2, 3, 4), Box(5, 6, 7, 8)]), expected)
    np.testing.assert_array_equal(boxes_to_array(expected), expected)
    np.testing.assert_array_equal(boxes_to_array([[1, 2, 3, 4], [5, 6, 7, 8]]), expected)
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=8, image_h=8)
    assert boxes_to_array(generate_anchors(spec)).shape == (1, 4)


def test_boxes_to_array_rejects_bad_rows():
    with pytest.raises(ValueError):
        boxes_to_array([[1, 2, 0, 4]])
    with pytest.raises(ValueError):
        boxes_to_array([[1, 2, 3]])
    with pytest.raises(ValueError):
        boxes_to_array([[1, 2, float("nan"), 4]])
