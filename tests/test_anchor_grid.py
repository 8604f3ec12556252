"""Grid anchor sets: the scoring kernels against the pairwise oracle kernels.

Every set from generate_anchors, clipped or not, keeps per-level grid
tables, and the PS and IoU kernels and accumulate read them; a plain
array takes the same kernels as one level of one cell. The same boxes as a
plain array, scored pair by pair by the oracle kernels in oracles.py,
serve as the reference: PS and IoU must agree bit for bit. The grid
tables' normalizer sums must agree with the plain array's to rel 1e-12.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from smalldet import (
    AnchorGridSpec,
    AnchorSet,
    AssignThresholds,
    DatasetNormalizers,
    Metric,
    NormalizerAccumulator,
    accumulate,
    assign,
    assign_with_metric,
    count_with_metric,
    finalize,
    generate_anchors,
    iou_matrix,
    ps_matrix,
)
from smalldet import assigner, geometry, similarity
from smalldet.geometry import Box, LevelGrid
from smalldet.geometry import iou as iou_box
from smalldet.similarity import pairwise_similarity

THRESHOLDS = (AssignThresholds(), AssignThresholds(0.5, 0.2, 0.0))


def random_spec(rng) -> AnchorGridSpec:
    """Odd image sizes, non-integer strides, 1-3 levels, 1-3 ratios and scales."""
    num_levels = int(rng.integers(1, 4))
    strides = np.sort(rng.uniform(2.5, 40.0, num_levels))
    while np.any(np.diff(strides) <= 0):
        strides = np.sort(rng.uniform(2.5, 40.0, num_levels))
    return AnchorGridSpec(
        levels=tuple((float(s), float(rng.uniform(2.0, 30.0))) for s in strides),
        image_w=float(2 * rng.integers(5, 60) + 1),
        image_h=float(2 * rng.integers(5, 60) + 1) + float(rng.uniform(0.0, 1.0)),
        ratios=tuple(rng.uniform(0.3, 3.0, int(rng.integers(1, 4)))),
        scales=tuple(rng.uniform(0.5, 4.0, int(rng.integers(1, 4)))),
    )


def random_gts(rng, spec: AnchorGridSpec, count: int) -> np.ndarray:
    """gts over an area wider than the image, so some lie outside it, plus
    one far off that overlaps no anchor."""
    gts = np.column_stack([
        rng.uniform(-0.3 * spec.image_w, 1.3 * spec.image_w, count),
        rng.uniform(-0.3 * spec.image_h, 1.3 * spec.image_h, count),
        rng.uniform(0.5, 0.6 * spec.image_w, count),
        rng.uniform(0.5, 0.6 * spec.image_h, count),
    ])
    far = [[spec.image_w * 10 + 1000.0, -spec.image_h * 10 - 1000.0, 3.0, 5.0]]
    return np.concatenate([gts, far])


def stripped(anchors: AnchorSet) -> np.ndarray:
    """The same boxes as a plain array: the oracle kernels' input."""
    return np.array(anchors.boxes)


def oracle_matrix(gts: np.ndarray, boxes: np.ndarray, norm, metric: Metric) -> np.ndarray:
    """The score matrix of plain arrays from the pairwise oracle kernels."""
    if metric is Metric.PS:
        return oracles.pair_ps_matrix(gts, boxes, norm)
    return oracles.pair_iou_matrix(gts, boxes)


def oracle_result(gts, boxes, norm, thr, metric):
    """assign over the oracle's score matrix: what assign_with_metric gives."""
    return assign(oracle_matrix(gts, boxes, norm, metric), thr)


def bits(values: np.ndarray) -> np.ndarray:
    """Raw float64 bits, so -0.0 and 0.0 (or any rounding) differ."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.gt_index, b.gt_index)
    assert_same_bits(a.best_score, b.best_score)


@pytest.mark.parametrize("block_pairs", [None, 97])
@pytest.mark.parametrize("seed", range(8))
def test_grid_kernels_match_pairwise_bit_for_bit(monkeypatch, seed, block_pairs):
    if block_pairs is not None:
        # Several gts per block and several blocks per call.
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(600 + seed)
    spec = random_spec(rng)
    gts = random_gts(rng, spec, int(rng.integers(1, 12)))
    norm = DatasetNormalizers(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
    for clip in (False, True):
        check_grid_kernels(generate_anchors(dataclasses.replace(spec, clip=clip)), gts, norm)


def check_grid_kernels(grid_set: AnchorSet, gts: np.ndarray, norm: DatasetNormalizers):
    num = gts.shape[0]
    for anchors in (grid_set, *grid_set.level_sets):
        reference = stripped(anchors)
        assert_same_bits(ps_matrix(gts, anchors, norm), oracles.pair_ps_matrix(gts, reference, norm))
        iou = iou_matrix(gts, anchors)
        assert_same_bits(iou, oracles.pair_iou_matrix(gts, reference))
        # The far gt overlaps nothing: its IoU row is exact +0.0.
        assert not np.any(bits(iou[-1]))
        for thr in THRESHOLDS:
            for metric in Metric:
                assert_same_result(
                    assign_with_metric(gts, anchors, norm, thr, metric),
                    oracle_result(gts, reference, norm, thr, metric),
                )

    tables = accumulate(NormalizerAccumulator(), gts, grid_set)
    plain = accumulate(NormalizerAccumulator(), gts, stripped(grid_set))
    assert tables.pair_count == plain.pair_count == num * len(grid_set)
    assert tables.sum_x == pytest.approx(plain.sum_x, rel=1e-12, abs=0)
    assert tables.sum_y == pytest.approx(plain.sum_y, rel=1e-12, abs=0)


def test_one_cell_grids_and_a_gt_on_a_center():
    # Stride past the image size: one row and one column per level.
    spec = AnchorGridSpec(levels=((64.0, 8.0), (128.0, 16.0)), image_w=33.0, image_h=17.0,
                          ratios=(0.5, 2.0), scales=(1.0, 3.0))
    grid_set = generate_anchors(spec)
    assert [level.shape for level in grid_set.grid] == [(1, 1, 4), (1, 1, 4)]
    # gts exactly on the only center, left of it, right of it.
    gts = np.array([[32.0, 32.0, 4.0, 4.0], [1.0, 70.0, 2.0, 9.0], [200.0, 5.0, 30.0, 3.0]])
    norm = finalize(accumulate(NormalizerAccumulator(), gts, stripped(grid_set)))
    tables = accumulate(NormalizerAccumulator(), gts, grid_set)
    assert tables.sum_x == pytest.approx(norm.m * tables.pair_count, rel=1e-12, abs=0)
    assert tables.sum_y == pytest.approx(norm.n * tables.pair_count, rel=1e-12, abs=0)
    for metric in Metric:
        assert_same_result(
            assign_with_metric(gts, grid_set, norm, THRESHOLDS[1], metric),
            oracle_result(gts, stripped(grid_set), norm, THRESHOLDS[1], metric),
        )


def test_zero_iou_gt_still_rescues_anchor_zero():
    spec = AnchorGridSpec(levels=((8.0, 8.0), (16.0, 16.0)), image_w=41.0, image_h=23.0,
                          ratios=(1.0, 2.0))
    grid_set = generate_anchors(spec)
    # gt 0 overlaps some anchors; gt 1 lies far outside and overlaps none.
    gts = np.array([[20.0, 12.0, 8.0, 8.0], [-500.0, -500.0, 4.0, 4.0]])
    iou = iou_matrix(gts, grid_set)
    assert np.any(iou[0] > 0)
    assert not np.any(bits(iou[1]))
    thr = AssignThresholds(pos_thr=0.5, neg_thr=0.2, min_pos_thr=0.0)
    result = assign_with_metric(gts, grid_set, None, thr, Metric.IOU)
    # Its all-zero row clears a zero floor, so it claims its argmax: anchor 0.
    assert result.labels[0] == 1 and result.gt_index[0] == 1
    assert_same_result(result, oracle_result(gts, stripped(grid_set), None, thr, Metric.IOU))


def test_every_generated_set_takes_the_grid_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid kernel called")

    gts = np.array([[10.0, 10.0, 6.0, 6.0]])
    norm = DatasetNormalizers(0.5, 0.5)
    # assigner binds both kernels at import, so each is patched in every
    # module that looks it up.
    kernels = ((similarity, "_ps_rows"), (geometry, "_iou_rows"),
               (assigner, "_ps_rows"), (assigner, "_iou_rows"))
    for module, name in kernels:
        monkeypatch.setattr(module, name, refuse)
    for clip in (False, True):
        anchors = generate_anchors(AnchorGridSpec(levels=((8.0, 16.0), (16.0, 24.0)), image_w=40.0,
                                                  image_h=24.0, clip=clip))
        for part in (anchors, *anchors.level_sets):
            for metric in Metric:
                with pytest.raises(AssertionError, match="grid kernel"):
                    assign_with_metric(gts, part, norm, THRESHOLDS[0], metric)
            with pytest.raises(AssertionError, match="grid kernel"):
                ps_matrix(gts, part, norm)
            with pytest.raises(AssertionError, match="grid kernel"):
                iou_matrix(gts, part)
            # accumulate reads the grid tables alone: the set's boxes are never made.
            accumulate(NormalizerAccumulator(), gts, part)
            assert not made_tables(part)
    # The same anchors as a plain array are one level of the same kernels.
    for metric in Metric:
        with pytest.raises(AssertionError, match="grid kernel"):
            assign_with_metric(gts, stripped(anchors), norm, THRESHOLDS[0], metric)


def test_grid_tables_must_describe_the_boxes():
    anchors = generate_anchors(AnchorGridSpec(levels=((8.0, 8.0), (16.0, 16.0)),
                                              image_w=32.0, image_h=16.0, ratios=(0.5, 2.0)))
    assert AnchorSet(anchors.grid).level_offsets == anchors.level_offsets == ((0, 16), (16, 20))
    for bad in ((), (anchors.grid[0], anchors.boxes)):
        with pytest.raises(ValueError, match="LevelGrid levels"):
            AnchorSet(bad)
    level = anchors.grid[0]
    with pytest.raises(ValueError, match="increasing"):
        LevelGrid(level.cx[::-1], level.cy, level.ws, level.hs)
    with pytest.raises(ValueError, match="same length"):
        LevelGrid(level.cx, level.cy, level.ws, level.hs[:1])
    for clip in ((32.0,), (0.0, 16.0), (32.0, math.inf)):
        with pytest.raises(ValueError, match="clip"):
            LevelGrid(level.cx, level.cy, level.ws, level.hs, clip)
    assert not level.cx.flags.writeable


def test_anchor_count_is_known_before_any_anchor_is_made(monkeypatch):
    spec = AnchorGridSpec(levels=((7.5, 8.0), (16.0, 16.0)), image_w=61.0, image_h=33.0,
                          ratios=(0.5, 1.0, 2.0), scales=(1.0, 2.0))
    assert spec.num_anchors() == len(generate_anchors(spec)) == (9 * 5 + 4 * 3) * 6
    monkeypatch.setattr(geometry, "MAX_ANCHORS", spec.num_anchors() - 1)
    with pytest.raises(ValueError, match="more than the"):
        generate_anchors(spec)
    # A huge image is counted, not made.
    huge = AnchorGridSpec(levels=((16.0, 16.0),), image_w=1e12, image_h=1e12)
    assert huge.num_anchors() == (10**12 // 16) ** 2
    with pytest.raises(ValueError, match="more than the"):
        generate_anchors(huge)
    # A subnormal stride makes more cells than a float counts.
    subnormal = AnchorGridSpec(levels=((5e-324, 16.0),), image_w=64.0, image_h=64.0)
    assert subnormal.num_anchors() == math.inf
    with pytest.raises(ValueError, match="more than the"):
        generate_anchors(subnormal)


def made_tables(anchors: AnchorSet) -> set:
    """Which per-anchor tables ("boxes", "corners") the set has made so far."""
    return {"boxes", "corners"} & set(vars(anchors))


# SHA-256 of the boxes and corner table as generate_anchors made them
# when it stored every anchor eagerly, and clipped every box one by one.
DIGESTS = {
    False: ("6c8ed9ad62f65281ed309f44d6090641972d49eed90c73caddcc318c3f963796",
            "c794c5fd6828a12cd0f1da34376371d5071e784f08db4be6d24df412507dcff2"),
    True: ("b8323864fbdcd73600c7336e562d54b3b6b068aba5678173657f428e2968a8fb",
           "7015a9345d12d90516d38fa0002e87f16e94b7df7ea600077879e653a83313a8"),
}


def test_grid_set_makes_its_boxes_on_first_read():
    for clip in (False, True):
        check_boxes_made_on_first_read(clip)


def check_boxes_made_on_first_read(clip: bool):
    spec = AnchorGridSpec(levels=((7.5, 8.0), (16.0, 16.0), (33.0, 40.0)), image_w=61.0,
                          image_h=33.5, ratios=(0.5, 1.0, 3.0), scales=(1.0, 2.5), clip=clip)
    anchors = generate_anchors(spec)
    assert len(anchors) == spec.num_anchors()
    assert not made_tables(anchors)
    assert not any(made_tables(part) for part in anchors.level_sets)
    boxes = anchors.boxes
    assert anchors.boxes is boxes
    assert boxes.flags.f_contiguous and not boxes.flags.writeable
    assert not anchors.corners.flags.writeable

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()

    assert (digest(boxes), digest(anchors.corners)) == DIGESTS[clip]


def test_degenerate_anchor_shapes_are_rejected_without_the_box_scan():
    # Both sides underflow to 0.0: each anchor would be 0 wide and 0 tall.
    # The spec itself rejects them, so no layout gets as far as a grid.
    with pytest.raises(ValueError, match="positive"):
        AnchorGridSpec(levels=((16.0, 1e-200),), image_w=64.0, image_h=64.0, scales=(1e-200,))
    # 1 / ratio overflows: each anchor would be infinitely wide.
    with pytest.raises(ValueError, match="positive and finite"):
        AnchorGridSpec(levels=((16.0, 16.0),), image_w=64.0, image_h=64.0, ratios=(1e-320,))
    # bool is an int subclass; True must not pass as an image 1 pixel wide,
    # nor as a stride, base size, ratio or scale of 1. An int past the float
    # range is not finite.
    good = dict(levels=((16.0, 16.0),), image_w=5, image_h=5)
    for bad, name in (
        (dict(image_w=True), "image_w"),
        (dict(image_h=True), "image_h"),
        (dict(levels=((True, 16),)), "levels stride"),
        (dict(levels=((16, False),)), "levels base size"),
        (dict(ratios=(True,)), "ratios"),
        (dict(scales=(1.0, True)), "scales"),
        (dict(image_w=10**400), "image_w"),
        (dict(image_h=10**400), "image_h"),
        (dict(levels=((10**400, 16),)), "levels stride"),
        (dict(levels=((16, 10**400),)), "levels base size"),
    ):
        with pytest.raises(ValueError, match=name):
            AnchorGridSpec(**{**good, **bad})
    level = generate_anchors(AnchorGridSpec(levels=((8.0, 8.0),), image_w=16.0, image_h=16.0,
                                            ratios=(0.5, 2.0))).grid[0]
    for bad in (0.0, -1.0):
        sizes = np.array([level.ws[0], bad])
        with pytest.raises(ValueError, match="positive"):
            LevelGrid(level.cx, level.cy, sizes, level.hs)
        with pytest.raises(ValueError, match="positive"):
            LevelGrid(level.cx, level.cy, level.ws, sizes)
    with pytest.raises(ValueError, match="finite"):
        LevelGrid(level.cx, level.cy, np.array([level.ws[0], np.inf]), level.hs)


def test_matrices_take_the_grid_kernels_and_match_the_pairwise_ones():
    rng = np.random.default_rng(44)
    spec = random_spec(rng)
    norm = DatasetNormalizers(0.7, 1.3)
    gts = random_gts(rng, spec, 9)
    for clip in (False, True):
        check_matrices(generate_anchors(dataclasses.replace(spec, clip=clip)), gts, norm)


def check_matrices(grid_set: AnchorSet, gts: np.ndarray, norm: DatasetNormalizers):
    for anchors in (grid_set, *grid_set.level_sets):
        ps = ps_matrix(gts, anchors, norm)
        iou = iou_matrix(gts, anchors)
        assert not made_tables(anchors)
        assert ps.shape == iou.shape == (gts.shape[0], len(anchors))
        reference = stripped(anchors)
        assert_same_bits(ps, oracles.pair_ps_matrix(gts, reference, norm))
        assert_same_bits(iou, oracles.pair_iou_matrix(gts, reference))
        # A set as rows is scored from its boxes. The union adds the two
        # areas in the other order, and that sum is exact, so the matrix
        # is the transpose bit for bit.
        assert_same_bits(iou_matrix(anchors, gts), iou.T)


def test_scoring_a_grid_set_holds_no_per_anchor_table():
    # The default CLI layout on a 1600x1600 image: 90,000 anchors. A
    # per-anchor box array is 32 bytes per anchor and the corner table 40;
    # the running best scores, matched gts, labels and one score row are
    # 25, so the peak stays under 64 bytes per anchor only without them.
    # Clipped, the shape term of a score row is per anchor too: 8 more.
    rng = np.random.default_rng(5)
    gts = np.column_stack([rng.uniform(0, 1600, 40), rng.uniform(0, 1600, 40),
                           rng.uniform(4, 300, 40), rng.uniform(4, 300, 40)])
    for clip in (False, True):
        spec = AnchorGridSpec(levels=((16.0, 16.0),), image_w=1600.0, image_h=1600.0,
                              ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0), clip=clip)
        check_per_anchor_peak(spec, gts)


def check_per_anchor_peak(spec: AnchorGridSpec, gts: np.ndarray):
    tracemalloc.start()
    try:
        anchors = generate_anchors(spec)
        norm = finalize(accumulate(NormalizerAccumulator(), gts, anchors))
        for metric in Metric:
            for part in (anchors, *anchors.level_sets):
                assign_with_metric(gts, part, norm, THRESHOLDS[0], metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(anchors) == 90_000
    assert peak < 64 * len(anchors), f"{peak / len(anchors):.1f} bytes per anchor"
    assert not made_tables(anchors)


def test_accumulate_memory_does_not_grow_with_the_image():
    # The default CLI layout on an 8000x6000 image: 1.69M anchors. The
    # per-axis tables are (500, 9) and (375, 9), so a row block of gts
    # costs two 512 KiB temporaries at most, whatever the anchor count.
    rng = np.random.default_rng(8)
    gts = np.column_stack([rng.uniform(0, 8000, 100), rng.uniform(0, 6000, 100),
                           rng.uniform(4, 300, 100), rng.uniform(4, 300, 100)])
    for clip in (False, True):
        anchors = generate_anchors(AnchorGridSpec(
            levels=((16.0, 16.0),), image_w=8000.0, image_h=6000.0,
            ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0), clip=clip))
        tracemalloc.start()
        try:
            acc = accumulate(NormalizerAccumulator(), gts, anchors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc.pair_count == 100 * len(anchors) == 168_750_000
        assert peak < 2 << 20, f"{peak / 2**20:.2f} MiB"
        assert not made_tables(anchors)


def test_level_grids_compare_and_hash_by_identity():
    spec = AnchorGridSpec(levels=((8.0, 8.0),), image_w=32.0, image_h=16.0)
    level, twin = generate_anchors(spec).grid[0], generate_anchors(spec).grid[0]
    assert level == level and level != twin
    assert hash(level) == hash(level) and len({level, twin}) == 2


@pytest.mark.parametrize("seed", range(6))
def test_row_sliced_levels_keep_the_full_tables_rows(seed):
    # Clipping is per axis, so a level cut to some of its grid rows has
    # the same x tables and the y rows of the full level, bit for bit.
    rng = np.random.default_rng(700 + seed)
    spec = random_spec(rng)
    for clip in (False, True):
        for level in generate_anchors(dataclasses.replace(spec, clip=clip)).grid:
            rows, cols, shapes = level.shape
            start = int(rng.integers(0, rows))
            stop = int(rng.integers(start + 1, rows + 1))
            part = level.rows(start, stop)
            assert part.shape == (stop - start, cols, shapes) and part.clip == level.clip
            (x, w), (y, h) = level.axes
            (px, pw), (py, ph) = part.axes
            assert_same_bits(np.broadcast_to(px, (cols, shapes)), np.broadcast_to(x, (cols, shapes)))
            assert_same_bits(np.broadcast_to(pw, (cols, shapes)), np.broadcast_to(w, (cols, shapes)))
            full_y, full_h = (np.broadcast_to(t, (rows, shapes))[start:stop] for t in (y, h))
            assert_same_bits(np.broadcast_to(py, full_y.shape), full_y)
            assert_same_bits(np.broadcast_to(ph, full_h.shape), full_h)
            for mine, theirs in zip(part.corners[:2], level.corners[:2]):
                assert_same_bits(mine, theirs)
            for mine, theirs in zip(part.corners[2:], level.corners[2:]):
                assert_same_bits(mine, theirs[start:stop])
            assert_same_bits(part.boxes(), level.boxes()[start * cols * shapes : stop * cols * shapes])


@pytest.mark.parametrize("budget", [1, 7, 40, 97, 250, 1 << 16])
def test_anchor_tiles_cover_the_set_in_order(monkeypatch, budget):
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", budget)
    rng = np.random.default_rng(710 + budget)
    for _ in range(4):
        spec = random_spec(rng)
        for clip in (False, True):
            anchors = generate_anchors(dataclasses.replace(spec, clip=clip))
            boxes = stripped(anchors)
            tiles = list(geometry.anchor_tiles(anchors))
            starts = [start for start, _ in tiles]
            ends = [start + len(tile) for start, tile in tiles]
            assert starts == [0] + ends[:-1] and ends[-1] == len(anchors)
            if len(anchors) <= budget:
                assert tiles == [(0, anchors)]
                continue
            for start, tile in tiles:
                assert isinstance(tile, AnchorSet) and tile.num_levels == 1
                level = tile.grid[0]
                # At most the budget, or a single grid row when one row holds more.
                assert len(tile) <= budget or level.shape[0] == 1
                assert_same_bits(tile.boxes, boxes[start : start + len(tile)])
            # A plain array is cut into slices of the budget.
            plain = list(geometry.anchor_tiles(boxes))
            assert [start for start, _ in plain] == list(range(0, len(boxes), budget))
            assert_same_bits(np.concatenate([part for _, part in plain]), boxes)


@pytest.mark.parametrize("seed", range(6))
def test_gts_that_miss_a_tile_have_zero_iou_with_it(monkeypatch, seed):
    monkeypatch.setattr(geometry, "_BLOCK_PAIRS", 60)
    rng = np.random.default_rng(720 + seed)
    spec = random_spec(rng)
    gts = random_gts(rng, spec, 30)
    for clip in (False, True):
        for _, tile in geometry.anchor_tiles(generate_anchors(dataclasses.replace(spec, clip=clip))):
            iou = iou_matrix(gts, tile)
            meets = geometry.overlapping(gts, tile)
            missed = np.setdiff1d(np.arange(gts.shape[0]), meets)
            assert not np.any(bits(iou[missed]))
            # The far gt meets no tile.
            assert gts.shape[0] - 1 not in meets


def test_counting_memory_does_not_grow_with_the_image():
    # The default CLI layout on an 8000x6000 image: 1.69M anchors, so an
    # AssignResult alone is 27 MiB. The counting sink holds one anchor tile
    # at a time, at most geometry._BLOCK_PAIRS (65,536) anchors: a few
    # tile-sized arrays, 3-4 MiB traced, for any image size.
    rng = np.random.default_rng(9)
    gts = np.column_stack([rng.uniform(0, 8000, 30), rng.uniform(0, 6000, 30),
                           rng.uniform(4, 300, 30), rng.uniform(4, 300, 30)])
    norm = DatasetNormalizers(0.8, 0.7)
    for clip in (False, True):
        anchors = generate_anchors(AnchorGridSpec(
            levels=((16.0, 16.0),), image_w=8000.0, image_h=6000.0,
            ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0), clip=clip))
        for metric in Metric:
            tracemalloc.start()
            try:
                counts = count_with_metric(gts, anchors, norm, THRESHOLDS[0], metric)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts.anchors == len(anchors) == 1_687_500
            assert peak < 6 << 20, f"{metric.value} clip={clip}: {peak / 2**20:.2f} MiB"
            assert not made_tables(anchors)


# Half the traced peak of the second count_with_metric call below when
# every image made its own tile arrays: 568 KiB under PS and 823 KiB under
# IoU, measured on the same anchors and gts.
REUSED_PEAK_KIB = {Metric.PS: 284, Metric.IOU: 411}


def test_counting_an_image_again_reuses_the_fold_arrays():
    # The default CLI layout on a 640x480 image: 10,800 anchors, one tile.
    # The first call makes this thread's fold buffers (score block, best
    # scores, matched gts, IoU window temporaries); a second image of that
    # size makes none of them.
    anchors = generate_anchors(AnchorGridSpec(levels=((16.0, 16.0),), image_w=640.0, image_h=480.0,
                                              ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0)))
    gts = np.array([[100.0, 80.0, 12.0, 9.0], [320.0, 240.0, 60.0, 90.0], [500.0, 400.0, 200.0, 150.0]])
    norm = DatasetNormalizers(0.76, 0.56)
    assert len(anchors) == 10_800
    for metric in Metric:
        first = count_with_metric(gts, anchors, norm, THRESHOLDS[0], metric)
        tracemalloc.start()
        try:
            again = count_with_metric(gts, anchors, norm, THRESHOLDS[0], metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= REUSED_PEAK_KIB[metric] << 10, f"{metric.value}: {peak / 1024:.0f} KiB"
        np.testing.assert_array_equal(again.positives_per_gt, first.positives_per_gt)
        assert (again.negative, again.anchors) == (first.negative, first.anchors)


def test_row_kernels_yield_blocks_in_row_block_order():
    # 13 gts (random_gts adds one far off) over 10,800 anchors are three
    # row blocks of 6, 6 and 1 rows, each asked of the allocator as the
    # kernel comes to it. Each window's scores are held in the array it
    # gave and equal the matrix at the window's anchors; no two windows
    # share an anchor of a row. The PS windows cover every pair, and every
    # IoU outside the windows is exact +0.0, so the far gt has none.
    rng = np.random.default_rng(11)
    spec = AnchorGridSpec(levels=((16.0, 16.0),), image_w=640.0, image_h=480.0,
                          ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0))
    anchors = generate_anchors(spec)
    gts = random_gts(rng, spec, 12)
    norm = DatasetNormalizers(0.76, 0.56)
    kernels = ((lambda alloc: similarity._ps_rows(gts, anchors, norm, alloc), ps_matrix(gts, anchors, norm)),
               (lambda alloc: geometry._iou_rows(gts, anchors, alloc), iou_matrix(gts, anchors)))
    coverage = []
    for kernel, matrix in kernels:
        asked = []

        def recording(rows, shape):
            asked.append((rows, shape, np.full(shape, np.nan)))
            return asked[-1][2]

        scored = np.full(matrix.shape, np.nan)
        sizes = []
        for rows, windows in kernel(recording):
            assert asked[-1][:2] == (rows, (rows.stop - rows.start, len(anchors)))
            sizes.append(rows.stop - rows.start)
            for b, values, level, width, r, c in windows:
                assert np.shares_memory(values, asked[-1][2])
                target = scored[rows.start + b, level].reshape(-1, width)[r, c]
                assert np.isnan(target).all()
                target[...] = values
        assert sizes == [6, 6, 1]
        covered = ~np.isnan(scored)
        assert_same_bits(scored[covered], matrix[covered])
        assert not np.any(bits(matrix[~covered]))
        coverage.append(covered)
    ps_covered, iou_covered = coverage
    assert ps_covered.all() and not iou_covered[-1].any()


def random_boxes(rng, count: int) -> np.ndarray:
    return np.column_stack([rng.uniform(-50.0, 850.0, count), rng.uniform(-50.0, 850.0, count),
                            rng.uniform(0.5, 80.0, count), rng.uniform(0.5, 80.0, count)])


@pytest.mark.parametrize("block_pairs", [None, 97])
@pytest.mark.parametrize("num_gts, num_anchors", [(0, 40), (6, 0), (12, 500), (3, (1 << 16) + 3)])
def test_plain_arrays_score_like_the_pairwise_oracle(monkeypatch, block_pairs, num_gts, num_anchors):
    # A plain array is one level of one cell with S = N shapes; the oracle
    # scores it pair by pair. Counts below and above _BLOCK_PAIRS, and a
    # patched budget of 97 that makes many row blocks.
    if block_pairs is not None:
        monkeypatch.setattr(geometry, "_BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(800 + num_gts + num_anchors + (block_pairs or 0))
    gts = random_boxes(rng, num_gts)
    if num_gts:
        # A far gt that overlaps no anchor.
        gts[-1] = [1e5, -1e5, 3.0, 5.0]
    anchors = random_boxes(rng, num_anchors)
    norm = DatasetNormalizers(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))

    ps = ps_matrix(gts, anchors, norm)
    iou = iou_matrix(gts, anchors)
    assert ps.shape == iou.shape == (num_gts, num_anchors)
    assert_same_bits(ps, oracles.pair_ps_matrix(gts, anchors, norm))
    assert_same_bits(iou, oracles.pair_iou_matrix(gts, anchors))
    for g, a in zip(gts[:4], anchors[:4]):
        gt, anchor = Box(*map(float, g)), Box(*map(float, a))
        assert_same_bits(np.float64(pairwise_similarity(gt, anchor, norm)),
                         oracles.pair_ps_matrix(g[None], a[None], norm)[0, 0])
        assert_same_bits(np.float64(iou_box(gt, anchor)), oracles.pair_iou_matrix(g[None], a[None])[0, 0])

    acc = accumulate(NormalizerAccumulator(), gts, anchors)
    assert acc.pair_count == num_gts * num_anchors
    assert (acc.sum_x, acc.sum_y) == oracles.pair_offset_sums(gts, anchors)

    if num_gts and num_anchors:
        assert not np.any(bits(iou[-1]))
        # Its all-zero row clears a zero floor, so it claims its argmax: anchor 0.
        thr = AssignThresholds(pos_thr=0.5, neg_thr=0.2, min_pos_thr=0.0)
        result = assign_with_metric(gts, anchors, None, thr, Metric.IOU)
        assert result.labels[0] == 1 and result.gt_index[0] == num_gts - 1
        assert_same_result(result, oracle_result(gts, anchors, None, thr, Metric.IOU))
        assert_same_result(assign_with_metric(gts, anchors, norm, THRESHOLDS[0], Metric.PS),
                           oracle_result(gts, anchors, norm, THRESHOLDS[0], Metric.PS))

