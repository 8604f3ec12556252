"""Pairwise similarity metric, dataset normalizers, and their cache."""

import json
import math

import numpy as np
import pytest

from smalldet import (
    AnchorGridSpec,
    AssignThresholds,
    Box,
    DatasetNormalizers,
    EmptyDatasetError,
    NormalizerAccumulator,
    NormalizerCache,
    accumulate,
    finalize,
    generate_anchors,
    load_normalizer_cache,
    pairwise_similarity,
    position_similarity,
    ps_matrix,
    save_normalizer_cache,
    shape_similarity,
)
from oracles import normalizers_ref, position_ref, ps_ref, shape_ref

UNIT_NORM = DatasetNormalizers(1.0, 1.0)


def random_boxes(rng, count, span=50.0):
    return [
        Box(
            float(rng.uniform(-span, span)),
            float(rng.uniform(-span, span)),
            float(rng.uniform(0.5, 30.0)),
            float(rng.uniform(0.5, 30.0)),
        )
        for _ in range(count)
    ]


def scale_box(b, k):
    return Box(b.cx * k, b.cy * k, b.w * k, b.h * k)


def test_position_worked_values():
    gt = Box(10, 10, 4, 4)
    assert position_similarity(gt, Box(12, 10, 4, 4), UNIT_NORM) == pytest.approx(0.25, abs=1e-12)
    norm = DatasetNormalizers(1.0, 2.0)
    assert position_similarity(gt, Box(10, 13, 2, 4), norm) == pytest.approx(0.75, abs=1e-12)
    assert position_similarity(gt, gt, DatasetNormalizers(0.7, 0.3)) == 0.0


def test_shape_worked_values():
    assert shape_similarity(Box(0, 0, 6, 4), Box(50, 50, 2, 4), UNIT_NORM) == pytest.approx(
        0.5, abs=1e-12
    )
    assert shape_similarity(Box(0, 0, 4, 6), Box(0, 0, 4, 2), UNIT_NORM) == pytest.approx(
        0.5, abs=1e-12
    )
    assert shape_similarity(Box(1, 2, 3, 5), Box(9, 9, 3, 5), DatasetNormalizers(2.0, 3.0)) == 0.0


def test_pairwise_worked_values():
    gt = Box(10, 10, 4, 4)
    assert pairwise_similarity(gt, gt, UNIT_NORM) == 1.0
    assert pairwise_similarity(gt, Box(12, 10, 4, 4), UNIT_NORM) == pytest.approx(
        math.exp(-0.25), abs=1e-9
    )
    # Both denominators are w_g + w = 10 here: position 2/10, shape 2/10.
    assert pairwise_similarity(gt, Box(12, 10, 6, 4), UNIT_NORM) == pytest.approx(
        math.exp(-0.4), abs=1e-9
    )


def test_terms_match_reference_on_random_pairs():
    rng = np.random.default_rng(21)
    boxes = random_boxes(rng, 200)
    for gt, anchor in zip(boxes[::2], boxes[1::2]):
        m = float(rng.uniform(0.0, 5.0))
        n = float(rng.uniform(0.0, 5.0))
        norm = DatasetNormalizers(m, n)
        g = (gt.cx, gt.cy, gt.w, gt.h)
        a = (anchor.cx, anchor.cy, anchor.w, anchor.h)
        assert position_similarity(gt, anchor, norm) == pytest.approx(
            position_ref(g, a, m, n), abs=1e-12
        )
        assert shape_similarity(gt, anchor, norm) == pytest.approx(shape_ref(g, a, m, n), abs=1e-12)
        assert pairwise_similarity(gt, anchor, norm) == pytest.approx(ps_ref(g, a, m, n), abs=1e-12)


def test_terms_symmetric_under_swap():
    rng = np.random.default_rng(22)
    boxes = random_boxes(rng, 40)
    norm = DatasetNormalizers(1.3, 0.8)
    for a, b in zip(boxes[::2], boxes[1::2]):
        assert position_similarity(a, b, norm) == position_similarity(b, a, norm)
        assert shape_similarity(a, b, norm) == shape_similarity(b, a, norm)


def test_scale_invariance_of_all_terms():
    rng = np.random.default_rng(23)
    for _ in range(100):
        gt, anchor = random_boxes(rng, 2)
        norm = DatasetNormalizers(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        k = float(10.0 ** rng.uniform(-3, 3))
        base = pairwise_similarity(gt, anchor, norm)
        scaled = pairwise_similarity(scale_box(gt, k), scale_box(anchor, k), norm)
        assert scaled == pytest.approx(base, rel=1e-9)


def test_similarity_strictly_decreases_with_offset():
    gt = Box(0, 0, 4, 4)
    values = [
        pairwise_similarity(gt, Box(dx, 0, 4, 4), UNIT_NORM)
        for dx in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_range_and_degenerate_normalizers():
    rng = np.random.default_rng(24)
    boxes = random_boxes(rng, 100)
    norm = DatasetNormalizers(2.0, 0.5)
    for gt, anchor in zip(boxes[::2], boxes[1::2]):
        value = pairwise_similarity(gt, anchor, norm)
        assert 0.0 < value <= 1.0
    # m = n = 0 collapses the metric to 1 everywhere, by design.
    zero = DatasetNormalizers(0.0, 0.0)
    assert pairwise_similarity(boxes[0], boxes[1], zero) == 1.0


def test_accumulate_worked_example_and_empty():
    acc = NormalizerAccumulator()
    assert accumulate(acc, [], [Box(0, 0, 1, 1)]) == acc
    assert accumulate(acc, [Box(0, 0, 1, 1)], []) == acc
    out = accumulate(acc, [Box(10, 0, 4, 4)], [Box(10, 0, 4, 4), Box(14, 0, 4, 4)])
    assert out.sum_x == 0.5
    assert out.sum_y == 0.0
    assert out.pair_count == 2
    norm = finalize(out)
    assert norm.m == 0.25
    assert norm.n == 0.0


def test_merge_is_fieldwise_addition():
    rng = np.random.default_rng(25)
    scene_a = (random_boxes(rng, 3), random_boxes(rng, 7))
    scene_b = (random_boxes(rng, 2), random_boxes(rng, 5))
    single = (random_boxes(rng, 1), random_boxes(rng, 1))

    base = accumulate(NormalizerAccumulator(), *scene_a)
    sequential = accumulate(base, *scene_b)
    merged = base.merge(accumulate(NormalizerAccumulator(), *scene_b))
    assert merged.pair_count == sequential.pair_count
    assert merged.sum_x == pytest.approx(sequential.sum_x, rel=1e-12)
    assert merged.sum_y == pytest.approx(sequential.sum_y, rel=1e-12)

    # With a single-pair increment both routes perform the same addition.
    assert base.merge(accumulate(NormalizerAccumulator(), *single)) == accumulate(base, *single)


def test_accumulation_is_bit_reproducible():
    rng = np.random.default_rng(26)
    scenes = [(random_boxes(rng, 4), random_boxes(rng, 9)) for _ in range(5)]

    def run():
        acc = NormalizerAccumulator()
        for gts, anchors in scenes:
            acc = accumulate(acc, gts, anchors)
        return acc

    assert run() == run()


def test_finalize_matches_reference_and_rejects_empty():
    rng = np.random.default_rng(27)
    scenes = [(random_boxes(rng, 3), random_boxes(rng, 6)) for _ in range(4)]
    acc = NormalizerAccumulator()
    for gts, anchors in scenes:
        acc = accumulate(acc, gts, anchors)
    norm = finalize(acc)
    ref_scenes = [
        ([(b.cx, b.cy, b.w, b.h) for b in gts], [(b.cx, b.cy, b.w, b.h) for b in anchors])
        for gts, anchors in scenes
    ]
    m_ref, n_ref, pairs_ref = normalizers_ref(ref_scenes)
    assert acc.pair_count == pairs_ref
    assert norm.m == pytest.approx(m_ref, rel=1e-12)
    assert norm.n == pytest.approx(n_ref, rel=1e-12)

    with pytest.raises(EmptyDatasetError):
        finalize(NormalizerAccumulator())


def test_normalizers_scale_invariant():
    rng = np.random.default_rng(28)
    scenes = [(random_boxes(rng, 3), random_boxes(rng, 5)) for _ in range(3)]
    plain = NormalizerAccumulator()
    scaled = NormalizerAccumulator()
    k = 37.5
    for gts, anchors in scenes:
        plain = accumulate(plain, gts, anchors)
        scaled = accumulate(
            scaled, [scale_box(b, k) for b in gts], [scale_box(b, k) for b in anchors]
        )
    a = finalize(plain)
    b = finalize(scaled)
    assert b.m == pytest.approx(a.m, rel=1e-9)
    assert b.n == pytest.approx(a.n, rel=1e-9)


def test_normalizers_grow_with_the_image_extent():
    # m and n average over every gt x anchor pair, so a larger image's far
    # anchors raise them, and the weight they put on every term, the near
    # pairs' included. The same gts and the same near anchors then score
    # lower: here a tiny gt's best PS falls below the 0.3 rescue floor.
    def layout(w, h):
        return AnchorGridSpec(levels=((16.0, 16.0),), image_w=w, image_h=h,
                              ratios=(0.5, 1.0, 2.0), scales=(8.0, 16.0, 32.0))

    small, large = generate_anchors(layout(640.0, 480.0)), generate_anchors(layout(1600.0, 1600.0))
    # The large grid holds every anchor of the small one and adds far ones.
    assert {tuple(b) for b in small.boxes} < {tuple(b) for b in large.boxes}
    gts = np.array([[100.0, 80.0, 12.0, 9.0], [320.0, 240.0, 60.0, 90.0], [500.0, 400.0, 200.0, 150.0]])
    near, far = (finalize(accumulate(NormalizerAccumulator(), gts, a)) for a in (small, large))
    assert far.m > 2 * near.m and far.n > 2 * near.n
    min_pos_thr = AssignThresholds().min_pos_thr
    assert min_pos_thr == 0.3
    tiny_best = [ps_matrix(gts[:1], a, norm).max() for a, norm in ((small, near), (large, far))]
    assert tiny_best[0] >= min_pos_thr > tiny_best[1]
    # The best anchor is a near one either way: swapping the normalizers
    # swaps the outcome.
    assert ps_matrix(gts[:1], large, near).max() == tiny_best[0]
    assert ps_matrix(gts[:1], small, far).max() == tiny_best[1]


def test_ps_matrix_shapes_and_scalar_bit_identity():
    norm = DatasetNormalizers(0.9, 1.7)
    empty = ps_matrix([], [Box(0, 0, 1, 1), Box(1, 1, 2, 2)], norm)
    assert empty.shape == (0, 2)
    only = Box(3, 4, 5, 6)
    np.testing.assert_array_equal(ps_matrix([only], [only], norm), [[1.0]])

    rng = np.random.default_rng(29)
    gts = random_boxes(rng, 8)
    anchors = random_boxes(rng, 64)
    matrix = ps_matrix(gts, anchors, norm)
    assert matrix.shape == (8, 64)
    for g, gt in enumerate(gts):
        for a, anchor in enumerate(anchors):
            assert matrix[g, a] == pairwise_similarity(gt, anchor, norm)


def test_normalizer_validation():
    with pytest.raises(ValueError):
        DatasetNormalizers(-0.1, 0.0)
    with pytest.raises(ValueError):
        DatasetNormalizers(float("nan"), 1.0)
    # bool is an int subclass; neither it nor a fractional count is taken.
    for m, n, name in ((True, 0.5, "m"), (0.5, False, "n"), (10**400, 0.5, "m")):
        with pytest.raises(ValueError, match=f"normalizer {name}"):
            DatasetNormalizers(m, n)
    for fields, name in (({"sum_x": True}, "sum_x"), ({"sum_y": False}, "sum_y"),
                         ({"sum_x": -1.0}, "sum_x"), ({"pair_count": 1.5}, "pair_count"),
                         ({"pair_count": True}, "pair_count"), ({"pair_count": -1}, "pair_count"),
                         ({"sum_x": "1"}, "sum_x"), ({"sum_y": 10**400}, "sum_y")):
        with pytest.raises(ValueError, match=name):
            NormalizerAccumulator(**fields)
    assert type(NormalizerAccumulator(pair_count=np.int64(3)).pair_count) is int


def test_cache_roundtrip_and_errors(tmp_path):
    cache = NormalizerCache(
        m=0.25, n=0.0, pair_count=2, dataset_hash="ab" * 8, anchor_spec_hash="cd" * 8
    )
    path = tmp_path / "normalizers.json"
    save_normalizer_cache(path, cache)
    loaded = load_normalizer_cache(path)
    assert loaded == cache
    assert loaded.normalizers == DatasetNormalizers(0.25, 0.0)

    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_normalizer_cache(bad)

    missing = tmp_path / "missing-field.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["m"]
    missing.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError):
        load_normalizer_cache(missing)

    # Wrong values are errors too, never a coerced hit or another exception.
    for field, value in [
        ("m", "nan"),
        ("m", float("nan")),
        ("m", [1]),
        ("m", True),
        ("m", 10**400),
        ("n", -1.0),
        ("n", float("inf")),
        ("n", None),
        ("pair_count", 2.7),
        ("pair_count", 2.0),
        ("pair_count", -1),
        ("pair_count", True),
        ("pair_count", "2"),
    ]:
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        wrong = tmp_path / "wrong-value.json"
        wrong.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=field):
            load_normalizer_cache(wrong)
