"""Deterministic toy pyramid: generator streams, fusion, and encoding."""

import random

import numpy as np
import pytest

from smalldet import (
    FeatureMap,
    ToyPyramidConfig,
    build_embedding_batch,
    encode,
    fuse_topdown,
    spatial_loss,
    synth_pyramid,
)
from smalldet.contrast import ContrastConfig
from smalldet.pyramid import _mix, _reduction_matrix, _stream_key, _uniform
from oracles import encode_ref, fuse_ref, stream_key_ref, uniform_ref


def small_cfg(seed=0, levels=3, batch=2):
    return ToyPyramidConfig(
        levels=levels,
        batch=batch,
        base_size=8 if levels == 3 else 4 << (levels - 1),
        lateral_channels=tuple(3 + i for i in range(levels)),
        fused_channels=3,
        seed=seed,
    )


def test_uniform_stream_matches_splitmix_reference():
    """The documented generator is the classic splitmix64 sequence."""
    for key in (0, 1, 1234567, 2**64 - 1):
        got = _uniform(key, 64)
        want = uniform_ref(key, 64)
        np.testing.assert_array_equal(got, want)
        assert np.all(got >= 0.0) and np.all(got < 1.0)


def test_stream_keys_are_stable_and_distinct():
    a = _stream_key(1, 0, 2, 1)
    assert a == _stream_key(1, 0, 2, 1)
    assert a != _stream_key(1, 0, 1, 2)
    assert a != _stream_key(2, 0, 2, 1)


def test_stream_key_matches_splitmix_reference():
    edges = [0, 1, -1, 7, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -(2**64) - 3, 2**70 + 11]
    rng = random.Random(7)
    cases = [(), *((part,) for part in edges)]
    for _ in range(500):
        cases.append(tuple(
            rng.choice(edges) if rng.random() < 0.3 else rng.getrandbits(70) - 2**69
            for _ in range(rng.randint(1, 5))
        ))
    for parts in cases:
        key = _stream_key(*parts)
        assert type(key) is int and 0 <= key < 2**64
        assert key == stream_key_ref(*parts), parts

    # The one finalizer gives the same words on ints and on a uint64 array.
    words = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(60)]
    assert _mix(np.array(words, dtype=np.uint64)).tolist() == [_mix(w) for w in words]


def test_config_validation():
    with pytest.raises(ValueError):
        ToyPyramidConfig(levels=1, batch=1, base_size=8, lateral_channels=(3,), fused_channels=2)
    with pytest.raises(ValueError):
        ToyPyramidConfig(
            levels=3, batch=1, base_size=6, lateral_channels=(3, 3, 3), fused_channels=2
        )
    with pytest.raises(ValueError):
        ToyPyramidConfig(
            levels=3, batch=1, base_size=8, lateral_channels=(3, 3), fused_channels=2
        )


def test_synth_shapes_and_determinism():
    cfg = small_cfg(seed=4)
    first = synth_pyramid(cfg)
    second = synth_pyramid(cfg)
    assert len(first) == cfg.batch
    for image_a, image_b in zip(first, second):
        assert len(image_a) == cfg.levels
        for level, (map_a, map_b) in enumerate(zip(image_a, image_b)):
            size = cfg.base_size >> level
            assert map_a.data.shape == (cfg.lateral_channels[level], size, size)
            np.testing.assert_array_equal(map_a.data, map_b.data)
            assert np.all(map_a.data >= -1.0) and np.all(map_a.data < 1.0)

    different = synth_pyramid(small_cfg(seed=5))
    assert not np.array_equal(different[0][0].data, first[0][0].data)


def test_synth_streams_independent_of_batch_size():
    """Image j's maps do not depend on how many images follow it."""
    wide = synth_pyramid(small_cfg(seed=6, batch=3))
    narrow = synth_pyramid(small_cfg(seed=6, batch=1))
    for level in range(3):
        np.testing.assert_array_equal(wide[0][level].data, narrow[0][level].data)


def test_fuse_single_level_is_plain_reduction():
    cfg = ToyPyramidConfig(
        levels=2, batch=1, base_size=8, lateral_channels=(3, 4), fused_channels=2, seed=9
    )
    maps = synth_pyramid(cfg)[0]
    lone = fuse_topdown([maps[0]], reduction_seed=9, fused_channels=2)
    ref = fuse_ref(
        [maps[0].data],
        lambda level: _reduction_matrix(9, level, 2, maps[0].channels),
        2,
    )
    np.testing.assert_array_equal(lone[0].data, ref[0])


def test_fuse_constant_input_stays_constant():
    maps = [
        FeatureMap(np.full((3, 8, 8), 0.25)),
        FeatureMap(np.full((2, 4, 4), -1.5)),
    ]
    fused = fuse_topdown(maps, reduction_seed=1, fused_channels=4)
    for level in fused:
        flat = level.data.reshape(level.channels, -1)
        assert np.all(flat == flat[:, :1])


def test_fuse_matches_naive_reference_bit_exactly():
    cfg = small_cfg(seed=11)
    for maps in synth_pyramid(cfg):
        fused = fuse_topdown(maps, reduction_seed=cfg.seed, fused_channels=cfg.fused_channels)
        ref = fuse_ref(
            [m.data for m in maps],
            lambda level: _reduction_matrix(
                cfg.seed, level, cfg.fused_channels, maps[level].channels
            ),
            cfg.fused_channels,
        )
        for got, want in zip(fused, ref):
            np.testing.assert_array_equal(got.data, want)


def test_fuse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fuse_topdown([], reduction_seed=0, fused_channels=2)
    maps = [FeatureMap(np.zeros((2, 8, 8))), FeatureMap(np.zeros((2, 3, 3)))]
    with pytest.raises(ValueError):
        fuse_topdown(maps, reduction_seed=0, fused_channels=2)


def test_encode_linearity_and_zero():
    from smalldet.pyramid import _DOM_PROJECT, _signed_uniform

    value = 2.0
    out = encode(FeatureMap(np.full((3, 4, 4), value)), projection_seed=3, dim=5)
    key = _stream_key(_DOM_PROJECT, 3, 3)
    projection = _signed_uniform(key, 5 * 3).reshape(5, 3) / np.sqrt(3)
    # A constant map pools to that constant, so output_k = v * row_sum_k.
    np.testing.assert_allclose(out, value * projection.sum(axis=1), atol=1e-12)

    zero = encode(FeatureMap(np.zeros((3, 4, 4))), projection_seed=3, dim=5)
    np.testing.assert_array_equal(zero, np.zeros(5))


def test_encode_matches_naive_reference():
    cfg = small_cfg(seed=12)
    maps = synth_pyramid(cfg)[0]
    from smalldet.pyramid import _DOM_PROJECT, _signed_uniform

    for fmap in maps:
        got = encode(fmap, projection_seed=21, dim=6)
        key = _stream_key(_DOM_PROJECT, 21, fmap.channels)
        projection = _signed_uniform(key, 6 * fmap.channels).reshape(6, fmap.channels)
        projection = projection / np.sqrt(fmap.channels)
        want = encode_ref(fmap.data, [list(row) for row in projection])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_feature_map_validation():
    with pytest.raises(ValueError):
        FeatureMap(np.zeros((4, 4)))
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 0] = float("inf")
    with pytest.raises(ValueError):
        FeatureMap(bad)


def test_build_embedding_batch_shapes_and_determinism():
    cfg = small_cfg(seed=13)
    batch = build_embedding_batch(cfg, dim=6)
    again = build_embedding_batch(cfg, dim=6)
    for name in ("spatial_lateral", "semantic_lateral", "spatial_fused", "semantic_fused"):
        arr = getattr(batch, name)
        assert arr.shape == (cfg.levels, cfg.batch, 6)
        np.testing.assert_array_equal(arr, getattr(again, name))
    # the four families come from distinct projections
    assert not np.array_equal(batch.spatial_lateral, batch.semantic_lateral)
    assert not np.array_equal(batch.spatial_fused, batch.semantic_fused)


def test_single_image_batch_gives_zero_spatial_loss():
    cfg = small_cfg(seed=14, batch=1)
    batch = build_embedding_batch(cfg, dim=6)
    assert spatial_loss(batch, ContrastConfig()) == 0.0
