"""Deterministic toy pyramid: generator streams, fusion, and encoding."""

import hashlib
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
from smalldet.pyramid import (
    _DOM_PROJ_SEMANTIC_FUSED,
    _DOM_PROJ_SEMANTIC_LATERAL,
    _DOM_PROJ_SPATIAL_FUSED,
    _DOM_PROJ_SPATIAL_LATERAL,
    _DOM_PROJECT,
    _mix,
    _projection,
    _reduction_matrix,
    _signed_uniform,
    _stream_key,
    _uniform,
)
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

    # The one finalizer gives the same words on ints and on a uint64 array,
    # which it consumes: the array itself holds the result.
    words = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(60)]
    array = np.array(words, dtype=np.uint64)
    assert _mix(array) is array and array.dtype == np.uint64
    assert array.tolist() == [_mix(w) for w in words]


@pytest.mark.parametrize("count", [0, 1, 7, 32769])
@pytest.mark.parametrize("key", [0, 2**63, 2**64 - 1])
def test_signed_uniform_is_twice_uniform_minus_one_bit_for_bit(key, count):
    got = _signed_uniform(key, count)
    want = np.array([2 * u - 1 for u in uniform_ref(key, count)], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == want.tobytes()


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
    # The lateral count is checked before base_size is halved levels - 1
    # times, which for a huge level count is an OverflowError.
    with pytest.raises(ValueError, match="one lateral channel count per level"):
        ToyPyramidConfig(levels=10**400, batch=1, base_size=8, lateral_channels=(3, 3), fused_channels=2)


FAMILIES = ("spatial_lateral", "semantic_lateral", "spatial_fused", "semantic_fused")
GOOD_CONFIG = dict(levels=3, batch=2, base_size=8, lateral_channels=(3, 4, 5), fused_channels=3, seed=0)
NOT_INTEGERS = [2.0, 2.5, True, "2", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
@pytest.mark.parametrize("field", ["levels", "batch", "base_size", "fused_channels", "seed"])
def test_config_integer_field_rejects_non_integers(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ToyPyramidConfig(**{**GOOD_CONFIG, field: bad})


@pytest.mark.parametrize("bad", [(2.5, 4, 5), (3, True, 5), (3, 4, "5"), (3, None, 5), 7])
def test_config_lateral_channels_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="^lateral_channels must be"):
        ToyPyramidConfig(**{**GOOD_CONFIG, "lateral_channels": bad})


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_dim_rejects_non_integers(bad):
    cfg = ToyPyramidConfig(**GOOD_CONFIG)
    with pytest.raises(ValueError, match="^dim must be an integer"):
        build_embedding_batch(cfg, bad)
    with pytest.raises(ValueError, match="^dim must be an integer"):
        encode(FeatureMap(np.ones((3, 2, 2))), projection_seed=0, dim=bad)


def test_fuse_and_encode_take_integers_only_even_with_a_warm_cache():
    """A float equal to a cached key must not reach the cached matrix."""
    maps = synth_pyramid(ToyPyramidConfig(**GOOD_CONFIG))[0]
    fuse_topdown(maps, reduction_seed=0, fused_channels=3)
    encode(maps[0], projection_seed=0, dim=4)
    with pytest.raises(ValueError, match="^reduction_seed must be an integer"):
        fuse_topdown(maps, reduction_seed=0.0, fused_channels=3)
    with pytest.raises(ValueError, match="^fused_channels must be an integer"):
        fuse_topdown(maps, reduction_seed=0, fused_channels=3.0)
    with pytest.raises(ValueError, match="^projection_seed must be an integer"):
        encode(maps[0], projection_seed=0.0, dim=4)


def test_config_takes_numpy_integers_as_python_ints():
    cfg = ToyPyramidConfig(
        levels=np.int64(3),
        batch=np.uint8(2),
        base_size=np.int32(8),
        lateral_channels=np.array([3, 4, 5]),
        fused_channels=np.int16(3),
        seed=np.uint64(0),
    )
    assert cfg == ToyPyramidConfig(**GOOD_CONFIG)
    for name in ("levels", "batch", "base_size", "fused_channels", "seed"):
        assert type(getattr(cfg, name)) is int
    assert all(type(c) is int for c in cfg.lateral_channels)
    ours, plain = build_embedding_batch(cfg, np.int64(6)), build_embedding_batch(ToyPyramidConfig(**GOOD_CONFIG), 6)
    for name in FAMILIES:
        assert getattr(ours, name).tobytes() == getattr(plain, name).tobytes()


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


def demo_cfg(levels, batch, seed):
    """The pyramid that contrast-demo and the training benchmark build."""
    return ToyPyramidConfig(
        levels=levels,
        batch=batch,
        base_size=4 << (levels - 1),
        lateral_channels=tuple(8 + 4 * i for i in range(levels)),
        fused_channels=8,
        seed=seed,
    )


def composed_batch(cfg, dim):
    """build_embedding_batch spelled out as synth_pyramid -> fuse_topdown -> encode."""
    laterals = synth_pyramid(cfg)
    fused = [fuse_topdown(maps, cfg.seed, cfg.fused_channels) for maps in laterals]
    sources = {
        "spatial_lateral": (_DOM_PROJ_SPATIAL_LATERAL, laterals),
        "semantic_lateral": (_DOM_PROJ_SEMANTIC_LATERAL, laterals),
        "spatial_fused": (_DOM_PROJ_SPATIAL_FUSED, fused),
        "semantic_fused": (_DOM_PROJ_SEMANTIC_FUSED, fused),
    }
    arrays = {}
    for name, (domain, maps) in sources.items():
        seed = _stream_key(domain, cfg.seed)
        arrays[name] = np.array(
            [[encode(maps[j][i], seed, dim) for j in range(cfg.batch)] for i in range(cfg.levels)]
        )
    return arrays


@pytest.mark.parametrize(
    "levels, batch, dim, seeds", [(4, 3, 16, range(32)), (5, 64, 128, range(4))], ids=["demo", "training"]
)
def test_build_equals_the_composition_of_the_public_steps(levels, batch, dim, seeds):
    for seed in seeds:
        cfg = demo_cfg(levels, batch, seed)
        built = build_embedding_batch(cfg, dim)
        for name, want in composed_batch(cfg, dim).items():
            got = getattr(built, name)
            assert got.shape == want.shape == (levels, batch, dim)
            assert got.tobytes() == want.tobytes(), (seed, name)


def test_training_shape_build_is_pinned():
    """SHA-256 of the four little-endian arrays at L=5, N=64, D=128, seed 0."""
    batch = build_embedding_batch(demo_cfg(5, 64, 0), 128)
    digest = hashlib.sha256()
    for name in FAMILIES:
        digest.update(getattr(batch, name).astype("<f8").tobytes())
    assert digest.hexdigest() == "05bcf96e7e5b886bba75cd4aab44da27b811f46c7fc644c5c54e961d72827305"


def test_projection_and_reduction_are_made_once_and_read_only():
    projection = _projection(31, 5, 7)
    assert _projection(31, 5, 7) is projection
    fresh = _signed_uniform(_stream_key(_DOM_PROJECT, 31, 5), 7 * 5).reshape(7, 5) / np.sqrt(5)
    assert projection.tobytes() == fresh.tobytes()
    reduction = _reduction_matrix(31, 2, 4, 6)
    assert _reduction_matrix(31, 2, 4, 6) is reduction
    for matrix in (projection, reduction):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
