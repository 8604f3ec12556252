"""Deterministic toy feature pyramid and pooled linear encoders.

This module manufactures EmbeddingBatch inputs with FPN-like structure so
the contrast losses can run end to end without a backbone: synthetic
lateral feature maps, a top-down fusion pass (per-level channel reduction
plus nearest-neighbor upsampling), and a global-average-pool encoder with
a seeded random projection.

All randomness comes from a counter-based 64-bit generator (the splitmix64
finalizer applied to key + counter * golden-ratio increments), so any value
can be produced independently of evaluation order: streams are keyed by a
domain tag plus (seed, level, image) and indexed by (channel, pixel)
position. Same config, same bits, on any platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _count, _shown
from .contrast import EmbeddingBatch

__all__ = [
    "FeatureMap",
    "ToyPyramidConfig",
    "synth_pyramid",
    "fuse_topdown",
    "encode",
    "build_embedding_batch",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep the generator's streams disjoint across uses.
_DOM_FEATURES = 1
_DOM_REDUCE = 2
_DOM_PROJECT = 3
_DOM_PROJ_SPATIAL_LATERAL = 4
_DOM_PROJ_SEMANTIC_LATERAL = 5
_DOM_PROJ_SPATIAL_FUSED = 6
_DOM_PROJ_SEMANTIC_FUSED = 7


def _mix(z):
    """Splitmix64 finalizer of a Python int in [0, 2^64), or elementwise of a uint64 array.

    Every step is an augmented assignment, so a uint64 array is consumed:
    its steps run in place and it holds the result. An int is immutable,
    so there the same steps just rebind. The masks keep an int's products
    to 64 bits; a uint64 array wraps on its own, so there they change
    nothing.
    """
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def _stream_key(*parts: int) -> int:
    """Fold integer parts into one 64-bit stream key, in Python ints.

    Each part, taken modulo 2^64 (so negative and wider parts are folded
    too), advances the key by one splitmix64 step: key = _mix(key +
    golden-ratio increment + part), starting from 0.
    """
    key = 0
    for part in parts:
        key = _mix((key + _GOLDEN + part) & _MASK64)
    return key


def _top_bits(key: int, count: int) -> np.ndarray:
    """The top 53 bits of the first `count` words of stream `key`, as uint64."""
    words = np.arange(1, count + 1, dtype=np.uint64)
    words *= _GOLDEN
    words += key
    words = _mix(words)
    words >>= 11
    return words


def _uniform(key: int, count: int) -> np.ndarray:
    """The first `count` uniform [0, 1) doubles of stream `key`."""
    return _top_bits(key, count) * 2.0**-53


def _signed_uniform(key: int, count: int) -> np.ndarray:
    """Uniform [-1, 1) doubles: 2 * _uniform(key, count) - 1, bit for bit.

    A 53-bit integer times 2^-52 is exact, so (bits * 2^-52) - 1 rounds
    exactly as 2 * (bits * 2^-53) - 1 does; the scaling and the shift run
    in place on the one float array.
    """
    values = _top_bits(key, count).astype(np.float64)
    values *= 2.0**-52
    values -= 1.0
    return values


@dataclass(frozen=True)
class FeatureMap:
    """A channel-major feature map of shape (channels, height, width)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"feature map data must be 3-d (C, H, W), got shape {arr.shape}")
        if 0 in arr.shape:
            raise ValueError(f"feature map dimensions must be at least 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return int(self.data.shape[0])

    @property
    def height(self) -> int:
        return int(self.data.shape[1])

    @property
    def width(self) -> int:
        return int(self.data.shape[2])


@dataclass(frozen=True)
class ToyPyramidConfig:
    """Shape and seed of a synthetic pyramid batch.

    Level i has square resolution base_size / 2^i, so base_size must be
    divisible by 2^(levels - 1); lateral channel counts are per level
    while every fused map shares fused_channels.
    """

    levels: int
    batch: int
    base_size: int
    lateral_channels: tuple[int, ...]
    fused_channels: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("levels", "batch", "base_size", "fused_channels", "seed"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        try:
            lateral = tuple(self.lateral_channels)
        except TypeError:
            raise ValueError(
                f"lateral_channels must be a sequence of integers, got {_shown(self.lateral_channels)}"
            ) from None
        lateral = tuple(_count(c, "lateral_channels") for c in lateral)
        object.__setattr__(self, "lateral_channels", lateral)
        if self.levels < 2:
            raise ValueError(f"a pyramid needs at least 2 levels, got {_shown(self.levels)}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {_shown(self.batch)}")
        if len(self.lateral_channels) != self.levels:
            raise ValueError(
                f"need one lateral channel count per level, "
                f"got {len(self.lateral_channels)} for {_shown(self.levels)} levels"
            )
        halvings = 1 << (self.levels - 1)
        if self.base_size < halvings or self.base_size % halvings:
            raise ValueError(
                f"base_size {_shown(self.base_size)} cannot halve {self.levels - 1} times to an integer"
            )
        if min(self.lateral_channels) < 1:
            raise ValueError(f"lateral_channels must be at least 1, got {_shown(min(self.lateral_channels))}")
        if self.fused_channels < 1:
            raise ValueError(f"fused_channels must be at least 1, got {_shown(self.fused_channels)}")

    def level_size(self, level: int) -> int:
        return self.base_size >> level


def synth_pyramid(cfg: ToyPyramidConfig) -> list[list[FeatureMap]]:
    """Generate the lateral feature maps of a batch.

    Values are uniform in [-1, 1), drawn from streams keyed by
    (seed, level, image) and indexed by channel-major pixel position, so
    every map is independent of generation order.

    Returns:
        One list per image, each holding the maps of levels 0..L-1 from
        finest to coarsest.
    """
    images = []
    for j in range(cfg.batch):
        maps = []
        for i in range(cfg.levels):
            size = cfg.level_size(i)
            channels = cfg.lateral_channels[i]
            key = _stream_key(_DOM_FEATURES, cfg.seed, i, j)
            values = _signed_uniform(key, channels * size * size)
            maps.append(FeatureMap(values.reshape(channels, size, size)))
        images.append(maps)
    return images


@functools.lru_cache(maxsize=16)
def _reduction_matrix(reduction_seed: int, level: int, out_channels: int, in_channels: int) -> np.ndarray:
    """The read-only (out_channels, in_channels) reduction of one level, made once per key."""
    key = _stream_key(_DOM_REDUCE, reduction_seed, level)
    values = _signed_uniform(key, out_channels * in_channels)
    # 1/sqrt(C) scaling keeps reduced magnitudes comparable to the input.
    reduction = values.reshape(out_channels, in_channels) / math.sqrt(in_channels)
    reduction.flags.writeable = False
    return reduction


@functools.lru_cache(maxsize=32)
def _projection(projection_seed: int, channels: int, dim: int) -> np.ndarray:
    """The read-only (dim, channels) projection of encode, made once per key."""
    key = _stream_key(_DOM_PROJECT, projection_seed, channels)
    projection = _signed_uniform(key, dim * channels).reshape(dim, channels)
    projection /= math.sqrt(channels)
    projection.flags.writeable = False
    return projection


def _upsample2x(data: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(data, 2, axis=1), 2, axis=2)


def fuse_topdown(laterals, reduction_seed: int, fused_channels: int) -> list[FeatureMap]:
    """Run a top-down fusion pass over one image's lateral maps.

    The topmost (coarsest) fused map is a seeded random 1x1 channel
    reduction of its lateral; every level below adds the nearest-neighbor
    2x upsampling of the fused map above to its own reduction. The
    reduction matrices are keyed by (reduction_seed, level, shape) and
    made once per key, so a batch of images fused with one seed shares
    them.

    Args:
        laterals: Feature maps from finest to coarsest; each level's
            height and width must be double the next level's.
        reduction_seed: Integer seed keying the per-level reduction
            matrices.
        fused_channels: Channel count of every fused map, an integer.

    Returns:
        Fused maps, same order and spatial sizes as the laterals.
    """
    reduction_seed = _count(reduction_seed, "reduction_seed")
    fused_channels = _count(fused_channels, "fused_channels")
    if not laterals:
        raise ValueError("fuse_topdown needs at least one lateral map")
    if fused_channels < 1:
        raise ValueError(f"fused_channels must be at least 1, got {fused_channels}")
    for i, (upper, lower) in enumerate(zip(laterals[1:], laterals)):
        if lower.height != 2 * upper.height or lower.width != 2 * upper.width:
            raise ValueError(
                f"level {i} is {lower.height}x{lower.width} but level {i + 1} is "
                f"{upper.height}x{upper.width}; expected exact 2x halving"
            )

    fused: list[FeatureMap | None] = [None] * len(laterals)
    top = len(laterals) - 1
    for i in range(top, -1, -1):
        lateral = laterals[i]
        reduction = _reduction_matrix(reduction_seed, i, fused_channels, lateral.channels)
        # Accumulate one input channel at a time in ascending order so the
        # result is reproducible by a plain loop over the same arithmetic.
        data = np.zeros((fused_channels, lateral.height, lateral.width))
        for c in range(lateral.channels):
            data += reduction[:, c, np.newaxis, np.newaxis] * lateral.data[c]
        if i < top:
            data += _upsample2x(fused[i + 1].data)
        fused[i] = FeatureMap(data)
    return fused


def encode(fmap: FeatureMap, projection_seed: int, dim: int) -> np.ndarray:
    """Embed a feature map: global average pool, then a seeded projection.

    The projection matrix is keyed by (projection_seed, channels), so maps
    with equal channel counts share one projection per seed; entries are
    uniform in [-1, 1) scaled by 1/sqrt(channels). Each projection is
    made once per (projection_seed, channels, dim) and reused by every
    later call. The seed and dim must be integers.

    Returns:
        Float64 vector of length dim.
    """
    projection_seed = _count(projection_seed, "projection_seed")
    dim = _count(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    pooled = fmap.data.mean(axis=(1, 2))
    return _projection(projection_seed, fmap.channels, dim) @ pooled


def build_embedding_batch(cfg: ToyPyramidConfig, dim: int) -> EmbeddingBatch:
    """Synthesize, fuse, and encode a full embedding batch.

    Four projection seeds are derived from cfg.seed, one per embedding
    family (spatial/semantic crossed with lateral/fused), so the families
    differ even where they encode the same map.
    """
    pyramid = synth_pyramid(cfg)
    fused = [fuse_topdown(maps, cfg.seed, cfg.fused_channels) for maps in pyramid]
    families = {
        "spatial_lateral": (_DOM_PROJ_SPATIAL_LATERAL, pyramid),
        "semantic_lateral": (_DOM_PROJ_SEMANTIC_LATERAL, pyramid),
        "spatial_fused": (_DOM_PROJ_SPATIAL_FUSED, fused),
        "semantic_fused": (_DOM_PROJ_SEMANTIC_FUSED, fused),
    }
    # encode checks dim; each family is (L, N, dim).
    arrays = {
        name: np.array([[encode(maps[i], _stream_key(domain, cfg.seed), dim) for maps in source]
                        for i in range(cfg.levels)])
        for name, (domain, source) in families.items()
    }
    return EmbeddingBatch(**arrays)
