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

import math
from dataclasses import dataclass

import numpy as np

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

    The masks keep an int's products to 64 bits; a uint64 array wraps on
    its own, so there they change nothing.
    """
    z = z ^ z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z = z ^ z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


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


def _uniform(key: int, count: int) -> np.ndarray:
    """The first `count` uniform [0, 1) doubles of stream `key`."""
    counters = np.arange(1, count + 1, dtype=np.uint64)
    counters *= _GOLDEN
    counters += key
    return (_mix(counters) >> 11) * (2.0**-53)


def _signed_uniform(key: int, count: int) -> np.ndarray:
    """Uniform [-1, 1) doubles."""
    return 2.0 * _uniform(key, count) - 1.0


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
        object.__setattr__(self, "lateral_channels", tuple(int(c) for c in self.lateral_channels))
        if self.levels < 2:
            raise ValueError(f"a pyramid needs at least 2 levels, got {self.levels}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        halvings = 1 << (self.levels - 1)
        if self.base_size < halvings or self.base_size % halvings:
            raise ValueError(
                f"base_size {self.base_size} cannot halve {self.levels - 1} times to an integer"
            )
        if len(self.lateral_channels) != self.levels:
            raise ValueError(
                f"need one lateral channel count per level, "
                f"got {len(self.lateral_channels)} for {self.levels} levels"
            )
        if any(c < 1 for c in self.lateral_channels):
            raise ValueError(f"channel counts must be at least 1, got {self.lateral_channels}")
        if self.fused_channels < 1:
            raise ValueError(f"fused_channels must be at least 1, got {self.fused_channels}")

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


def _reduction_matrix(reduction_seed: int, level: int, out_channels: int, in_channels: int) -> np.ndarray:
    key = _stream_key(_DOM_REDUCE, reduction_seed, level)
    values = _signed_uniform(key, out_channels * in_channels)
    # 1/sqrt(C) scaling keeps reduced magnitudes comparable to the input.
    return values.reshape(out_channels, in_channels) / math.sqrt(in_channels)


def _upsample2x(data: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(data, 2, axis=1), 2, axis=2)


def fuse_topdown(laterals, reduction_seed: int, fused_channels: int) -> list[FeatureMap]:
    """Run a top-down fusion pass over one image's lateral maps.

    The topmost (coarsest) fused map is a seeded random 1x1 channel
    reduction of its lateral; every level below adds the nearest-neighbor
    2x upsampling of the fused map above to its own reduction.

    Args:
        laterals: Feature maps from finest to coarsest; each level's
            height and width must be double the next level's.
        reduction_seed: Seed keying the per-level reduction matrices.
        fused_channels: Channel count of every fused map.

    Returns:
        Fused maps, same order and spatial sizes as the laterals.
    """
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
    uniform in [-1, 1) scaled by 1/sqrt(channels).

    Returns:
        Float64 vector of length dim.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    pooled = fmap.data.mean(axis=(1, 2))
    key = _stream_key(_DOM_PROJECT, projection_seed, fmap.channels)
    projection = _signed_uniform(key, dim * fmap.channels).reshape(dim, fmap.channels)
    projection /= math.sqrt(fmap.channels)
    return projection @ pooled


def build_embedding_batch(cfg: ToyPyramidConfig, dim: int) -> EmbeddingBatch:
    """Synthesize, fuse, and encode a full embedding batch.

    Four projection seeds are derived from cfg.seed, one per embedding
    family (spatial/semantic crossed with lateral/fused), so the families
    differ even where they encode the same map.
    """
    pyramid = synth_pyramid(cfg)
    fused = [fuse_topdown(maps, cfg.seed, cfg.fused_channels) for maps in pyramid]

    seeds = {
        "spatial_lateral": _stream_key(_DOM_PROJ_SPATIAL_LATERAL, cfg.seed),
        "semantic_lateral": _stream_key(_DOM_PROJ_SEMANTIC_LATERAL, cfg.seed),
        "spatial_fused": _stream_key(_DOM_PROJ_SPATIAL_FUSED, cfg.seed),
        "semantic_fused": _stream_key(_DOM_PROJ_SEMANTIC_FUSED, cfg.seed),
    }
    arrays = {name: np.empty((cfg.levels, cfg.batch, dim)) for name in seeds}
    for j in range(cfg.batch):
        for i in range(cfg.levels):
            arrays["spatial_lateral"][i, j] = encode(pyramid[j][i], seeds["spatial_lateral"], dim)
            arrays["semantic_lateral"][i, j] = encode(pyramid[j][i], seeds["semantic_lateral"], dim)
            arrays["spatial_fused"][i, j] = encode(fused[j][i], seeds["spatial_fused"], dim)
            arrays["semantic_fused"][i, j] = encode(fused[j][i], seeds["semantic_fused"], dim)
    return EmbeddingBatch(**arrays)
