"""Pairwise box similarity from center-offset and shape-difference terms.

The similarity of a (ground truth, anchor) pair is exp(-(position + shape))
where both penalty terms are relative differences weighted by dataset-wide
normalizers m and n. Values lie in (0, 1] and reach 1 exactly when the two
boxes coincide (or when m = n = 0, a documented degenerate case where every
pair scores 1).

The normalizers are means over every ground-truth/anchor pair of a dataset:
m averages |x_gt - x_anchor| / (w_gt + w_anchor), n averages the analogous
y/height ratio. m weights both x-offset and width terms; n weights both
y-offset and height terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Box, boxes_to_array, row_blocks

__all__ = [
    "EmptyDatasetError",
    "DatasetNormalizers",
    "NormalizerAccumulator",
    "NormalizerCache",
    "position_similarity",
    "shape_similarity",
    "pairwise_similarity",
    "ps_matrix",
    "ps_rows",
    "accumulate",
    "finalize",
    "save_normalizer_cache",
    "load_normalizer_cache",
]


class EmptyDatasetError(ValueError):
    """Finalizing normalizers over zero ground-truth/anchor pairs."""


@dataclass(frozen=True)
class DatasetNormalizers:
    """Dataset-wide mean relative center offsets.

    Attributes:
        m: Mean |x offset| / (width sum) over all gt-anchor pairs.
        n: Mean |y offset| / (height sum) over all gt-anchor pairs.
    """

    m: float
    n: float

    def __post_init__(self) -> None:
        for name in ("m", "n"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"normalizer {name} must be finite, got {v!r}")
            if v < 0:
                raise ValueError(f"normalizer {name} must be non-negative, got {v!r}")


@dataclass(frozen=True)
class NormalizerAccumulator:
    """Running sums behind DatasetNormalizers.

    A value type with an associative, commutative merge, so datasets can
    be accumulated image by image in any grouping. All-zero by default.
    """

    sum_x: float = 0.0
    sum_y: float = 0.0
    pair_count: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sum_x) and self.sum_x >= 0):
            raise ValueError(f"sum_x must be finite and non-negative, got {self.sum_x!r}")
        if not (math.isfinite(self.sum_y) and self.sum_y >= 0):
            raise ValueError(f"sum_y must be finite and non-negative, got {self.sum_y!r}")
        if self.pair_count < 0:
            raise ValueError(f"pair_count must be non-negative, got {self.pair_count!r}")

    def merge(self, other: "NormalizerAccumulator") -> "NormalizerAccumulator":
        """Field-wise sum of two accumulators."""
        return NormalizerAccumulator(
            self.sum_x + other.sum_x,
            self.sum_y + other.sum_y,
            self.pair_count + other.pair_count,
        )


def _ps_terms(g: np.ndarray, a: np.ndarray, m: float, n: float):
    """Position and shape penalty terms for broadcastable (..., 4) arrays.

    The scalar operations and the row-block kernel ps_rows (behind
    ps_matrix and assign_with_metric) all funnel through this one
    kernel, so every batch entry is bit-identical to scalar evaluation.
    """
    sum_w = g[..., 2] + a[..., 2]
    sum_h = g[..., 3] + a[..., 3]

    px = g[..., 0] - a[..., 0]
    px /= sum_w
    px *= m
    px *= px
    py = g[..., 1] - a[..., 1]
    py /= sum_h
    py *= n
    py *= py
    px += py
    position = np.sqrt(px, out=px)

    qw = g[..., 2] - a[..., 2]
    qw /= sum_w
    qw *= m
    qw *= qw
    qh = g[..., 3] - a[..., 3]
    qh /= sum_h
    qh *= n
    qh *= qh
    qw += qh
    shape = np.sqrt(qw, out=qw)
    return position, shape


def _pair_terms(gt: Box, anchor: Box, norm: DatasetNormalizers):
    """Kernel terms for one pair, shaped (1, 1) like a tiny matrix."""
    g = np.array([[[gt.cx, gt.cy, gt.w, gt.h]]], dtype=np.float64)
    a = np.array([[[anchor.cx, anchor.cy, anchor.w, anchor.h]]], dtype=np.float64)
    return _ps_terms(g, a, norm.m, norm.n)


def position_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Center-offset penalty term.

    Returns sqrt((m*(x_g-x)/(w_g+w))^2 + (n*(y_g-y)/(h_g+h))^2), which is
    0 exactly when the centers coincide (or m = n = 0).
    """
    position, _ = _pair_terms(gt, anchor, norm)
    return float(position[0, 0])


def shape_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Width/height-difference penalty term.

    Returns sqrt((m*(w_g-w)/(w_g+w))^2 + (n*(h_g-h)/(h_g+h))^2), which is
    0 exactly when the dimensions agree (or m = n = 0).
    """
    _, shape = _pair_terms(gt, anchor, norm)
    return float(shape[0, 0])


def pairwise_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Similarity exp(-(position + shape)) in (0, 1]; 1 iff both terms are 0."""
    position, shape = _pair_terms(gt, anchor, norm)
    position += shape
    np.negative(position, out=position)
    return float(np.exp(position, out=position)[0, 0])


def ps_rows(g: np.ndarray, a: np.ndarray, norm: DatasetNormalizers, out=None):
    """Yield (rows, block) pairs of the PS matrix, one gt row block at a time.

    Each block costs a few temporaries of its own size, so scoring needs
    O(anchors) working memory whatever the gt count. Blocks follow
    geometry.row_blocks order.

    Args:
        g: Validated (G, 4) float64 ground-truth array, as from
            boxes_to_array (rows).
        a: Validated (A, 4) float64 anchor array (columns).
        norm: Dataset normalizers weighting the penalty terms.
        out: Optional (G, A) float64 array; when given, each block is
            written into (and returned as) out[rows].

    Yields:
        (rows, block): a row slice and the (rows, A) similarities.
    """
    # Column-major anchors make each field contiguous across anchors.
    a = np.asfortranarray(a)[None, :, :]
    for rows in row_blocks(g.shape[0], a.shape[1]):
        position, shape = _ps_terms(g[rows, None, :], a, norm.m, norm.n)
        position += shape
        np.negative(position, out=position)
        yield rows, np.exp(position, out=position if out is None else out[rows])


def ps_matrix(gts, anchors, norm: DatasetNormalizers) -> np.ndarray:
    """Dense pairwise similarity between ground truths and anchors.

    Args:
        gts: Ground-truth boxes (rows of the result).
        anchors: Anchor boxes (columns).
        norm: Dataset normalizers weighting the penalty terms.

    Returns:
        Float64 array of shape (len(gts), len(anchors)), filled block by
        block from ps_rows, whose entries are bit-identical to calling
        pairwise_similarity pair by pair.
    """
    g = boxes_to_array(gts)
    a = boxes_to_array(anchors)
    out = np.empty((g.shape[0], a.shape[0]), dtype=np.float64)
    for _ in ps_rows(g, a, norm, out):
        pass
    return out


def accumulate(acc: NormalizerAccumulator, gts, anchors) -> NormalizerAccumulator:
    """Fold one image's ground-truth/anchor pairs into the accumulator.

    Every (gt, anchor) pair contributes |x_g - x_a| / (w_g + w_a) to sum_x
    and |y_g - y_a| / (h_g + h_a) to sum_y; pair_count grows by
    len(gts) * len(anchors). The pairs are summed per gt row block (see
    geometry.row_blocks), in O(anchors) working memory. Empty inputs
    leave the accumulator unchanged.
    """
    g = boxes_to_array(gts)
    a = boxes_to_array(anchors)
    if g.shape[0] == 0 or a.shape[0] == 0:
        return acc
    a = np.asfortranarray(a)
    sum_x = acc.sum_x
    sum_y = acc.sum_y
    for rows in row_blocks(g.shape[0], a.shape[0]):
        block = g[rows, None, :]
        dx = block[..., 0] - a[:, 0]
        np.abs(dx, out=dx)
        dx /= block[..., 2] + a[:, 2]
        dy = block[..., 1] - a[:, 1]
        np.abs(dy, out=dy)
        dy /= block[..., 3] + a[:, 3]
        sum_x += float(dx.sum())
        sum_y += float(dy.sum())
    return NormalizerAccumulator(sum_x, sum_y, acc.pair_count + g.shape[0] * a.shape[0])


def finalize(acc: NormalizerAccumulator) -> DatasetNormalizers:
    """Turn accumulated sums into mean normalizers.

    Raises:
        EmptyDatasetError: If no pairs were accumulated.
    """
    if acc.pair_count == 0:
        raise EmptyDatasetError("cannot compute normalizers from zero gt/anchor pairs")
    return DatasetNormalizers(acc.sum_x / acc.pair_count, acc.sum_y / acc.pair_count)


@dataclass(frozen=True)
class NormalizerCache:
    """Contents of a normalizer sidecar file.

    The two hashes fingerprint the dataset annotations and the anchor
    layout the normalizers were computed from; a cache is valid only when
    both match the current inputs.
    """

    m: float
    n: float
    pair_count: int
    dataset_hash: str
    anchor_spec_hash: str

    @property
    def normalizers(self) -> DatasetNormalizers:
        return DatasetNormalizers(self.m, self.n)


def save_normalizer_cache(path, cache: NormalizerCache) -> None:
    """Write the cache as a small JSON document."""
    doc = {
        "m": cache.m,
        "n": cache.n,
        "pair_count": cache.pair_count,
        "dataset_hash": cache.dataset_hash,
        "anchor_spec_hash": cache.anchor_spec_hash,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_normalizer_cache(path) -> NormalizerCache:
    """Read a cache file written by save_normalizer_cache.

    Raises:
        ValueError: If the document is not valid JSON or lacks a field.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"normalizer cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"normalizer cache {path} must hold a JSON object")
    try:
        return NormalizerCache(
            m=float(doc["m"]),
            n=float(doc["n"]),
            pair_count=int(doc["pair_count"]),
            dataset_hash=str(doc["dataset_hash"]),
            anchor_spec_hash=str(doc["anchor_spec_hash"]),
        )
    except KeyError as exc:
        raise ValueError(f"normalizer cache {path} is missing field {exc.args[0]!r}") from exc
