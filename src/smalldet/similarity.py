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

An AnchorSet (the grid tables generate_anchors makes) takes a factored
kernel: ps_rows builds the x, y and shape terms on small per-level
tables and is bit-identical to the pairwise kernel, which plain (N, 4)
anchor arrays take. accumulate sums every input over per-axis tables,
one level at a time in O(gts * (rows + cols) * shapes); a plain array
is one level whose tables are its own columns, and its sums are the
pairwise ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import AnchorSet, Box, boxes_to_array, row_blocks

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


def _axis_terms(gc, ac, gs, as_, weight: float):
    """Squared weighted offset and size terms along one axis, broadcast.

    ((gc - ac) / (gs + as_) * weight)**2 and ((gs - as_) / (gs + as_) *
    weight)**2, for centers gc/ac and sizes gs/as_ of the ground truths
    and anchors. Both PS kernels take their terms from here, so they
    round alike.
    """
    total = gs + as_
    offset = (gc - ac) / total
    offset *= weight
    offset *= offset
    size = (gs - as_) / total
    size *= weight
    size *= size
    return offset, size


def _ps_terms(g: np.ndarray, a: np.ndarray, m: float, n: float):
    """Position and shape penalty terms for broadcastable (..., 4) arrays.

    The scalar operations and the pairwise row-block kernel (behind
    ps_rows on plain anchor arrays) all funnel through this one kernel,
    so every batch entry is bit-identical to scalar evaluation.
    """
    px, qw = _axis_terms(g[..., 0], a[..., 0], g[..., 2], a[..., 2], m)
    py, qh = _axis_terms(g[..., 1], a[..., 1], g[..., 3], a[..., 3], n)
    px += py
    position = np.sqrt(px, out=px)
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


def ps_rows(g: np.ndarray, a, norm: DatasetNormalizers, out=None):
    """Yield (rows, block) pairs of the PS matrix, one gt row block at a time.

    Each block costs a few temporaries of its own size, so scoring needs
    O(anchors) working memory whatever the gt count. Blocks follow
    geometry.row_blocks order. For an AnchorSet the terms are factored
    per level (see _grid_ps_rows); the values are bit-identical to the
    pairwise kernel's.

    Args:
        g: Validated (G, 4) float64 ground-truth array, as from
            boxes_to_array (rows).
        a: Validated (A, 4) float64 anchor array, or an AnchorSet
            (columns).
        norm: Dataset normalizers weighting the penalty terms.
        out: Optional (G, A) float64 array; when given, each block is
            written into (and returned as) out[rows].

    Yields:
        (rows, block): a row slice and the (rows, A) similarities.
    """
    if isinstance(a, AnchorSet):
        return _grid_ps_rows(g, a, norm, out)
    return _pair_ps_rows(g, np.asfortranarray(a), norm, out)


def _pair_ps_rows(g: np.ndarray, a: np.ndarray, norm: DatasetNormalizers, out):
    a = a[None, :, :]
    for rows in row_blocks(g.shape[0], a.shape[1]):
        position, shape = _ps_terms(g[rows, None, :], a, norm.m, norm.n)
        position += shape
        np.negative(position, out=position)
        yield rows, np.exp(position, out=position if out is None else out[rows])


def _grid_ps_rows(g: np.ndarray, anchors: AnchorSet, norm: DatasetNormalizers, out):
    """ps_rows over an AnchorSet, with the terms factored per level.

    The x terms depend only on (column, shape) and the y terms only on
    (row, shape), so they come from _axis_terms on (B, cols, S) and
    (B, rows, S) tables (LevelGrid.axes). Unclipped, the size terms
    depend on the shape alone, so the shape term stays (B, 1, 1, S);
    clipped, it is per pair. Each pair then costs the add, sqrt, add,
    negate and exp that end _ps_terms and _pair_ps_rows, in the same
    order, so every value is bit-identical to theirs.
    """
    num_anchors = len(anchors)
    for rows in row_blocks(g.shape[0], num_anchors):
        gx, gy, gw, gh = g[rows, :, None, None].transpose(1, 0, 2, 3)
        block = np.empty((gx.shape[0], num_anchors)) if out is None else out[rows]
        for level, (start, end) in zip(anchors.grid, anchors.level_offsets):
            (x, w), (y, h) = level.axes
            px, qw = _axis_terms(gx, x, gw, w, norm.m)
            py, qh = _axis_terms(gy, y, gh, h, norm.n)
            shape = qw[:, None] + qh[:, :, None]
            np.sqrt(shape, out=shape)
            level_block = block[:, start:end].reshape((block.shape[0],) + level.shape)
            np.add(px[:, None, :, :], py[:, :, None, :], out=level_block)
            np.sqrt(level_block, out=level_block)
            level_block += shape
        np.negative(block, out=block)
        yield rows, np.exp(block, out=block)


def ps_matrix(gts, anchors, norm: DatasetNormalizers) -> np.ndarray:
    """Dense pairwise similarity between ground truths and anchors.

    Args:
        gts: Ground-truth boxes (rows of the result).
        anchors: Anchor boxes (columns). An AnchorSet is passed to
            ps_rows as it is, so it takes the grid kernel and makes no
            per-anchor boxes.
        norm: Dataset normalizers weighting the penalty terms.

    Returns:
        Float64 array of shape (len(gts), len(anchors)), filled block by
        block from ps_rows, whose entries are bit-identical to calling
        pairwise_similarity pair by pair.
    """
    g = boxes_to_array(gts)
    a = anchors if isinstance(anchors, AnchorSet) else boxes_to_array(anchors)
    out = np.empty((g.shape[0], len(a)), dtype=np.float64)
    for _ in ps_rows(g, a, norm, out):
        pass
    return out


def accumulate(acc: NormalizerAccumulator, gts, anchors) -> NormalizerAccumulator:
    """Fold one image's ground-truth/anchor pairs into the accumulator.

    Every (gt, anchor) pair contributes |x_g - x_a| / (w_g + w_a) to sum_x
    and |y_g - y_a| / (h_g + h_a) to sum_y; pair_count grows by
    len(gts) * len(anchors). The pairs are summed per level over its
    per-axis tables (LevelGrid.axes): each x entry stands for rows
    anchors and each y entry for cols, so a level costs O(gts * (rows +
    cols) * S), in row blocks of bounded working memory (see
    _offset_sum), and the set's boxes are never made. A plain (N, 4)
    array is one level of one row and one column whose tables are its
    own x/w and y/h columns. Empty inputs leave the accumulator unchanged.
    """
    g = boxes_to_array(gts)
    if isinstance(anchors, AnchorSet):
        levels = [(level.shape[0], level.shape[1], level.axes) for level in anchors.grid]
    else:
        a = boxes_to_array(anchors)
        levels = [(1, 1, ((a[:, 0, None], a[:, 2, None]), (a[:, 1, None], a[:, 3, None])))]
    sum_x, sum_y, pair_count = acc.sum_x, acc.sum_y, acc.pair_count
    for rows, cols, ((x, w), (y, h)) in levels:
        sum_x += rows * _offset_sum(g[:, 0], g[:, 2], x, w)
        sum_y += cols * _offset_sum(g[:, 1], g[:, 3], y, h)
        pair_count += g.shape[0] * rows * np.broadcast(x, w).size
    return NormalizerAccumulator(sum_x, sum_y, pair_count)


def _offset_sum(gc: np.ndarray, gs: np.ndarray, centers: np.ndarray, sides: np.ndarray) -> float:
    """sum |gc - centers| / (gs + sides) over every gt and every entry of
    the 2-d table that centers and sides broadcast to, for 1-d gt centers
    and sides, one row block of gts at a time."""
    table = np.broadcast(centers, sides)
    total = 0.0
    for rows in row_blocks(gc.size, table.size):
        g = gc[rows, None, None]
        d = np.subtract(g, centers, out=np.empty((g.shape[0],) + table.shape))
        np.abs(d, out=d)
        d /= gs[rows, None, None] + sides
        total += float(d.sum())
    return total


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


def _cached_normalizer(value, name: str, path) -> float:
    """A finite, non-negative JSON number as a float; a boolean is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and number >= 0:
            return number
    raise ValueError(
        f"normalizer cache {path} field {name!r} must be a finite non-negative number, got {value!r}"
    )


def load_normalizer_cache(path) -> NormalizerCache:
    """Read a cache file written by save_normalizer_cache.

    Raises:
        ValueError: If the document is not valid JSON, lacks a field, or
            holds an m or n that is not a finite non-negative number, or
            a pair_count that is not a non-negative integer.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"normalizer cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"normalizer cache {path} must hold a JSON object")
    missing = [k for k in ("m", "n", "pair_count", "dataset_hash", "anchor_spec_hash") if k not in doc]
    if missing:
        raise ValueError(f"normalizer cache {path} is missing field {missing[0]!r}")
    pair_count = doc["pair_count"]
    if not (isinstance(pair_count, int) and not isinstance(pair_count, bool) and pair_count >= 0):
        raise ValueError(
            f"normalizer cache {path} field 'pair_count' must be a non-negative integer, got {pair_count!r}"
        )
    return NormalizerCache(
        m=_cached_normalizer(doc["m"], "m", path),
        n=_cached_normalizer(doc["n"], "n", path),
        pair_count=pair_count,
        dataset_hash=str(doc["dataset_hash"]),
        anchor_spec_hash=str(doc["anchor_spec_hash"]),
    )
