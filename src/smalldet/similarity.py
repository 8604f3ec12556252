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

One PS kernel builds the x, y and shape terms on small per-level
tables: an AnchorSet's grid tables (generate_anchors), or a plain (N, 4)
anchor array as one level of one row and one column with S = N shapes,
whose tables are its own columns. ps_matrix and the assignment fold
(assigner) are its two callers. accumulate sums over the same per-axis
tables, one level at a time in O(gts * (rows + cols) * shapes).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _finite_number
from .geometry import Box, boxes_to_array, _levels, _scorable, row_blocks

__all__ = [
    "EmptyDatasetError",
    "DatasetNormalizers",
    "NormalizerAccumulator",
    "NormalizerCache",
    "position_similarity",
    "shape_similarity",
    "pairwise_similarity",
    "ps_matrix",
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
            if not _finite_number(v):
                raise ValueError(f"normalizer {name} must be a finite number, got {v!r}")
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
        for name in ("sum_x", "sum_y"):
            v = getattr(self, name)
            if not (_finite_number(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
        count = self.pair_count
        # bool is an int subclass, which operator.index would take as 0 or 1.
        if isinstance(count, bool) or not hasattr(count, "__index__") or operator.index(count) < 0:
            raise ValueError(f"pair_count must be a non-negative integer, got {count!r}")
        object.__setattr__(self, "pair_count", operator.index(count))

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
    and anchors. The PS kernel and the scalar terms both take them from
    here, so they round alike.
    """
    total = gs + as_
    offset = (gc - ac) / total
    offset *= weight
    offset *= offset
    size = (gs - as_) / total
    size *= weight
    size *= size
    return offset, size


def _pair_terms(gt: Box, anchor: Box, norm: DatasetNormalizers) -> tuple[float, float]:
    """Position and shape penalty terms of one pair, rounded as the PS
    kernel rounds them: sqrt of the summed squared terms of _axis_terms."""
    (gx, gy, gw, gh), (ax, ay, aw, ah) = np.array(
        [(gt.cx, gt.cy, gt.w, gt.h), (anchor.cx, anchor.cy, anchor.w, anchor.h)], dtype=np.float64)
    px, qw = _axis_terms(gx, ax, gw, aw, norm.m)
    py, qh = _axis_terms(gy, ay, gh, ah, norm.n)
    return float(np.sqrt(px + py)), float(np.sqrt(qw + qh))


def position_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Center-offset penalty term.

    Returns sqrt((m*(x_g-x)/(w_g+w))^2 + (n*(y_g-y)/(h_g+h))^2), which is
    0 exactly when the centers coincide (or m = n = 0).
    """
    return _pair_terms(gt, anchor, norm)[0]


def shape_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Width/height-difference penalty term.

    Returns sqrt((m*(w_g-w)/(w_g+w))^2 + (n*(h_g-h)/(h_g+h))^2), which is
    0 exactly when the dimensions agree (or m = n = 0).
    """
    return _pair_terms(gt, anchor, norm)[1]


def pairwise_similarity(gt: Box, anchor: Box, norm: DatasetNormalizers) -> float:
    """Similarity exp(-(position + shape)) in (0, 1]; 1 iff both terms are 0."""
    return float(ps_matrix([gt], [anchor], norm)[0, 0])


def _ps_rows(g: np.ndarray, anchors, norm: DatasetNormalizers, alloc):
    """The PS kernel, which ps_matrix and the assignment fold call: yields
    (rows, block) per gt row block of g (geometry.row_blocks order) against
    anchors (a validated array or an AnchorSet), block = alloc(rows, shape).

    The terms are factored per level (geometry._levels). The x terms
    depend only on (column, shape) and the y terms only on (row, shape),
    so they come from _axis_terms on (B, cols, S) and (B, rows, S) tables
    (LevelGrid.axes). Unclipped, the size terms depend on the shape alone,
    so the shape term stays (B, 1, 1, S); clipped, or for a plain array's
    one cell of S = N shapes, it is per pair. Each pair then costs an add,
    a sqrt, an add, a negation and an exp, in the order of
    exp(-(position + shape)).
    """
    num_anchors = len(anchors)
    levels = _levels(anchors)
    for rows in row_blocks(g.shape[0], num_anchors):
        gx, gy, gw, gh = g[rows, :, None, None].transpose(1, 0, 2, 3)
        block = alloc(rows, (gx.shape[0], num_anchors))
        for start, end, level in levels:
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
        anchors: Anchor boxes (columns). An AnchorSet is scored from its
            grid tables, so it makes no per-anchor boxes.
        norm: Dataset normalizers weighting the penalty terms.

    Returns:
        Float64 array of shape (len(gts), len(anchors)), filled block by
        block by the fold's PS kernel, whose entries are bit-identical to
        calling pairwise_similarity pair by pair.
    """
    g = boxes_to_array(gts)
    a = _scorable(anchors)
    out = np.empty((g.shape[0], len(a)), dtype=np.float64)
    for _ in _ps_rows(g, a, norm, lambda rows, shape: out[rows]):
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
    array is one level of one row and one column with S = N shapes,
    whose (1, N) tables are its own x/w and y/h columns (geometry._levels).
    Empty inputs leave the accumulator unchanged.
    """
    g = boxes_to_array(gts)
    sum_x, sum_y, pair_count = acc.sum_x, acc.sum_y, acc.pair_count
    for start, end, level in _levels(_scorable(anchors)):
        rows, cols, _ = level.shape
        (x, w), (y, h) = level.axes
        sum_x += rows * _offset_sum(g[:, 0], g[:, 2], x, w)
        sum_y += cols * _offset_sum(g[:, 1], g[:, 3], y, h)
        pair_count += g.shape[0] * (end - start)
    return NormalizerAccumulator(sum_x, sum_y, pair_count)


def _offset_sum(gc: np.ndarray, gs: np.ndarray, centers: np.ndarray, sides: np.ndarray) -> float:
    """sum |gc - centers| / (gs + sides) over every gt and every entry of
    the 2-d table that centers and sides broadcast to, for 1-d gt centers
    and sides, one row block of gts at a time."""
    table = np.broadcast(centers, sides)
    total = 0.0
    for rows in row_blocks(gc.size, table.size):
        # |gc - centers| on the centers' own shape: once per column of an
        # unclipped level, (B, cols, 1), then divided into a (B, cols, S)
        # block; a clipped level's (B, cols, S) is divided in place.
        d = np.subtract(gc[rows, None, None], centers)
        np.abs(d, out=d)
        block = d if d.shape[1:] == table.shape else np.empty((d.shape[0],) + table.shape)
        total += float(np.divide(d, gs[rows, None, None] + sides, out=block).sum())
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
    if _finite_number(value) and value >= 0:
        return float(value)
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
