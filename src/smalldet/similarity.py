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
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import _count, _read_json, _real, _shown, _shown_path
from .geometry import Box, LevelGrid, boxes_to_array, _FIRST_ROW, _levels, _outer, _scorable, _whole, row_blocks

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
            value = _real(getattr(self, name), f"normalizer {name}")
            if value < 0:
                raise ValueError(f"normalizer {name} must be non-negative, got {value!r}")
            object.__setattr__(self, name, value)


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
        for name, check in (("sum_x", _real), ("sum_y", _real), ("pair_count", _count)):
            value = check(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {_shown(value)}")
            object.__setattr__(self, name, value)

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


# The reach T = -ln(cutoff) is widened by this much, so that no pair whose
# terms pass T can round up to cutoff in exp: exp(-T) is then about
# cutoff * (1 - 1e-6), far more than exp's rounding below it.
_REACH_MARGIN = 1e-6


def _reach(cutoff: float) -> float:
    """T: a pair whose position plus shape term exceeds it scores below
    cutoff. A cutoff of 0, or one below the smallest normal float, where
    exp rounds too coarsely for the margin, reaches everywhere (T = inf)."""
    if cutoff < sys.float_info.min:
        return math.inf
    return -math.log(cutoff) + _REACH_MARGIN


def _cut_limits(level, norm: DatasetNormalizers, reach: float) -> tuple[float, float]:
    """The widest and the tallest gt for which the level is worth cutting
    to windows. A pair that reaches T has |x_g - x_a| <= T (w_g + w_a) / m,
    as the position term is at least its x part, and the same along y. So
    a gt's window is narrower than the span of the level's grid centers
    along x where w_g < span * m / (2T) - the widest anchor, and along y
    alike. A limit <= 0 cuts no gt, as at T = inf; a plain array's one
    cell has no span, and is never cut."""
    if not isinstance(level, LevelGrid):
        return -math.inf, -math.inf
    (x_span, widest), (y_span, tallest) = level.spans
    return x_span * norm.m / (2 * reach) - widest, y_span * norm.n / (2 * reach) - tallest


def _reaching(px: np.ndarray, py: np.ndarray, shape: np.ndarray, reach: float):
    """(has, r0, r1, c0, c1) per gt: the bounding grid rows r0:r1 and
    columns c0:c1 of the pairs whose terms may not pass T, and whether
    there are any. A pair scores the cutoff only where sqrt(px + py) +
    shape <= T; sqrt(px + min py) + min shape, per shape, bounds that
    from below as rounding is monotone, so a column that fails it on every
    shape scores below the cutoff on every row, and the same holds for rows."""
    least = -shape.max(axis=(1, 2))[:, None, :]  # (B, 1, S): each shape's least shape term
    fits_cols = (np.sqrt(px + py.min(axis=1, keepdims=True)) + least <= reach).any(axis=2)
    fits_rows = (np.sqrt(py + px.min(axis=1, keepdims=True)) + least <= reach).any(axis=2)
    has = fits_cols.any(axis=1) & fits_rows.any(axis=1)
    r0, c0 = fits_rows.argmax(axis=1), fits_cols.argmax(axis=1)
    r1 = fits_rows.shape[1] - fits_rows[:, ::-1].argmax(axis=1)
    c1 = fits_cols.shape[1] - fits_cols[:, ::-1].argmax(axis=1)
    return has, r0, r1, c0, c1


def _ps_rows(g: np.ndarray, anchors, norm: DatasetNormalizers, alloc, cutoff: float = 0.0):
    """The PS kernel, which ps_matrix and the assignment fold call: yields
    (rows, windows) per gt row block of g (geometry.row_blocks order)
    against anchors (a validated array or an AnchorSet), scored into block
    = alloc(rows, shape), the block's (B, A) score shape.

    A pair scores exp(-(position + shape)) <= exp(-shape), as position >=
    0. So a gt whose shape term exceeds T = _reach(cutoff) on every anchor
    of a level scores below cutoff on all of it, and it is not scored
    there. On a level whose limits the block's gts are within
    (_cut_limits), each other gt is scored only in its window: the
    bounding grid rows and columns where its score may reach cutoff
    (_reaching). While every gt of a row block is scored everywhere, each
    row of the block is one window, the whole tile (geometry._whole), and
    block is filled as a matrix. Otherwise each scored gt has one window
    per level, all of the level or its cut, packed in order into block,
    in the window form of geometry._iou_rows. The default cutoff 0 reaches
    everywhere, so ps_matrix gets every pair.

    The terms are factored per level (geometry._levels). The x terms
    depend only on (column, shape) and the y terms only on (row, shape),
    so they come from _axis_terms on (B, cols, S) and (B, rows, S) tables
    (LevelGrid.axes). The negated shape term comes first: unclipped, the
    size terms depend on the shape alone, so -shape is made once per level
    on (B, 1, 1, S); clipped, or for a plain array's one cell of S = N
    shapes, it is per pair, made as the position term is. Its maximum
    over the level is -(a gt's least shape term). The rest is
    _score_level's, and exp then runs in place over the block.
    """
    reach = _reach(cutoff)
    # |w_g - w_a| / (w_g + w_a) rounds to at most 1, so no shape term
    # exceeds sqrt(m^2 + n^2), rounded as the kernel rounds it.
    skips = math.sqrt(norm.m * norm.m + norm.n * norm.n) > reach
    num_anchors = len(anchors)
    levels = [(slice(start, end), level, _cut_limits(level, norm, reach)) for start, end, level in _levels(anchors)]
    for rows in row_blocks(g.shape[0], num_anchors):
        gx, gy, gw, gh = g[rows, :, None, None].transpose(1, 0, 2, 3)
        num_gts = gx.shape[0]
        terms = []
        whole = True
        for span, level, (widest, tallest) in levels:
            (x, w), (y, h) = level.axes
            px, qw = _axis_terms(gx, x, gw, w, norm.m)
            py, qh = _axis_terms(gy, y, gh, h, norm.n)
            # (B, 1, 1, S) unclipped, with one term per shape; else per pair.
            shape = np.empty((num_gts, qh.shape[1], qw.shape[1], level.shape[2]))
            _outer(np.add, qw, qh, shape)
            np.sqrt(shape, out=shape)
            np.negative(shape, out=shape)
            # The gts that reach the level, or None for all of them.
            kept = np.flatnonzero(shape.reshape(num_gts, -1).max(axis=1) >= -reach) if skips else None
            if kept is not None and kept.size == num_gts:
                kept = None
            cuts = (widest > 0 and gw.max() < widest) or (tallest > 0 and gh.max() < tallest)
            whole = whole and kept is None and not cuts
            terms.append((span, level, cuts, px, py, shape, kept))
        block = alloc(rows, (num_gts, num_anchors))
        if whole:
            for span, _, _, px, py, shape, _ in terms:
                _score_level(px, py, shape, block[:, span])
            yield rows, _whole(np.exp(block, out=block))
            continue
        packed = block.reshape(-1)
        used = 0
        windows = []
        for span, level, cuts, px, py, shape, kept in terms:
            num_rows, num_cols, shapes = level.shape
            if kept is None:
                kept = np.arange(num_gts)
            elif not kept.size:
                continue
            if not cuts:
                # All of the level, for every gt that reaches it, in one pass.
                size = span.stop - span.start
                values = packed[used : used + kept.size * size].reshape(kept.size, size)
                used += values.size
                _score_level(px[kept], py[kept], shape[kept], values)
                windows += [(b, v[None], span, size, _FIRST_ROW, slice(0, size)) for b, v in zip(kept.tolist(), values)]
                continue
            per_pair = shape.shape[1:3] == (num_rows, num_cols)
            has, r0, r1, c0, c1 = (v.tolist() for v in _reaching(px[kept], py[kept], shape[kept], reach))
            for b, fits, r, c in zip(kept.tolist(), has, map(slice, r0, r1), map(slice, c0, c1)):
                if not fits:
                    continue
                values = packed[used : used + (r.stop - r.start) * (c.stop - c.start) * shapes].reshape(1, -1)
                used += values.size
                _score_level(px[b : b + 1, c], py[b : b + 1, r], shape[b : b + 1, r, c] if per_pair else shape[b : b + 1],
                             values)
                windows.append((b, values.reshape(r.stop - r.start, -1), span, num_cols * shapes, r,
                                slice(c.start * shapes, c.stop * shapes)))
        np.exp(packed[:used], out=packed[:used])
        yield rows, windows


def _score_level(px: np.ndarray, py: np.ndarray, shape: np.ndarray, out: np.ndarray) -> None:
    """-(position + shape) of each gt row of (B, cols, S) x terms px and
    (B, rows, S) y terms py, with the negated shape term shape (B, 1, 1, S)
    or (B, rows, cols, S), into out of (B, rows x cols x S).

    An unclipped -shape is tiled to (B, 1, cols x S). The position term is
    a copy of the x terms over the grid rows, along contiguous (cols x S)
    rows, plus the y terms (geometry._outer), and its sqrt is taken in
    place. The negation is folded into the shape term: (-shape) - position
    is -(position + shape) bit for bit, as round-to-nearest is symmetric
    and addition commutes, and the subtraction runs along contiguous rows
    too. Each pair costs a copy, an add, a sqrt and a subtraction here,
    and an exp after, in the order of exp(-(position + shape)).
    """
    num_gts, num_cols, shapes = px.shape
    num_rows = py.shape[1]
    if shape.shape[2] < num_cols:
        shape = np.tile(shape, (num_cols, 1))
    level_block = out.reshape(num_gts, num_rows, num_cols, shapes)
    _outer(np.add, px, py, level_block)
    np.sqrt(level_block, out=level_block)
    position = level_block.reshape(num_gts, num_rows, num_cols * shapes)
    np.subtract(shape.reshape(num_gts, shape.shape[1], -1), position, out=position)


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

    def __post_init__(self) -> None:
        # Named as the fields of the cache file, which load_normalizer_cache names.
        for name, check in (("m", _real), ("n", _real), ("pair_count", _count)):
            value = check(getattr(self, name), f"field {name!r}")
            if value < 0:
                raise ValueError(f"field {name!r} must be non-negative, got {_shown(value)}")
            object.__setattr__(self, name, value)
        for name in ("dataset_hash", "anchor_spec_hash"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"field {name!r} must be a str, got {_shown(getattr(self, name))}")

    @property
    def normalizers(self) -> DatasetNormalizers:
        return DatasetNormalizers(self.m, self.n)


def save_normalizer_cache(path, cache: NormalizerCache) -> None:
    """Write the cache as a small JSON document."""
    Path(path).write_text(json.dumps(asdict(cache), indent=2) + "\n", encoding="utf-8")


def load_normalizer_cache(path) -> NormalizerCache:
    """Read a cache file written by save_normalizer_cache.

    Raises:
        ValueError: If the file cannot be read or is not UTF-8, is not
            valid JSON (an int past Python's int-to-str digit limit and
            nesting past its recursion limit included), does not hold an
            object, lacks a field, or holds a value NormalizerCache
            rejects; the message names the file.
    """
    what = f"normalizer cache {_shown_path(path)}"
    doc = _read_json(path, what, ValueError)
    names = [f.name for f in fields(NormalizerCache)]
    missing = [k for k in names if k not in doc]
    if missing:
        raise ValueError(f"{what} is missing field {missing[0]!r}")
    try:
        return NormalizerCache(**{k: doc[k] for k in names})
    except ValueError as exc:
        raise ValueError(f"{what} {exc}") from exc
