"""Center-form bounding boxes, IoU, and multi-level anchor grids.

Boxes are stored as (cx, cy, w, h) with strictly positive dimensions.
Batch operations work on float64 arrays of shape (N, 4) in the same
field order; helpers accept either Box sequences or such arrays.

An AnchorSet, as generate_anchors makes it, holds only its per-level
grid tables (LevelGrid: column centers, row centers, shape widths and
heights, and the image rectangle when the layout clips). Clipping is
separable by axis, so a clipped level is a grid too, with its x extents
on a (cols, shapes) table and its y extents on a (rows, shapes) one.
The set's per-anchor boxes and corner table are made only if a caller
reads them. anchor_tiles cuts a large set into tiles of whole grid
rows, which the kernels score as they score the set. The IoU kernel
reads the tables to compute each ground truth's IoU only inside the row
and column window where it overlaps each level; every IoU outside the
windows is exact 0.0, which the fold and iou_matrix take as given. A
plain (N, 4) array is scored as one level of one row and one column
with S = N shapes, so one kernel per metric serves every input;
iou_matrix and the assignment fold (assigner) are its two callers.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _flag, _real, _shown

__all__ = [
    "Box",
    "AnchorGridSpec",
    "AnchorSet",
    "LevelGrid",
    "MAX_ANCHORS",
    "make_box",
    "from_topleft",
    "boxes_to_array",
    "iou",
    "iou_matrix",
    "overlapping",
    "row_blocks",
    "anchor_tiles",
    "generate_anchors",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in center form.

    Attributes:
        cx: Center x coordinate.
        cy: Center y coordinate.
        w: Width, must be positive and finite.
        h: Height, must be positive and finite.
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            object.__setattr__(self, name, _real(getattr(self, name), f"box field {name}"))
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box dimensions must be positive, got w={self.w}, h={self.h}")


def make_box(cx: float, cy: float, w: float, h: float) -> Box:
    """Construct a validated center-form box from plain numbers."""
    return Box(cx, cy, w, h)


def from_topleft(x: float, y: float, w: float, h: float) -> Box:
    """Convert a top-left (x, y, w, h) box, as used by COCO bbox fields, to center form."""
    x, y, w, h = (_real(v, name) for v, name in zip((x, y, w, h), "xywh"))
    return Box(x + w / 2.0, y + h / 2.0, w, h)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack boxes into a float64 array of shape (N, 4).

    Args:
        boxes: A sequence of Box, an AnchorSet, or an array-like of shape
            (N, 4) in (cx, cy, w, h) order.

    Returns:
        A float64 array of shape (N, 4). Empty input yields shape (0, 4).
        For an AnchorSet, its read-only boxes, made from its checked
        tables on first read (32 bytes per anchor) and not scanned.

    Raises:
        ValueError: If any entry is non-finite or has a non-positive
            width or height.
    """
    if isinstance(boxes, AnchorSet):
        return boxes.boxes
    if isinstance(boxes, np.ndarray):
        arr = np.asarray(boxes, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"box array must have shape (N, 4), got {arr.shape}")
    else:
        seq = list(boxes)
        if seq and isinstance(seq[0], Box):
            arr = np.array([(b.cx, b.cy, b.w, b.h) for b in seq], dtype=np.float64)
        else:
            arr = np.asarray(seq, dtype=np.float64)
        arr = arr.reshape(-1, 4)
    if not np.all(np.isfinite(arr)):
        raise ValueError("box array contains non-finite values")
    if arr.size and (np.any(arr[:, 2] <= 0) or np.any(arr[:, 3] <= 0)):
        raise ValueError("box array contains non-positive widths or heights")
    return arr


# A row block holds at most this many (row, column) pairs, so its float64
# temporaries (512 KiB each) stay in cache. A row longer than this is
# still one block: working memory is O(columns), never O(rows x columns).
# An anchor tile holds at most this many anchors, or one grid row.
_BLOCK_PAIRS = 1 << 16


def row_blocks(num_rows: int, num_cols: int):
    """Yield consecutive row slices that cover range(num_rows) in order.

    Each slice holds at least one row and at most max(1, _BLOCK_PAIRS //
    num_cols) rows. The row kernels score one such block at a time.
    """
    step = max(1, _BLOCK_PAIRS // max(num_cols, 1))
    for start in range(0, num_rows, step):
        yield slice(start, min(start + step, num_rows))


def anchor_tiles(anchors):
    """Yield (start, tile) pairs that cover the anchors in flat order.

    A set of at most _BLOCK_PAIRS anchors is one tile, itself. A larger
    AnchorSet is tiled level by level, each tile an AnchorSet of one level
    cut to a range of whole grid rows (LevelGrid.rows): at most
    _BLOCK_PAIRS anchors, or one grid row where a row holds more. Any
    other sequence, such as an (N, 4) array, is cut into slices of at
    most _BLOCK_PAIRS. The kernels score a tile as they score the whole
    set, so scoring an image tile by tile needs memory for one tile.
    """
    budget = _BLOCK_PAIRS
    if len(anchors) <= budget:
        yield 0, anchors
        return
    if not isinstance(anchors, AnchorSet):
        for start in range(0, len(anchors), budget):
            yield start, anchors[start : start + budget]
        return
    for index, (level, (start, end)) in enumerate(zip(anchors.grid, anchors.level_offsets)):
        if end - start <= budget:
            yield start, anchors.level_sets[index]
            continue
        rows, cols, shapes = level.shape
        step = max(1, budget // (cols * shapes))
        for row in range(0, rows, step):
            yield start + row * cols * shapes, AnchorSet((level.rows(row, row + step),))


def overlapping(boxes: np.ndarray, anchors: "AnchorSet") -> np.ndarray:
    """Indices of the boxes that meet the bounding box of the anchors.

    Every other box has exact 0.0 IoU with every anchor of the set: a pair
    overlaps only where both of its axis overlaps are positive, and each
    needs the box to reach past the set's outermost corner on that axis.

    Args:
        boxes: Validated (N, 4) float64 array, as from boxes_to_array.
        anchors: An AnchorSet.
    """
    x1, y1, x2, y2, _ = _corner_table(boxes)
    corners = [level.corners for level in anchors.grid]
    meets = x2 > min(c[0].min() for c in corners)
    meets &= x1 < max(c[1].max() for c in corners)
    meets &= y2 > min(c[2].min() for c in corners)
    meets &= y1 < max(c[3].max() for c in corners)
    return np.flatnonzero(meets)


def _corner_table(arr: np.ndarray) -> np.ndarray:
    """Rows x1, y1, x2, y2, area of (N, 4) center-form boxes, shape (5, N)."""
    table = np.empty((5, arr.shape[0]), dtype=np.float64)
    x1, y1, x2, y2, area = table
    half_w = arr[:, 2] / 2.0
    half_h = arr[:, 3] / 2.0
    np.subtract(arr[:, 0], half_w, out=x1)
    np.subtract(arr[:, 1], half_h, out=y1)
    np.add(arr[:, 0], half_w, out=x2)
    np.add(arr[:, 1], half_h, out=y2)
    # Areas from the same corner differences the intersection uses, so an
    # identical pair yields inter == area exactly and the ratio is 1.0.
    np.multiply(x2 - x1, y2 - y1, out=area)
    return table


def _scorable(boxes):
    """An AnchorSet as it is, anything else through boxes_to_array: the
    forms the kernels take, with no per-anchor boxes made for a set."""
    return boxes if isinstance(boxes, AnchorSet) else boxes_to_array(boxes)


class _PlainLevel:
    """A validated (N, 4) array as one level of one row and one column
    with S = N shapes. Its x/w and y/h tables are its own columns as full
    (1, N) tables, the form LevelGrid.axes gives a clipped level, so the
    kernels score it as they score any level."""

    def __init__(self, boxes: np.ndarray) -> None:
        x, y, w, h = np.ascontiguousarray(boxes.T)[:, None, :]
        self.shape = (1, 1, boxes.shape[0])
        self.axes = (x, w), (y, h)

    @cached_property
    def corners(self) -> tuple[np.ndarray, ...]:
        return _axis_corners(self.axes)


def _levels(anchors) -> list:
    """(start, end, level) of each level in flat order: an AnchorSet's
    LevelGrids, or a validated array's one _PlainLevel. The kernels and
    accumulate read only a level's shape, axes and corners."""
    if isinstance(anchors, AnchorSet):
        return [(start, end, level) for level, (start, end) in zip(anchors.grid, anchors.level_offsets)]
    return [(0, len(anchors), _PlainLevel(anchors))]


def _axis_corners(axes) -> tuple[np.ndarray, ...]:
    """x1, x2, y1, y2 of a level's ((x, w), (y, h)) tables, computed as
    the corner table computes them, so the values are the same."""
    (x, w), (y, h) = axes
    half_w = w / 2.0
    half_h = h / 2.0
    return x - half_w, x + half_w, y - half_h, y + half_h


def _overlap(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Broadcast length of [lo_a, hi_a] ∩ [lo_b, hi_b] along one axis, clipped at 0."""
    inter = np.minimum(hi_a, hi_b)
    inter -= np.maximum(lo_a, lo_b)
    return np.clip(inter, 0.0, None, out=inter)


def _outer(op, col_terms: np.ndarray, row_terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., r, c, s] = op(col_terms[..., c, s], row_terms[..., r, s]).

    For (..., cols, S) column and (..., rows, S) row tables and out of
    (..., rows, cols, S). With both tables broadcast, numpy loops over S
    values at a time, so the column table is first copied over the rows,
    along contiguous (cols x S) rows, and then op'd in place with the row
    table: the same op(col, row) per entry, bit for bit. A one-row out
    takes op directly.
    """
    col_terms = col_terms[..., None, :, :]
    if out.shape[-3] == 1:
        return op(col_terms, row_terms[..., :, None, :], out=out)
    out[...] = col_terms
    return op(out, row_terms[..., :, None, :], out=out)


_FIRST_ROW = slice(0, 1)


def _whole(block: np.ndarray):
    """Windows (see _iou_rows) that are the whole rows of a (B, A) score
    block, as a kernel that scores every pair yields them; made as they
    are read, so a caller that reads the block itself makes none."""
    every = slice(0, block.shape[1])
    return ((b, block[b, None], every, block.shape[1], _FIRST_ROW, every) for b in range(block.shape[0]))


class _Scratch(threading.local):
    """This thread's reusable arrays, one buffer per role.

    Each buffer grows to the largest size asked for and is handed out as
    views, so a run of images makes its tile arrays once per thread, not
    once per image: freed per image, their pages were trimmed from the
    heap and faulted in again for the next. A request past the tile
    budget (_BLOCK_PAIRS values: a grid row longer than that, or a window
    of a set that was not tiled) gets a fresh array instead, so a thread
    keeps at most _BLOCK_PAIRS values per role. A view is valid until its
    role is taken again in this thread, so each user reads it before it
    asks again: the fold each score block and each tile's arrays, and
    the IoU kernel each window's temporaries.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        if size > _BLOCK_PAIRS:
            return np.empty(shape, dtype)
        buffer = self.buffers.get(role)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[role] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


_scratch = _Scratch()


def _iou_rows(g: np.ndarray, anchors, alloc):
    """The IoU kernel, which iou_matrix and the assignment fold call: yields
    (rows, windows) per row block of the center-form g (row_blocks order)
    against anchors (a validated array or an AnchorSet). g's corner table
    is made once per call.

    Per-axis overlaps come on (cols, S) and (rows, S) tables. A pair
    overlaps only where both axis overlaps are positive, so each gt row is
    scored only inside its window on each level: the bounding window of
    the grid rows and columns it overlaps on some shape. Every IoU outside
    the windows is exact +0.0. A window is (b, values, level, width, r,
    c): the scores of block row b at level.reshape(-1, width)[r, c] of the
    flat anchors, for the level's flat range, its (cols x S) row width and
    slices of grid rows and of flat columns, held as the contiguous 2-d
    values. The windows of a block are packed in order into block =
    alloc(rows, shape), of the block's (B, A) score shape, which they fit
    since a gt's windows on the levels hold at most A anchors.

    In a window, inter and union are each a broadcast copy of the column
    table times the row table (_outer), and an anchor's area is (x2 - x1)
    * (y2 - y1) from the level's corner tables, the product the corner
    table takes, so no per-anchor table is made. A level of one cell (a
    plain array's) has the whole level as its window or none, so it
    scores the block's overlapping gts in one pass, with one area row per
    call.
    """
    ca = _corner_table(g)
    num_anchors = len(anchors)
    levels = []
    for start, end, level in _levels(anchors):
        ax1, ax2, ay1, ay2 = level.corners
        span_w = ax2 - ax1  # (cols, S)
        span_h = ay2 - ay1  # (rows, S)
        # A level of one cell is scored for all of a block's gts at once, on its one area row.
        area = span_w * span_h if level.shape[:2] == (1, 1) else None
        levels.append((slice(start, end), level.shape, level.corners, span_w, span_h, area))
    for rows in row_blocks(ca.shape[1], num_anchors):
        x1, y1, x2, y2, gt_area = ca[:, rows, None, None]
        packed = alloc(rows, (x1.shape[0], num_anchors)).reshape(-1)
        used = 0
        windows = []
        for level, (num_rows, num_cols, shapes), (ax1, ax2, ay1, ay2), span_w, span_h, area in levels:
            inter_w = _overlap(x1, x2, ax1, ax2)  # (B, cols, S)
            inter_h = _overlap(y1, y2, ay1, ay2)  # (B, rows, S)
            hit_cols = (inter_w > 0).any(axis=2)
            hit_rows = (inter_h > 0).any(axis=2)
            width = num_cols * shapes
            if area is not None:
                hit = np.flatnonzero(hit_cols[:, 0] & hit_rows[:, 0])
                inter = inter_w[hit] * inter_h[hit]
                union = area + gt_area[hit]
                union -= inter
                values = np.divide(inter, union, out=packed[used : used + inter.size].reshape(inter.shape))
                used += inter.size
                windows += [(b, v, level, width, _FIRST_ROW, slice(0, width)) for b, v in zip(hit.tolist(), values)]
                continue
            for b in range(x1.shape[0]):
                cols = np.flatnonzero(hit_cols[b])
                grid_rows = np.flatnonzero(hit_rows[b])
                if not (cols.size and grid_rows.size):
                    continue
                c = slice(cols[0], cols[-1] + 1)
                r = slice(grid_rows[0], grid_rows[-1] + 1)
                window = (r.stop - r.start, c.stop - c.start, shapes)
                # Both window-sized temporaries are this thread's buffers.
                inter = _outer(np.multiply, inter_w[b, c], inter_h[b, r], _scratch.take("inter", window))
                union = _outer(np.multiply, span_w[c], span_h[r], _scratch.take("union", window))
                union += gt_area[b]
                union -= inter
                values = np.divide(inter, union, out=packed[used : used + inter.size].reshape(window))
                used += inter.size
                windows.append((b, values.reshape(window[0], -1), level, width, r,
                                slice(c.start * shapes, c.stop * shapes)))
        yield rows, windows


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union between two box collections.

    Args:
        boxes_a: First collection (rows of the result); an AnchorSet
            gives its boxes.
        boxes_b: Second collection (columns of the result). An AnchorSet
            is scored from its grid tables, so it makes no per-anchor
            boxes.

    Returns:
        Array of shape (len(a), len(b)) with values in [0, 1]: exact +0.0
        where the boxes do not overlap, and elsewhere filled window by
        window by the fold's IoU kernel.
    """
    a = boxes_to_array(boxes_a)
    b = _scorable(boxes_b)
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    for rows, windows in _iou_rows(a, b, lambda rows, shape: np.empty(shape)):
        block = out[rows]
        for i, values, level, width, r, c in windows:
            block[i, level].reshape(-1, width)[r, c] = values
    return out


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, 1 when identical."""
    return float(iou_matrix([a], [b])[0, 0])


@dataclass(frozen=True)
class AnchorGridSpec:
    """Layout of a multi-level anchor grid over one image.

    Each level is a (stride, base_size) pair. Every grid cell of a level
    carries one anchor per (ratio, scale) combination, centered at
    ((col + 0.5) * stride, (row + 0.5) * stride). A ratio r is the
    height/width aspect of the anchor; a scale s multiplies base_size,
    so the anchor is base_size * s * sqrt(1/r) wide and
    base_size * s * sqrt(r) tall. Anchors may extend past the image
    border unless clip is set.

    Attributes:
        levels: (stride, base_size) per pyramid level, strides strictly
            increasing.
        image_w: Image width in pixels.
        image_h: Image height in pixels.
        ratios: Aspect ratios shared by all levels.
        scales: Size multipliers shared by all levels.
        clip: When true, anchors are clamped to the image rectangle.
    """

    levels: tuple[tuple[float, float], ...]
    image_w: float
    image_h: float
    ratios: tuple[float, ...] = (1.0,)
    scales: tuple[float, ...] = (1.0,)
    clip: bool = False

    def __post_init__(self) -> None:
        try:
            entries = tuple(self.levels)
        except TypeError:
            raise ValueError(f"levels must be a sequence of [stride, base_size] pairs, got {_shown(self.levels)}") from None
        levels = []
        for i, level in enumerate(entries):
            try:
                stride, base = level
            except (TypeError, ValueError):
                raise ValueError(f"levels[{i}] must be [stride, base_size], got {_shown(level)}") from None
            levels.append((_real(stride, "levels stride"), _real(base, "levels base size")))
        object.__setattr__(self, "levels", tuple(levels))
        for name in ("ratios", "scales"):
            object.__setattr__(self, name, tuple(_real(v, name) for v in getattr(self, name)))
        for name in ("image_w", "image_h"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "clip", _flag(self.clip, "clip"))
        for name, values in (("image_w", (self.image_w,)), ("image_h", (self.image_h,)),
                             ("levels", sum(self.levels, ())), ("ratios", self.ratios), ("scales", self.scales)):
            if any(v <= 0 for v in values):
                raise ValueError(f"{name} must be positive, got {list(values)}")
        if not self.levels:
            raise ValueError("anchor grid needs at least one level")
        strides = [s for s, _ in self.levels]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must be strictly increasing, got {strides}")
        if not self.ratios or not self.scales:
            raise ValueError("ratios and scales must be non-empty")
        for _, base in self.levels:
            ws, hs = self.shape_sides(base)
            if not all(math.isfinite(v) and v > 0 for v in ws + hs):
                raise ValueError(
                    f"anchor widths and heights must be positive and finite, got widths "
                    f"{list(ws)} and heights {list(hs)} at base size {base!r}"
                )

    def anchors_per_cell(self) -> int:
        return len(self.ratios) * len(self.scales)

    def shape_sides(self, base: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Widths and heights of a level's anchor shapes at one base size,
        ratio-major then scale-minor: the order of a cell's anchors."""
        pairs = [(r, s) for r in self.ratios for s in self.scales]
        return (tuple(base * s * math.sqrt(1.0 / r) for r, s in pairs),
                tuple(base * s * math.sqrt(r) for r, s in pairs))

    def level_shape(self, stride: float) -> tuple[int, int]:
        """(rows, cols) of grid cells at one stride."""
        return math.ceil(self.image_h / stride), math.ceil(self.image_w / stride)

    def num_anchors(self) -> int | float:
        """Anchor count of the grid, worked out without making any anchor.

        A stride so small that the image holds more cells than a float
        can count (a subnormal stride) gives math.inf, over any cap.
        """
        cells = 0
        for stride, _ in self.levels:
            try:
                rows, cols = self.level_shape(stride)
            except OverflowError:
                return math.inf
            cells += rows * cols
        return cells * self.anchors_per_cell()


# The most anchors generate_anchors lays on one image (2**23, about 8.4M).
# It no longer bounds memory: `smalldet assign` counts an image one anchor
# tile at a time (anchor_tiles, at most _BLOCK_PAIRS anchors or one grid
# row) and an anchor set keeps only its grid tables, so its working memory
# is one tile's, 3-4 MB traced. With the default layout and 100 gts on an
# x86-64 Linux host, an 8000x6000 image (1.69M anchors) peaked at 35 MB
# RSS (36 MB clipped) and a 16000x14900 one (8.39M) at 35 MB (38 MB
# clipped), 4-7 MB over the imported package. The cap bounds the time of
# one image instead: 9-11 s (11-13 s clipped) at the cap. Only
# assign_with_metric, whose AssignResult is 17 bytes per anchor, still
# grows with the image. The CLI rejects a larger image as a data error.
MAX_ANCHORS = 1 << 23

# The side an anchor clamped to nothing keeps: a sliver on the nearest
# border rather than a zero-sized (invalid) box.
_CLIP_SLIVER = 1e-6


def _clipped_axis(centers: np.ndarray, sides: np.ndarray, limit: float):
    """Read-only (centers, sides) tables, (len(centers), len(sides)), of
    the anchors along one axis with their extents clamped to [0, limit]."""
    half = sides / 2.0
    lo = np.clip(centers[:, None] - half, 0.0, limit)
    hi = np.clip(centers[:, None] + half, 0.0, limit)
    side = np.maximum(hi - lo, _CLIP_SLIVER)
    center = lo + side / 2.0
    center.flags.writeable = side.flags.writeable = False
    return center, side


@dataclass(frozen=True, eq=False)
class LevelGrid:
    """One pyramid level of a regular anchor grid, as four small tables.

    The level's anchor at flat position (row * cols + col) * S + shape is
    (cx[col], cy[row], ws[shape], hs[shape]), where S = len(ws), with its
    extents clamped to the image rectangle when clip is set. Levels
    compare and hash by identity, as AnchorSets do: an array field has no
    single truth value.

    Attributes:
        cx: Column centers, strictly increasing, shape (cols,).
        cy: Row centers, strictly increasing, shape (rows,).
        ws: Anchor width per shape, positive, shape (S,).
        hs: Anchor height per shape, positive, shape (S,).
        clip: (image_w, image_h) of the rectangle the anchors are clamped
            to, or None.
    """

    cx: np.ndarray
    cy: np.ndarray
    ws: np.ndarray
    hs: np.ndarray
    clip: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "ws", "hs"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"grid table {name} must be 1-d and finite")
            object.__setattr__(self, name, arr)
        if self.ws.shape != self.hs.shape:
            raise ValueError("grid tables ws and hs must have the same length")
        for name in ("cx", "cy"):
            if np.any(np.diff(getattr(self, name)) <= 0):
                raise ValueError(f"grid table {name} must be strictly increasing")
        # The check boxes_to_array makes of every anchor, made once per shape.
        if np.any(self.ws <= 0) or np.any(self.hs <= 0):
            raise ValueError("grid tables ws and hs must be positive")
        if self.clip is not None:
            clip = tuple(_real(v, "grid clip") for v in self.clip)
            if len(clip) != 2 or min(clip) <= 0:
                raise ValueError(f"grid clip must be a positive (width, height), got {clip}")
            object.__setattr__(self, "clip", clip)

    @property
    def shape(self) -> tuple[int, int, int]:
        """(rows, cols, S)."""
        return self.cy.size, self.cx.size, self.ws.size

    @cached_property
    def axes(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """((x, w), (y, h)): anchor centers and sides along each axis.

        x and w broadcast to (cols, S), y and h to (rows, S). Unclipped,
        x is (cols, 1) and w is (1, S), so a term of the sides alone stays
        per shape; clipped, each is a full read-only table. The kernels,
        corners and boxes() read only this form.
        """
        if self.clip is None:
            return (self.cx[:, None], self.ws[None, :]), (self.cy[:, None], self.hs[None, :])
        return (_clipped_axis(self.cx, self.ws, self.clip[0]),
                _clipped_axis(self.cy, self.hs, self.clip[1]))

    def boxes(self) -> np.ndarray:
        """The level's (rows * cols * S, 4) anchors in flat order."""
        (x, w), (y, h) = self.axes
        out = np.empty(self.shape + (4,), dtype=np.float64)
        out[..., 0] = x
        out[..., 1] = y[:, None, :]
        out[..., 2] = w
        out[..., 3] = h[:, None, :]
        return out.reshape(-1, 4)

    @cached_property
    def corners(self) -> tuple[np.ndarray, ...]:
        """x1, x2 on (cols, S) and y1, y2 on (rows, S) (see _axis_corners)."""
        return _axis_corners(self.axes)

    def rows(self, start: int, stop: int) -> "LevelGrid":
        """The level cut to grid rows start:stop. Clipping is per axis, so
        its tables are the rows start:stop of this level's, bit for bit."""
        return LevelGrid(self.cx, self.cy[start:stop], self.ws, self.hs, self.clip)


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Anchors of a multi-level grid, held as one LevelGrid per level.

    The flat order is level-major, then LevelGrid's order within a level.
    The set holds only its tables, which LevelGrid checks; its per-anchor
    boxes and corner table are made, once and read-only, only when a
    caller reads them, which no kernel does.

    Attributes:
        grid: One LevelGrid per level.
        level_offsets: One (start, end) half-open range of flat positions
            per level, from the table shapes; the ranges partition [0, A).
    """

    grid: tuple[LevelGrid, ...] = field(repr=False)
    level_offsets: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        grid = tuple(self.grid)
        if not grid or not all(isinstance(level, LevelGrid) for level in grid):
            raise ValueError("an anchor set needs one or more LevelGrid levels")
        ends = tuple(itertools.accumulate(math.prod(level.shape) for level in grid))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "level_offsets", tuple(zip((0,) + ends[:-1], ends)))

    def __len__(self) -> int:
        return self.level_offsets[-1][1]

    @property
    def num_levels(self) -> int:
        return len(self.grid)

    @cached_property
    def boxes(self) -> np.ndarray:
        """Read-only (A, 4) boxes, column-major so each field is
        contiguous across anchors; made on first use."""
        arr = np.empty((len(self), 4), dtype=np.float64, order="F")
        for level, (start, end) in zip(self.grid, self.level_offsets):
            arr[start:end] = level.boxes()
        arr.flags.writeable = False
        return arr

    @cached_property
    def corners(self) -> np.ndarray:
        """Read-only (5, A) rows x1, y1, x2, y2, area; made on first use."""
        table = _corner_table(self.boxes)
        table.flags.writeable = False
        return table

    @cached_property
    def level_sets(self) -> tuple["AnchorSet", ...]:
        """One single-level AnchorSet per level, sharing its LevelGrid."""
        if self.num_levels == 1:
            return (self,)
        return tuple(AnchorSet((level,)) for level in self.grid)


def _level_grid(spec: AnchorGridSpec, stride: float, base: float) -> LevelGrid:
    rows, cols = spec.level_shape(stride)
    ws, hs = spec.shape_sides(base)
    return LevelGrid(
        cx=(np.arange(cols, dtype=np.float64) + 0.5) * stride,
        cy=(np.arange(rows, dtype=np.float64) + 0.5) * stride,
        ws=ws,
        hs=hs,
        clip=(spec.image_w, spec.image_h) if spec.clip else None,
    )


def generate_anchors(spec: AnchorGridSpec) -> AnchorSet:
    """Lay out every anchor of the grid in a deterministic order.

    The flat ordering is level-major, then row, then column, then ratio,
    then scale. Level i contributes ceil(image_h / stride_i) rows times
    ceil(image_w / stride_i) columns times one anchor per (ratio, scale)
    pair. The set holds only the per-level grid tables, clipped or not,
    and makes its boxes when they are first read.

    Args:
        spec: Grid layout to realize.

    Returns:
        AnchorSet whose level_offsets match the order of spec.levels.

    Raises:
        ValueError: If the grid would contain no anchors, or more than
            MAX_ANCHORS (checked before any is made).
    """
    count = spec.num_anchors()
    if count == 0:
        raise ValueError("anchor grid produced zero anchors")
    if count > MAX_ANCHORS:
        raise ValueError(f"anchor grid would hold {count} anchors, more than the {MAX_ANCHORS} allowed")
    return AnchorSet(tuple(_level_grid(spec, stride, base) for stride, base in spec.levels))
