"""Center-form bounding boxes, IoU, and multi-level anchor grids.

Boxes are stored as (cx, cy, w, h) with strictly positive dimensions.
Batch operations work on float64 arrays of shape (N, 4) in the same
field order; helpers accept either Box sequences or such arrays.

An unclipped AnchorSet made by generate_anchors holds only its per-level
grid tables (LevelGrid: column centers, row centers, shape widths and
heights); its per-anchor boxes and corner table are made only if a
caller reads them. iou_rows reads the tables to compute each ground
truth's IoU only inside the row and column window where it overlaps the
grid, writing exact 0.0 elsewhere; the values are bit-identical to the
pairwise kernel's. Clipped sets and sets made from given boxes have no
grid and take the pairwise kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    "iou_rows",
    "row_blocks",
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
            value = getattr(self, name)
            if not isinstance(value, (int, float)):
                raise ValueError(f"box field {name} must be a number, got {type(value).__name__}")
            if not math.isfinite(value):
                raise ValueError(f"box field {name} must be finite, got {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box dimensions must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        """Return the (x1, y1, x2, y2) corner representation."""
        half_w = self.w / 2.0
        half_h = self.h / 2.0
        return (self.cx - half_w, self.cy - half_h, self.cx + half_w, self.cy + half_h)


def make_box(cx: float, cy: float, w: float, h: float) -> Box:
    """Construct a validated center-form box from plain numbers."""
    return Box(float(cx), float(cy), float(w), float(h))


def from_topleft(x: float, y: float, w: float, h: float) -> Box:
    """Convert a top-left (x, y, w, h) box, as used by COCO bbox fields, to center form."""
    w = float(w)
    h = float(h)
    return Box(float(x) + w / 2.0, float(y) + h / 2.0, w, h)


def boxes_to_array(boxes) -> np.ndarray:
    """Stack boxes into a float64 array of shape (N, 4).

    Args:
        boxes: A sequence of Box, an AnchorSet, or an array-like of shape
            (N, 4) in (cx, cy, w, h) order.

    Returns:
        A float64 array of shape (N, 4). Empty input yields shape (0, 4).
        For an AnchorSet, its own read-only array, which was validated
        when the set was made and is not scanned again.

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
_BLOCK_PAIRS = 1 << 16


def row_blocks(num_rows: int, num_cols: int):
    """Yield consecutive row slices that cover range(num_rows) in order.

    Each slice holds at least one row and at most max(1, _BLOCK_PAIRS //
    num_cols) rows. The pairwise kernels score one such block at a time.
    """
    step = max(1, _BLOCK_PAIRS // max(num_cols, 1))
    for start in range(0, num_rows, step):
        yield slice(start, min(start + step, num_rows))


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


def _corners_of(boxes) -> np.ndarray:
    """Corner table of a validated array, or the one an AnchorSet keeps."""
    return boxes.corners if isinstance(boxes, AnchorSet) else _corner_table(boxes)


def _overlap(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Broadcast length of [lo_a, hi_a] ∩ [lo_b, hi_b] along one axis, clipped at 0."""
    inter = np.minimum(hi_a, hi_b)
    inter -= np.maximum(lo_a, lo_b)
    return np.clip(inter, 0.0, None, out=inter)


def iou_rows(a, b, out=None):
    """Yield (rows, block) pairs of the IoU matrix, one row block at a time.

    Corners and areas are computed once per call, or once per AnchorSet;
    each block then costs a few temporaries of its own size. Blocks
    follow row_blocks order. When b is an AnchorSet with grid tables,
    each row's IoU is computed only inside the grid window it overlaps
    and is exact 0.0 elsewhere, bit-identical to the pairwise values.

    Args:
        a: Validated (N, 4) float64 array, as from boxes_to_array, or an
            AnchorSet (rows).
        b: Validated (M, 4) float64 array, or an AnchorSet (columns).
        out: Optional (N, M) float64 array; when given, each block is
            written into (and returned as) out[rows].

    Yields:
        (rows, block): a row slice and the (rows, M) IoU values, in [0, 1].
    """
    if isinstance(b, AnchorSet) and b.grid is not None:
        return _grid_iou_rows(_corners_of(a), b, out)
    return _pair_iou_rows(_corners_of(a), _corners_of(b), out)


def _pair_iou_rows(ca: np.ndarray, cb: np.ndarray, out):
    for rows in row_blocks(ca.shape[1], cb.shape[1]):
        x1, y1, x2, y2, area = ca[:, rows, None]
        inter = _overlap(x1, x2, cb[0], cb[2])
        inter *= _overlap(y1, y2, cb[1], cb[3])
        union = area + cb[4]
        union -= inter
        yield rows, np.divide(inter, union, out=None if out is None else out[rows])


def _grid_iou_rows(ca: np.ndarray, anchors: "AnchorSet", out):
    """iou_rows over a grid set: per-axis overlaps on (cols, S) and (rows, S).

    A pair overlaps only where both axis overlaps are positive, so each
    gt row is divided out only inside the bounding window of the columns
    and rows it overlaps on some shape; every other entry is the exact
    0.0 that 0 / union gives in the pairwise kernel. An anchor's area is
    (x2 - x1) * (y2 - y1) from the level's corner tables, the product
    the corner table takes, so no per-anchor table is made.
    """
    num_anchors = len(anchors)
    for rows in row_blocks(ca.shape[1], num_anchors):
        x1, y1, x2, y2, gt_area = ca[:, rows, None, None]
        if out is None:
            block = np.zeros((x1.shape[0], num_anchors))
        else:
            block = out[rows]
            block.fill(0.0)
        for level, (start, end) in zip(anchors.grid, anchors.level_offsets):
            ax1, ax2, ay1, ay2 = level.corners
            inter_w = _overlap(x1, x2, ax1, ax2)  # (B, cols, S)
            inter_h = _overlap(y1, y2, ay1, ay2)  # (B, rows, S)
            hit_cols = (inter_w > 0).any(axis=2)
            hit_rows = (inter_h > 0).any(axis=2)
            span_w = ax2 - ax1  # (cols, S)
            span_h = ay2 - ay1  # (rows, S)
            level_block = block[:, start:end].reshape((block.shape[0],) + level.shape)
            for b in range(block.shape[0]):
                cols = np.flatnonzero(hit_cols[b])
                grid_rows = np.flatnonzero(hit_rows[b])
                if not (cols.size and grid_rows.size):
                    continue
                c = slice(cols[0], cols[-1] + 1)
                r = slice(grid_rows[0], grid_rows[-1] + 1)
                inter = inter_w[b, None, c] * inter_h[b, r, None]
                union = span_w[None, c] * span_h[r, None]
                union += gt_area[b]
                union -= inter
                np.divide(inter, union, out=level_block[b, r, c])
        yield rows, block


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union between two box collections.

    Args:
        boxes_a: First collection (rows of the result).
        boxes_b: Second collection (columns of the result). An AnchorSet
            is passed to iou_rows as it is, so a grid set takes the grid
            kernel and makes no per-anchor boxes.

    Returns:
        Array of shape (len(a), len(b)) with values in [0, 1], filled
        block by block from iou_rows.
    """
    a = boxes_a if isinstance(boxes_a, AnchorSet) else boxes_to_array(boxes_a)
    b = boxes_b if isinstance(boxes_b, AnchorSet) else boxes_to_array(boxes_b)
    out = np.empty((len(a), len(b)), dtype=np.float64)
    for _ in iou_rows(a, b, out):
        pass
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
        levels = tuple((float(s), float(b)) for s, b in self.levels)
        ratios = tuple(float(r) for r in self.ratios)
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "scales", scales)
        if not levels:
            raise ValueError("anchor grid needs at least one level")
        for stride, base in levels:
            if not (math.isfinite(stride) and stride > 0):
                raise ValueError(f"stride must be positive and finite, got {stride!r}")
            if not (math.isfinite(base) and base > 0):
                raise ValueError(f"base size must be positive and finite, got {base!r}")
        strides = [s for s, _ in levels]
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise ValueError(f"strides must be strictly increasing, got {strides}")
        if not ratios or not scales:
            raise ValueError("ratios and scales must be non-empty")
        if any(not (math.isfinite(r) and r > 0) for r in ratios):
            raise ValueError(f"ratios must be positive and finite, got {ratios}")
        if any(not (math.isfinite(s) and s > 0) for s in scales):
            raise ValueError(f"scales must be positive and finite, got {scales}")
        for name in ("image_w", "image_h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    def anchors_per_cell(self) -> int:
        return len(self.ratios) * len(self.scales)

    def level_shape(self, stride: float) -> tuple[int, int]:
        """(rows, cols) of grid cells at one stride."""
        return math.ceil(self.image_h / stride), math.ceil(self.image_w / stride)

    def num_anchors(self) -> int:
        """Anchor count of the grid, worked out without making any anchor."""
        cells = 0
        for stride, _ in self.levels:
            rows, cols = self.level_shape(stride)
            cells += rows * cols
        return cells * self.anchors_per_cell()


# The most anchors generate_anchors lays on one image (2**23, about 8.4M).
# `smalldet assign` holds about 32 bytes per anchor of the image it works
# on (running best scores, matched gts, labels, one score row; a grid set
# keeps no per-anchor table). With the default layout on an x86-64 Linux
# host, an 8000x6000 image (1.69M anchors) peaked at 89 MB RSS and a
# 16000x14900 one (8.39M) at 298 MB, so this bounds one image at about
# 300 MB. A clipped set adds its boxes and corner table, 72 bytes per
# anchor. The CLI rejects a larger image as a data error.
MAX_ANCHORS = 1 << 23


@dataclass(frozen=True)
class LevelGrid:
    """One pyramid level of a regular anchor grid, as four small tables.

    The level's anchor at flat position (row * cols + col) * S + shape is
    (cx[col], cy[row], ws[shape], hs[shape]), where S = len(ws).

    Attributes:
        cx: Column centers, strictly increasing, shape (cols,).
        cy: Row centers, strictly increasing, shape (rows,).
        ws: Anchor width per shape, positive, shape (S,).
        hs: Anchor height per shape, positive, shape (S,).
    """

    cx: np.ndarray
    cy: np.ndarray
    ws: np.ndarray
    hs: np.ndarray

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

    @property
    def shape(self) -> tuple[int, int, int]:
        """(rows, cols, S)."""
        return self.cy.size, self.cx.size, self.ws.size

    def boxes(self) -> np.ndarray:
        """The level's (rows * cols * S, 4) anchors in flat order."""
        out = np.empty(self.shape + (4,), dtype=np.float64)
        out[..., 0] = self.cx[None, :, None]
        out[..., 1] = self.cy[:, None, None]
        out[..., 2] = self.ws
        out[..., 3] = self.hs
        return out.reshape(-1, 4)

    @cached_property
    def corners(self) -> tuple[np.ndarray, ...]:
        """x1, x2 on (cols, S) and y1, y2 on (rows, S), computed as the
        corner table computes them, so the values are the same."""
        half_w = self.ws / 2.0
        half_h = self.hs / 2.0
        cx = self.cx[:, None]
        cy = self.cy[:, None]
        return cx - half_w, cx + half_w, cy - half_h, cy + half_h


@dataclass(frozen=True, init=False, eq=False)
class AnchorSet:
    """Flat anchor collection plus per-level index ranges.

    A set made from boxes validates them once, here, into a read-only
    array the set owns, so boxes_to_array and the scoring kernels reuse
    them without scanning or copying them again. A grid set from
    generate_anchors holds only its grid tables, which LevelGrid checks.

    Attributes:
        boxes: Read-only float64 array of shape (A, 4) in (cx, cy, w, h)
            order, stored column-major so each field is contiguous across
            anchors, the layout the scoring kernels read. A grid set from
            generate_anchors makes it from its tables on first use.
        level_offsets: One (start, end) half-open row range per level;
            the ranges are contiguous and partition [0, A).
        grid: One LevelGrid per level when the anchors form a regular
            grid (generate_anchors without clip sets it), else None. Boxes
            given with a grid are checked to equal the tables. Kernels
            given a set with a grid read the tables instead of the boxes.
    """

    level_offsets: tuple[tuple[int, int], ...]
    grid: tuple[LevelGrid, ...] | None = field(default=None, repr=False)
    # (parent set, start, end) for a set made by level_sets.
    _parent: tuple | None = field(default=None, repr=False)

    def __init__(self, boxes, level_offsets: tuple[tuple[int, int], ...],
                 grid: tuple[LevelGrid, ...] | None = None) -> None:
        # A copy, so no caller holds a writable alias of the checked values.
        arr = np.array(boxes_to_array(boxes), order="F")
        arr.flags.writeable = False
        offsets = tuple((int(a), int(b)) for a, b in level_offsets)
        if not offsets:
            raise ValueError("anchor set needs at least one level range")
        expected_start = 0
        for start, end in offsets:
            if start != expected_start or end < start:
                raise ValueError(f"level offsets must partition the rows, got {offsets}")
            expected_start = end
        if expected_start != arr.shape[0]:
            raise ValueError(
                f"level offsets cover {expected_start} rows but there are {arr.shape[0]} anchors"
            )
        if grid is not None:
            grid = tuple(grid)
            if len(grid) != len(offsets):
                raise ValueError(f"{len(grid)} grid levels for {len(offsets)} level ranges")
            for level, (start, end) in zip(grid, offsets):
                if not isinstance(level, LevelGrid):
                    raise ValueError(f"grid levels must be LevelGrid, got {type(level).__name__}")
                if math.prod(level.shape) != end - start:
                    raise ValueError(f"grid level of shape {level.shape} for {end - start} anchors")
                if not np.array_equal(arr[start:end], level.boxes()):
                    raise ValueError("anchor boxes do not match their grid tables")
        self.__dict__.update(boxes=arr, level_offsets=offsets, grid=grid)

    def __len__(self) -> int:
        return self.level_offsets[-1][1]

    @property
    def num_levels(self) -> int:
        return len(self.level_offsets)

    @cached_property
    def boxes(self) -> np.ndarray:
        # Reached only by sets made without boxes: a grid set from
        # generate_anchors, or a part from level_sets.
        if self._parent is not None:
            parent, start, end = self._parent
            return parent.boxes[start:end]
        arr = np.empty((len(self), 4), dtype=np.float64, order="F")
        for level, (start, end) in zip(self.grid, self.level_offsets):
            arr[start:end] = level.boxes()
        arr.flags.writeable = False
        return arr

    @cached_property
    def corners(self) -> np.ndarray:
        """Read-only (5, A) rows x1, y1, x2, y2, area; made on first use.

        A set from level_sets uses the columns of its parent's table.
        """
        if self._parent is not None:
            parent, start, end = self._parent
            return parent.corners[:, start:end]
        table = _corner_table(self.boxes)
        table.flags.writeable = False
        return table

    @cached_property
    def level_sets(self) -> tuple["AnchorSet", ...]:
        """One single-level AnchorSet per level, made once per set.

        Each is a read-only slice of this set, with nothing validated or
        copied again: its grid is this set's table for the level, and its
        boxes and corner table, when read, are rows of this set's boxes
        and columns of this set's table.
        """
        if self.num_levels == 1:
            return (self,)
        return tuple(
            _unchecked_set(((0, end - start),), None if self.grid is None else (self.grid[level],),
                           (self, start, end))
            for level, (start, end) in enumerate(self.level_offsets)
        )


def _unchecked_set(level_offsets, grid, parent=None) -> AnchorSet:
    """An AnchorSet without boxes, from parts that are already checked."""
    anchors = object.__new__(AnchorSet)
    anchors.__dict__.update(level_offsets=level_offsets, grid=grid, _parent=parent)
    return anchors


def _level_grid(spec: AnchorGridSpec, stride: float, base: float) -> LevelGrid:
    rows, cols = spec.level_shape(stride)
    ratios = np.asarray(spec.ratios, dtype=np.float64)
    scales = np.asarray(spec.scales, dtype=np.float64)
    # (R, S) grids so the flattened order is ratio-major, scale-minor.
    rr, ss = np.meshgrid(ratios, scales, indexing="ij")
    return LevelGrid(
        cx=(np.arange(cols, dtype=np.float64) + 0.5) * stride,
        cy=(np.arange(rows, dtype=np.float64) + 0.5) * stride,
        ws=(base * ss * np.sqrt(1.0 / rr)).ravel(),
        hs=(base * ss * np.sqrt(rr)).ravel(),
    )


def generate_anchors(spec: AnchorGridSpec) -> AnchorSet:
    """Lay out every anchor of the grid in a deterministic order.

    The flat ordering is level-major, then row, then column, then ratio,
    then scale. Level i contributes ceil(image_h / stride_i) rows times
    ceil(image_w / stride_i) columns times one anchor per (ratio, scale)
    pair. Without clip the set holds only the per-level grid tables and
    makes its boxes when they are first read.

    Args:
        spec: Grid layout to realize.

    Returns:
        AnchorSet whose level_offsets match the order of spec.levels.

    Raises:
        ValueError: If the grid would contain no anchors, or more than
            MAX_ANCHORS (checked before any is made), or an anchor shape
            with a non-positive or non-finite width or height.
    """
    count = spec.num_anchors()
    if count == 0:
        raise ValueError("anchor grid produced zero anchors")
    if count > MAX_ANCHORS:
        raise ValueError(f"anchor grid would hold {count} anchors, more than the {MAX_ANCHORS} allowed")
    grid = tuple(_level_grid(spec, stride, base) for stride, base in spec.levels)
    offsets = []
    start = 0
    for level in grid:
        end = start + math.prod(level.shape)
        offsets.append((start, end))
        start = end
    if not spec.clip:
        return _unchecked_set(tuple(offsets), grid)
    chunks = [level.boxes() for level in grid]
    for boxes in chunks:
        _clip_inplace(boxes, spec.image_w, spec.image_h)
    return AnchorSet(np.concatenate(chunks, axis=0), tuple(offsets))


def _clip_inplace(boxes: np.ndarray, image_w: float, image_h: float) -> None:
    """Clamp anchors to the image rectangle, keeping dimensions positive.

    An anchor lying entirely outside collapses to a thin sliver on the
    nearest border rather than a zero-sized (invalid) box.
    """
    eps = 1e-6
    x1 = np.clip(boxes[:, 0] - boxes[:, 2] / 2.0, 0.0, image_w)
    y1 = np.clip(boxes[:, 1] - boxes[:, 3] / 2.0, 0.0, image_h)
    x2 = np.clip(boxes[:, 0] + boxes[:, 2] / 2.0, 0.0, image_w)
    y2 = np.clip(boxes[:, 1] + boxes[:, 3] / 2.0, 0.0, image_h)
    w = np.maximum(x2 - x1, eps)
    h = np.maximum(y2 - y1, eps)
    boxes[:, 0] = x1 + w / 2.0
    boxes[:, 1] = y1 + h / 2.0
    boxes[:, 2] = w
    boxes[:, 3] = h
