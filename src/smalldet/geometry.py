"""Center-form bounding boxes, IoU, and multi-level anchor grids.

Boxes are stored as (cx, cy, w, h) with strictly positive dimensions.
Batch operations work on float64 arrays of shape (N, 4) in the same
field order; helpers accept either Box sequences or such arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Box",
    "AnchorGridSpec",
    "AnchorSet",
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


def iou_rows(a, b, out=None):
    """Yield (rows, block) pairs of the IoU matrix, one row block at a time.

    Corners and areas are computed once per call, or once per AnchorSet;
    each block then costs a few temporaries of its own size. Blocks
    follow row_blocks order.

    Args:
        a: Validated (N, 4) float64 array, as from boxes_to_array, or an
            AnchorSet (rows).
        b: Validated (M, 4) float64 array, or an AnchorSet (columns).
        out: Optional (N, M) float64 array; when given, each block is
            written into (and returned as) out[rows].

    Yields:
        (rows, block): a row slice and the (rows, M) IoU values, in [0, 1].
    """
    ca = _corners_of(a)
    cb = _corners_of(b)
    for rows in row_blocks(ca.shape[1], cb.shape[1]):
        x1, y1, x2, y2, area = ca[:, rows, None]
        inter = np.minimum(x2, cb[2])
        inter -= np.maximum(x1, cb[0])
        inter_h = np.minimum(y2, cb[3])
        inter_h -= np.maximum(y1, cb[1])
        np.clip(inter, 0.0, None, out=inter)
        np.clip(inter_h, 0.0, None, out=inter_h)
        inter *= inter_h
        union = area + cb[4]
        union -= inter
        yield rows, np.divide(inter, union, out=None if out is None else out[rows])


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union between two box collections.

    Args:
        boxes_a: First collection (rows of the result).
        boxes_b: Second collection (columns of the result).

    Returns:
        Array of shape (len(a), len(b)) with values in [0, 1], filled
        block by block from iou_rows.
    """
    a = boxes_to_array(boxes_a)
    b = boxes_to_array(boxes_b)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
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


@dataclass(frozen=True)
class AnchorSet:
    """Flat anchor collection plus per-level index ranges.

    The boxes are validated once, here, into a read-only array the set
    owns, so boxes_to_array and the scoring kernels reuse them without
    scanning or copying them again.

    Attributes:
        boxes: Read-only float64 array of shape (A, 4) in (cx, cy, w, h)
            order, stored column-major so each field is contiguous across
            anchors, the layout the scoring kernels read.
        level_offsets: One (start, end) half-open row range per level;
            the ranges are contiguous and partition [0, A).
    """

    boxes: np.ndarray
    level_offsets: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # A copy, so no caller holds a writable alias of the checked values.
        arr = np.array(boxes_to_array(self.boxes), order="F")
        arr.flags.writeable = False
        object.__setattr__(self, "boxes", arr)
        offsets = tuple((int(a), int(b)) for a, b in self.level_offsets)
        object.__setattr__(self, "level_offsets", offsets)
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

    def __len__(self) -> int:
        return int(self.boxes.shape[0])

    @property
    def num_levels(self) -> int:
        return len(self.level_offsets)

    @cached_property
    def corners(self) -> np.ndarray:
        """Read-only (5, A) rows x1, y1, x2, y2, area; made on first use."""
        table = _corner_table(self.boxes)
        table.flags.writeable = False
        return table

    def level_boxes(self, level: int) -> np.ndarray:
        """Rows of the given pyramid level, as a view into boxes."""
        start, end = self.level_offsets[level]
        return self.boxes[start:end]

    def as_boxes(self) -> list[Box]:
        """Materialize every anchor as a Box. Intended for small sets."""
        return [Box(float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in self.boxes]


def _level_anchors(spec: AnchorGridSpec, stride: float, base: float) -> np.ndarray:
    rows = math.ceil(spec.image_h / stride)
    cols = math.ceil(spec.image_w / stride)
    ratios = np.asarray(spec.ratios, dtype=np.float64)
    scales = np.asarray(spec.scales, dtype=np.float64)
    # (R, S) grids so the flattened order is ratio-major, scale-minor.
    rr, ss = np.meshgrid(ratios, scales, indexing="ij")
    ws = base * ss * np.sqrt(1.0 / rr)
    hs = base * ss * np.sqrt(rr)

    cy = (np.arange(rows, dtype=np.float64) + 0.5) * stride
    cx = (np.arange(cols, dtype=np.float64) + 0.5) * stride
    out = np.empty((rows, cols, ratios.size, scales.size, 4), dtype=np.float64)
    out[..., 0] = cx[None, :, None, None]
    out[..., 1] = cy[:, None, None, None]
    out[..., 2] = ws[None, None, :, :]
    out[..., 3] = hs[None, None, :, :]
    return out.reshape(-1, 4)


def generate_anchors(spec: AnchorGridSpec) -> AnchorSet:
    """Lay out every anchor of the grid in a deterministic order.

    The flat ordering is level-major, then row, then column, then ratio,
    then scale. Level i contributes ceil(image_h / stride_i) rows times
    ceil(image_w / stride_i) columns times one anchor per (ratio, scale)
    pair.

    Args:
        spec: Grid layout to realize.

    Returns:
        AnchorSet whose level_offsets match the order of spec.levels.

    Raises:
        ValueError: If the grid would contain no anchors.
    """
    chunks = []
    offsets = []
    start = 0
    for stride, base in spec.levels:
        boxes = _level_anchors(spec, stride, base)
        if spec.clip:
            _clip_inplace(boxes, spec.image_w, spec.image_h)
        offsets.append((start, start + boxes.shape[0]))
        start += boxes.shape[0]
        chunks.append(boxes)
    all_boxes = np.concatenate(chunks, axis=0)
    if all_boxes.shape[0] == 0:
        raise ValueError("anchor grid produced zero anchors")
    return AnchorSet(all_boxes, tuple(offsets))


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
