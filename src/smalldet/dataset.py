"""COCO-style annotation ingestion and content hashing.

Only the geometry-bearing parts of the COCO schema are consumed: the
"images" list (id, width, height) and the "annotations" list (image_id,
bbox in top-left [x, y, w, h] form, category_id, iscrowd). The file is
loaded into columns, one row per image and one per annotation, with each
image's annotations in one contiguous run. Boxes are converted to center
form at this boundary; everything downstream works in center coordinates.
"""

from __future__ import annotations

import logging
from _blake2 import blake2b  # hashlib's blake2b; hashlib itself loads OpenSSL
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _read_json, _real, _shown

__all__ = [
    "DatasetError",
    "DatasetIndex",
    "load_coco",
    "fingerprint",
    "dataset_hash",
]

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """A dataset file that cannot be read, parsed, or validated."""


@dataclass(frozen=True, eq=False)
class DatasetIndex:
    """Parsed dataset as columns: one row per image, one per annotation.

    Image i owns annotation rows gt_start[i]:gt_start[i + 1], in file
    order. Crowd annotations are kept (callers filter on iscrowd); the
    zero-size ones load_coco drops are not. Indexes compare by identity.

    Attributes:
        image_ids: (N,) int64 COCO image ids, in file order.
        sizes: (N, 2) float64 image width and height.
        gt_start: (N + 1,) int64 offsets into the annotation rows.
        boxes: (G, 4) float64 center-form boxes (cx, cy, w, h).
        category_ids: (G,) int64 category ids.
        iscrowd: (G,) bool crowd flags.
    """

    image_ids: np.ndarray
    sizes: np.ndarray
    gt_start: np.ndarray
    boxes: np.ndarray
    category_ids: np.ndarray
    iscrowd: np.ndarray

    @property
    def num_images(self) -> int:
        return len(self.image_ids)

    @property
    def num_gts(self) -> int:
        return len(self.boxes)


def _require(record: dict, field: str, where: str):
    if field not in record:
        raise DatasetError(f"{where} is missing field {field!r}")
    return record[field]


def _as_int(value, field: str, where: str) -> int:
    """A JSON integer within int64, or a float with no fractional part; never truncated."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, int) and not isinstance(number, bool) and -(1 << 63) <= number < (1 << 63):
        return number
    raise DatasetError(f"{where} field {field!r} must be a 64-bit integer, got {_shown(value)}")


def _as_finite(value, field: str, where: str) -> float:
    """A finite JSON number as a float."""
    try:
        return _real(value, field)
    except ValueError:
        raise DatasetError(f"{where} field {field!r} must be a finite number, got {_shown(value)}") from None


def load_coco(path) -> DatasetIndex:
    """Parse a COCO-style annotation file into a DatasetIndex.

    Annotations with zero-width or zero-height boxes are dropped (the
    count is logged); crowd flags are retained so callers can filter.

    Args:
        path: Annotation JSON file.

    Raises:
        DatasetError: A file that cannot be read or is not UTF-8, text
            that is not valid JSON (an int of more digits than Python's
            int-to-str limit or nesting past its recursion limit included),
            a top-level value that is not an object, missing fields,
            an id outside int64 or with a fraction, a non-finite or
            non-numeric dimension or bbox value, a bbox whose center is
            not finite, an iscrowd other than 0, 1, false or true,
            duplicate image ids, or an annotation referencing an unknown
            image id; the message names the file and offending record.
    """
    path = Path(path)
    doc = _read_json(path, f"annotation file {path}", DatasetError)
    for key in ("images", "annotations"):
        if not isinstance(doc.get(key), list):
            raise DatasetError(f"annotation file {path} is missing the {key!r} list")

    # The loops validate each record and append plain numbers; the
    # columns are made from these lists in one step each.
    sizes: list[float] = []
    row_of_id: dict[int, int] = {}
    for pos, record in enumerate(doc["images"]):
        where = f"{path} images[{pos}]"
        if not isinstance(record, dict):
            raise DatasetError(f"{where} is not an object")
        image_id = _as_int(_require(record, "id", where), "id", where)
        if image_id in row_of_id:
            raise DatasetError(f"{where} repeats image id {image_id}")
        width = _as_finite(_require(record, "width", where), "width", where)
        height = _as_finite(_require(record, "height", where), "height", where)
        if width <= 0 or height <= 0:
            raise DatasetError(f"{where} has non-positive dimensions {width}x{height}")
        row_of_id[image_id] = len(row_of_id)
        sizes += (width, height)

    rows, xywh, categories, crowd, dropped = [], [], [], [], []
    for pos, record in enumerate(doc["annotations"]):
        where = f"{path} annotations[{pos}]"
        if not isinstance(record, dict):
            raise DatasetError(f"{where} is not an object")
        image_id = _as_int(_require(record, "image_id", where), "image_id", where)
        row = row_of_id.get(image_id)
        if row is None:
            raise DatasetError(f"{where} references unknown image id {image_id}")
        bbox = _require(record, "bbox", where)
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
            raise DatasetError(f"{where} bbox must be [x, y, w, h], got {_shown(bbox)}")
        x, y, w, h = (_as_finite(v, "bbox", where) for v in bbox)
        if w <= 0 or h <= 0:
            dropped.append(pos)
            continue
        rows.append(row)
        xywh += (x, y, w, h)
        categories.append(_as_int(record.get("category_id", 0), "category_id", where))
        flag = record.get("iscrowd", 0)
        if not (isinstance(flag, int) and flag in (0, 1)):  # bool is an int
            raise DatasetError(f"{where} field 'iscrowd' must be 0, 1, false or true, got {_shown(flag)}")
        crowd.append(bool(flag))
    if dropped:
        logger.info("%s: dropped %d zero-size annotation(s)", path, len(dropped))

    boxes = np.array(xywh, dtype=np.float64).reshape(-1, 4)
    del xywh
    # Center form, exactly as geometry.from_topleft computes it.
    with np.errstate(over="ignore"):
        boxes[:, :2] += boxes[:, 2:] / 2.0
    bad = np.flatnonzero(~np.isfinite(boxes[:, :2]).all(axis=1))
    if bad.size:
        pos = int(bad[0])
        for skipped in dropped:  # from kept row to file position
            if skipped <= pos:
                pos += 1
        raise DatasetError(f"{path} annotations[{pos}] has an invalid bbox: its center is not finite")

    # A stable sort groups each image's annotations and keeps them in
    # file order, which the assigner's rescue step ("later gt wins")
    # depends on.
    rows = np.array(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    per_image = np.bincount(rows, minlength=len(row_of_id))
    return DatasetIndex(
        image_ids=np.fromiter(row_of_id, dtype=np.int64, count=len(row_of_id)),
        sizes=np.array(sizes, dtype=np.float64).reshape(-1, 2),
        gt_start=np.concatenate(([0], np.cumsum(per_image))),
        boxes=boxes[order],
        category_ids=np.array(categories, dtype=np.int64)[order],
        iscrowd=np.array(crowd, dtype=bool)[order],
    )


def fingerprint(records) -> str:
    """BLAKE2b digest (8 bytes) of text records, as 16 hex digits.

    The records are hashed as their UTF-8 bytes, one after another.
    """
    h = blake2b(digest_size=8)
    for record in records:
        h.update(record.encode("utf-8"))
    return h.hexdigest()


def dataset_hash(index: DatasetIndex) -> str:
    """Content fingerprint of an index, as 16 hex digits.

    The fingerprint of one text record per image and per annotation.
    Images are visited in id order (so file ordering does not matter),
    each with its annotations in file order; floats enter the hash by
    repr, making the fingerprint exact, not rounded.
    """
    return fingerprint(_canonical_records(index))


def _canonical_records(index: DatasetIndex):
    """One text per image, in id order: its record, then its annotations'."""
    for i in np.argsort(index.image_ids, kind="stable").tolist():
        start, end = index.gt_start[i : i + 2].tolist()
        width, height = index.sizes[i].tolist()
        lines = [f"I|{int(index.image_ids[i])}|{width!r}|{height!r}\n"]
        for (cx, cy, w, h), category, crowd in zip(
            index.boxes[start:end].tolist(),
            index.category_ids[start:end].tolist(),
            index.iscrowd[start:end].view(np.uint8).tolist(),  # as 0 and 1
        ):
            lines.append(f"A|{cx!r}|{cy!r}|{w!r}|{h!r}|{category}|{crowd}\n")
        yield "".join(lines)
