"""COCO-style annotation ingestion and content hashing.

Only the geometry-bearing parts of the COCO schema are consumed: the
"images" list (id, width, height) and the "annotations" list (image_id,
bbox in top-left [x, y, w, h] form, category_id, iscrowd). Boxes are
converted to center form at this boundary; everything downstream works in
center coordinates.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import Box, from_topleft

__all__ = [
    "DatasetError",
    "ImageInfo",
    "GroundTruth",
    "DatasetIndex",
    "load_coco",
    "fingerprint",
    "dataset_hash",
]

logger = logging.getLogger(__name__)


class DatasetError(ValueError):
    """A dataset file that cannot be read, parsed, or validated."""


@dataclass(frozen=True)
class ImageInfo:
    """One image record: COCO id plus pixel dimensions."""

    id: int
    width: float
    height: float


@dataclass(frozen=True)
class GroundTruth:
    """One annotation: center-form box plus the labels the pipeline needs.

    The area is the box area (w * h); segmentation-mask areas are not
    used, so synthetic datasets without masks behave identically.
    """

    box: Box
    category_id: int
    iscrowd: bool
    area: float


@dataclass(frozen=True)
class DatasetIndex:
    """Parsed dataset: images plus their ground truths, in file order.

    gts_by_image is parallel to images; position i holds the annotations
    whose image_id references images[i].
    """

    images: tuple[ImageInfo, ...]
    gts_by_image: tuple[tuple[GroundTruth, ...], ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.gts_by_image):
            raise ValueError(
                f"{len(self.images)} images but {len(self.gts_by_image)} ground-truth lists"
            )

    @property
    def num_images(self) -> int:
        return len(self.images)

    @property
    def num_gts(self) -> int:
        return sum(len(gts) for gts in self.gts_by_image)


def _require(record: dict, field: str, where: str):
    if field not in record:
        raise DatasetError(f"{where} is missing field {field!r}")
    return record[field]


def _as_int(value, field: str, where: str) -> int:
    """A JSON integer, or a float with no fractional part; never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DatasetError(f"{where} field {field!r} must be an integer, got {value!r}")


def _as_finite(value, field: str, where: str) -> float:
    """A finite JSON number as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
        if math.isfinite(number):
            return number
    raise DatasetError(f"{where} field {field!r} must be a finite number, got {value!r}")


def load_coco(path) -> DatasetIndex:
    """Parse a COCO-style annotation file into a DatasetIndex.

    Annotations with zero-width or zero-height boxes are dropped (the
    count is logged); crowd flags are retained so callers can filter.

    Args:
        path: Annotation JSON file.

    Raises:
        DatasetError: Unreadable file, malformed JSON, missing fields,
            a non-integer id, a non-finite or non-numeric dimension or
            bbox value, duplicate image ids, or an annotation referencing
            an unknown image id; the message names the file and offending
            record.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read annotation file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"annotation file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"annotation file {path} must hold a JSON object at the top level")
    for key in ("images", "annotations"):
        if not isinstance(doc.get(key), list):
            raise DatasetError(f"annotation file {path} is missing the {key!r} list")

    images = []
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
        row_of_id[image_id] = len(images)
        images.append(ImageInfo(id=image_id, width=width, height=height))

    gts: list[list[GroundTruth]] = [[] for _ in images]
    dropped = 0
    for pos, record in enumerate(doc["annotations"]):
        where = f"{path} annotations[{pos}]"
        if not isinstance(record, dict):
            raise DatasetError(f"{where} is not an object")
        image_id = _as_int(_require(record, "image_id", where), "image_id", where)
        if image_id not in row_of_id:
            raise DatasetError(f"{where} references unknown image id {image_id}")
        bbox = _require(record, "bbox", where)
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
            raise DatasetError(f"{where} bbox must be [x, y, w, h], got {bbox!r}")
        x, y, w, h = (_as_finite(v, "bbox", where) for v in bbox)
        if w <= 0 or h <= 0:
            dropped += 1
            continue
        try:
            box = from_topleft(x, y, w, h)
        except ValueError as exc:
            raise DatasetError(f"{where} has an invalid bbox: {exc}") from exc
        gts[row_of_id[image_id]].append(
            GroundTruth(
                box=box,
                category_id=_as_int(record.get("category_id", 0), "category_id", where),
                iscrowd=bool(record.get("iscrowd", 0)),
                area=box.area,
            )
        )
    if dropped:
        logger.info("%s: dropped %d zero-size annotation(s)", path, dropped)

    return DatasetIndex(images=tuple(images), gts_by_image=tuple(tuple(g) for g in gts))


def fingerprint(records) -> str:
    """BLAKE2b digest (8 bytes) of text records, as 16 hex digits.

    The records are hashed as their UTF-8 bytes, one after another.
    """
    # Imported on first use: hashlib loads OpenSSL (about 4 MB resident),
    # which commands that hash nothing should not pay for.
    import hashlib

    h = hashlib.blake2b(digest_size=8)
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
    for i in sorted(range(len(index.images)), key=lambda i: index.images[i].id):
        image = index.images[i]
        yield f"I|{image.id}|{image.width!r}|{image.height!r}\n"
        for gt in index.gts_by_image[i]:
            b = gt.box
            yield f"A|{b.cx!r}|{b.cy!r}|{b.w!r}|{b.h!r}|{gt.category_id}|{int(gt.iscrowd)}\n"
