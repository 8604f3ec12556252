"""Seeded synthetic COCO-style annotation files.

The files hold only what `smalldet` reads: images with sizes, and
annotations with a top-left bbox, a category and a crowd flag. The same
seed and shape give the same bytes, because the generator uses the
standard library's `random.Random`, whose stream does not depend on the
numpy version, and rounds every bbox to 2 decimals.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Object side ranges in pixels, with the share of annotations drawn from
# each: tiny objects below the COCO small edge, then medium, then large.
SIZE_MIX = ((0.5, 4.0, 16.0), (0.3, 32.0, 96.0), (0.2, 96.0, 300.0))
CROWD_SHARE = 0.01

# The default anchor layout of `smalldet assign`: one level of stride 16
# with 3 ratios x 3 scales per grid cell.
ANCHOR_STRIDE = 16
ANCHORS_PER_CELL = 9


@dataclass(frozen=True)
class CocoShape:
    """Size of a synthetic dataset: image count, image size, gts per image."""

    images: int
    width: int
    height: int
    gts_min: int
    gts_max: int

    @property
    def anchors_per_image(self) -> int:
        """Anchors the default layout lays on one image of this size."""
        rows = math.ceil(self.height / ANCHOR_STRIDE)
        cols = math.ceil(self.width / ANCHOR_STRIDE)
        return rows * cols * ANCHORS_PER_CELL

    def as_dict(self) -> dict:
        return {
            "images": self.images,
            "width": self.width,
            "height": self.height,
            "gts_per_image": [self.gts_min, self.gts_max],
            "anchors_per_image": self.anchors_per_image,
        }


@dataclass(frozen=True)
class Dataset:
    """A written annotation file plus the counts the output checks need."""

    path: Path
    images: int
    gts: int
    non_crowd_gts: int
    max_gts_per_image: int
    anchors_per_image: int


def _gt_counts(shape: CocoShape, rng: random.Random) -> list[int]:
    """Per-image gt counts spread evenly over [gts_min, gts_max], shuffled.

    The seed decides which image gets which count, but not the total or
    the largest count, so the amount of work and the largest score matrix
    are the same on every seed and runs on different seeds compare.
    """
    span = shape.gts_max - shape.gts_min
    steps = max(shape.images - 1, 1)
    counts = [shape.gts_min + round(i * span / steps) for i in range(shape.images)]
    rng.shuffle(counts)
    return counts


def _bbox(shape: CocoShape, rng: random.Random) -> list[float]:
    """One top-left [x, y, w, h] box inside the image, from SIZE_MIX."""
    pick = rng.random()
    for share, low, high in SIZE_MIX:
        if pick < share:
            break
        pick -= share
    side = rng.uniform(low, high)
    aspect = math.sqrt(math.exp(rng.uniform(-math.log(2.0), math.log(2.0))))
    w = min(side * aspect, shape.width)
    h = min(side / aspect, shape.height)
    x = rng.uniform(0.0, shape.width - w)
    y = rng.uniform(0.0, shape.height - h)
    return [round(x, 2), round(y, 2), round(w, 2), round(h, 2)]


def coco_document(shape: CocoShape, seed: int) -> tuple[dict, int, int]:
    """Build the annotation document.

    Each image gets its count of non-crowd gts; each of those is followed,
    with probability CROWD_SHARE, by one crowd gt, which `smalldet`
    excludes from assignment. So the assigned gts do not depend on the
    seed's crowd draws either.

    Returns:
        (document, non-crowd gt count, largest non-crowd count of one image)
    """
    rng = random.Random(seed)
    images = []
    annotations = []
    counts = _gt_counts(shape, rng)
    for image_id, count in enumerate(counts, start=1):
        images.append({"id": image_id, "width": shape.width, "height": shape.height})
        for _ in range(count):
            crowd_follows = rng.random() < CROWD_SHARE
            for crowd in (0, 1) if crowd_follows else (0,):
                annotations.append(
                    {
                        "id": len(annotations) + 1,
                        "image_id": image_id,
                        "category_id": 1,
                        "bbox": _bbox(shape, rng),
                        "iscrowd": crowd,
                    }
                )
    doc = {"images": images, "annotations": annotations, "categories": [{"id": 1, "name": "object"}]}
    return doc, sum(counts), max(counts)


def write_coco(path: Path, shape: CocoShape, seed: int) -> Dataset:
    """Write the annotation file for (shape, seed) to path."""
    doc, non_crowd, max_gts = coco_document(shape, seed)
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return Dataset(
        path=path,
        images=shape.images,
        gts=len(doc["annotations"]),
        non_crowd_gts=non_crowd,
        max_gts_per_image=max_gts,
        anchors_per_image=shape.anchors_per_image,
    )
