"""From an annotation file to a bucketed assignment report.

Writes a small COCO-style annotation file, loads it back, computes the
dataset normalizers, runs both metrics through the assigner, and prints
the per-bucket comparison the JSON/CSV reports carry.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from smalldet import (
    AnchorGridSpec,
    AssignThresholds,
    Metric,
    NormalizerAccumulator,
    accumulate,
    assign,
    assignment_stats,
    finalize,
    generate_anchors,
    iou_matrix,
    load_coco,
    ps_matrix,
    reports_to_csv,
    reports_to_json,
)

# --- a dataset of 12 images with mixed object sizes ------------------
rng = np.random.default_rng(2024)
images = []
annotations = []
ann_id = 1
for image_id in range(1, 13):
    images.append({"id": image_id, "width": 800, "height": 800})
    for _ in range(int(rng.integers(2, 6))):
        # Half the objects are tiny (sides 4-16), half mid-sized (40-90).
        if rng.uniform() < 0.5:
            w, h = rng.uniform(4.0, 16.0, size=2)
        else:
            w, h = rng.uniform(40.0, 90.0, size=2)
        x = rng.uniform(0.0, 800.0 - w)
        y = rng.uniform(0.0, 800.0 - h)
        annotations.append(
            {
                "id": ann_id,
                "image_id": image_id,
                "bbox": [round(float(v), 2) for v in (x, y, w, h)],
            }
        )
        ann_id += 1

# Every file the demo writes goes to a directory removed when it ends.
with tempfile.TemporaryDirectory(prefix="dataset_report_") as tmp:
    workdir = Path(tmp)
    ann_path = workdir / "annotations.json"
    ann_path.write_text(json.dumps({"images": images, "annotations": annotations}))

    index = load_coco(ann_path)
    print(f"loaded {index.num_images} images, {index.num_gts} gts")

    # --- anchors and normalizers -----------------------------------------
    # Large anchors (sides 256 and 512). The normalizers are means over all
    # gt-anchor pairs, so adding small anchor scales inflates m and n and
    # pushes every similarity down; with this grid the values stay moderate
    # and the rescue floor stays reachable. Try scales=(4.0, 16.0, 32.0) to
    # watch m climb past 1.5 and the small bucket lose coverage under both
    # metrics.
    grid = AnchorGridSpec(
        levels=((16.0, 16.0),),
        image_w=800.0,
        image_h=800.0,
        ratios=(0.5, 1.0, 2.0),
        scales=(16.0, 32.0),
    )
    anchors = generate_anchors(grid)

    # One view per image into the index's center-form box column; image i
    # owns rows gt_start[i]:gt_start[i + 1]. The demo file has no crowd gts.
    scenes = np.split(index.boxes, index.gt_start[1:-1])
    acc = NormalizerAccumulator()
    for boxes in scenes:
        acc = accumulate(acc, boxes, anchors)
    norm = finalize(acc)
    print(f"normalizers from {acc.pair_count} pairs: m={norm.m:.4f} n={norm.n:.4f}")
    print()

    # --- assignment under both metrics ------------------------------------
    # Each image's result becomes one ImageCounts record, which carries the
    # gt areas (w * h) that pick the size buckets.
    thr = AssignThresholds()
    reports = []
    for metric in (Metric.PS, Metric.IOU):
        counts = []
        for boxes in scenes:
            scores = ps_matrix(boxes, anchors, norm) if metric is Metric.PS else iou_matrix(boxes, anchors)
            counts.append(assign(scores, thr).counts(boxes[:, 2] * boxes[:, 3]))
        reports.append(assignment_stats(counts, thr, metric))

    print("metric  bucket          gts  mean_pos  uncovered")
    for report in reports:
        for bucket in report.buckets:
            mean = "-" if bucket.mean_positives_per_gt is None else f"{bucket.mean_positives_per_gt:.2f}"
            print(
                f"{report.metric:6s}  {bucket.name:14s} {bucket.gt_count:4d}  "
                f"{mean:>8s}  {bucket.gts_without_positive:9d}"
            )
    print()

    # The same numbers, serialized the way the command-line tool writes them.
    (workdir / "report.json").write_text(reports_to_json(reports))
    (workdir / "report.csv").write_text(reports_to_csv(reports))
    print("wrote", workdir / "report.json")
    print("wrote", workdir / "report.csv")
    print()
    print(reports_to_csv(reports))
