"""Tests of the benchmark itself: generator, output checks, toy-size runs.

Run from the root of the repository:
    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import run
import synth

TOY_COCO = synth.CocoShape(images=3, width=64, height=48, gts_min=1, gts_max=4)
TOY_WORKLOADS = {
    "coco-sparse-warm": run.CocoWorkload(TOY_COCO, warm=True),
    "coco-dense-cold": run.CocoWorkload(TOY_COCO, warm=False),
    "contrast-train": run.ContrastWorkload(levels=2, batch=2, dim=4, lr=1e-3),
}


def test_toy_workloads_cover_every_workload():
    assert set(TOY_WORKLOADS) == set(run.WORKLOADS)


def test_generator_is_deterministic(tmp_path):
    shape = run.WORKLOADS["coco-sparse-warm"].shape
    a = synth.write_coco(tmp_path / "a.json", shape, seed=7)
    b = synth.write_coco(tmp_path / "b.json", shape, seed=7)
    c = synth.write_coco(tmp_path / "c.json", shape, seed=8)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.path.read_bytes() != c.path.read_bytes()
    # The seed moves content, not the amount of assigned work.
    assert (a.non_crowd_gts, a.max_gts_per_image) == (c.non_crowd_gts, c.max_gts_per_image)


def test_generator_matches_its_shape(tmp_path):
    shape = run.WORKLOADS["coco-dense-cold"].shape
    dataset = synth.write_coco(tmp_path / "ann.json", shape, seed=0)
    doc = json.loads(dataset.path.read_text())
    assert len(doc["images"]) == shape.images == dataset.images
    assert dataset.anchors_per_image == 100 * 100 * 9
    per_image = {}
    for ann in doc["annotations"]:
        x, y, w, h = ann["bbox"]
        assert w > 0 and h > 0 and [round(v, 2) for v in ann["bbox"]] == ann["bbox"]
        if not ann["iscrowd"]:
            per_image[ann["image_id"]] = per_image.get(ann["image_id"], 0) + 1
    assert all(shape.gts_min <= n <= shape.gts_max for n in per_image.values())
    assert sum(per_image.values()) == dataset.non_crowd_gts
    assert synth.CocoShape(1, 640, 480, 5, 15).anchors_per_image == 10_800


def _report(gt_counts, anchors):
    buckets = [{"name": f"b{i}", "gt_count": n, "mean_positives_per_gt": 1.0,
                "gts_without_positive": 0, "positive_anchors": n} for i, n in enumerate(gt_counts)]
    totals = {"positive": sum(gt_counts), "negative": anchors - sum(gt_counts), "ignore": 0,
              "anchors": anchors}
    return {"schema_version": 1,
            "reports": [{"metric": m, "totals": dict(totals), "buckets": [dict(b) for b in buckets]}
                        for m in ("ps", "iou")]}


def test_digest_check_rejects_an_altered_count():
    dataset = synth.Dataset(path=None, images=2, gts=6, non_crowd_gts=6, max_gts_per_image=3,
                            anchors_per_image=50)
    doc = _report([1, 2, 3], anchors=100)
    digest = run.report_digest(doc)
    assert run.check_report(doc, dataset, digest) == []

    doc["reports"][1]["buckets"][0]["gts_without_positive"] = 1
    errors = run.check_report(doc, dataset, digest)
    assert len(errors) == 1 and "differ from digest" in errors[0]


def test_digest_ignores_fields_added_later():
    doc = _report([1, 2, 3], anchors=100)
    digest = run.report_digest(doc)
    doc["reports"][0]["provenance"] = {"m": 0.5, "pair_count": 10}
    doc["schema_version"] = 2
    assert run.report_digest(doc) == digest


def test_report_checks_catch_inconsistent_totals():
    dataset = synth.Dataset(path=None, images=2, gts=6, non_crowd_gts=6, max_gts_per_image=3,
                            anchors_per_image=50)
    doc = _report([1, 2, 3], anchors=100)
    doc["reports"][0]["totals"]["ignore"] = 1
    doc["reports"][1]["buckets"][2]["gt_count"] = 4
    errors = run.check_report(doc, dataset, None)
    assert any("do not add up" in e for e in errors)
    assert any("7 gts in buckets" in e for e in errors)


def test_step_check_uses_relative_tolerance():
    assert run.check_step([1.0, 2.0], [1.0 + 1e-14, 2.0]) == []
    assert run.check_step([1.0, 2.0], [1.0 + 1e-9, 2.0]) != []
    assert run.check_step([float("nan"), 2.0], None) != []


def test_self_seconds_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["c", 5.0, 6.0, 0]]
    assert run.self_seconds(spans, "cli.main") == pytest.approx(6.0)
    assert run.self_seconds(spans, "a") == pytest.approx(2.0)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_workload_completes_at_toy_size(name, trace):
    measured = run.measure(name, TOY_WORKLOADS[name], seed=3, seconds=0.0, trace=trace)
    assert measured.tally.attempted >= 1
    assert measured.tally.failed == 0
    expected = set(run.END_TO_END)
    if trace:
        expected |= {"cli.self_s", "cli.sys_s", "cli.minor_faults", "trace_overhead_s"}
    assert expected <= set(measured.metrics)
    assert all(measured.metrics[k] > 0 for k in run.END_TO_END)
    if trace and name == "coco-sparse-warm":
        assert measured.metrics["similarity.accumulate_pairs"] == 0
    if trace and name == "coco-dense-cold":
        assert measured.metrics["similarity.accumulate_pairs"] > 0
        assert measured.metrics["similarity.ps_alloc_ratio"] >= 1
    if trace and name == "contrast-train":
        assert measured.metrics["contrast.info_nce_calls"] > 0
        assert measured.metrics["contrast.info_nce_grad_calls"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
