"""Command-line surface: config handling, outputs, and exit codes."""

import ast
import dataclasses
import importlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import oracles
from smalldet import assigner, cli, geometry, load_coco, similarity
from smalldet.cli import _map_in_order, main

ROOT = Path(__file__).resolve().parents[1]

MINI_LAYOUT = '{"levels": [[4, 4]], "ratios": [1], "scales": [1]}'


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def mini_dataset(tmp_path, name="mini.json", images=1):
    """One 8x4 image (optionally duplicated) with a single 4x4 gt at the origin.

    With a stride-4/base-4 single-anchor layout this puts anchors at
    (2,2) and (6,2), so the x-offsets are 0 and 4 against width sums of 8:
    m works out to exactly 0.25 and n to exactly 0.
    """
    payload = {
        "images": [{"id": i + 1, "width": 8, "height": 4} for i in range(images)],
        "annotations": [
            {"id": i + 1, "image_id": i + 1, "bbox": [0, 0, 4, 4]} for i in range(images)
        ],
    }
    return write_json(tmp_path / name, payload)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_mini_dataset_exact(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "norm.json"
    code, out, _ = run(
        capsys, ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(cache)]
    )
    assert code == 0
    assert "m=0.25 n=0.0 pair_count=2" in out
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert payload["m"] == 0.25
    assert payload["n"] == 0.0
    assert payload["pair_count"] == 2
    assert len(payload["dataset_hash"]) == 16
    assert len(payload["anchor_spec_hash"]) == 16


def test_stats_cache_hit_on_rerun(tmp_path, capsys, caplog):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "norm.json"
    argv = ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="smalldet.cli"):
        code, out, _ = run(capsys, argv)
    assert code == 0
    assert "(cached)" in out
    assert any("cache hit" in message for message in caplog.messages)


def test_stats_duplicated_image_same_normalizers(tmp_path, capsys):
    ann = mini_dataset(tmp_path, images=2)
    cache = tmp_path / "norm.json"
    code, out, _ = run(
        capsys, ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(cache)]
    )
    assert code == 0
    assert "m=0.25 n=0.0 pair_count=4" in out


def test_stats_usage_and_data_errors(tmp_path, capsys):
    code, _, err = run(capsys, ["stats", "--anchors", MINI_LAYOUT, "--out", "x.json"])
    assert code == 1
    assert err.startswith("error:")

    code, _, err = run(
        capsys,
        ["stats", "--ann", str(tmp_path / "missing.json"), "--anchors", MINI_LAYOUT,
         "--out", str(tmp_path / "c.json")],
    )
    assert code == 2
    assert err.startswith("data error:")

    empty = write_json(
        tmp_path / "empty.json",
        {"images": [{"id": 1, "width": 8, "height": 4}], "annotations": []},
    )
    code, _, err = run(
        capsys,
        ["stats", "--ann", empty, "--anchors", MINI_LAYOUT, "--out", str(tmp_path / "c.json")],
    )
    assert code == 2


@pytest.mark.parametrize(
    "mutate, record",
    [
        (lambda p: p["images"][0].update(width=float("nan")), "images[0]"),
        (lambda p: p["annotations"][0].update(bbox=[1, "x", 8, 8]), "annotations[0]"),
        (lambda p: p["annotations"][0].update(image_id=None), "annotations[0]"),
        (lambda p: p["images"][0].update(id=1.7), "images[0]"),
        (lambda p: p["annotations"][0].update(bbox=[1.7e308, 0, 1.7e308, 4]), "annotations[0]"),
        (lambda p: p["annotations"][0].update(image_id=2**63), "annotations[0]"),
        (lambda p: p["annotations"][0].update(category_id=2**63), "annotations[0]"),
        (lambda p: p["images"][0].update(width=10**400), "images[0]"),
        *((lambda p, flag=flag: p["annotations"][0].update(iscrowd=flag), "annotations[0]")
          for flag in ("0", 0.5, 7, "yes", [], None)),
    ],
    ids=["nan-width", "non-numeric-bbox", "null-image-id", "fractional-image-id",
         "overflowing-center", "image-id-past-int64", "category-id-past-int64",
         "width-past-float-range", "iscrowd-text-0", "iscrowd-0.5", "iscrowd-7",
         "iscrowd-yes", "iscrowd-empty-list", "iscrowd-null"],
)
def test_assign_malformed_record_is_a_data_error(tmp_path, capsys, mutate, record):
    mini_dataset(tmp_path)
    payload = json.loads((tmp_path / "mini.json").read_text(encoding="utf-8"))
    mutate(payload)
    ann = write_json(tmp_path / "bad.json", payload)
    code, _, err = run(capsys, assign_argv(ann, tmp_path / "r"))
    assert code == 2
    assert err.startswith("data error:")
    assert ann in err and record in err
    assert not (tmp_path / "r").exists()


def assign_argv(ann, out_dir, metrics="ps,iou", extra=()):
    return [
        "assign",
        "--ann", ann,
        "--anchors", MINI_LAYOUT,
        "--metrics", metrics,
        "--out", str(out_dir),
        *extra,
    ]


def test_assign_writes_reports(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, assign_argv(ann, out_dir))
    assert code == 0
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert payload["schema_version"] == 1
    assert [r["metric"] for r in payload["reports"]] == ["ps", "iou"]
    ps_small = payload["reports"][0]["buckets"][0]
    # the gt coincides with one anchor, so PS gives it at least one positive
    assert ps_small["name"] == "area<1024"
    assert ps_small["mean_positives_per_gt"] >= 1.0
    assert (out_dir / "report.csv").exists()
    assert "ps totals:" in out and "iou totals:" in out


def test_assign_byte_identical_across_runs(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(assign_argv(ann, first, extra=("--jobs", "1"))) == 0
    assert main(assign_argv(ann, second, extra=("--jobs", "1"))) == 0
    capsys.readouterr()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()


def test_assign_zero_gt_dataset(tmp_path, capsys):
    ann = write_json(
        tmp_path / "nogt.json",
        {"images": [{"id": 1, "width": 8, "height": 4}], "annotations": []},
    )
    out_dir = tmp_path / "reports"
    code, _, _ = run(capsys, assign_argv(ann, out_dir, metrics="iou"))
    assert code == 0
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report = payload["reports"][0]
    assert report["totals"]["negative"] == report["totals"]["anchors"] == 2
    assert all(b["gt_count"] == 0 for b in report["buckets"])

    # asking for PS on a gt-free dataset has no normalizers to compute
    code, _, err = run(capsys, assign_argv(ann, tmp_path / "r2", metrics="ps"))
    assert code == 2
    assert err.startswith("data error:")


def test_config_file_supplies_defaults_cli_overrides(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    out_dir = tmp_path / "reports"
    config = write_json(
        tmp_path / "config.json",
        {
            "ann": ann,
            "anchors": json.loads(MINI_LAYOUT),
            "metrics": "iou",
            "thr": "0.5,0.2,0.2",
            "out": str(out_dir),
        },
    )
    code, _, _ = run(capsys, ["assign", "--config", config, "--metrics", "ps"])
    assert code == 0
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert [r["metric"] for r in payload["reports"]] == ["ps"]  # CLI wins
    assert payload["reports"][0]["thresholds"]["pos_thr"] == 0.5  # file fills the rest


def test_config_file_unknown_key(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    config = write_json(tmp_path / "config.json", {"ann": ann, "bogus": 1})
    code, _, err = run(capsys, ["stats", "--config", config, "--out", str(tmp_path / "c.json")])
    assert code == 1
    assert "bogus" in err


def test_repeated_metric_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_load(*args):
        raise AssertionError("a refused run must not read the annotation file")

    monkeypatch.setattr(cli, "load_coco", no_load)
    ann = mini_dataset(tmp_path)
    config = write_json(tmp_path / "config.json", {"ann": ann, "metrics": ["iou", "ps", "iou"]})
    out = tmp_path / "r"
    for argv in (["--ann", ann, "--metrics", "iou,iou"], ["--config", config]):
        code, stdout, err = run(capsys, ["assign", *argv, "--out", str(out)])
        assert code == 1
        assert err.startswith("error:") and "'iou'" in err
        assert stdout == ""
    assert not out.exists()


def varied_dataset(tmp_path):
    """Nine images of three sizes with 0-3 gts each, spread over the buckets."""
    images, annotations = [], []
    sides = (2, 6, 40)
    for i in range(9):
        width, height = (48, 32) if i % 3 else (64, 48)
        images.append({"id": i + 1, "width": width, "height": height - 8 * (i % 2)})
        for k in range(i % 4):
            side = sides[(i + k) % 3]
            annotations.append(
                {"id": len(annotations) + 1, "image_id": i + 1, "bbox": [3 * k + i, 2 * k, side, side]}
            )
    return write_json(tmp_path / "varied.json", {"images": images, "annotations": annotations})


def interleaved_dataset(tmp_path):
    """Three 8x4 images whose annotations interleave, with crowd and zero-size ones.

    Each category id is the annotation's position in the file, so the
    loaded order can be read back from the category column.
    """
    annotations = [
        (2, [0, 0, 4, 4], 0),
        (1, [4, 0, 4, 4], 0),
        (2, [1, 0, 2, 2], 1),
        (3, [0, 0, 0, 4], 0),  # zero width: dropped at load
        (1, [0, 0, 2, 4], 1),
        (2, [4, 0, 2, 2], 0),
        (1, [0, 0, 4, 4], 0),
        (3, [2, 1, 3, 2], 1),
    ]
    payload = {
        "images": [{"id": i, "width": 8, "height": 4} for i in (1, 2, 3)],
        "annotations": [
            {"id": pos + 1, "image_id": image_id, "bbox": bbox, "category_id": pos, "iscrowd": crowd}
            for pos, (image_id, bbox, crowd) in enumerate(annotations)
        ],
    }
    return write_json(tmp_path / "interleaved.json", payload)


def test_crowd_gts_load_in_file_order_and_stay_out_of_assignment(tmp_path, capsys, caplog):
    ann = interleaved_dataset(tmp_path)
    index = load_coco(ann)
    assert index.image_ids.tolist() == [1, 2, 3]
    starts = index.gt_start.tolist()
    assert [index.category_ids[s:e].tolist() for s, e in zip(starts, starts[1:])] == [
        [1, 4, 6], [0, 2, 5], [7]
    ]
    assert index.iscrowd.tolist() == [False, True, False, False, True, False, True]
    assert index.boxes[:3].tolist() == [[6.0, 2.0, 4.0, 4.0], [1.0, 2.0, 2.0, 4.0], [2.0, 2.0, 4.0, 4.0]]
    # What the benchmark's tracer counts as dataset.records: crowd gts
    # included, dropped zero-size ones not.
    assert index.num_images + index.num_gts == 3 + 7

    out_dir = tmp_path / "r"
    with caplog.at_level(logging.INFO, logger="smalldet.cli"):
        code, _, _ = run(capsys, assign_argv(ann, out_dir))
    assert code == 0
    assert any("excluded 3 crowd annotation(s)" in message for message in caplog.messages)
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for report in payload["reports"]:
        assert sum(b["gt_count"] for b in report["buckets"]) == 4


def test_assign_recomputes_over_a_malformed_cache(tmp_path, capsys, caplog):
    ann = varied_dataset(tmp_path)
    cold = tmp_path / "cold"
    assert main(assign_argv(ann, cold, metrics="ps")) == 0
    cache = tmp_path / "norm.json"
    assert main(["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(cache)]) == 0
    written = cache.read_text(encoding="utf-8")
    broken = [b"\xff\xfe"]  # not UTF-8
    for field, value in (("m", "nan"), ("n", -1.0), ("m", [1]), ("m", True), ("pair_count", 2.7),
                         ("dataset_hash", 5)):
        payload = json.loads(written)
        payload[field] = value
        broken.append(json.dumps(payload).encode("utf-8"))
    for content in broken:
        cache.write_bytes(content)
        warm = tmp_path / "warm"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="smalldet.cli"):
            code, _, _ = run(capsys, assign_argv(ann, warm, metrics="ps", extra=("--cache", str(cache))))
        assert code == 0
        assert any("ignoring unreadable normalizer cache" in m for m in caplog.messages)
        assert not any("cache hit" in m for m in caplog.messages)
        for name in ("report.json", "report.csv"):
            assert (warm / name).read_bytes() == (cold / name).read_bytes()
        assert cache.read_text(encoding="utf-8") == written


def test_assign_per_level_and_jobs_agree(tmp_path, capsys):
    # More images than the pool keeps in flight (2 * jobs), so results are
    # streamed out of a refilled window; reports must not change.
    ann = varied_dataset(tmp_path)
    layout = '{"levels": [[4, 4], [8, 8]], "ratios": [0.5, 1, 2], "scales": [1, 2]}'
    for mode in ((), ("--per-level",)):
        serial = tmp_path / f"serial{len(mode)}"
        threaded = tmp_path / f"threaded{len(mode)}"
        extra = ("--anchors", layout, "--buckets", "16,256", *mode)
        assert main(assign_argv(ann, serial, extra=(*extra, "--jobs", "1"))) == 0
        assert main(assign_argv(ann, threaded, extra=(*extra, "--jobs", "3"))) == 0
        capsys.readouterr()
        for name in ("report.json", "report.csv"):
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()
        payload = json.loads((serial / "report.json").read_text(encoding="utf-8"))
        assert all(b["gt_count"] for r in payload["reports"] for b in r["buckets"])


def test_assign_reports_do_not_depend_on_grid_tables(tmp_path, capsys, monkeypatch):
    # The grid kernels (factored PS, windowed IoU) against the pairwise
    # oracle kernels on the same boxes, end to end, unclipped and clipped.
    # Both sides read one normalizer cache, so only the scoring kernels differ.
    ann = varied_dataset(tmp_path)

    # The oracles score every pair, so each block row is one whole window;
    # scoring past the counting cutoff leaves the counts as they are.
    def pair_ps_rows(g, a, norm, alloc, cutoff=0.0):
        for rows, block in oracles.pair_ps_rows(g, a.boxes, norm, alloc):
            yield rows, geometry._whole(block)

    def pair_iou_rows(g, a, alloc):
        for rows, block in oracles.pair_iou_rows(oracles.corner_table(g), oracles.corner_table(a.boxes), alloc):
            yield rows, geometry._whole(block)

    # assigner binds both kernels at import, so each is patched in every
    # module that looks it up.
    pairwise = (
        (similarity, "_ps_rows", pair_ps_rows),
        (assigner, "_ps_rows", pair_ps_rows),
        (geometry, "_iou_rows", pair_iou_rows),
        (assigner, "_iou_rows", pair_iou_rows),
    )
    for clip in ("false", "true"):
        layout = f'{{"levels": [[4, 4], [8, 8]], "ratios": [0.5, 1, 2], "scales": [1, 2], "clip": {clip}}}'
        cache = tmp_path / f"norm-{clip}.json"
        assert main(["stats", "--ann", ann, "--anchors", layout, "--out", str(cache)]) == 0
        for mode in ((), ("--per-level",)):
            extra = ("--anchors", layout, "--cache", str(cache), "--buckets", "16,256", *mode)
            with_tables = tmp_path / f"grid-{clip}{len(mode)}"
            assert main(assign_argv(ann, with_tables, extra=extra)) == 0
            with monkeypatch.context() as patch:
                for module, name, kernel in pairwise:
                    patch.setattr(module, name, kernel)
                without = tmp_path / f"pairwise-{clip}{len(mode)}"
                assert main(assign_argv(ann, without, extra=extra)) == 0
            capsys.readouterr()
            for name in ("report.json", "report.csv"):
                assert (with_tables / name).read_bytes() == (without / name).read_bytes()


def test_stats_and_assign_make_no_per_anchor_tables(tmp_path, capsys, monkeypatch):
    # A grid set holds only its grid tables; the grid kernels never make
    # its (A, 4) boxes or (5, A) corner table, pooled or per level.
    ann = varied_dataset(tmp_path)
    layout = '{"levels": [[4, 4], [8, 8]], "ratios": [0.5, 1, 2], "scales": [1, 2]}'
    generate = cli.generate_anchors
    made = []

    def recording(spec):
        made.append(generate(spec))
        return made[-1]

    monkeypatch.setattr(cli, "generate_anchors", recording)
    cache = tmp_path / "norm.json"
    assert main(["stats", "--ann", ann, "--anchors", layout, "--out", str(cache)]) == 0
    for mode in ((), ("--per-level",)):
        extra = ("--anchors", layout, "--cache", str(cache), *mode)
        assert main(assign_argv(ann, tmp_path / f"r{len(mode)}", extra=extra)) == 0
    capsys.readouterr()
    assert made
    for anchors in made:
        for part in (anchors, *anchors.level_sets):
            assert not {"boxes", "corners"} & set(vars(part))


def test_assign_memory_does_not_grow_with_distinct_image_sizes(tmp_path, capsys):
    # 60 sizes, 4,275-16,830 anchors each under the default layout. The
    # anchor set of every size stays cached for the run, so it must hold
    # only its grid tables: 72 bytes per anchor of boxes and corner table
    # would be 43 MB.
    images, annotations = [], []
    for i in range(60):
        images.append({"id": i + 1, "width": 400 + 8 * i, "height": 300 + 4 * i})
        for k in range(2):
            annotations.append({"id": len(annotations) + 1, "image_id": i + 1,
                                "bbox": [10 + 37 * k + i, 20 + 11 * k, 6 + 20 * k, 8 + 9 * k]})
    ann = write_json(tmp_path / "sizes.json", {"images": images, "annotations": annotations})
    argv = ["assign", "--ann", ann, "--metrics", "ps,iou", "--out", str(tmp_path / "r")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB traced peak"


def test_image_past_the_anchor_cap_is_a_data_error(tmp_path, capsys, monkeypatch):
    payload = {
        "images": [{"id": 7, "width": 8, "height": 4}, {"id": 9, "width": 16, "height": 8}],
        "annotations": [{"id": 1, "image_id": 7, "bbox": [0, 0, 4, 4]}],
    }
    ann = write_json(tmp_path / "capped.json", payload)
    # MINI_LAYOUT lays 2 anchors on the first image and 8 on the second.
    monkeypatch.setattr(geometry, "MAX_ANCHORS", 4)
    for argv in (assign_argv(ann, tmp_path / "r"),
                 ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(tmp_path / "c.json")]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("data error:")
        assert ann in err and "images[1]" in err and "id 9" in err and "8 anchors" in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "c.json").exists()
    monkeypatch.undo()
    # At the real cap a huge image is counted, never laid out.
    payload["images"][1].update(width=1e9, height=1e9)
    ann = write_json(tmp_path / "huge.json", payload)
    code, _, err = run(capsys, assign_argv(ann, tmp_path / "r"))
    assert code == 2 and "images[1]" in err and "Traceback" not in err
    # A subnormal stride overflows the cell count of every image: over any cap.
    tiny = '{"levels": [[5e-324, 16]]}'
    for argv in (assign_argv(ann, tmp_path / "r", extra=("--anchors", tiny)),
                 ["stats", "--ann", ann, "--anchors", tiny, "--out", str(tmp_path / "c.json")]):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("data error:") and "Traceback" not in err
        assert ann in err and "images[0]" in err and "more than the" in err


def test_map_in_order_keeps_a_bounded_window():
    started = []

    def work(item):
        started.append(item)
        return item * item

    jobs = 3
    stream = _map_in_order(work, range(40), jobs)
    for k, value in enumerate(stream):
        assert value == k * k
        # The pool has been given at most 2 * jobs items beyond this one.
        assert len(started) <= k + 2 * jobs
    assert sorted(started) == list(range(40))
    assert list(_map_in_order(work, range(5), 1)) == [0, 1, 4, 9, 16]


def test_anchor_layout_from_file(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    layout = write_json(tmp_path / "layout.json", json.loads(MINI_LAYOUT))
    code, out, _ = run(
        capsys,
        ["stats", "--ann", ann, "--anchors", layout, "--out", str(tmp_path / "c.json")],
    )
    assert code == 0
    assert "m=0.25" in out


def test_contrast_demo_default_passes(capsys):
    code, out, _ = run(capsys, ["contrast-demo"])
    assert code == 0
    assert "spatial_loss=" in out
    assert "semantic_loss=" in out
    assert "total_loss=" in out
    assert "[PASS]" in out


def test_contrast_demo_single_image(capsys):
    code, out, _ = run(capsys, ["contrast-demo", "--batch", "1", "--detector-loss", "5"])
    assert code == 0
    assert "spatial_loss=0.0" in out
    assert "semantic_loss=0.0" in out
    assert "total_loss=5.0" in out


def test_contrast_demo_coarse_step_reports_verification_failure(capsys):
    code, out, _ = run(capsys, ["contrast-demo", "--fd-step", "0.1"])
    assert code == 3
    assert "[FAIL]" in out


def test_contrast_demo_nan_differences_fail(capsys):
    """At step 1e308 most finite differences are NaN; the check must fail."""
    code, out, _ = run(capsys, ["contrast-demo", "--fd-step", "1e308"])
    assert code == 3
    assert "max relative error nan" in out
    assert "[FAIL]" in out


def test_contrast_demo_nan_differences_fail_without_warnings():
    """The non-finite differences at step 1e308 are the verdict, not numpy noise."""
    proc = subprocess.run(
        [sys.executable, "-c", "from smalldet.cli import entrypoint; entrypoint()",
         "contrast-demo", "--fd-step", "1e308"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    assert "[FAIL]" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_contrast_demo_overflowing_logits_end_in_one_error_line():
    """At tau 1e-320 the logits overflow: one error line, no traceback or warning."""
    proc = subprocess.run(
        [sys.executable, "-c", "from smalldet.cli import entrypoint; entrypoint()",
         "contrast-demo", "--tau", "1e-320"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: spatial_loss: a positive or maximum logit is not finite at tau=1e-320"
    ]


def test_contrast_demo_overflowing_gradient_ends_in_one_error_line():
    """At tau 1e-309 the losses print, then the gradient overflows: one
    error line after them, exit 1, no RuntimeWarning and no [FAIL]."""
    proc = subprocess.run(
        [sys.executable, "-c", "from smalldet.cli import entrypoint; entrypoint()",
         "contrast-demo", "--tau", "1e-309"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("spatial_loss=") and "gradient check" not in proc.stdout
    assert proc.stderr.splitlines() == [
        "error: spatial_loss: a gradient is not finite at tau=1e-309"
    ]


def test_contrast_demo_dim_cap_boundary(capsys, monkeypatch):
    # At the default 4 levels and batch 3 the check perturbs 48 * dim
    # coordinates in two copies each: 2 * (48 * 60)^2 = 16,588,800 values
    # fit in 2^24, 2 * (48 * 61)^2 = 17,146,368 do not.
    code, out, _ = run(capsys, ["contrast-demo", "--dim", "60"])
    assert code == 0
    assert "over 2880 coordinates" in out and "[PASS]" in out

    def no_pyramid(*args):
        raise AssertionError("a refused demo must build no pyramid")

    monkeypatch.setattr(cli, "build_embedding_batch", no_pyramid)
    code, _, err = run(capsys, ["contrast-demo", "--dim", "61"])
    assert code == 1
    assert err.startswith("error:") and "dim 61" in err


def test_contrast_demo_losses_match_benchmark_pins(capsys):
    """The losses the benchmark checks at 1e-12 relative, seeds 0-3."""
    pins = json.loads((ROOT / "perfbench" / "pinned.json").read_text(encoding="utf-8"))
    for seed in range(4):
        code, out, _ = run(capsys, ["contrast-demo", "--seed", str(seed)])
        assert code == 0
        printed = dict(line.partition("=")[::2] for line in out.splitlines())
        got = [float(printed["spatial_loss"]), float(printed["semantic_loss"])]
        want = pins["contrast-train"][str(seed)]["demo_losses"]
        assert all(math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0) for g, w in zip(got, want)), (
            seed, got, want
        )


def test_assign_reports_match_benchmark_pins(capsys, tmp_path, monkeypatch):
    """Seed 0 of both COCO workloads, written by the benchmark's generator
    and assigned on a cold cache, gives the report the benchmark pins: a
    change that moves any count of a report fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("run")
    synth = importlib.import_module("synth")
    pins = json.loads(bench.PINNED.read_text(encoding="utf-8"))
    for name in ("coco-sparse-warm", "coco-dense-cold"):
        work = tmp_path / name
        work.mkdir()
        dataset = synth.write_coco(work / "ann.json", bench.WORKLOADS[name].shape, 0)
        code, _, _ = run(capsys, ["assign", "--ann", str(dataset.path), "--metrics", "ps,iou",
                                  "--jobs", "1", "--cache", str(work / "norm.json"),
                                  "--out", str(work / "out")])
        assert code == 0
        doc = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
        assert bench.report_digest(doc) == pins[name]["0"]["report_digest"], name


def test_usage_errors(capsys, tmp_path, monkeypatch):
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["stats", "--bogus"])[0] == 1
    ann = mini_dataset(tmp_path)
    code, _, err = run(
        capsys,
        ["assign", "--ann", ann, "--anchors", MINI_LAYOUT, "--thr", "0.7,0.3",
         "--out", str(tmp_path / "r")],
    )
    assert code == 1
    assert "thr" in err

    def no_pyramid(*args):
        raise AssertionError("a refused demo must build no pyramid")

    monkeypatch.setattr(cli, "build_embedding_batch", no_pyramid)
    for flag, value in (
        ("--alpha", "nan"), ("--detector-loss", "inf"), ("--levels", "30"), ("--levels", "12")
    ):
        code, _, err = run(capsys, ["contrast-demo", flag, value])
        assert code == 1
        assert err.startswith("error:") and flag[2:] in err


# Per config key: (flag text, the same value as a config-file JSON value).
# None stands for a store_true flag given without a value.
OPTION_VALUES = {
    "ann": ("a.json", "a.json"),
    "anchors": (MINI_LAYOUT, json.loads(MINI_LAYOUT)),
    "out": ("out", "out"),
    "metrics": ("iou,ps", ["iou", "ps"]),
    "thr": ("0.6,0.2,0.1", [0.6, 0.2, 0.1]),
    "buckets": ("16,256", [16, 256]),
    "cache": ("c.json", "c.json"),
    "jobs": ("3", 3),
    "per_level": (None, True),
    "levels": ("3", 3.0),
    "batch": ("2", 2),
    "dim": ("8", 8),
    "tau": ("0.5", 0.5),
    "alpha": ("0.25", 0.25),
    "detector_loss": ("1.5", 1.5),
    "seed": ("7", 7),
    "fd_step": ("0.001", 0.001),
    "include_same_image": (None, True),
    "l2_normalize": (None, True),
}

COMMAND_OPTIONS = [(name, option) for name in cli._COMMANDS for option in cli._options(name)]


def resolve(argv):
    return cli._config(cli.build_parser().parse_args(argv))


def field_default(command, field):
    f = next(f for f in dataclasses.fields(cli._COMMANDS[command].config) if f.name == field)
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


@pytest.mark.parametrize(
    "command, option", COMMAND_OPTIONS, ids=[f"{c}{o.flag}" for c, o in COMMAND_OPTIONS]
)
def test_flag_and_config_key_resolve_to_the_same_config(tmp_path, command, option):
    text, value = OPTION_VALUES[option.key]
    base = ["--ann", "base.json"] if command != "contrast-demo" and option.key != "ann" else []
    from_flag = resolve([command, *base, option.flag, *([] if text is None else [text])])
    for file_value in (value, "true" if text is None else text):
        config = write_json(tmp_path / "config.json", {option.key: file_value})
        assert resolve([command, *base, "--config", config]) == from_flag
    assert getattr(from_flag, option.field) != field_default(command, option.field)


# What each option's help ends with, from the config dataclasses' defaults.
HELP_DEFAULTS = {
    "ann": "(required)",
    "anchors": '(default {"levels": [[16.0, 16.0]], "ratios": [0.5, 1.0, 2.0], '
               '"scales": [8.0, 16.0, 32.0], "clip": false})',
    "metrics": "(default ps)",
    "thr": "(default 0.7,0.3,0.3)",
    "buckets": "(default 1024,9216)",
    "jobs": "(default 1)",
    "levels": "(default 4)",
    "batch": "(default 3)",
    "dim": "(default 16)",
    "tau": "(default 0.07)",
    "alpha": "(default 0.1)",
    "detector_loss": "(default 0)",
    "seed": "(default 0)",
    "fd_step": "(default 0.0001)",
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_every_option_with_the_dataclass_default(command, capsys, monkeypatch):
    def option_help():
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split()).split("options:")[1]
        return dict(re.findall(r"(--[a-z0-9-]+)(?: [A-Z0-9_]+)? (.*?)(?= --[a-z]|$)", text))

    helps = option_help()
    options = cli._options(command)
    assert set(helps) == {"--help", "--config"} | {o.flag for o in options}
    for option in options:
        shown = HELP_DEFAULTS.get(option.key)
        if shown is None:
            assert helps[option.flag] == option.help
        else:
            assert helps[option.flag] == f"{option.help} {shown}"
    # The help reads the dataclass field, so a changed default shows at once.
    config = cli._COMMANDS[command].config
    field = next(f for f in dataclasses.fields(config) if f.name in ("jobs", "seed"))
    monkeypatch.setattr(field, "default", 5)
    assert option_help()[f"--{field.name}"].endswith("(default 5)")


@pytest.mark.parametrize("edges", ["2000,1000", "nan", "16,inf", "-1"])
def test_bad_buckets_are_a_usage_error_before_any_work(tmp_path, capsys, edges):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "norm.json"
    code, _, err = run(
        capsys, assign_argv(ann, tmp_path / "r", extra=("--buckets", edges, "--cache", str(cache)))
    )
    assert code == 1
    assert err.startswith("error:") and "bucket edges" in err and "Traceback" not in err
    assert not cache.exists() and not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("assign", "jobs", 2.5),
        ("assign", "jobs", True),
        ("contrast-demo", "seed", 1.9),
        ("contrast-demo", "levels", 2.7),
        ("contrast-demo", "tau", True),
        ("contrast-demo", "alpha", False),
    ],
)
def test_config_file_numbers_are_not_coerced(tmp_path, capsys, command, key, value):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "norm.json"
    config = write_json(tmp_path / "config.json", {key: value})
    argv = [command, "--config", config]
    if command == "assign":
        argv = assign_argv(ann, tmp_path / "r", extra=("--config", config, "--cache", str(cache)))
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.startswith(f"error: {key} must be") and repr(value) in err
    assert "Traceback" not in err and not out
    assert not cache.exists() and not (tmp_path / "r").exists()
    # The flag takes the same parser, so it agrees with the file.
    if not isinstance(value, bool):
        assert run(capsys, [*argv, f"--{key}", str(value)])[0] == 1


# Each row's id names the rule it checks; the message is AnchorGridSpec's.
@pytest.mark.parametrize(
    "layout, message",
    [
        pytest.param({"clip": 0.5}, "clip must be a bool, got 0.5", id="layout0-anchor clip must be a boolean"),
        pytest.param({"clip": "yes"}, "clip must be a bool, got 'yes'", id="layout1-anchor clip must be a boolean"),
        pytest.param({"ratios": [True]}, "ratios must be a finite number, got True",
                     id="layout2-anchor ratios must be a number"),
        pytest.param({"scales": [1, False]}, "scales must be a finite number, got False",
                     id="layout3-anchor scales must be a number"),
        pytest.param({"levels": [[True, 4]]}, "levels stride must be a finite number, got True",
                     id="layout4-anchor levels must be a number"),
        # Numbers that pass one by one but make degenerate anchor shapes.
        ({"ratios": [1e-320]}, "anchor widths and heights must be positive and finite"),
        ({"levels": [[16, 1e-200]], "scales": [1e-200]},
         "anchor widths and heights must be positive and finite"),
    ],
)
def test_anchor_layout_rejects_non_boolean_clip_and_boolean_numbers(tmp_path, capsys, layout, message):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "norm.json"
    argv = ["stats", "--ann", ann, "--anchors", json.dumps(layout), "--out", str(cache)]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not cache.exists()


def test_anchor_layout_takes_its_fields_from_the_spec():
    # The layout's fields are the spec's, checked and converted to floats,
    # so a bool or an int past the float range is rejected in the library
    # type too, not only by the option parser, as a usage error.
    for bad, name in (({"levels": ((True, 16),)}, "levels stride"), ({"ratios": (True,)}, "ratios"),
                      ({"scales": (False,)}, "scales"), ({"levels": ((16, 10**400),)}, "levels base size")):
        with pytest.raises(cli.CliUsageError, match=name):
            cli.AnchorLayout(**bad)
    layout = cli.AnchorLayout(levels=[[16, 16]], ratios=[0.5, 1, 2], scales=[8, 16, 32])
    assert layout.levels == ((16.0, 16.0),) and type(layout.ratios[1]) is float
    assert layout == cli.AnchorLayout() and hash(layout) == hash(cli.AnchorLayout())
    assert layout.config_hash() == cli.AnchorLayout().config_hash()


def test_anchor_layout_clip_text_is_read_as_a_boolean():
    parse = cli.AnchorLayout.from_json_value
    assert parse({"clip": "false"}) == parse({"clip": False}) == cli.AnchorLayout()
    assert parse({"clip": "false"}).config_hash() == cli.AnchorLayout().config_hash()
    assert parse({"clip": "true"}).config_hash() == parse({"clip": True}).config_hash()
    assert parse({"clip": True}).config_hash() != cli.AnchorLayout().config_hash()


def traced_main(tmp_path, argv):
    """cli.main(argv) in a subprocess, under perfbench/child.py's installed tracer.

    Returns the exit code, the tracer's counters and the names of its spans.
    """
    script = (
        "import json, sys, child\n"
        "tracer = child.Tracer()\n"
        "child.install(tracer, False)\n"
        "from smalldet import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "spans = sorted({span[0] for span in tracer.spans})\n"
        "print(json.dumps({'code': code, 'counts': tracer.counts, 'spans': spans}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], result["counts"], result["spans"]


def test_perfbench_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/child.py wraps functions where smalldet.cli (and other
    # modules) look them up; a name dropped there makes install() raise.
    # A traced stats run then checks that the after-hooks find what they
    # read, such as the index's num_images and num_gts.
    ann = interleaved_dataset(tmp_path)
    code, counts, _ = traced_main(tmp_path, ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", "c.json"])
    assert code == 0
    # Three images and seven gts: the zero-size annotation is dropped, the
    # crowd ones are kept in the index.
    assert counts["dataset.records"] == 10


TWO_LEVEL_LAYOUT = '{"levels": [[4, 4], [8, 8]], "ratios": [1], "scales": [1]}'


@pytest.mark.parametrize(
    "argv, records",
    [
        (["assign", "--anchors", MINI_LAYOUT, "--metrics", "ps,iou"], 10),
        (["assign", "--anchors", TWO_LEVEL_LAYOUT, "--metrics", "ps,iou", "--per-level"], 10),
        (["contrast-demo", "--seed", "1"], 0),
    ],
    ids=["assign", "assign-per-level", "contrast-demo"],
)
def test_perfbench_tracer_runs_assign_and_the_demo(tmp_path, argv, records):
    # The traced runs of the benchmark's other workloads. The after-hook of
    # assignment_stats iterates the stream it was given, so assign must
    # hand it a lazy generator: a list of ImageCounts would make the hook
    # raise TypeError in every traced assign run.
    if argv[0] == "assign":
        argv = [*argv, "--ann", interleaved_dataset(tmp_path), "--out", "reports"]
    code, counts, spans = traced_main(tmp_path, argv)
    assert code == 0
    assert counts.get("dataset.records", 0) == records
    if argv[0] == "assign":
        assert "assigner.assignment_stats" in spans
        assert (tmp_path / "reports" / "report.json").is_file()


# What stats wrote for interleaved_dataset under MINI_LAYOUT when the
# fingerprint still came from hashlib.
HASHLIB_CACHE = {
    "m": 0.27083333333333337,
    "n": 0.041666666666666664,
    "pair_count": 8,
    "dataset_hash": "7e34c932ec5a41a4",
    "anchor_spec_hash": "c6a8263492e6ab88",
}


def test_stats_and_assign_hash_without_openssl(tmp_path):
    # The fingerprint takes blake2b from the builtin _blake2 module, so
    # neither command loads hashlib's OpenSSL backend. The digests are
    # hashlib.blake2b's, and a cache written with hashlib's still hits.
    ann = interleaved_dataset(tmp_path)
    cache = write_json(tmp_path / "cache.json", HASHLIB_CACHE)
    script = (
        "import json, sys\n"
        "from smalldet import cli, dataset, load_coco\n"
        "codes = [cli.main(['stats', '--ann', sys.argv[1], '--anchors', sys.argv[2]]),\n"
        "         cli.main(['assign', '--ann', sys.argv[1], '--anchors', sys.argv[2], '--cache', sys.argv[3]])]\n"
        "layout = cli.AnchorLayout.from_json_value(json.loads(sys.argv[2]))\n"
        "print(json.dumps({'codes': codes, 'openssl': '_hashlib' in sys.modules,\n"
        "    'records': list(dataset._canonical_records(load_coco(sys.argv[1]))),\n"
        "    'dataset_hash': dataset.dataset_hash(load_coco(sys.argv[1])),\n"
        "    'config_hash': layout.config_hash()}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, ann, MINI_LAYOUT, cache],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["openssl"] is False
    import hashlib

    digest = hashlib.blake2b(digest_size=8)
    for record in result["records"]:
        digest.update(record.encode("utf-8"))
    assert result["dataset_hash"] == digest.hexdigest() == HASHLIB_CACHE["dataset_hash"]
    layout = cli.AnchorLayout.from_json_value(json.loads(MINI_LAYOUT))
    parts = "L|4.0,4.0|R1.0|S1.0|C0"
    assert layout.config_hash() == result["config_hash"] == HASHLIB_CACHE["anchor_spec_hash"]
    assert hashlib.blake2b(parts.encode("utf-8"), digest_size=8).hexdigest() == result["config_hash"]
    assert "normalizer cache hit" in proc.stderr


# Run in a fresh interpreter: what each way in imports, and what cli's own
# classes need before any main call. Prints one JSON object.
MODULE_SPLIT_SCRIPT = """
import importlib, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("smalldet."))

argv = json.loads(sys.argv[1])
import smalldet
found = {"bare": loaded(), "bare_numpy": "numpy" in sys.modules}
from smalldet import cli
found["cli"] = loaded()
if argv == ["classes"]:
    layout = cli.AnchorLayout()
    config = cli.ExperimentConfig(ann="a.json")
    found["classes"] = [layout.config_hash(), config.layout == layout, config.metrics]
    found["unbound"] = [n for n in cli._DEFINED_IN if n not in vars(cli)]
    found["same"] = [n for n, m in cli._DEFINED_IN.items()
                     if getattr(cli, n) is getattr(importlib.import_module("smalldet." + m), n)]
elif argv == ["demo-error"]:
    def broken(*args):
        raise ValueError("no pyramid today")
    cli.build_embedding_batch = broken
    try:
        cli.main(["contrast-demo"])
    except ValueError as exc:
        found["raised"] = [type(exc).__name__, str(exc)]
elif argv[0] == "direct":
    # A cmd_* function called without main, as a library caller would.
    if argv[1] == "contrast-demo":
        found["code"] = cli.cmd_contrast_demo(cli.ContrastDemoConfig(seed=1))
    else:
        layout = cli.AnchorLayout.from_json_value(json.loads(argv[3]))
        config = cli.ExperimentConfig(ann=argv[2], layout=layout, metrics=("ps", "iou"), cache_path="c.json")
        found["code"] = getattr(cli, "cmd_" + argv[1])(config)
else:
    found["code"] = cli.main(argv)
found["after"] = loaded()
print(json.dumps(found))
"""

EXPERIMENT_MODULES = ["smalldet.assigner", "smalldet.cli", "smalldet.dataset", "smalldet.geometry",
                      "smalldet.similarity"]


def fresh_process(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_SPLIT_SCRIPT, json.dumps(argv)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    ann = interleaved_dataset(tmp_path)
    demo = fresh_process(tmp_path, ["contrast-demo", "--seed", "1"])
    # The value checks import numpy on first use, so the package alone does not.
    assert demo["bare"] == [] and not demo["bare_numpy"] and demo["cli"] == ["smalldet.cli"]
    assert demo["code"] == 0
    assert demo["after"] == ["smalldet.cli", "smalldet.contrast", "smalldet.pyramid"]
    for argv in (["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", "c.json"],
                 ["assign", "--ann", ann, "--anchors", MINI_LAYOUT, "--metrics", "ps,iou", "--cache", "c.json"]):
        found = fresh_process(tmp_path, argv)
        assert found["code"] == 0
        assert found["after"] == EXPERIMENT_MODULES


def test_each_command_runs_when_called_directly(tmp_path):
    # Each cmd_* binds the modules it runs itself, so a call without main
    # neither raises NameError nor loads more than main's run of it does.
    ann = interleaved_dataset(tmp_path)
    demo = fresh_process(tmp_path, ["direct", "contrast-demo"])
    assert demo["code"] == 0
    assert demo["after"] == ["smalldet.cli", "smalldet.contrast", "smalldet.pyramid"]
    for command in ("stats", "assign"):
        found = fresh_process(tmp_path, ["direct", command, ann, MINI_LAYOUT])
        assert found["code"] == 0
        assert found["after"] == EXPERIMENT_MODULES


def test_cli_classes_work_and_every_library_name_resolves_before_main(tmp_path):
    found = fresh_process(tmp_path, ["classes"])
    assert found["classes"] == [cli.AnchorLayout().config_hash(), True, ["ps"]]
    # Nothing was bound before the names were read, and each read bound
    # the defining module's own object.
    assert found["unbound"] == list(cli._DEFINED_IN)
    assert found["same"] == list(cli._DEFINED_IN)


def test_an_error_inside_the_demo_reaches_the_caller_as_itself(tmp_path):
    # The demo binds no data-error class, so main's data-error clause must
    # not name one: the ValueError passes through, not a NameError.
    found = fresh_process(tmp_path, ["demo-error"])
    assert found["raised"] == ["ValueError", "no pyramid today"]
    assert "smalldet.dataset" not in found["after"]


# Documents json cannot read as the object each input holds. The int and
# the nesting sit inside an object, so that an inline --anchors value,
# told from a path by its opening brace or bracket, reaches the reader too.
MALFORMED = {
    "not-utf8": b'{"images": [], "annotations": [], "note": "\xff\xfe"}',
    "truncated": b'{"images": [',
    "int-digits": b'{"images": ' + b"1" * 5000 + b"}",  # past the int-to-str digit limit
    "nesting": b'{"images": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # past the recursion limit
    "not-object": b"[]",
}


def malformed_inputs():
    for source in ("ann", "config", "anchors-file", "anchors-inline"):
        for document in MALFORMED:
            if not (source == "anchors-inline" and document == "not-utf8"):  # bytes: files only
                yield pytest.param(source, document, id=f"{source}-{document}")


@pytest.mark.parametrize("source, document", malformed_inputs())
def test_malformed_json_input_ends_in_one_message(tmp_path, capsys, source, document):
    ann = mini_dataset(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED[document])
    out = str(tmp_path / "r")
    layout = MALFORMED[document].decode() if source == "anchors-inline" else str(bad)
    argv, expected_code, prefix, named = {
        "ann": (assign_argv(str(bad), out), 2, "data error:", str(bad)),
        "config": (["assign", "--config", str(bad)], 1, "error:", str(bad)),
        "anchors-file": (["assign", "--ann", ann, "--anchors", layout, "--out", out], 1, "error:", str(bad)),
        "anchors-inline": (["assign", "--ann", ann, "--anchors", layout, "--out", out], 1, "error:", "anchor config"),
    }[source]
    code, _, err = run(capsys, argv)
    assert code == expected_code
    assert err.startswith(prefix) and named in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("document", MALFORMED)
def test_malformed_cache_is_recomputed_after_one_warning(tmp_path, capsys, caplog, document):
    ann = mini_dataset(tmp_path)
    fresh, bad = tmp_path / "fresh.json", tmp_path / "bad.json"
    assert main(assign_argv(ann, tmp_path / "cold", metrics="ps", extra=("--cache", str(fresh)))) == 0
    bad.write_bytes(MALFORMED[document])
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="smalldet.cli"):
        code, _, err = run(capsys, assign_argv(ann, tmp_path / "warm", metrics="ps", extra=("--cache", str(bad))))
    assert code == 0 and "Traceback" not in err
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1 and str(bad) in warnings[0]
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()
    assert bad.read_bytes() == fresh.read_bytes()


def json_decodes(node, function=None):
    """(function, line) of each json.load/json.loads call and `from json import` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.module == "json":
            yield function, child.lineno
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and child.func.attr in ("load", "loads") and getattr(child.func.value, "id", None) == "json"):
            yield function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from json_decodes(child, inner)


def test_only_the_package_reader_decodes_json():
    # smalldet._read_json turns every way json fails into the caller's one
    # error; a loader that decodes by itself would miss some of them.
    found = []
    for path in sorted((ROOT / "src" / "smalldet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, function, line) for function, line in json_decodes(tree)]
    assert [(name, function) for name, function, _ in found] == [("__init__.py", "_read_json")], found


def test_no_cli_error_message_formats_a_value_with_repr():
    # A value formatted with !r prints in full, however long it is;
    # smalldet._shown prints it in at most 40 characters.
    tree = ast.parse((ROOT / "src" / "smalldet" / "cli.py").read_text(encoding="utf-8"))
    found = [
        value.lineno
        for node in ast.walk(tree) if isinstance(node, ast.Raise)
        for value in ast.walk(node) if isinstance(value, ast.FormattedValue) and value.conversion == ord("r")
    ]
    assert found == []


LONG = "x" * 5000
MAX_ERROR_LINE = 200

# Rejected values, each as a flag and as a config-file value where both
# exist: (command, flag argv or None, config document or None, what the
# message names). A flag value is text, so the non-text values are
# config-file only.
REJECTED = {
    "levels": ("contrast-demo", ["--levels", LONG], {"levels": LONG}, "levels"),
    "tau": ("contrast-demo", ["--tau", "1" * 5000 + "x"], {"tau": "1" * 5000 + "x"}, "tau"),
    "metrics": ("assign", ["--metrics", LONG], {"metrics": [LONG]}, "metrics"),
    "path": ("assign", None, {"cache": [LONG]}, "cache"),
    "path-nul": ("assign", None, {"cache": "a\0b"}, "cache"),
    "anchors-nul": ("assign", None, {"anchors": "a\0b"}, "anchors"),
    "list": ("assign", None, {"thr": {LONG: 1}}, "thr"),
    "config-key": ("assign", None, {LONG: 1}, "unknown key"),
    "anchor-key": ("assign", ["--anchors", json.dumps({LONG: 1})], {"anchors": {LONG: 1}}, "unknown anchor config key"),
    "anchor-level-entry": ("assign", ["--anchors", '{"levels": [[4, 4, 4]]}'],
                           {"anchors": {"levels": [[4] * 2500]}}, "levels[0] must be [stride, base_size]"),
    "anchor-levels": ("assign", ["--anchors", '{"levels": 5}'], {"anchors": {"levels": LONG}}, "levels must be a list"),
    "anchor-ratios": ("assign", ["--anchors", '{"ratios": 5}'], {"anchors": {"ratios": 5}}, "ratios must be a list"),
    "anchor-stride": ("assign", ["--anchors", json.dumps({"levels": [[LONG, 4]]})],
                      {"anchors": {"levels": [[LONG, 4]]}}, "levels stride"),
    "anchors-inline-array": ("assign", ["--anchors", "[[4, 4]]"], None, "inline anchor config must hold a JSON object"),
}


def rejected_values():
    for name, (command, flag, document, _) in REJECTED.items():
        for source, given in (("flag", flag), ("config", document)):
            if given is not None:
                yield pytest.param(name, source, id=f"{name}-{source}")


@pytest.mark.parametrize("name, source", rejected_values())
def test_rejected_value_ends_in_one_bounded_line_naming_it(tmp_path, capsys, monkeypatch, name, source):
    def no_work(*args):
        raise AssertionError("a refused run must do no work")

    monkeypatch.setattr(cli, "load_coco", no_work)
    monkeypatch.setattr(cli, "build_embedding_batch", no_work)
    command, flag, document, named = REJECTED[name]
    out = tmp_path / "r"
    argv = [command]
    if command == "assign":
        argv += ["--ann", mini_dataset(tmp_path), "--out", str(out)]
    if source == "flag":
        argv += flag
    else:
        argv += ["--config", write_json(tmp_path / "config.json", document)]
    code, stdout, err = run(capsys, argv)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) <= MAX_ERROR_LINE
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, opening",
    [
        (["stats", "--ann", "{ann}", "--anchors", "{long}"], 1, "error: cannot read"),
        (["contrast-demo", "--config", "{long}"], 1, "error: cannot read"),
        (["stats", "--ann", "{long}"], 2, "data error: cannot read"),
        (["assign", "--ann", "{ann}", "--cache", "{long}"], 1, "error: cannot write normalizer cache"),
        (["assign", "--ann", "{ann}", "--out", "{long}/o"], 1, "error: cannot write reports to"),
        (["stats", "--ann", "{ann}", "--out", "{long}"], 1, "error: cannot write normalizer cache"),
    ],
    ids=["anchors", "config", "ann", "assign-cache", "assign-out", "stats-out"],
)
def test_a_long_unreadable_path_ends_in_one_bounded_line(tmp_path, capsys, argv, code, opening):
    # A 5,000-character file name: the OS refuses it, and its error text
    # would repeat the whole path.
    long = str(tmp_path / ("p" * 5000 + ".json"))
    argv = [arg.format(ann=mini_dataset(tmp_path), long=long) for arg in argv]
    found, stdout, err = run(capsys, argv)
    assert found == code and stdout == ""
    assert err.startswith(opening) and "Traceback" not in err
    assert re.search(r"\.\.\.p+\.json(/o)?: File name too long\n$", err)
    assert len(err.splitlines()) == 1 and len(err.rstrip("\n")) <= MAX_ERROR_LINE


# A fresh interpreter that imports nothing but the CLI, so json in
# sys.modules afterwards was loaded by the run.
JSON_LOAD_SCRIPT = "import sys\nfrom smalldet import cli\nprint(cli.main(sys.argv[1:]), 'json' in sys.modules)\n"


def test_contrast_demo_loads_json_only_to_read_a_config(tmp_path):
    config = write_json(tmp_path / "config.json", {"seed": 1})
    for extra, loaded in (([], False), (["--config", config], True)):
        proc = subprocess.run(
            [sys.executable, "-c", JSON_LOAD_SCRIPT, "contrast-demo", "--seed", "1", *extra],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


def one_line_error(err, path):
    assert err.startswith("error:") and str(path) in err
    assert len(err.strip().splitlines()) == 1


def record_work(monkeypatch):
    """Log each dataset load and normalizer pass, then run it as usual."""
    calls = []

    def logged(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    logged("load_coco")
    logged("_accumulate_normalizers")
    return calls


def test_cache_that_is_a_directory_fails_before_any_normalizer_is_computed(tmp_path, capsys, monkeypatch):
    ann = mini_dataset(tmp_path)
    cache = tmp_path / "cache-dir"
    cache.mkdir()
    work = record_work(monkeypatch)
    code, _, err = run(capsys, assign_argv(ann, tmp_path / "r", metrics="ps", extra=("--cache", str(cache))))
    assert code == 1
    one_line_error(err, cache)
    assert "is a directory" in err
    assert work == []
    assert not (tmp_path / "r").exists()


def test_stats_cache_in_a_missing_directory_is_a_write_error(tmp_path, capsys, monkeypatch):
    ann = mini_dataset(tmp_path)
    target = tmp_path / "nodir" / "c.json"
    work = record_work(monkeypatch)
    code, _, err = run(capsys, ["stats", "--ann", ann, "--anchors", MINI_LAYOUT, "--out", str(target)])
    assert code == 1
    one_line_error(err, target)
    assert work == []
    assert not target.parent.exists()


def test_assign_out_naming_a_file_is_a_write_error(tmp_path, capsys, monkeypatch):
    ann = mini_dataset(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    work = record_work(monkeypatch)
    code, _, err = run(capsys, assign_argv(ann, taken))
    assert code == 1
    one_line_error(err, taken)
    assert work == []
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_assign_out_below_a_file_is_a_write_error(tmp_path, capsys, monkeypatch):
    ann = mini_dataset(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    work = record_work(monkeypatch)
    code, _, err = run(capsys, assign_argv(ann, taken / "deeper" / "r"))
    assert code == 1
    one_line_error(err, taken / "deeper" / "r")
    assert work == []


def test_a_report_name_taken_by_a_directory_fails_before_either_report_is_written(tmp_path, capsys, monkeypatch):
    ann = mini_dataset(tmp_path)
    out_dir = tmp_path / "r"
    (out_dir / "report.csv").mkdir(parents=True)
    (out_dir / "report.json").write_text("an earlier run's report", encoding="utf-8")
    work = record_work(monkeypatch)
    code, stdout, err = run(capsys, assign_argv(ann, out_dir))
    assert code == 1 and stdout == ""
    one_line_error(err, out_dir / "report.csv")
    assert "is a directory" in err
    assert work == []
    assert (out_dir / "report.json").read_text(encoding="utf-8") == "an earlier run's report"
    # A write that fails past the early check names its file too.
    monkeypatch.setattr(cli, "_check_writable", lambda *args, **kwargs: None)
    code, _, err = run(capsys, assign_argv(ann, out_dir))
    assert code == 1
    one_line_error(err, out_dir / "report.csv")
    assert err.endswith(": Is a directory\n")


def test_writable_targets_pass_the_early_check(tmp_path, capsys, monkeypatch):
    """A missing report directory is made with its parents; an iou-only run never writes the cache."""
    ann = mini_dataset(tmp_path)
    out_dir = tmp_path / "a" / "b" / "r"
    code, _, err = run(capsys, assign_argv(ann, out_dir, extra=("--cache", str(tmp_path / "c.json"))))
    assert code == 0, err
    assert (out_dir / "report.json").is_file() and (tmp_path / "c.json").is_file()
    cache_dir = tmp_path / "cache-dir"
    cache_dir.mkdir()
    code, _, err = run(capsys, assign_argv(ann, tmp_path / "iou", metrics="iou", extra=("--cache", str(cache_dir))))
    assert code == 0, err


def test_cli_module_runs_as_a_script(tmp_path):
    ann = mini_dataset(tmp_path)
    out_dir = tmp_path / "r"
    proc = subprocess.run(
        [sys.executable, "-m", "smalldet.cli", *assign_argv(ann, out_dir)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ps totals:" in proc.stdout and "iou totals:" in proc.stdout
    assert (out_dir / "report.json").exists() and (out_dir / "report.csv").exists()
    assert "Warning" not in proc.stderr
