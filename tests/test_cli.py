"""Command-line surface: config handling, outputs, and exit codes."""

import json
import logging

import pytest

from smalldet.cli import main

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
    ],
    ids=["nan-width", "non-numeric-bbox", "null-image-id", "fractional-image-id"],
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


def test_assign_per_level_and_jobs_agree(tmp_path, capsys):
    ann = mini_dataset(tmp_path)
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(assign_argv(ann, serial, extra=("--per-level",))) == 0
    assert main(assign_argv(ann, threaded, extra=("--per-level", "--jobs", "3"))) == 0
    capsys.readouterr()
    a = json.loads((serial / "report.json").read_text(encoding="utf-8"))
    b = json.loads((threaded / "report.json").read_text(encoding="utf-8"))
    for ra, rb in zip(a["reports"], b["reports"]):
        assert ra["totals"] == rb["totals"]
        for ba, bb in zip(ra["buckets"], rb["buckets"]):
            if ba["mean_positives_per_gt"] is None:
                assert bb["mean_positives_per_gt"] is None
            else:
                assert bb["mean_positives_per_gt"] == pytest.approx(
                    ba["mean_positives_per_gt"], rel=1e-9
                )


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


def test_bench_small_workload(capsys):
    code, out, _ = run(
        capsys, ["bench", "--anchors-n", "2000", "--gts-n", "10", "--repeats", "2"]
    )
    assert code == 0
    assert "pairs_per_s" in out and "streamed_s" in out
    assert "outputs identical across 2 run(s)" in out
    assert "streamed and matrix assignments agree bit for bit" in out


def test_bench_zero_anchors_rejected(capsys):
    code, _, err = run(capsys, ["bench", "--anchors-n", "0"])
    assert code == 1
    assert err.startswith("error:")


def test_usage_errors(capsys, tmp_path):
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
