"""Write pinned.json: the outputs the checks compare against, per seed.

Usage (from the root of a checkout): python3 perfbench/pin.py

For each of the seeds 0 to SEEDS - 1 it runs the full-size workloads once
and records the report digests of the two COCO workloads, the losses of
the run.TRAIN_STEPS training steps that run.py checks, and the demo
losses. Re-pin only when the program's outputs change on purpose, and
say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run
import synth

SEEDS = 32


def pin_coco(name: str, seed: int, work) -> str:
    wl = run.WORKLOADS[name]
    d = work / f"{name}-{seed}"
    d.mkdir()
    dataset = synth.write_coco(d / "ann.json", wl.shape, seed)
    argv = ["assign", "--ann", str(dataset.path), "--metrics", "ps,iou", "--jobs", "1",
            "--cache", str(d / "norm.json"), "--out", str(d / "out")]
    outcome = run.run_cli(argv, d, "cli", trace=False)
    if outcome.code != 0:
        raise run.BenchError(f"{name} seed {seed}: exit code {outcome.code}: {outcome.stderr[-400:]}")
    doc = json.loads((d / "out" / "report.json").read_text(encoding="utf-8"))
    errors = run.check_report(doc, dataset, None)
    if errors:
        raise run.BenchError(f"{name} seed {seed}: {errors}")
    return run.report_digest(doc)


def pin_contrast(seed: int, work) -> dict:
    wl = run.WORKLOADS["contrast-train"]
    spec = {"mode": "train", "trace": False, "memory": False, "levels": wl.levels,
            "batch": wl.batch, "dim": wl.dim, "seed": seed, "lr": wl.lr, "steps": run.TRAIN_STEPS}
    train = run.run_spec(spec, work, f"train-{seed}")
    if train.result is None or not train.result["grads_finite"]:
        raise run.BenchError(f"contrast-train seed {seed}: training failed: {train.stderr[-400:]}")
    losses = train.result["losses"]
    demo = run.run_cli(["contrast-demo", "--seed", str(seed)], work, f"demo-{seed}", trace=False)
    errors = run.check_demo(demo, None)
    if errors or len(losses) != run.TRAIN_STEPS:
        raise run.BenchError(f"contrast-train seed {seed}: {errors} {losses}")
    return {"step_losses": losses, "demo_losses": run.demo_losses(demo.stdout)}


def render(pins: dict) -> str:
    """JSON with one line per seed, so a re-pin diffs by seed."""
    parts = []
    for name, seeds in pins.items():
        rows = ",\n".join(f"    {json.dumps(str(seed))}: {json.dumps(entry)}"
                          for seed, entry in seeds.items())
        parts.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> None:
    pins = {name: {} for name in run.WORKLOADS}
    with run.workdir("pin") as work:
        run.probe_package(work)
        for seed in range(SEEDS):
            for name in ("coco-sparse-warm", "coco-dense-cold"):
                pins[name][seed] = {"report_digest": pin_coco(name, seed, work)}
            pins["contrast-train"][seed] = pin_contrast(seed, work)
            print(f"pinned seed {seed}", file=sys.stderr)
    run.PINNED.write_text(render(pins), encoding="utf-8")


if __name__ == "__main__":
    main()
