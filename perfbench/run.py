"""Benchmark of smalldet, driven from outside through its CLI and library.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a child process on the package under `src/`,
single-threaded (`--jobs 1`, BLAS and OpenMP pinned to one thread). With
`--trace 0` the children run untraced and the end-to-end metrics are
reported. With `--trace 1`, untraced and traced invocations alternate:
the traced ones run `child.py`, which wraps the package's public
functions from outside and records spans, and give the per-layer metrics;
the pair gives the tracing overhead. Every output is checked; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See README.md in this directory for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PINNED = HERE / "pinned.json"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
# COCO set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
LOSS_RTOL = 1e-12
# Training steps per training child on contrast-train; at least 2, so the
# check that a step lowers the loss applies.
TRAIN_STEPS = 2
# contrast-train starts a training child before every TRAIN_EVERY-th demo,
# so the run holds more demos than training children.
TRAIN_EVERY = 2

CLI = [sys.executable, "-c", "from smalldet.cli import entrypoint; entrypoint()"]
PROBE = (
    "import json, sys, numpy, smalldet; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'smalldet': smalldet.__file__}))"
)
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result: bad checkout or failed set-up."""


@dataclass(frozen=True)
class CocoWorkload:
    """`smalldet assign --metrics ps,iou` over a synthetic COCO file.

    warm: assign reuses the normalizer cache that `smalldet stats` wrote
    in set-up; otherwise every run gets a fresh cache path.
    """

    shape: synth.CocoShape
    warm: bool


@dataclass(frozen=True)
class ContrastWorkload:
    """`smalldet contrast-demo` plus training steps on a larger batch."""

    levels: int
    batch: int
    dim: int
    lr: float


WORKLOADS = {
    # Many small GxA calls on a warm cache: with 1-3 gts per image, the
    # scoring is small beside per-call overhead, load, hash, retained
    # results and report reduction.
    "coco-sparse-warm": CocoWorkload(synth.CocoShape(600, 640, 480, 1, 3), warm=True),
    # Few ~9M-pair calls on a cold cache: dense temporaries, strided
    # argmax and accumulate.
    "coco-dense-cold": CocoWorkload(synth.CocoShape(2, 1600, 1600, 80, 120), warm=False),
    # Only the contrast and pyramid layers run.
    "contrast-train": ContrastWorkload(levels=5, batch=64, dim=128, lr=1e-3),
}

END_TO_END = {
    "wall_s": "s",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "dataset.load_coco_s": "s",
    "dataset.dataset_hash_s": "s",
    "dataset.records": "count",
    "geometry.boxes_to_array_s": "s",
    "geometry.boxes_to_array_calls": "count",
    "geometry.boxes_to_array_rows": "count",
    "geometry.iou_matrix_s": "s",
    "geometry.iou_pairs": "count",
    "geometry.iou_matrix_peak_mb": "MB",
    "geometry.generate_anchors_s": "s",
    "geometry.generate_anchors_calls": "count",
    "similarity.ps_matrix_s": "s",
    "similarity.ps_pairs": "count",
    "similarity.ps_matrix_peak_mb": "MB",
    "similarity.ps_alloc_ratio": "ratio",
    "similarity.accumulate_s": "s",
    "similarity.accumulate_pairs": "count",
    "assigner.assign_s": "s",
    "assigner.assign_calls": "count",
    "assigner.assignment_stats_s": "s",
    "assigner.serialize_s": "s",
    "assigner.retained_results_mb": "MB",
    "cli.self_s": "s",
    "cli.sys_s": "s",
    "cli.minor_faults": "count",
    "contrast.loss_s": "s",
    "contrast.grad_s": "s",
    "contrast.gradient_check_s": "s",
    "contrast.loss_evals": "count",
    "contrast.info_nce_calls": "count",
    "contrast.info_nce_grad_calls": "count",
    "pyramid.build_embedding_batch_s": "s",
    "trace_overhead_s": "s",
}

MB = 1e6


# --------------------------------------------------------------------------
# Child processes


@dataclass
class Outcome:
    """One finished child: exit code, wall time, rusage and output."""

    code: int
    seconds: float
    max_rss_kb: int
    sys_s: float
    minor_faults: int
    stdout: str
    stderr: str
    timed_out: bool
    result: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    return env


def run_child(argv: list[str], workdir: Path, tag: str) -> Outcome:
    """Run argv to completion in workdir and collect its wait4 rusage.

    stdout and stderr go to files in workdir, so a chatty child cannot
    block on a full pipe. A child still running after CHILD_TIMEOUT_S is
    killed and reaped.
    """
    out_path = workdir / f"{tag}.stdout"
    err_path = workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=proc.returncode,
        seconds=seconds,
        max_rss_kb=usage.ru_maxrss,
        sys_s=usage.ru_stime,
        minor_faults=usage.ru_minflt,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=seconds >= CHILD_TIMEOUT_S,
    )


def run_spec(spec: dict, workdir: Path, tag: str) -> Outcome:
    """Run child.py on spec; attach the result file it wrote, if any."""
    spec = dict(spec, out=str(workdir / f"{tag}.result.json"))
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    outcome = run_child([sys.executable, str(CHILD), str(spec_path)], workdir, tag)
    result_path = Path(spec["out"])
    if outcome.code == 0 and result_path.exists():
        outcome.result = json.loads(result_path.read_text(encoding="utf-8"))
    return outcome


def run_cli(argv: list[str], workdir: Path, tag: str, trace: bool, memory: bool = False) -> Outcome:
    """One `smalldet` invocation: plain, traced, or traced with tracemalloc."""
    if not trace:
        return run_child(CLI + argv, workdir, tag)
    spec = {"mode": "cli", "argv": argv, "trace": True, "memory": memory}
    return run_spec(spec, workdir, tag)


def probe_package(workdir: Path) -> dict:
    """Check that the children import smalldet from this checkout's src/."""
    if not (SRC / "smalldet" / "__init__.py").is_file():
        raise BenchError(f"no smalldet package under {SRC}")
    outcome = run_child([sys.executable, "-c", PROBE], workdir, "probe")
    if outcome.code != 0:
        raise BenchError(f"cannot import smalldet and numpy: {outcome.stderr.strip()[-400:]}")
    found = json.loads(outcome.stdout)
    if SRC.resolve() not in Path(found["smalldet"]).resolve().parents:
        raise BenchError(f"smalldet resolved to {found['smalldet']}, outside {SRC}")
    return found


@contextmanager
def workdir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Output checks


@dataclass
class Tally:
    """Operations attempted and failed; a failure prints its reasons."""

    attempted: int = 0
    failed: int = 0

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors:
                print(f"check failed: {what}: {error}", file=sys.stderr)


def report_fields(doc: dict) -> list:
    """The integer fields of report.json that exist at schema version 1."""
    return [
        [
            report["metric"],
            [report["totals"][k] for k in ("positive", "negative", "ignore", "anchors")],
            [
                [b["gt_count"], b["gts_without_positive"], b["positive_anchors"]]
                for b in report["buckets"]
            ],
        ]
        for report in doc["reports"]
    ]


def report_digest(doc: dict) -> str:
    text = json.dumps(report_fields(doc), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_report(doc: dict, dataset: synth.Dataset, digest: str | None) -> list[str]:
    """Check one report.json against what the input dataset implies."""
    errors = []
    try:
        metrics = [r["metric"] for r in doc["reports"]]
        if metrics != ["ps", "iou"]:
            errors.append(f"report metrics are {metrics}, expected ['ps', 'iou']")
        anchors = dataset.images * dataset.anchors_per_image
        for r in doc["reports"]:
            t = r["totals"]
            if t["positive"] + t["negative"] + t["ignore"] != t["anchors"]:
                errors.append(f"{r['metric']}: label totals do not add up to total_anchors")
            if t["anchors"] != anchors:
                errors.append(f"{r['metric']}: total_anchors {t['anchors']}, expected {anchors}")
            gts = sum(b["gt_count"] for b in r["buckets"])
            if gts != dataset.non_crowd_gts:
                errors.append(f"{r['metric']}: {gts} gts in buckets, expected {dataset.non_crowd_gts}")
            # Every positive anchor is matched to exactly one gt.
            if sum(b["positive_anchors"] for b in r["buckets"]) != t["positive"]:
                errors.append(f"{r['metric']}: bucket positive_anchors do not add up to total_positive")
            if any(b["gts_without_positive"] > b["gt_count"] for b in r["buckets"]):
                errors.append(f"{r['metric']}: a bucket has more gts without positive than gts")
        if digest is not None and report_digest(doc) != digest:
            errors.append(f"report fields {report_fields(doc)} differ from digest {digest}")
    except (KeyError, TypeError) as exc:
        errors.append(f"malformed report: {exc!r}")
    return errors


def check_assign(
    outcome: Outcome,
    run_dir: Path,
    dataset: synth.Dataset,
    warm: bool,
    reference: dict,
    cache_path: Path,
    digest: str | None,
) -> tuple[list[str], str | None]:
    """Check an assign run: exit code, report, and whether accumulate ran.

    Returns the errors found and the digest of the report, if one was read.
    """
    if outcome.code != 0:
        return [exit_error(outcome)], None
    found = None
    try:
        doc = json.loads((run_dir / "out" / "report.json").read_text(encoding="utf-8"))
        errors = check_report(doc, dataset, digest)
        found = report_digest(doc)
        hit = "normalizer cache hit" in outcome.stderr
        if warm and not hit:
            errors.append("warm run recomputed the normalizers")
        if not warm:
            written = json.loads(cache_path.read_text(encoding="utf-8"))
            if hit or written != reference:
                errors.append(f"cold run cache {written} differs from set-up cache {reference}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    return errors, found


def exit_error(outcome: Outcome) -> str:
    reason = "timed out" if outcome.timed_out else f"exit code {outcome.code}"
    return f"{reason}: {outcome.stdout.strip()[-400:]} {outcome.stderr.strip()[-400:]}"


def check_step(losses: list[float], pinned: list[float] | None) -> list[str]:
    """Check [spatial, semantic] losses, against pinned values if given."""
    errors = []
    if not all(math.isfinite(v) and v >= 0 for v in losses):
        errors.append(f"losses {losses} are not finite and non-negative")
    if pinned is not None and not all(
        math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=0.0) for a, b in zip(losses, pinned)
    ):
        errors.append(f"losses {losses} differ from pinned {pinned}")
    return errors


def demo_losses(stdout: str) -> list[float]:
    """The [spatial, semantic] losses that contrast-demo printed."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in ("spatial_loss", "semantic_loss"):
            values[key] = value
    return [float(values["spatial_loss"]), float(values["semantic_loss"])]


def check_demo(outcome: Outcome, pinned: list[float] | None) -> list[str]:
    if outcome.code != 0:
        return [exit_error(outcome)]
    if "[PASS]" not in outcome.stdout:
        return [f"gradient check did not pass: {outcome.stdout.strip()[-400:]}"]
    try:
        losses = demo_losses(outcome.stdout)
    except (KeyError, ValueError) as exc:
        return [f"cannot read the demo losses: {exc!r}"]
    return check_step(losses, pinned)


# --------------------------------------------------------------------------
# Statistics over spans and samples


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> str:
    """Sample count, median and max."""
    return f"n={len(values)} median={median(values):.6g} max={max(values, default=0.0):.6g}"


def span_totals(spans: list) -> dict[str, tuple[float, int]]:
    """Inclusive seconds and call count per span name."""
    totals: dict[str, tuple[float, int]] = {}
    for name, start, end, _ in spans:
        seconds, calls = totals.get(name, (0.0, 0))
        totals[name] = (seconds + end - start, calls + 1)
    return totals


def self_seconds(spans: list, name: str) -> float:
    """Seconds spent in spans called name outside their child spans."""
    own = [0.0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        own[i] += end - start
        if parent >= 0:
            own[parent] -= end - start
    return sum(own[i] for i, span in enumerate(spans) if span[0] == name)


def seconds_of(totals, *names) -> float:
    return sum(totals.get(n, (0.0, 0))[0] for n in names)


def calls_of(totals, *names) -> int:
    return sum(totals.get(n, (0.0, 0))[1] for n in names)


def coco_layers(trace: dict, peaks: list) -> dict[str, float]:
    """Per-layer metrics of one traced assign run, plus the peaks of the
    scoring calls from the run with tracemalloc on."""
    spans, counts = trace["spans"], trace["counts"]
    t = span_totals(spans)

    def memory(name):
        calls = [(peak, size) for n, peak, size in peaks if n == name]
        if not calls:
            return 0.0, 0.0
        peak, size = max(calls, key=lambda c: c[1])
        return max(p for p, _ in calls) / MB, peak / size

    ps_peak, ps_ratio = memory("similarity.ps_matrix")
    iou_peak, _ = memory("geometry.iou_matrix")
    return {
        "dataset.load_coco_s": seconds_of(t, "dataset.load_coco"),
        "dataset.dataset_hash_s": seconds_of(t, "dataset.dataset_hash"),
        "dataset.records": counts.get("dataset.records", 0),
        "geometry.boxes_to_array_s": seconds_of(t, "geometry.boxes_to_array"),
        "geometry.boxes_to_array_calls": calls_of(t, "geometry.boxes_to_array"),
        "geometry.boxes_to_array_rows": counts.get("geometry.boxes_to_array_rows", 0),
        "geometry.iou_matrix_s": seconds_of(t, "geometry.iou_matrix"),
        "geometry.iou_pairs": counts.get("geometry.iou_pairs", 0),
        "geometry.iou_matrix_peak_mb": iou_peak,
        "geometry.generate_anchors_s": seconds_of(t, "geometry.generate_anchors"),
        "geometry.generate_anchors_calls": calls_of(t, "geometry.generate_anchors"),
        "similarity.ps_matrix_s": seconds_of(t, "similarity.ps_matrix"),
        "similarity.ps_pairs": counts.get("similarity.ps_pairs", 0),
        "similarity.ps_matrix_peak_mb": ps_peak,
        "similarity.ps_alloc_ratio": ps_ratio,
        "similarity.accumulate_s": seconds_of(t, "similarity.accumulate"),
        "similarity.accumulate_pairs": counts.get("similarity.accumulate_pairs", 0),
        "assigner.assign_s": seconds_of(t, "assigner.assign"),
        "assigner.assign_calls": calls_of(t, "assigner.assign"),
        "assigner.assignment_stats_s": seconds_of(t, "assigner.assignment_stats"),
        "assigner.serialize_s": seconds_of(t, "assigner.reports_to_json", "assigner.reports_to_csv"),
        "assigner.retained_results_mb": counts.get("assigner.retained_bytes", 0) / MB,
        "cli.self_s": self_seconds(spans, "cli.main"),
    }


def demo_layers(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced contrast-demo run."""
    t = span_totals(trace["spans"])
    return {
        "contrast.gradient_check_s": seconds_of(t, "contrast.gradient_check"),
        "contrast.loss_evals": calls_of(t, "contrast.spatial_loss", "contrast.semantic_loss"),
        "cli.self_s": self_seconds(trace["spans"], "cli.main"),
    }


def train_layers(chunks: list[dict]) -> dict[str, float]:
    """Per-step layer metrics of the traced training children."""
    spans = [span for chunk in chunks for span in chunk["trace"]["spans"]]
    t = span_totals(spans)
    steps = sum(len(chunk["step_s"]) for chunk in chunks)

    def counted(name):
        return sum(chunk["trace"]["counts"].get(name, 0) for chunk in chunks)

    builds = [end - start for name, start, end, _ in spans if name == "pyramid.build_embedding_batch"]
    return {
        "contrast.loss_s": seconds_of(t, "contrast.spatial_loss", "contrast.semantic_loss") / steps,
        "contrast.grad_s": seconds_of(t, "contrast.contrast_grad") / steps,
        "contrast.info_nce_calls": counted("contrast.info_nce_calls") / steps,
        "contrast.info_nce_grad_calls": counted("contrast.info_nce_grad_calls") / steps,
        "pyramid.build_embedding_batch_s": median(builds),
    }


def median_layers(per_run: list[dict]) -> dict[str, float]:
    return {key: median(run[key] for run in per_run) for key in per_run[0]} if per_run else {}


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Measured:
    """What one workload run produced, before it is printed."""

    tally: Tally = field(default_factory=Tally)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def loop_cli(argv_for, check, work: Path, seconds: float, trace: bool, tally: Tally, what: str,
             before=None):
    """Invoke the CLI until `seconds` are used, alternating tracing if asked.

    Each round first calls before(round), if given, then runs one CLI
    invocation. A round starts only while a round of the mean length so
    far is expected to end in time, but at least one plain invocation,
    and one traced when tracing, runs.
    """
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.perf_counter()
    k = 0
    while not plain or (trace and not traced) or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        if before is not None:
            before(k)
        use_trace = trace and len(traced) < len(plain)
        run_dir = work / f"run{k}"
        run_dir.mkdir()
        outcome = run_cli(argv_for(run_dir), run_dir, "cli", use_trace)
        tally.record(f"{what} run {k}", check(outcome, run_dir))
        (traced if use_trace else plain).append(outcome)
        shutil.rmtree(run_dir)
        k += 1
    return plain, traced


def pinned(name: str, workload, seed: int) -> dict:
    """The outputs pinned.json holds for this workload and seed.

    They apply at the workload's full size only.
    """
    if WORKLOADS.get(name) != workload:
        return {}
    return json.loads(PINNED.read_text(encoding="utf-8"))[name].get(str(seed), {})


def measure_coco(name: str, wl: CocoWorkload, seed: int, seconds: float, trace: bool) -> Measured:
    pins = pinned(name, wl, seed)
    out = Measured()
    with workdir(name) as work:
        setups = []
        for i in range(SETUP_REPEATS):
            d = work / f"setup{i}"
            d.mkdir()
            t0 = time.perf_counter()
            dataset = synth.write_coco(d / "ann.json", wl.shape, seed)
            argv = ["stats", "--ann", str(dataset.path), "--out", str(d / "norm.json"), "--jobs", "1"]
            stats = run_child(CLI + argv, d, "stats")
            setups.append(time.perf_counter() - t0)
            if stats.code != 0:
                raise BenchError(f"set-up `smalldet stats` exited {stats.code}: {stats.stderr[-400:]}")
        first = work / "setup0"
        if dataset.path.read_bytes() != (first / "ann.json").read_bytes():
            raise BenchError("the generator wrote different files for one seed")
        reference = json.loads((d / "norm.json").read_text(encoding="utf-8"))
        if reference != json.loads((first / "norm.json").read_text(encoding="utf-8")):
            raise BenchError("`smalldet stats` wrote different caches for one dataset")

        def argv_for(run_dir: Path) -> list[str]:
            cache = d / "norm.json" if wl.warm else run_dir / "norm.json"
            return ["assign", "--ann", str(dataset.path), "--metrics", "ps,iou", "--jobs", "1",
                    "--cache", str(cache), "--out", str(run_dir / "out")]

        # Without a pinned digest, every run must match the run's first report.
        expected = [pins.get("report_digest")]

        def check(outcome: Outcome, run_dir: Path) -> list[str]:
            cache = d / "norm.json" if wl.warm else run_dir / "norm.json"
            errors, found = check_assign(outcome, run_dir, dataset, wl.warm, reference, cache,
                                         expected[0])
            if expected[0] is None and not errors:
                expected[0] = found
            return errors

        # tracemalloc slows every call of a run, so the peaks come from one
        # run of their own and the span times from runs without it.
        peaks = []
        if trace:
            run_dir = work / "memory"
            run_dir.mkdir()
            outcome = run_cli(argv_for(run_dir), run_dir, "cli", trace=True, memory=True)
            out.tally.record(f"{name} tracemalloc run", check(outcome, run_dir))
            if outcome.result:
                peaks = outcome.result["trace"]["peaks"]
            shutil.rmtree(run_dir)
        plain, traced = loop_cli(argv_for, check, work, seconds, trace, out.tally, name)

    wall = median(o.seconds for o in plain)
    out.metrics = {
        "wall_s": wall,
        "images_per_s": dataset.images / wall,
        "peak_rss_mb": median(o.max_rss_kb for o in plain) * 1024 / MB,
        "setup_s": median(setups),
    }
    if trace:
        out.metrics.update(median_layers([coco_layers(o.result["trace"], peaks) for o in traced if o.result]))
        out.metrics.update(rusage_layers(plain, traced))
    out.notes = {
        "shape": wl.shape.as_dict(),
        "cache": "warm" if wl.warm else "cold",
        "gts": dataset.gts,
        "non_crowd_gts": dataset.non_crowd_gts,
        "largest_score_matrix_bytes_computed": dataset.max_gts_per_image * dataset.anchors_per_image * 8,
        "wall_s": describe([o.seconds for o in plain]),
        "setup_s": describe(setups),
    }
    return out


def rusage_layers(plain: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    return {
        "cli.sys_s": median(o.sys_s for o in plain),
        "cli.minor_faults": median(o.minor_faults for o in plain),
        "trace_overhead_s": median(o.seconds for o in traced) - median(o.seconds for o in plain),
    }


def measure_contrast(name: str, wl: ContrastWorkload, seed: int, seconds: float, trace: bool) -> Measured:
    """Rounds of (a) one demo invocation, each TRAIN_EVERY-th preceded by
    (b) one training child.

    Interleaving the two parts spreads both over the whole run, so a
    change in machine speed during the run reaches both metrics alike.
    """
    pins = pinned(name, wl, seed)
    step_pins = pins.get("step_losses", [])
    out = Measured()
    chunks: list[dict] = []
    with workdir(name) as work:

        def train(k: int) -> None:
            if k % TRAIN_EVERY:
                return
            spec = {"mode": "train", "trace": trace, "memory": False, "levels": wl.levels,
                    "batch": wl.batch, "dim": wl.dim, "seed": seed, "lr": wl.lr,
                    "steps": TRAIN_STEPS}
            outcome = run_spec(spec, work, f"train{k}")
            if outcome.result is None:
                out.tally.record(f"{name} training child {k}", [exit_error(outcome)])
                return
            chunks.append(outcome.result)
            previous = math.inf
            for i, losses in enumerate(outcome.result["losses"]):
                errors = check_step(losses, step_pins[i] if i < len(step_pins) else None)
                if not outcome.result["grads_finite"]:
                    errors.append("gradients are not finite")
                # A small step along a correct gradient lowers the loss.
                if not sum(losses) < previous:
                    errors.append(f"loss {sum(losses)!r} did not fall below {previous!r}")
                previous = sum(losses)
                out.tally.record(f"{name} training child {k} step {i}", errors)

        def check(outcome: Outcome, run_dir: Path) -> list[str]:
            return check_demo(outcome, pins.get("demo_losses"))

        plain, traced = loop_cli(lambda _: ["contrast-demo", "--seed", str(seed)], check, work,
                                 seconds, trace, out.tally, name, before=train)
    if not chunks:
        raise BenchError("every training child failed")

    steps = [s for chunk in chunks for s in chunk["step_s"]]
    builds = [chunk["setup_s"] for chunk in chunks]
    out.metrics = {
        "wall_s": median(o.seconds for o in plain),
        "images_per_s": wl.batch / median(steps),
        "peak_rss_mb": median(o.max_rss_kb for o in plain) * 1024 / MB,
        "setup_s": median(builds),
    }
    if trace:
        out.metrics.update(median_layers([demo_layers(o.result["trace"]) for o in traced if o.result]))
        out.metrics.update(train_layers(chunks))
        out.metrics.update(rusage_layers(plain, traced))
    out.notes = {
        "shape": {"levels": wl.levels, "batch": wl.batch, "dim": wl.dim, "lr": wl.lr,
                  "steps_per_child": TRAIN_STEPS, "demos_per_child": TRAIN_EVERY,
                  "demo": "contrast-demo defaults (L=4, N=3, D=16)"},
        "wall_s": describe([o.seconds for o in plain]),
        "train_step_s": describe(steps),
        "setup_s": describe(builds),
    }
    return out


def measure(name: str, workload, seed: int, seconds: float, trace: bool) -> Measured:
    if isinstance(workload, CocoWorkload):
        return measure_coco(name, workload, seed, seconds, trace)
    return measure_contrast(name, workload, seed, seconds, trace)


# --------------------------------------------------------------------------
# Provenance and output


def cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes, from lscpu or else read-only sysfs."""
    sizes = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.strip().split()[0]] = value.strip()
    if not sizes:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                if level in ("2", "3"):
                    sizes[f"L{level}"] = (index / "size").read_text().strip()
            except OSError:
                continue
    return sizes


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(name: str, seed: int, seconds: float, trace: bool, package: dict, notes: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": package["python"],
        "numpy": package["numpy"],
        "thread_env": THREAD_ENV,
        "caches": cache_sizes(),
        "commit": git_commit(),
        **notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        with workdir("probe") as work:
            package = probe_package(work)
        measured = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.seconds, trace,
                                                package, measured.notes)))
    units = PER_LAYER if trace else END_TO_END
    metrics = {key: {"value": float(measured.metrics.get(key, 0.0)), "unit": unit}
               for key, unit in units.items()}
    for key, entry in metrics.items():
        print(f"{key} {entry['value']:.6g} {entry['unit']}")
    tally = measured.tally
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
