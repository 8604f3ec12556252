"""Command-line experiment harness.

Four subcommands cover the library's workflows: `stats` computes and
caches dataset normalizers, `assign` runs metric assignments over a COCO
annotation file and writes bucketed reports, `contrast-demo` exercises the
contrastive losses on the toy pyramid with a gradient check, and `bench`
times the scoring and assignment kernels on synthetic workloads.

Every flag can also be supplied through a JSON config file (--config);
values given on the command line win over file values. Exit codes: 0
success, 1 usage or config error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assigner import (
    AssignResult,
    AssignThresholds,
    Metric,
    assign,
    assign_with_metric,
    assignment_stats,
    reports_to_csv,
    reports_to_json,
)
from .contrast import ContrastConfig, LossComponents, gradient_check, spatial_loss, semantic_loss, total_loss
from .dataset import DatasetError, DatasetIndex, dataset_hash, fingerprint, load_coco
from . import geometry
from .geometry import AnchorGridSpec, AnchorSet, generate_anchors
from .pyramid import ToyPyramidConfig, build_embedding_batch
from .similarity import (
    DatasetNormalizers,
    EmptyDatasetError,
    NormalizerAccumulator,
    NormalizerCache,
    accumulate,
    finalize,
    load_normalizer_cache,
    ps_matrix,
    save_normalizer_cache,
)

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DATA",
    "EXIT_VERIFY",
    "CliUsageError",
    "AnchorLayout",
    "ExperimentConfig",
    "ContrastDemoConfig",
    "BenchConfig",
    "cmd_stats",
    "cmd_assign",
    "cmd_contrast_demo",
    "cmd_bench",
    "build_parser",
    "main",
    "entrypoint",
]

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

GRADIENT_TOLERANCE = 1e-5


class CliUsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


@dataclass(frozen=True)
class AnchorLayout:
    """Anchor grid layout independent of image size.

    spec_for() binds it to one image's dimensions. The default is the
    classic single-level region-proposal layout: stride 16, base size 16,
    scales 8/16/32 (anchor sides 128 to 512 at ratio 1), ratios 1/2, 1, 2.
    """

    levels: tuple[tuple[float, float], ...] = ((16.0, 16.0),)
    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    scales: tuple[float, ...] = (8.0, 16.0, 32.0)
    clip: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "levels", tuple((float(s), float(b)) for s, b in self.levels)
        )
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        # Bind to a dummy image so layout mistakes surface at construction.
        self.spec_for(1.0, 1.0)

    def spec_for(self, image_w: float, image_h: float) -> AnchorGridSpec:
        return AnchorGridSpec(
            levels=self.levels,
            image_w=image_w,
            image_h=image_h,
            ratios=self.ratios,
            scales=self.scales,
            clip=self.clip,
        )

    def config_hash(self) -> str:
        """Content fingerprint of the layout, as 16 hex digits."""
        parts = ["L"]
        for stride, base in self.levels:
            parts.append(f"{stride!r},{base!r}")
        parts.append("R" + ",".join(repr(r) for r in self.ratios))
        parts.append("S" + ",".join(repr(s) for s in self.scales))
        parts.append(f"C{int(self.clip)}")
        return fingerprint(["|".join(parts)])

    @staticmethod
    def from_json_value(value) -> "AnchorLayout":
        """Build a layout from a parsed JSON object."""
        if not isinstance(value, dict):
            raise CliUsageError(f"anchor config must be a JSON object, got {type(value).__name__}")
        known = {"levels", "ratios", "scales", "clip"}
        unknown = set(value) - known
        if unknown:
            raise CliUsageError(f"unknown anchor config keys: {sorted(unknown)}")
        kwargs = {}
        try:
            if "levels" in value:
                kwargs["levels"] = tuple((float(s), float(b)) for s, b in value["levels"])
            if "ratios" in value:
                kwargs["ratios"] = tuple(float(r) for r in value["ratios"])
            if "scales" in value:
                kwargs["scales"] = tuple(float(s) for s in value["scales"])
            if "clip" in value:
                kwargs["clip"] = bool(value["clip"])
            return AnchorLayout(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CliUsageError(f"bad anchor config: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of the stats and assign commands.

    Attributes:
        ann: Annotation file path.
        layout: Anchor grid layout applied to every image.
        thresholds: Assigner thresholds.
        metrics: Metric names to run ("ps", "iou"); at least one.
        bucket_edges: Area edges of the report buckets.
        cache_path: Normalizer cache file (written on miss, reused on hit).
        jobs: Worker threads for per-image work; 1 disables the pool.
        out_dir: Report output directory, or None to skip writing files.
        per_level: Assign each pyramid level separately instead of
            pooling all anchors into one candidate set.
    """

    ann: str
    layout: AnchorLayout
    thresholds: AssignThresholds
    metrics: tuple[str, ...]
    bucket_edges: tuple[float, ...]
    cache_path: str | None
    jobs: int
    out_dir: str | None
    per_level: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(Metric(m).value for m in self.metrics))
        object.__setattr__(self, "bucket_edges", tuple(float(e) for e in self.bucket_edges))
        if not self.metrics:
            raise CliUsageError("at least one metric is required")
        if self.jobs < 1:
            raise CliUsageError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class ContrastDemoConfig:
    """Resolved configuration of the contrast-demo command."""

    levels: int = 4
    batch: int = 3
    dim: int = 16
    tau: float = 0.07
    alpha: float = 0.1
    detector_loss: float = 0.0
    seed: int = 0
    fd_step: float = 1e-4
    include_same_image: bool = False
    l2_normalize: bool = False

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise CliUsageError(f"levels must be at least 2, got {self.levels}")
        if self.batch < 1 or self.dim < 1:
            raise CliUsageError("batch and dim must be at least 1")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise CliUsageError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0 or self.detector_loss < 0:
            raise CliUsageError("alpha and detector-loss must be non-negative")
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise CliUsageError(f"fd-step must be positive, got {self.fd_step}")


@dataclass(frozen=True)
class BenchConfig:
    """Resolved configuration of the bench command."""

    anchors_n: int = 100_000
    gts_n: int = 100
    repeats: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.anchors_n < 1:
            raise CliUsageError(f"bench needs at least one anchor, got {self.anchors_n}")
        if self.gts_n < 0:
            raise CliUsageError(f"gts-n must be non-negative, got {self.gts_n}")
        if self.repeats < 1:
            raise CliUsageError(f"repeats must be at least 1, got {self.repeats}")


def _map_in_order(fn, items, jobs: int):
    """Yield fn(item) for each item in order, optionally from a thread pool.

    Results are made as the consumer asks for them. The pool keeps at most
    2 * jobs calls in flight, so whatever the item count, only that many
    results exist before the consumer takes them (ThreadPoolExecutor.map
    would submit every item at once and hold every finished result).
    """
    if jobs <= 1:
        for item in items:
            yield fn(item)
        return
    # Imported here: the module costs every process about 0.5 MB of
    # resident memory, and --jobs 1 never uses it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        window = deque()
        for item in items:
            if len(window) == 2 * jobs:
                yield window.popleft().result()
            window.append(pool.submit(fn, item))
        while window:
            yield window.popleft().result()


class _ImageTable:
    """Per-image arrays derived from a DatasetIndex, crowd gts excluded."""

    def __init__(self, index: DatasetIndex):
        self.gt_boxes: list[np.ndarray] = []
        self.gt_areas: list[np.ndarray] = []
        self.sizes: list[tuple[float, float]] = []
        crowd = 0
        for image, gts in zip(index.images, index.gts_by_image):
            kept = [g for g in gts if not g.iscrowd]
            crowd += len(gts) - len(kept)
            boxes = np.array(
                [(g.box.cx, g.box.cy, g.box.w, g.box.h) for g in kept], dtype=np.float64
            ).reshape(-1, 4)
            self.gt_boxes.append(boxes)
            self.gt_areas.append(np.array([g.area for g in kept], dtype=np.float64))
            self.sizes.append((image.width, image.height))
        if crowd:
            logger.info("excluded %d crowd annotation(s) from assignment", crowd)

    def __len__(self) -> int:
        return len(self.sizes)


def _check_anchor_counts(path: str, index: DatasetIndex, layout: AnchorLayout) -> None:
    """Reject an image whose anchors would pass geometry.MAX_ANCHORS.

    The counts come from the layout and the image sizes alone, so this
    runs before any anchor is made.

    Raises:
        DatasetError: Naming the file and the first such image record.
    """
    counts: dict[tuple[float, float], int] = {}
    for pos, image in enumerate(index.images):
        size = (image.width, image.height)
        count = counts.get(size)
        if count is None:
            count = counts[size] = layout.spec_for(*size).num_anchors()
        if count > geometry.MAX_ANCHORS:
            raise DatasetError(
                f"{path} images[{pos}] (id {image.id}, {image.width:g}x{image.height:g}) "
                f"would need {count} anchors, more than the {geometry.MAX_ANCHORS} allowed per image"
            )


class _AnchorCache:
    """Memoizes generated anchor sets per distinct image size.

    An AnchorSet is validated once, when it is made, and is read-only, so
    every image and metric of that size reuses it without re-checking it.
    """

    def __init__(self, layout: AnchorLayout):
        self._layout = layout
        self._cache: dict[tuple[float, float], AnchorSet] = {}

    def for_size(self, size: tuple[float, float]) -> AnchorSet:
        found = self._cache.get(size)
        if found is None:
            found = generate_anchors(self._layout.spec_for(size[0], size[1]))
            self._cache[size] = found
        return found


def _accumulate_normalizers(
    table: _ImageTable, anchors: _AnchorCache, jobs: int
) -> NormalizerAccumulator:
    def one_image(i: int) -> NormalizerAccumulator:
        return accumulate(NormalizerAccumulator(), table.gt_boxes[i], anchors.for_size(table.sizes[i]))

    acc = NormalizerAccumulator()
    for part in _map_in_order(one_image, range(len(table)), jobs):
        acc = acc.merge(part)
    return acc


def _resolve_normalizers(
    cfg: ExperimentConfig, index: DatasetIndex, table: _ImageTable, anchors: _AnchorCache
) -> tuple[DatasetNormalizers, int, bool]:
    """Load normalizers from a valid cache, or compute (and cache) them.

    Returns:
        (normalizers, pair_count, came_from_cache)
    """
    ds_hash = dataset_hash(index)
    layout_hash = cfg.layout.config_hash()
    path = cfg.cache_path
    if path and Path(path).exists():
        try:
            cache = load_normalizer_cache(path)
        except ValueError as exc:
            logger.warning("ignoring unreadable normalizer cache: %s", exc)
        else:
            if cache.dataset_hash == ds_hash and cache.anchor_spec_hash == layout_hash:
                logger.info("normalizer cache hit at %s, skipping recompute", path)
                return cache.normalizers, cache.pair_count, True
            logger.info("normalizer cache at %s is stale (hash mismatch), recomputing", path)
    acc = _accumulate_normalizers(table, anchors, cfg.jobs)
    norm = finalize(acc)
    if path:
        save_normalizer_cache(
            path,
            NormalizerCache(
                m=norm.m,
                n=norm.n,
                pair_count=acc.pair_count,
                dataset_hash=ds_hash,
                anchor_spec_hash=layout_hash,
            ),
        )
        logger.info("wrote normalizer cache to %s", path)
    return norm, acc.pair_count, False


def cmd_stats(cfg: ExperimentConfig) -> int:
    """Compute dataset normalizers and write the cache file."""
    index = load_coco(cfg.ann)
    _check_anchor_counts(cfg.ann, index, cfg.layout)
    table = _ImageTable(index)
    anchors = _AnchorCache(cfg.layout)
    norm, pair_count, cached = _resolve_normalizers(cfg, index, table, anchors)
    suffix = " (cached)" if cached else ""
    print(f"m={norm.m!r} n={norm.n!r} pair_count={pair_count}{suffix}")
    return EXIT_OK


def _assign_one_image(
    metric: str,
    boxes: np.ndarray,
    anchor_set: AnchorSet,
    norm: DatasetNormalizers | None,
    thr: AssignThresholds,
    per_level: bool,
) -> list[AssignResult]:
    if not per_level:
        return [assign_with_metric(boxes, anchor_set, norm, thr, metric)]
    return [assign_with_metric(boxes, part, norm, thr, metric) for part in anchor_set.level_sets]


def cmd_assign(cfg: ExperimentConfig) -> int:
    """Run per-metric assignments over the dataset and emit reports."""
    index = load_coco(cfg.ann)
    _check_anchor_counts(cfg.ann, index, cfg.layout)
    table = _ImageTable(index)
    anchors = _AnchorCache(cfg.layout)
    norm: DatasetNormalizers | None = None
    if Metric.PS.value in cfg.metrics:
        norm, _, _ = _resolve_normalizers(cfg, index, table, anchors)

    reports = []
    for metric in cfg.metrics:
        def one_image(i: int) -> list[AssignResult]:
            return _assign_one_image(
                metric,
                table.gt_boxes[i],
                anchors.for_size(table.sizes[i]),
                norm,
                cfg.thresholds,
                cfg.per_level,
            )

        # A lazy stream: assignment_stats folds each image's results into
        # the report as they arrive, so they are never all held at once.
        report = assignment_stats(
            _map_in_order(one_image, range(len(table)), cfg.jobs),
            table.gt_areas,
            cfg.thresholds,
            metric,
            cfg.bucket_edges,
        )
        reports.append(report)
        for bucket in report.buckets:
            mean = "-" if bucket.mean_positives_per_gt is None else f"{bucket.mean_positives_per_gt:.4f}"
            print(
                f"{metric} {bucket.name}: gts={bucket.gt_count} "
                f"mean_positives={mean} without_positive={bucket.gts_without_positive}"
            )
        print(
            f"{metric} totals: positive={report.total_positive} "
            f"negative={report.total_negative} ignore={report.total_ignore} "
            f"anchors={report.total_anchors}"
        )

    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(reports_to_json(reports), encoding="utf-8")
        (out_dir / "report.csv").write_text(reports_to_csv(reports), encoding="utf-8")
        logger.info("wrote report.json and report.csv to %s", out_dir)
    return EXIT_OK


def cmd_contrast_demo(cfg: ContrastDemoConfig) -> int:
    """Build a toy batch, print the losses, and gradient-check them."""
    base_size = 4 << (cfg.levels - 1)
    pyramid_cfg = ToyPyramidConfig(
        levels=cfg.levels,
        batch=cfg.batch,
        base_size=base_size,
        lateral_channels=tuple(8 + 4 * i for i in range(cfg.levels)),
        fused_channels=8,
        seed=cfg.seed,
    )
    batch = build_embedding_batch(pyramid_cfg, cfg.dim)
    contrast_cfg = ContrastConfig(
        tau=cfg.tau,
        include_same_image_other_levels=cfg.include_same_image,
        l2_normalize=cfg.l2_normalize,
    )
    l_spatial = spatial_loss(batch, contrast_cfg)
    l_semantic = semantic_loss(batch, contrast_cfg)
    components = LossComponents(
        spatial_loss=l_spatial,
        semantic_loss=l_semantic,
        detector_loss=cfg.detector_loss,
        alpha=cfg.alpha,
    )
    print(f"spatial_loss={l_spatial!r}")
    print(f"semantic_loss={l_semantic!r}")
    print(
        f"total_loss={total_loss(components)!r} "
        f"(alpha={cfg.alpha:g}, detector_loss={cfg.detector_loss:g})"
    )
    check = gradient_check(batch, contrast_cfg, step=cfg.fd_step)
    ok = check.passed(GRADIENT_TOLERANCE)
    print(
        f"gradient check: max relative error {check.max_rel_error:.3e} "
        f"over {check.num_coordinates} coordinates "
        f"(tolerance {GRADIENT_TOLERANCE:g}) [{'PASS' if ok else 'FAIL'}]"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(cfg: BenchConfig) -> int:
    """Time scoring plus assignment on a synthetic workload, both ways.

    Each repeat times ps_matrix + assign (the dense matrix path) and
    assign_with_metric (the streamed path the assign command runs);
    pairs_per_s is for the streamed path. Outputs must be identical
    across repeats, and the two paths must agree bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)

    def random_boxes(count: int, low: float, high: float) -> np.ndarray:
        boxes = np.empty((count, 4))
        boxes[:, 0] = rng.uniform(0.0, 1024.0, count)
        boxes[:, 1] = rng.uniform(0.0, 1024.0, count)
        boxes[:, 2] = rng.uniform(low, high, count)
        boxes[:, 3] = rng.uniform(low, high, count)
        return boxes

    anchors = random_boxes(cfg.anchors_n, 8.0, 96.0)
    gts = random_boxes(cfg.gts_n, 4.0, 64.0)
    if cfg.gts_n:
        norm = finalize(accumulate(NormalizerAccumulator(), gts, anchors))
    else:
        norm = DatasetNormalizers(1.0, 1.0)
    thr = AssignThresholds()
    pairs = cfg.anchors_n * cfg.gts_n

    def digest(result: AssignResult) -> tuple[bytes, bytes, bytes]:
        return result.labels.tobytes(), result.gt_index.tobytes(), result.best_score.tobytes()

    print(
        f"{'run':>3}  {'ps_matrix_s':>11}  {'assign_s':>9}  {'total_s':>9}  "
        f"{'streamed_s':>10}  {'pairs_per_s':>12}"
    )
    digests = []
    for run in range(cfg.repeats):
        t0 = time.perf_counter()
        score = ps_matrix(gts, anchors, norm)
        t1 = time.perf_counter()
        dense = assign(score, thr)
        t2 = time.perf_counter()
        del score
        t3 = time.perf_counter()
        streamed = assign_with_metric(gts, anchors, norm, thr, Metric.PS)
        t4 = time.perf_counter()
        rate = pairs / (t4 - t3) if t4 > t3 else float("inf")
        print(
            f"{run:>3}  {t1 - t0:>11.4f}  {t2 - t1:>9.4f}  {t2 - t0:>9.4f}  "
            f"{t4 - t3:>10.4f}  {rate:>12.3e}"
        )
        digests.append((digest(dense), digest(streamed)))
    if any(d != digests[0] for d in digests[1:]):
        print("assignment outputs differed between repeats", file=sys.stderr)
        return EXIT_VERIFY
    print(f"outputs identical across {cfg.repeats} run(s)")
    if digests[0][0] != digests[0][1]:
        print("streamed and matrix assignments differ", file=sys.stderr)
        return EXIT_VERIFY
    print("streamed and matrix assignments agree bit for bit")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; route to 1 instead."""

    def error(self, message):
        raise CliUsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="smalldet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON file supplying default flag values")

    p_stats = sub.add_parser("stats", help="compute and cache dataset normalizers")
    add_common(p_stats)
    p_stats.add_argument("--ann", help="COCO-style annotation file")
    p_stats.add_argument("--anchors", help="anchor layout: JSON file path or inline JSON object")
    p_stats.add_argument("--out", help="normalizer cache file to write")
    p_stats.add_argument("--jobs", type=int, help="worker threads (default 1)")

    p_assign = sub.add_parser("assign", help="run metric assignments and write reports")
    add_common(p_assign)
    p_assign.add_argument("--ann", help="COCO-style annotation file")
    p_assign.add_argument("--anchors", help="anchor layout: JSON file path or inline JSON object")
    p_assign.add_argument("--metrics", help="comma-separated metrics: ps,iou")
    p_assign.add_argument("--thr", help="thresholds pos,neg,min_pos (default 0.7,0.3,0.3)")
    p_assign.add_argument("--buckets", help="comma-separated area bucket edges (default 1024,9216)")
    p_assign.add_argument("--out", help="directory for report.json and report.csv")
    p_assign.add_argument("--cache", help="normalizer cache file to reuse or write")
    p_assign.add_argument("--jobs", type=int, help="worker threads (default 1)")
    p_assign.add_argument(
        "--per-level",
        action="store_true",
        default=None,
        help="assign each pyramid level separately instead of pooling anchors",
    )

    p_demo = sub.add_parser("contrast-demo", help="toy-pyramid losses plus gradient check")
    add_common(p_demo)
    p_demo.add_argument("--levels", type=int, help="pyramid levels (default 4)")
    p_demo.add_argument("--batch", type=int, help="images per batch (default 3)")
    p_demo.add_argument("--dim", type=int, help="embedding dimension (default 16)")
    p_demo.add_argument("--tau", type=float, help="softmax temperature (default 0.07)")
    p_demo.add_argument("--alpha", type=float, help="contrast loss weight (default 0.1)")
    p_demo.add_argument(
        "--detector-loss", type=float, help="externally supplied detection loss (default 0)"
    )
    p_demo.add_argument("--seed", type=int, help="generator seed (default 0)")
    p_demo.add_argument("--fd-step", type=float, help="finite-difference step (default 1e-4)")
    p_demo.add_argument(
        "--include-same-image",
        action="store_true",
        default=None,
        help="add same-image other-level embeddings to the spatial negatives",
    )
    p_demo.add_argument(
        "--l2-normalize",
        action="store_true",
        default=None,
        help="unit-normalize embeddings before the losses",
    )

    p_bench = sub.add_parser("bench", help="time scoring and assignment kernels")
    add_common(p_bench)
    p_bench.add_argument("--anchors-n", type=int, help="synthetic anchor count (default 100000)")
    p_bench.add_argument("--gts-n", type=int, help="synthetic ground-truth count (default 100)")
    p_bench.add_argument("--repeats", type=int, help="timed repetitions (default 3)")
    p_bench.add_argument("--seed", type=int, help="workload seed (default 0)")

    return parser


_COMMAND_KEYS = {
    "stats": ("ann", "anchors", "out", "jobs"),
    "assign": ("ann", "anchors", "metrics", "thr", "buckets", "out", "cache", "jobs", "per_level"),
    "contrast-demo": (
        "levels",
        "batch",
        "dim",
        "tau",
        "alpha",
        "detector_loss",
        "seed",
        "fd_step",
        "include_same_image",
        "l2_normalize",
    ),
    "bench": ("anchors_n", "gts_n", "repeats", "seed"),
}


def _load_config_file(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliUsageError(f"config file {path} must hold a JSON object")
    known = _COMMAND_KEYS[command]
    values = {}
    for raw_key, value in doc.items():
        key = raw_key.replace("-", "_")
        if key not in known:
            raise CliUsageError(
                f"config file {path} has unknown key {raw_key!r} for command {command!r}"
            )
        values[key] = value
    return values


def _merged_options(args: argparse.Namespace) -> dict:
    """Config-file values overlaid with explicitly given CLI flags."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config, args.command))
    for key in _COMMAND_KEYS[args.command]:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _require_option(merged: dict, key: str):
    value = merged.get(key)
    if value is None:
        raise CliUsageError(f"--{key.replace('_', '-')} is required (flag or config file)")
    return value


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"{key} must be an integer, got {value!r}") from exc


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"{key} must be a number, got {value!r}") from exc


def _as_bool(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
        return value.lower() in ("true", "1")
    raise CliUsageError(f"{key} must be a boolean, got {value!r}")


def _as_float_list(value, key: str) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise CliUsageError(f"{key} must be a comma-separated list, got {value!r}")
    return tuple(_as_float(p, key) for p in parts)


def _as_str_list(value, key: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(p.strip() for p in value.split(",") if p.strip())
    if isinstance(value, (list, tuple)):
        return tuple(str(p) for p in value)
    raise CliUsageError(f"{key} must be a comma-separated list, got {value!r}")


def _parse_thresholds(value) -> AssignThresholds:
    numbers = _as_float_list(value, "thr")
    if len(numbers) != 3:
        raise CliUsageError(f"thr needs exactly three values pos,neg,min_pos, got {len(numbers)}")
    try:
        return AssignThresholds(pos_thr=numbers[0], neg_thr=numbers[1], min_pos_thr=numbers[2])
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _parse_anchor_layout(value) -> AnchorLayout:
    if isinstance(value, dict):
        return AnchorLayout.from_json_value(value)
    text = str(value).strip()
    if text.startswith("{"):
        source = "inline anchor config"
    else:
        source = f"anchor config file {text}"
        try:
            text = Path(text).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliUsageError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{source} is not valid JSON: {exc}") from exc
    try:
        return AnchorLayout.from_json_value(doc)
    except ValueError as exc:
        raise CliUsageError(f"bad {source}: {exc}") from exc


def _experiment_config(merged: dict, *, out_is_dir: bool) -> ExperimentConfig:
    """Build the stats/assign config; stats uses --out as the cache path."""
    ann = str(_require_option(merged, "ann"))
    layout = (
        _parse_anchor_layout(merged["anchors"]) if merged.get("anchors") is not None else AnchorLayout()
    )
    thresholds = (
        _parse_thresholds(merged["thr"]) if merged.get("thr") is not None else AssignThresholds()
    )
    if merged.get("metrics") is not None:
        metric_names = _as_str_list(merged["metrics"], "metrics")
        try:
            metrics = tuple(Metric(m).value for m in metric_names)
        except ValueError as exc:
            raise CliUsageError(
                f"metrics must be among {[m.value for m in Metric]}, got {list(metric_names)}"
            ) from exc
    else:
        metrics = (Metric.PS.value,)
    edges = (
        _as_float_list(merged["buckets"], "buckets")
        if merged.get("buckets") is not None
        else (1024.0, 9216.0)
    )
    out = merged.get("out")
    cache = merged.get("cache")
    if out_is_dir:
        cache_path = str(cache) if cache is not None else None
        out_dir = str(out) if out is not None else None
    else:
        cache_path = str(out) if out is not None else None
        out_dir = None
    return ExperimentConfig(
        ann=ann,
        layout=layout,
        thresholds=thresholds,
        metrics=metrics,
        bucket_edges=edges,
        cache_path=cache_path,
        jobs=_as_int(merged.get("jobs", 1), "jobs"),
        out_dir=out_dir,
        per_level=_as_bool(merged.get("per_level", False), "per-level"),
    )


def _demo_config(merged: dict) -> ContrastDemoConfig:
    defaults = ContrastDemoConfig()
    return ContrastDemoConfig(
        levels=_as_int(merged.get("levels", defaults.levels), "levels"),
        batch=_as_int(merged.get("batch", defaults.batch), "batch"),
        dim=_as_int(merged.get("dim", defaults.dim), "dim"),
        tau=_as_float(merged.get("tau", defaults.tau), "tau"),
        alpha=_as_float(merged.get("alpha", defaults.alpha), "alpha"),
        detector_loss=_as_float(merged.get("detector_loss", defaults.detector_loss), "detector-loss"),
        seed=_as_int(merged.get("seed", defaults.seed), "seed"),
        fd_step=_as_float(merged.get("fd_step", defaults.fd_step), "fd-step"),
        include_same_image=_as_bool(merged.get("include_same_image", False), "include-same-image"),
        l2_normalize=_as_bool(merged.get("l2_normalize", False), "l2-normalize"),
    )


def _bench_config(merged: dict) -> BenchConfig:
    defaults = BenchConfig()
    return BenchConfig(
        anchors_n=_as_int(merged.get("anchors_n", defaults.anchors_n), "anchors-n"),
        gts_n=_as_int(merged.get("gts_n", defaults.gts_n), "gts-n"),
        repeats=_as_int(merged.get("repeats", defaults.repeats), "repeats"),
        seed=_as_int(merged.get("seed", defaults.seed), "seed"),
    )


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise CliUsageError("a subcommand is required")
        merged = _merged_options(args)
        if args.command == "stats":
            return cmd_stats(_experiment_config(merged, out_is_dir=False))
        if args.command == "assign":
            return cmd_assign(_experiment_config(merged, out_is_dir=True))
        if args.command == "contrast-demo":
            return cmd_contrast_demo(_demo_config(merged))
        return cmd_bench(_bench_config(merged))
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, EmptyDatasetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())
