"""Command-line experiment harness.

Three subcommands cover the library's workflows: `stats` computes and
caches dataset normalizers, `assign` runs metric assignments over a COCO
annotation file and writes bucketed reports, and `contrast-demo`
exercises the contrastive losses on the toy pyramid with a gradient check.

Each option is declared once, in _OPTIONS, with its flag, parser, config
field, commands and help; defaults live on the config dataclasses. Every
flag can also come from a JSON config file (--config) through the same
parser; command-line values win over file values. A parser only decodes
a value, and only the type it sets checks it: the config, the anchor
layout's AnchorGridSpec or AssignThresholds, whose message names the key
and prints a rejected value in at most 40 characters. Exit codes: 0
success, 1 usage or config error or an output file that cannot be
written, 2 data error, 3 verification failure.

Importing this module loads only the standard library and numpy. The
library names the commands call come from the package's export table:
each command binds the modules it runs when it starts, so calling a
cmd_* function directly works as main does. contrast-demo loads only
contrast and pyramid, and stats and assign only assigner, dataset,
geometry and similarity. The config classes and option parsers import
what they use where they use it, so they work before any command has
bound anything; so does logging, which the demo does not need. Every
JSON input is read by the package's one reader, which loads json only
when a document is read, so a demo run without --config loads none.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _DEFINED_IN, _EXPORTS, _count, _flag, _read_json, _real, _shown, _shown_path


def _bind(*modules: str) -> None:
    """Import library modules and bind each of their package exports that is unset here.

    Each command binds the modules it runs when it starts, and a name read
    from outside binds its module first (__getattr__). Binding never
    replaces a name already set, so a wrapper set on this module from
    outside (monkeypatch, perfbench/child.py) is what the command calls.
    """
    bound = globals()
    for module in modules:
        qualified = f"{__package__}.{module}"
        __import__(qualified)  # an import statement's path, which -X importtime reports
        loaded = sys.modules[qualified]
        for name in _EXPORTS[module]:
            if name not in bound:
                bound[name] = getattr(loaded, name)


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {_shown(__name__)} has no attribute {_shown(name)}")
    _bind(module)
    return globals()[name]


__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DATA",
    "EXIT_VERIFY",
    "CliUsageError",
    "AnchorLayout",
    "ExperimentConfig",
    "ContrastDemoConfig",
    "cmd_stats",
    "cmd_assign",
    "cmd_contrast_demo",
    "build_parser",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

GRADIENT_TOLERANCE = 1e-5
# Feature values contrast-demo may synthesize, 128 MiB of float64: in its
# lateral maps (37,824 at the default shape), and in the perturbed copies
# of the embeddings its gradient check scores (1,179,648 at the default).
_MAX_DEMO_FEATURE_VALUES = 1 << 24


class CliUsageError(Exception):
    """Bad flags or configuration, or an unwritable output; maps to exit code 1."""


def _log():
    """This module's logger; logging.basicConfig sets logging up if nothing has.

    Only stats and assign log, so the demo never imports logging. They
    call this before the annotation file is read, whose loader logs too.
    """
    import logging

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    return logging.getLogger(__name__)


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
        # Bind to a dummy image so layout mistakes surface at construction,
        # and keep the fields as the spec checked and converted them.
        try:
            spec = self.spec_for(1.0, 1.0)
        except ValueError as exc:
            raise CliUsageError(f"bad anchor config: {exc}") from exc
        for name in ("levels", "ratios", "scales", "clip"):
            object.__setattr__(self, name, getattr(spec, name))

    def spec_for(self, image_w: float, image_h: float) -> AnchorGridSpec:
        from .geometry import AnchorGridSpec

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
        from .dataset import fingerprint

        parts = ["L"]
        for stride, base in self.levels:
            parts.append(f"{stride!r},{base!r}")
        parts.append("R" + ",".join(repr(r) for r in self.ratios))
        parts.append("S" + ",".join(repr(s) for s in self.scales))
        parts.append(f"C{int(self.clip)}")
        return fingerprint(["|".join(parts)])

    @staticmethod
    def from_json_value(value) -> "AnchorLayout":
        """Build a layout from a parsed JSON object. Only its shape is checked
        here; AnchorGridSpec checks the entries, decoded as option values are."""
        if not isinstance(value, dict):
            raise CliUsageError(f"anchor config must be a JSON object, got {type(value).__name__}")
        known = {f.name for f in fields(AnchorLayout)}
        kwargs = {}
        for key, entries in value.items():
            if key not in known:
                raise CliUsageError(f"unknown anchor config key {_shown(key)}")
            if key == "clip":
                kwargs[key] = _as_bool(entries)
                continue
            if not isinstance(entries, (list, tuple)):
                raise CliUsageError(f"bad anchor config: {key} must be a list, got {_shown(entries)}")
            if key == "levels":
                # The numbers of each list entry are decoded; AnchorGridSpec
                # checks that every entry is a [stride, base_size] pair.
                kwargs[key] = tuple(tuple(map(_as_float, level)) if isinstance(level, (list, tuple)) else level
                                    for level in entries)
            else:
                kwargs[key] = tuple(map(_as_float, entries))
        return AnchorLayout(**kwargs)


def _default_thresholds() -> AssignThresholds:
    from .assigner import AssignThresholds

    return AssignThresholds()


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of the stats and assign commands.

    Attributes:
        ann: Annotation file path; the only field without a default.
        layout: Anchor grid layout applied to every image.
        thresholds: Assigner thresholds.
        metrics: Metric names to run ("ps", "iou"); at least one, none twice.
        bucket_edges: Area edges of the report buckets.
        cache_path: Normalizer cache file (written on miss, reused on hit).
        jobs: Worker threads for per-image work; 1 disables the pool.
        out_dir: Report output directory, or None to skip writing files.
        per_level: Assign each pyramid level separately instead of
            pooling all anchors into one candidate set.
    """

    ann: str
    layout: AnchorLayout = field(default_factory=AnchorLayout)
    thresholds: AssignThresholds = field(default_factory=_default_thresholds)
    metrics: tuple[str, ...] = ("ps",)
    bucket_edges: tuple[float, ...] = (1024.0, 9216.0)
    cache_path: str | None = None
    jobs: int = 1
    out_dir: str | None = None
    per_level: bool = False

    def __post_init__(self) -> None:
        from .assigner import Metric, check_bucket_edges

        try:
            object.__setattr__(self, "bucket_edges", check_bucket_edges(self.bucket_edges))
            object.__setattr__(self, "jobs", _count(self.jobs, "jobs"))
            object.__setattr__(self, "per_level", _flag(self.per_level, "per-level"))
        except ValueError as exc:
            raise CliUsageError(str(exc)) from exc
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.metrics:
            raise CliUsageError("at least one metric is required")
        known = [m.value for m in Metric]
        for metric in self.metrics:
            if metric not in known:
                raise CliUsageError(f"metrics must be among {known}, got {_shown(metric)}")
            if self.metrics.count(metric) > 1:
                raise CliUsageError(f"metric {_shown(metric)} is given more than once")
        if self.jobs < 1:
            raise CliUsageError(f"jobs must be at least 1, got {_shown(self.jobs)}")


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
        checks = {"int": _count, "float": _real, "bool": _flag}
        try:
            for f in fields(self):  # each checked by its annotation and named as its flag
                object.__setattr__(self, f.name, checks[f.type](getattr(self, f.name), f.name.replace("_", "-")))
        except ValueError as exc:
            raise CliUsageError(str(exc)) from exc
        if self.levels < 2:
            raise CliUsageError(f"levels must be at least 2, got {_shown(self.levels)}")
        if self.batch < 1 or self.dim < 1:
            raise CliUsageError("batch and dim must be at least 1")
        if self.tau <= 0:
            raise CliUsageError(f"tau must be positive, got {self.tau}")
        for name, value in (("alpha", self.alpha), ("detector-loss", self.detector_loss)):
            if value < 0:
                raise CliUsageError(f"{name} must be non-negative, got {value}")
        if self.fd_step <= 0:
            raise CliUsageError(f"fd-step must be positive, got {self.fd_step}")
        # The lateral maps cmd_contrast_demo builds: level i has 8 + 4i
        # channels and side 4 << (levels - 1 - i). Summing from the coarsest
        # level, sides double each step, so the loop passes the cap within a
        # few levels however large levels is.
        values = 0
        for level in reversed(range(self.levels)):
            side = 4 << (self.levels - 1 - level)
            values += self.batch * (8 + 4 * level) * side * side
            if values > _MAX_DEMO_FEATURE_VALUES:
                raise CliUsageError(
                    f"levels {_shown(self.levels)} with batch {_shown(self.batch)} makes a toy "
                    f"pyramid of more than {_MAX_DEMO_FEATURE_VALUES} feature values"
                )
        # The gradient check scores each of the 4 * L * N * D embedding
        # coordinates in two perturbed copies of all of them, so its work
        # grows with the square of the batch.
        coordinates = 4 * self.levels * self.batch * self.dim
        if 2 * coordinates * coordinates > _MAX_DEMO_FEATURE_VALUES:
            raise CliUsageError(
                f"levels {_shown(self.levels)}, batch {_shown(self.batch)} and dim {_shown(self.dim)} "
                f"make a gradient check over more than {_MAX_DEMO_FEATURE_VALUES} perturbed embedding values"
            )


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


def _image_gts(index: DatasetIndex) -> list[np.ndarray]:
    """Per-image views of the non-crowd gt boxes."""
    keep = ~index.iscrowd
    crowd = index.num_gts - int(np.count_nonzero(keep))
    if crowd:
        _log().info("excluded %d crowd annotation(s) from assignment", crowd)
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return np.split(index.boxes[keep], kept_before[index.gt_start[1:-1]])


class _AnchorCache:
    """The anchor set of each image, memoized per distinct image size.

    An AnchorSet is validated once, when it is made, and is read-only, so
    every image and metric of that size reuses it without re-checking it.

    Raises:
        DatasetError: On construction, before any anchor is made, naming
            the file and the first image record whose anchor count (from
            the layout and its size alone) would pass geometry.MAX_ANCHORS.
    """

    def __init__(self, path: str, layout: AnchorLayout, index: DatasetIndex):
        from . import geometry

        self._layout = layout
        self._sizes = [(w, h) for w, h in index.sizes.tolist()]
        self._cache: dict[tuple[float, float], AnchorSet] = {}
        counts: dict[tuple[float, float], int] = {}
        for pos, (image_id, (w, h)) in enumerate(zip(index.image_ids.tolist(), self._sizes)):
            count = counts.get((w, h))
            if count is None:
                count = counts[w, h] = layout.spec_for(w, h).num_anchors()
            if count > geometry.MAX_ANCHORS:
                raise DatasetError(
                    f"{path} images[{pos}] (id {image_id}, {w:g}x{h:g}) would need {count} "
                    f"anchors, more than the {geometry.MAX_ANCHORS} allowed per image"
                )

    def for_image(self, i: int) -> AnchorSet:
        size = self._sizes[i]
        found = self._cache.get(size)
        if found is None:
            found = generate_anchors(self._layout.spec_for(size[0], size[1]))
            self._cache[size] = found
        return found


def _accumulate_normalizers(
    gt_boxes: list[np.ndarray], anchors: _AnchorCache, jobs: int
) -> NormalizerAccumulator:
    def one_image(i: int) -> NormalizerAccumulator:
        return accumulate(NormalizerAccumulator(), gt_boxes[i], anchors.for_image(i))

    acc = NormalizerAccumulator()
    for part in _map_in_order(one_image, range(len(gt_boxes)), jobs):
        acc = acc.merge(part)
    return acc


def _check_writable(path, what: str, directory: bool = False) -> None:
    """Fail with the write error for `path` now, before any work is spent on it.

    `what` opens the message, as in the late write error. A file target
    must not be a directory and needs an existing parent directory; a
    directory target may be missing, since it is made with its parents,
    but nothing on its way may be a file.
    """
    target = Path(path)
    if target.exists():
        if target.is_dir() == directory:
            return
        reason = "it is a directory" if target.is_dir() else "it is not a directory"
    else:
        parent = target.parent
        while directory and not parent.exists():
            parent = parent.parent
        if parent.is_dir():
            return
        reason = f"{parent} is not a directory" if parent.exists() else f"directory {parent} does not exist"
    raise CliUsageError(f"{what}: {reason}")


def _resolve_normalizers(
    cfg: ExperimentConfig, index: DatasetIndex, gt_boxes: list[np.ndarray], anchors: _AnchorCache
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
            _log().warning("ignoring unreadable normalizer cache: %s", exc)
        else:
            if cache.dataset_hash == ds_hash and cache.anchor_spec_hash == layout_hash:
                _log().info("normalizer cache hit at %s, skipping recompute", path)
                return cache.normalizers, cache.pair_count, True
            _log().info("normalizer cache at %s is stale (hash mismatch), recomputing", path)
    acc = _accumulate_normalizers(gt_boxes, anchors, cfg.jobs)
    norm = finalize(acc)
    if path:
        cache = NormalizerCache(
            m=norm.m,
            n=norm.n,
            pair_count=acc.pair_count,
            dataset_hash=ds_hash,
            anchor_spec_hash=layout_hash,
        )
        try:
            save_normalizer_cache(path, cache)
        except OSError as exc:
            raise CliUsageError(f"cannot write normalizer cache {path}: {exc}") from exc
        _log().info("wrote normalizer cache to %s", path)
    return norm, acc.pair_count, False


def cmd_stats(cfg: ExperimentConfig) -> int:
    """Compute dataset normalizers and write the cache file."""
    _bind("dataset", "geometry", "similarity")
    _log()
    if cfg.cache_path:
        _check_writable(cfg.cache_path, f"cannot write normalizer cache {cfg.cache_path}")
    index = load_coco(cfg.ann)
    anchors = _AnchorCache(cfg.ann, cfg.layout, index)
    gt_boxes = _image_gts(index)
    norm, pair_count, cached = _resolve_normalizers(cfg, index, gt_boxes, anchors)
    suffix = " (cached)" if cached else ""
    print(f"m={norm.m!r} n={norm.n!r} pair_count={pair_count}{suffix}")
    return EXIT_OK


def _count_one_image(
    metric: str,
    boxes: np.ndarray,
    anchor_set: AnchorSet,
    norm: DatasetNormalizers | None,
    thr: AssignThresholds,
    per_level: bool,
) -> ImageCounts:
    # load_coco validated the boxes, so count_with_metric takes them as they are.
    if not per_level:
        return count_with_metric(boxes, anchor_set, norm, thr, metric)
    parts = (count_with_metric(boxes, part, norm, thr, metric) for part in anchor_set.level_sets)
    return sum(parts, start=next(parts))


def cmd_assign(cfg: ExperimentConfig) -> int:
    """Run per-metric assignments over the dataset and emit reports."""
    _bind("assigner", "dataset", "geometry", "similarity")
    _log()
    if cfg.out_dir is not None:
        _check_writable(cfg.out_dir, f"cannot write reports to {cfg.out_dir}", directory=True)
    if Metric.PS.value in cfg.metrics and cfg.cache_path:
        _check_writable(cfg.cache_path, f"cannot write normalizer cache {cfg.cache_path}")
    index = load_coco(cfg.ann)
    anchors = _AnchorCache(cfg.ann, cfg.layout, index)
    gt_boxes = _image_gts(index)
    norm: DatasetNormalizers | None = None
    if Metric.PS.value in cfg.metrics:
        norm, _, _ = _resolve_normalizers(cfg, index, gt_boxes, anchors)

    reports = []
    for metric in cfg.metrics:
        def one_image(i: int) -> ImageCounts:
            return _count_one_image(
                metric,
                gt_boxes[i],
                anchors.for_image(i),
                norm,
                cfg.thresholds,
                cfg.per_level,
            )

        # A lazy stream of per-image counts, each carrying its gt areas:
        # assignment_stats folds each into the report as it arrives, and no
        # image's per-anchor arrays outlive the tile they were counted in.
        report = assignment_stats(
            _map_in_order(one_image, range(len(gt_boxes)), cfg.jobs),
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(reports_to_json(reports), encoding="utf-8")
            (out_dir / "report.csv").write_text(reports_to_csv(reports), encoding="utf-8")
        except OSError as exc:
            raise CliUsageError(f"cannot write reports to {out_dir}: {exc}") from exc
        _log().info("wrote report.json and report.csv to %s", out_dir)
    return EXIT_OK


def cmd_contrast_demo(cfg: ContrastDemoConfig) -> int:
    """Build a toy batch, print the losses, and gradient-check them."""
    _bind("contrast", "pyramid")
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
    try:
        # The losses raise ValueError, naming the loss, when its logits
        # overflow (a tiny --tau); that ends the demo as a usage error.
        l_spatial = spatial_loss(batch, contrast_cfg)
        l_semantic = semantic_loss(batch, contrast_cfg)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
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
    try:
        # So does the gradient when it overflows although the losses do not.
        check = gradient_check(batch, contrast_cfg, step=cfg.fd_step)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    ok = check.passed(GRADIENT_TOLERANCE)
    print(
        f"gradient check: max relative error {check.max_rel_error:.3e} "
        f"over {check.num_coordinates} coordinates "
        f"(tolerance {GRADIENT_TOLERANCE:g}) [{'PASS' if ok else 'FAIL'}]"
    )
    return EXIT_OK if ok else EXIT_VERIFY


# Option parsers, (value, key) -> value, take a flag's text or a
# config-file JSON value alike. _as_int, _as_float and _as_bool only
# decode: each turns text into the value it spells and passes anything
# else on, and the config type it lands in checks it and names the key.


def _as_path(value, key: str) -> str:
    if not isinstance(value, str):
        raise CliUsageError(f"{key} must be a path, got {_shown(value)}")
    return value


def _as_int(value, key: str | None = None):
    """An integer's text as that int, and an integral float as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    return value


def _as_float(value, key: str | None = None):
    """A number's text as that float."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _as_bool(value, key: str | None = None):
    """true/false/1/0 text, in any case, as that bool."""
    if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
        return value.lower() in ("true", "1")
    return value


def _as_list(value, key: str) -> list:
    if isinstance(value, str):
        return [p.strip() for p in value.split(",") if p.strip()]
    if isinstance(value, (list, tuple)):
        return list(value)
    raise CliUsageError(f"{key} must be a comma-separated list, got {_shown(value)}")


def _as_float_list(value, key: str) -> tuple:
    return tuple(map(_as_float, _as_list(value, key)))


def _as_thresholds(value, key: str) -> AssignThresholds:
    from .assigner import AssignThresholds

    numbers = _as_float_list(value, key)
    if len(numbers) != 3:
        raise CliUsageError(f"{key} needs exactly three values pos,neg,min_pos, got {len(numbers)}")
    try:
        return AssignThresholds(*numbers)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _as_anchor_layout(value, key: str) -> AnchorLayout:
    if isinstance(value, dict):
        return AnchorLayout.from_json_value(value)
    text = _as_path(value, key).strip()
    if text.startswith(("{", "[")):
        doc = _read_json(None, "inline anchor config", CliUsageError, text=text)
    else:
        doc = _read_json(text, f"anchor config file {_shown_path(text)}", CliUsageError)
    return AnchorLayout.from_json_value(doc)


class _Option(NamedTuple):
    """One option: its flag, parser, the config field it sets, commands, help.

    The config-file key is the flag without its dashes, with "-" read as
    "_". Options parsed by _as_bool are store_true flags.
    """

    flag: str
    parse: Callable
    field: str
    commands: tuple[str, ...]
    help: str

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


_EXPERIMENT = ("stats", "assign")
_DEMO = ("contrast-demo",)

_OPTIONS = (
    _Option("--ann", _as_path, "ann", _EXPERIMENT, "COCO-style annotation file"),
    _Option("--anchors", _as_anchor_layout, "layout", _EXPERIMENT,
            "anchor layout: JSON file path or inline JSON object"),
    _Option("--out", _as_path, "cache_path", ("stats",), "normalizer cache file to write"),
    _Option("--metrics", _as_list, "metrics", ("assign",), "comma-separated metrics: ps,iou"),
    _Option("--thr", _as_thresholds, "thresholds", ("assign",), "thresholds pos,neg,min_pos"),
    _Option("--buckets", _as_float_list, "bucket_edges", ("assign",),
            "comma-separated area bucket edges"),
    _Option("--out", _as_path, "out_dir", ("assign",), "directory for report.json and report.csv"),
    _Option("--cache", _as_path, "cache_path", ("assign",), "normalizer cache file to reuse or write"),
    _Option("--jobs", _as_int, "jobs", _EXPERIMENT, "worker threads"),
    _Option("--per-level", _as_bool, "per_level", ("assign",),
            "assign each pyramid level separately instead of pooling anchors"),
    _Option("--levels", _as_int, "levels", _DEMO, "pyramid levels"),
    _Option("--batch", _as_int, "batch", _DEMO, "images per batch"),
    _Option("--dim", _as_int, "dim", _DEMO, "embedding dimension"),
    _Option("--tau", _as_float, "tau", _DEMO, "softmax temperature"),
    _Option("--alpha", _as_float, "alpha", _DEMO, "contrast loss weight"),
    _Option("--detector-loss", _as_float, "detector_loss", _DEMO, "externally supplied detection loss"),
    _Option("--seed", _as_int, "seed", _DEMO, "generator seed"),
    _Option("--fd-step", _as_float, "fd_step", _DEMO, "finite-difference step"),
    _Option("--include-same-image", _as_bool, "include_same_image", _DEMO,
            "add same-image other-level embeddings to the spatial negatives"),
    _Option("--l2-normalize", _as_bool, "l2_normalize", _DEMO,
            "unit-normalize embeddings before the losses"),
)


class _Command(NamedTuple):
    run: Callable
    config: type
    help: str


_COMMANDS = {
    "stats": _Command(cmd_stats, ExperimentConfig, "compute and cache dataset normalizers"),
    "assign": _Command(cmd_assign, ExperimentConfig, "run metric assignments and write reports"),
    "contrast-demo": _Command(cmd_contrast_demo, ContrastDemoConfig, "toy-pyramid losses plus gradient check"),
}


def _options(command: str) -> list[_Option]:
    return [option for option in _OPTIONS if command in option.commands]


def _default(f):
    """A config field's default, from its factory if it has one; MISSING if required."""
    return f.default if f.default_factory is MISSING else f.default_factory()


def _default_text(value) -> str:
    """A default written the way its option takes it."""
    if isinstance(value, AnchorLayout):
        import json

        return json.dumps(asdict(value))
    if is_dataclass(value):  # AssignThresholds
        value = astuple(value)
    if isinstance(value, tuple):
        return ",".join(_default_text(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; route to 1 instead."""

    def error(self, message):
        raise CliUsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given a command, only its subparser
    gets options, so only its config's defaults are made for the help."""
    parser = _Parser(prog="smalldet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="JSON file supplying default flag values")
        defaults = {f.name: _default(f) for f in fields(spec.config)}
        for option in _options(name):
            default = defaults[option.field]
            if default is MISSING:
                text = f"{option.help} (required)"
            elif default is None or option.parse is _as_bool:
                text = option.help
            else:
                text = f"{option.help} (default {_default_text(default)})"
            # default=None tells a flag that was not given from one that was.
            if option.parse is _as_bool:
                p.add_argument(option.flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(option.flag, help=text)
    return parser


def _load_config_file(path: str, command: str) -> dict:
    what = f"config file {_shown_path(path)}"
    doc = _read_json(path, what, CliUsageError)
    known = {option.key for option in _options(command)}
    for raw_key in doc:
        if raw_key.replace("-", "_") not in known:
            raise CliUsageError(f"{what} has unknown key {_shown(raw_key)} for command {_shown(command)}")
    return {raw_key.replace("-", "_"): value for raw_key, value in doc.items()}


def _config(args: argparse.Namespace):
    """The command's config: file values overlaid with the flags given.

    A key set to null in the file counts as not given.
    """
    command = _COMMANDS[args.command]
    given = _load_config_file(args.config, args.command) if args.config else {}
    required = {f.name for f in fields(command.config) if f.default is MISSING and f.default_factory is MISSING}
    kwargs = {}
    for option in _options(args.command):
        value = getattr(args, option.key)
        if value is None:
            value = given.get(option.key)
        if value is not None:
            kwargs[option.field] = option.parse(value, option.key)
        elif option.field in required:
            raise CliUsageError(f"{option.flag} is required (flag or config file)")
    return command.config(**kwargs)


def _data_errors() -> tuple[type, ...]:
    """The data-error classes bound so far. contrast-demo binds neither,
    and its modules cannot raise them."""
    bound = globals()
    return tuple(bound[name] for name in ("DatasetError", "EmptyDatasetError") if name in bound)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise CliUsageError("a subcommand is required")
        return _COMMANDS[args.command].run(_config(args))
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _data_errors() as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
