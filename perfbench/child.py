"""Child-process side of the benchmark: one traced CLI run, or training steps.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names a JSON file with the keys
  mode:   "cli" runs `smalldet.cli.main(argv)`; "train" builds a toy
          embedding batch and runs loss + gradient training steps.
  out:    file this process writes its result to, at the end.
  trace:  install span-recording wrappers around the public functions of
          `smalldet`, from outside, before anything runs.
  memory: turn tracemalloc on around the two scoring calls. Its cost
          inflates every span of the run, so run.py takes only the
          peaks from such a run and the times from runs without it.
and, per mode, `argv` (cli) or `levels`, `batch`, `dim`, `seed`, `lr`
and `steps` (train). The parent process in run.py reads the result file; spans stay
in memory until then.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    """Spans of calls into wrapped functions, plus counters.

    A span is [name, start, end, parent], where parent is the index of
    the span that was open when the call began, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # (span name, traced peak bytes, result bytes) per memory-traced call.
        self.peaks: list[tuple[str, int, int]] = []
        self._open: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, memory=False):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(index)
        if memory:
            tracemalloc.start()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if memory:
            self.peaks.append((name, peak, int(result.nbytes)))
        return result

    def wrap(self, module, attr: str, name: str, after=None, memory=False) -> None:
        """Replace module.attr with a wrapper that records a span per call.

        after(counts, args, result) may add counters once the call returns.
        """
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = self.call(name, inner, args, kwargs, memory)
            if after is not None:
                after(self.counts, args, result)
            return result

        wrapper.__wrapped__ = inner
        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Replace module.attr with a wrapper that only counts its calls.

        For functions called tens of thousands of times per run, where a
        span each would cost more than the call.
        """
        inner = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = inner
        setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks": self.peaks}


def _count_records(counts, args, index) -> None:
    counts["dataset.records"] += index.num_images + index.num_gts


def _count_rows(counts, args, array) -> None:
    counts["geometry.boxes_to_array_rows"] += array.shape[0]


def _count_pairs(key):
    def count(counts, args, score) -> None:
        counts[key] += score.size

    return count


def _count_accumulated(counts, args, acc) -> None:
    counts["similarity.accumulate_pairs"] += acc.pair_count - args[0].pair_count


def _result_bytes(result) -> int:
    return result.labels.nbytes + result.gt_index.nbytes + result.best_score.nbytes


def _count_retained(counts, args, report) -> None:
    total = 0
    for image_results in args[0]:
        if hasattr(image_results, "labels"):
            image_results = (image_results,)
        total += sum(_result_bytes(r) for r in image_results)
    counts["assigner.retained_bytes"] = max(counts["assigner.retained_bytes"], total)


def install(tracer: Tracer, memory: bool) -> None:
    """Wrap each public function in the namespace where it is looked up.

    `cli` calls the names it imported, `assigner` calls the scoring
    functions, `similarity` and `geometry` call boxes_to_array, and
    `contrast` calls its own losses from gradient_check. Span names give
    the module that defines the function. The InfoNCE terms are only
    counted: a loss calls them once per query.
    """
    from smalldet import assigner, cli, contrast, geometry, pyramid, similarity

    wrap = tracer.wrap
    wrap(cli, "load_coco", "dataset.load_coco", after=_count_records)
    wrap(cli, "dataset_hash", "dataset.dataset_hash")
    wrap(cli, "accumulate", "similarity.accumulate", after=_count_accumulated)
    wrap(cli, "generate_anchors", "geometry.generate_anchors")
    wrap(cli, "assign_with_metric", "assigner.assign_with_metric")
    wrap(cli, "assignment_stats", "assigner.assignment_stats", after=_count_retained)
    wrap(cli, "reports_to_json", "assigner.reports_to_json")
    wrap(cli, "reports_to_csv", "assigner.reports_to_csv")
    wrap(assigner, "ps_matrix", "similarity.ps_matrix",
         after=_count_pairs("similarity.ps_pairs"), memory=memory)
    wrap(assigner, "iou_matrix", "geometry.iou_matrix",
         after=_count_pairs("geometry.iou_pairs"), memory=memory)
    wrap(assigner, "assign", "assigner.assign")
    for module in (similarity, geometry):
        wrap(module, "boxes_to_array", "geometry.boxes_to_array", after=_count_rows)
    for module in (cli, contrast):
        wrap(module, "spatial_loss", "contrast.spatial_loss")
        wrap(module, "semantic_loss", "contrast.semantic_loss")
    wrap(cli, "gradient_check", "contrast.gradient_check")
    wrap(contrast, "contrast_grad", "contrast.contrast_grad")
    tracer.count(contrast, "info_nce", "contrast.info_nce_calls")
    tracer.count(contrast, "info_nce_grad", "contrast.info_nce_grad_calls")
    for module in (cli, pyramid):
        wrap(module, "build_embedding_batch", "pyramid.build_embedding_batch")


def run_cli(spec: dict, tracer: Tracer) -> tuple[int, dict]:
    from smalldet import cli

    code = tracer.call("cli.main", cli.main, (spec["argv"],))
    return code, {}


def run_train(spec: dict, tracer: Tracer) -> tuple[int, dict]:
    """Build the batch, then run `steps` training steps on it.

    A step evaluates spatial_loss + semantic_loss and contrast_grad, then
    applies one plain gradient-descent update, so each step sees new
    embeddings. Only the loss and gradient evaluation is timed.
    """
    import numpy as np
    from smalldet import contrast, pyramid

    levels = spec["levels"]
    cfg = pyramid.ToyPyramidConfig(
        levels=levels,
        batch=spec["batch"],
        base_size=4 << (levels - 1),
        lateral_channels=tuple(8 + 4 * i for i in range(levels)),
        fused_channels=8,
        seed=spec["seed"],
    )
    t0 = time.perf_counter()
    batch = pyramid.build_embedding_batch(cfg, spec["dim"])
    setup_s = time.perf_counter() - t0

    loss_cfg = contrast.ContrastConfig()
    step_s, losses, finite = [], [], True
    for _ in range(spec["steps"]):
        t0 = time.perf_counter()
        spatial = contrast.spatial_loss(batch, loss_cfg)
        semantic = contrast.semantic_loss(batch, loss_cfg)
        grads = contrast.contrast_grad(batch, loss_cfg)
        step_s.append(time.perf_counter() - t0)
        losses.append([spatial, semantic])
        arrays = batch.spatial_lateral, batch.semantic_lateral, batch.spatial_fused, batch.semantic_fused
        finite = finite and all(np.all(np.isfinite(g)) for g in grads.as_tuple())
        finite = finite and math.isfinite(spatial) and math.isfinite(semantic)
        if not finite:
            break
        batch = contrast.EmbeddingBatch(
            *(a - spec["lr"] * g for a, g in zip(arrays, grads.as_tuple()))
        )
    return 0, {"setup_s": setup_s, "step_s": step_s, "losses": losses, "grads_finite": finite}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    if spec["trace"]:
        install(tracer, spec["memory"])
    run = run_cli if spec["mode"] == "cli" else run_train
    code, result = run(spec, tracer)
    result["trace"] = tracer.dump()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
