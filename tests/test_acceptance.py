"""Acceptance suite: twelve numbered end-to-end checks.

Each test prints one "[PASS] criterion N: ..." / "[FAIL] criterion N: ..."
line (replayed by the conftest terminal-summary hook) and then asserts.
Checks with a stated runtime budget time themselves and fail when over
budget. The direction check (criterion 10) carries regression constants
measured at the first verified run of its documented anchor layout; any
drift in those numbers is a regression, not noise.
"""

import json
import math
import time

import numpy as np

import oracles
from conftest import record_verdict
from smalldet import (
    AnchorGridSpec,
    AssignThresholds,
    Box,
    ContrastConfig,
    DatasetNormalizers,
    Metric,
    NormalizerAccumulator,
    ToyPyramidConfig,
    accumulate,
    assign,
    assignment_stats,
    build_embedding_batch,
    finalize,
    generate_anchors,
    gradient_check,
    info_nce,
    iou_matrix,
    pairwise_similarity,
    ps_matrix,
    semantic_loss,
    spatial_loss,
)
from smalldet.cli import main


def _verdict(num: int, text: str, failures: list) -> None:
    line = f"[{'FAIL' if failures else 'PASS'}] criterion {num:2d}: {text}"
    print(line)
    record_verdict(num, line)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _check(failures: list, ok: bool, detail: str) -> None:
    if not ok:
        failures.append(detail)


def _random_boxes(rng, count):
    """Boxes with centers in [0, 80] and sides in [1, 50].

    The ranges keep every exponent of the similarity within float range,
    so PS stays strictly positive rather than underflowing to zero.
    """
    cx = rng.uniform(0.0, 80.0, size=count)
    cy = rng.uniform(0.0, 80.0, size=count)
    w = rng.uniform(1.0, 50.0, size=count)
    h = rng.uniform(1.0, 50.0, size=count)
    return np.stack([cx, cy, w, h], axis=1)


def test_criterion_01_ps_identity_and_range():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    lo, hi = math.inf, -math.inf
    for _ in range(100):
        norm = DatasetNormalizers(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        values = ps_matrix(_random_boxes(rng, 10), _random_boxes(rng, 100), norm)
        lo = min(lo, float(values.min()))
        hi = max(hi, float(values.max()))
    _check(failures, lo > 0.0, f"PS not strictly positive, min {lo!r}")
    _check(failures, hi <= 1.0, f"PS above one, max {hi!r}")

    worst_identity = 0.0
    for row in _random_boxes(rng, 1000):
        b = Box(*map(float, row))
        norm = DatasetNormalizers(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        worst_identity = max(worst_identity, abs(pairwise_similarity(b, b, norm) - 1.0))
    _check(failures, worst_identity <= 1e-12, f"identity off by {worst_identity!r}")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")
    _verdict(
        1,
        f"PS in ({lo:.3e}, {hi:.6f}] over 1e5 pairs, identity within "
        f"{worst_identity:.1e}, {elapsed:.2f}s",
        failures,
    )


def test_criterion_02_ps_worked_value():
    failures = []
    got = pairwise_similarity(Box(10, 10, 4, 4), Box(12, 10, 4, 4), DatasetNormalizers(1.0, 1.0))
    want = math.exp(-0.25)
    _check(failures, abs(got - want) <= 1e-9, f"got {got!r}, want {want!r}")
    _verdict(2, f"unit-normalizer worked value exp(-0.25), off by {abs(got - want):.1e}", failures)


def test_criterion_03_scale_invariance():
    rng = np.random.default_rng(103)
    failures = []

    worst_pair = 0.0
    for _ in range(1000):
        g = Box(*map(float, _random_boxes(rng, 1)[0]))
        a = Box(*map(float, _random_boxes(rng, 1)[0]))
        norm = DatasetNormalizers(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        k = float(10.0 ** rng.uniform(-3.0, 3.0))
        base = pairwise_similarity(g, a, norm)
        scaled = pairwise_similarity(
            Box(g.cx * k, g.cy * k, g.w * k, g.h * k),
            Box(a.cx * k, a.cy * k, a.w * k, a.h * k),
            norm,
        )
        worst_pair = max(worst_pair, abs(scaled - base) / base)
    _check(failures, worst_pair <= 1e-9, f"pair PS drifted {worst_pair!r} under scaling")

    scenes = [(_random_boxes(rng, int(rng.integers(1, 6))), _random_boxes(rng, int(rng.integers(3, 41))))
              for _ in range(20)]
    acc = NormalizerAccumulator()
    for gts, anchors in scenes:
        acc = accumulate(acc, gts, anchors)
    base_norm = finalize(acc)
    worst_mn = 0.0
    for k in (1e-3, 0.37, 1e3):
        acc_k = NormalizerAccumulator()
        for gts, anchors in scenes:
            acc_k = accumulate(acc_k, gts * k, anchors * k)
        norm_k = finalize(acc_k)
        worst_mn = max(
            worst_mn,
            abs(norm_k.m - base_norm.m) / base_norm.m,
            abs(norm_k.n - base_norm.n) / base_norm.n,
        )
    _check(failures, worst_mn <= 1e-9, f"normalizers drifted {worst_mn!r} under scaling")
    _verdict(
        3,
        f"PS and (m, n) scale-invariant within {max(worst_pair, worst_mn):.1e} relative",
        failures,
    )


def test_criterion_04_normalizer_mini_dataset():
    failures = []
    acc = accumulate(NormalizerAccumulator(), [Box(10, 0, 4, 4)], [Box(10, 0, 4, 4), Box(14, 0, 4, 4)])
    norm = finalize(acc)
    _check(failures, norm.m == 0.25, f"m = {norm.m!r}, want exactly 0.25")
    _check(failures, norm.n == 0.0, f"n = {norm.n!r}, want exactly 0.0")
    _verdict(4, f"mini dataset gives m = {norm.m!r}, n = {norm.n!r} exactly", failures)


_SUITE_SEED = 20260817
_instances_cache = None


def _suite_instances():
    global _instances_cache
    if _instances_cache is None:
        _instances_cache = oracles.assigner_instances(1000, seed=_SUITE_SEED)
    return _instances_cache


def test_criterion_05_assigner_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    thr = AssignThresholds()
    mismatches = 0
    first = None
    for idx, scores in enumerate(_suite_instances()):
        res = assign(scores, thr)
        labels, gt_index, best = oracles.assign_ref(scores)
        same = (
            np.array_equal(res.labels, labels)
            and np.array_equal(res.gt_index, gt_index)
            and np.array_equal(res.best_score, best)
        )
        if not same:
            mismatches += 1
            if first is None:
                first = idx
    _check(failures, mismatches == 0, f"{mismatches} of 1000 instances differ (first at {first})")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s")
    _verdict(
        5,
        f"1000 random instances match the brute-force assigner exactly, {elapsed:.2f}s",
        failures,
    )


def test_criterion_06_coverage_guarantee():
    failures = []
    thr = AssignThresholds()
    uncovered = 0
    for scores in _suite_instances():
        res = assign(scores, thr)
        per_gt = res.positives_per_gt(scores.shape[0])
        for g in range(scores.shape[0]):
            if float(scores[g].max()) >= thr.min_pos_thr and per_gt[g] < 1:
                uncovered += 1
    _check(failures, uncovered == 0, f"{uncovered} ground truths above 0.3 left without a positive")
    _verdict(6, "every gt with column max >= 0.3 holds at least one positive anchor", failures)


def test_criterion_07_info_nce_closed_forms():
    failures = []
    rng = np.random.default_rng(107)

    q = rng.standard_normal(8)
    k = rng.standard_normal(8)
    zero = info_nce(q, k, np.empty((0, 8)), tau=0.07)
    _check(failures, zero == 0.0, f"empty negatives gave {zero!r}, want exactly 0.0")

    e0, e1, e2 = np.eye(3)
    ln2 = info_nce(e0, e1, [e2], tau=1.0)
    _check(failures, abs(ln2 - math.log(2.0)) <= 1e-12, f"symmetric case gave {ln2!r}, want ln 2")

    negatives = rng.standard_normal((6, 8))
    flat = info_nce(rng.standard_normal(8), rng.standard_normal(8), negatives, tau=1e6)
    want = math.log(1 + 6)
    _check(failures, abs(flat - want) <= 1e-3, f"large-tau case gave {flat!r}, want ~{want!r}")
    _verdict(7, "empty-set zero, ln 2, and large-tau log(1+K) forms all hold", failures)


def _toy_config(seed: int) -> ToyPyramidConfig:
    return ToyPyramidConfig(
        levels=4, batch=3, base_size=32, lateral_channels=(8, 12, 16, 20),
        fused_channels=8, seed=seed,
    )


def test_criterion_08_loss_reference_equivalence():
    failures = []
    cfg = ContrastConfig()
    worst = 0.0
    for seed in (0, 1, 2):
        batch = build_embedding_batch(_toy_config(seed), 16)
        ref_spatial = oracles.spatial_loss_ref(batch, cfg.tau, include_same_image=False)
        ref_semantic = oracles.semantic_loss_ref(batch, cfg.tau)
        for got, ref, name in (
            (spatial_loss(batch, cfg), ref_spatial, "spatial"),
            (semantic_loss(batch, cfg), ref_semantic, "semantic"),
        ):
            err = abs(got - ref) / max(1.0, abs(ref))
            worst = max(worst, err)
            _check(failures, err <= 1e-12, f"{name} loss seed {seed}: {got!r} vs ref {ref!r}")
    _verdict(8, f"losses match the double-loop reference within {worst:.1e} (3 seeds)", failures)


def test_criterion_09_gradient_check():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for seed in range(10):
        batch = build_embedding_batch(_toy_config(seed), 16)
        result = gradient_check(batch)
        worst = max(worst, result.max_rel_error)
        _check(
            failures,
            result.max_rel_error <= 1e-5,
            f"seed {seed}: max relative error {result.max_rel_error:.3e}",
        )
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s")
    _verdict(
        9,
        f"gradients within {worst:.1e} of central differences on 10 batches, {elapsed:.1f}s",
        failures,
    )


# Anchor layout of the small-object direction check: the stride-16 grid
# with the two larger canonical scales (box sides 256 and 512 at ratios
# 0.5/1/2). With all gt sides in [4, 16] the dataset normalizers land
# near 0.77, the best anchor of every gt clears the 0.3 rescue floor
# under PS, and no anchor reaches 0.3 under IoU. Adding the smallest
# canonical scale (128-pixel sides) drives m to ~1.17 and the best PS
# to ~0.25, under the floor, which zeroes both metrics and voids the
# comparison; the restriction is what makes the direction observable.
_DIRECTION_SPEC = dict(
    levels=((16.0, 16.0),), image_w=800.0, image_h=800.0,
    ratios=(0.5, 1.0, 2.0), scales=(16.0, 32.0),
)
# Regression constants measured at the first verified run of the layout
# above on the seeded suite (seed 1005, 50 images, 216 ground truths).
_FROZEN_M = 0.7699082621371388
_FROZEN_N = 0.766680721159555
_FROZEN_PS_MEAN = 1.0
_FROZEN_IOU_MEAN = 0.0


def test_criterion_10_small_object_direction():
    failures = []
    scenes = oracles.small_object_scenes(1005)
    gt_arrays = [np.array(boxes, dtype=np.float64) for boxes in scenes]
    areas = [g[:, 2] * g[:, 3] for g in gt_arrays]
    anchors = generate_anchors(AnchorGridSpec(**_DIRECTION_SPEC))
    thr = AssignThresholds()

    acc = NormalizerAccumulator()
    for g in gt_arrays:
        acc = accumulate(acc, g, anchors)
    norm = finalize(acc)
    _check(failures, abs(norm.m - _FROZEN_M) <= 1e-12, f"m drifted to {norm.m!r}")
    _check(failures, abs(norm.n - _FROZEN_N) <= 1e-12, f"n drifted to {norm.n!r}")

    anchor_tuples = [tuple(map(float, row)) for row in anchors.boxes]
    ref_m, ref_n, _ = oracles.normalizers_ref([(scenes[0], anchor_tuples)])
    acc0 = accumulate(NormalizerAccumulator(), gt_arrays[0], anchors)
    _check(
        failures,
        abs(acc0.sum_x / acc0.pair_count - ref_m) <= 1e-12
        and abs(acc0.sum_y / acc0.pair_count - ref_n) <= 1e-12,
        "single-image accumulation disagrees with the pure-python reference",
    )

    results = {"ps": [], "iou": []}
    for g in gt_arrays:
        results["ps"].append(assign(ps_matrix(g, anchors, norm), thr))
        results["iou"].append(assign(iou_matrix(g, anchors.boxes), thr))

    rng = np.random.default_rng(110)
    for image in range(3):
        ps_scores = ps_matrix(gt_arrays[image], anchors, norm)
        iou_scores = iou_matrix(gt_arrays[image], anchors.boxes)
        for name, scores in (("ps", ps_scores), ("iou", iou_scores)):
            labels, gt_index, best = oracles.assign_ref(scores)
            res = results[name][image]
            _check(
                failures,
                np.array_equal(res.labels, labels)
                and np.array_equal(res.gt_index, gt_index)
                and np.array_equal(res.best_score, best),
                f"{name} assignment of image {image} differs from the brute-force oracle",
            )
        for _ in range(20):
            g = int(rng.integers(0, ps_scores.shape[0]))
            a = int(rng.integers(0, ps_scores.shape[1]))
            ps_want = oracles.ps_ref(scenes[image][g], anchor_tuples[a], norm.m, norm.n)
            iou_want = oracles.iou_ref(scenes[image][g], anchor_tuples[a])
            _check(failures, abs(ps_scores[g, a] - ps_want) <= 1e-12, f"PS[{g},{a}] off oracle")
            _check(failures, abs(iou_scores[g, a] - iou_want) <= 1e-12, f"IoU[{g},{a}] off oracle")

    reports = {
        name: assignment_stats((r.counts(a) for r, a in zip(results[name], areas)), thr, Metric(name))
        for name in results
    }
    ps_bucket = reports["ps"].buckets[0]
    iou_bucket = reports["iou"].buckets[0]
    _check(failures, ps_bucket.gt_count == 216, f"suite holds {ps_bucket.gt_count} small gts, want 216")
    ps_mean = ps_bucket.mean_positives_per_gt
    iou_mean = iou_bucket.mean_positives_per_gt
    _check(failures, ps_mean > iou_mean, f"PS mean {ps_mean!r} not above IoU mean {iou_mean!r}")
    _check(failures, ps_mean == _FROZEN_PS_MEAN, f"PS mean drifted to {ps_mean!r}")
    _check(failures, iou_mean == _FROZEN_IOU_MEAN, f"IoU mean drifted to {iou_mean!r}")
    _check(failures, ps_bucket.gts_without_positive == 0,
           f"{ps_bucket.gts_without_positive} small gts uncovered under PS")
    _check(failures, iou_bucket.gts_without_positive == 216,
           f"IoU unexpectedly covered {216 - iou_bucket.gts_without_positive} small gts")
    _verdict(
        10,
        f"smallest-bucket positives per gt: PS {ps_mean!r} > IoU {iou_mean!r} "
        f"(m={norm.m:.4f}, 216 gts)",
        failures,
    )


def test_criterion_11_report_determinism(tmp_path):
    failures = []
    scenes = oracles.small_object_scenes(7, num_images=6)
    ann = tmp_path / "ann.json"
    oracles.write_coco(ann, scenes)
    layout = tmp_path / "anchors.json"
    layout.write_text(
        json.dumps({"levels": [[32.0, 32.0]], "ratios": [0.5, 1.0, 2.0], "scales": [1.0, 2.0]}),
        encoding="utf-8",
    )
    payloads = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        code = main([
            "assign", "--ann", str(ann), "--anchors", str(layout),
            "--out", str(out_dir), "--jobs", "1",
        ])
        _check(failures, code == 0, f"{run} run exited {code}")
        payloads.append((out_dir / "report.json").read_bytes())
    _check(failures, payloads[0] == payloads[1], "reports differ between identical runs")
    _verdict(11, f"two identical runs wrote byte-identical reports ({len(payloads[0])} bytes)", failures)


def test_criterion_12_throughput():
    failures = []
    rng = np.random.default_rng(112)
    anchors = np.stack([
        rng.uniform(0.0, 800.0, size=100_000),
        rng.uniform(0.0, 800.0, size=100_000),
        rng.uniform(4.0, 64.0, size=100_000),
        rng.uniform(4.0, 64.0, size=100_000),
    ], axis=1)
    gts = np.stack([
        rng.uniform(0.0, 800.0, size=100),
        rng.uniform(0.0, 800.0, size=100),
        rng.uniform(4.0, 64.0, size=100),
        rng.uniform(4.0, 64.0, size=100),
    ], axis=1)
    norm = DatasetNormalizers(0.77, 0.77)
    thr = AssignThresholds()
    best = math.inf
    for _ in range(2):  # best of two shields the target from scheduler noise
        t0 = time.perf_counter()
        assign(ps_matrix(gts, anchors, norm), thr)
        best = min(best, time.perf_counter() - t0)
    _check(failures, best < 1.0, f"similarity plus assignment took {best:.3f}s, target 1s")
    _verdict(12, f"1e5 anchors x 1e2 gts scored and assigned in {best:.3f}s", failures)
