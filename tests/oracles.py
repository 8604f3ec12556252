"""Slow, literal reference implementations backing the test suite.

Everything here trades speed for obviousness: scalar python loops, math
module arithmetic, no vectorization beyond input unpacking. Agreement
between these and the library only means something because the two are
written so differently, so resist the urge to optimize this file.

Boxes are plain (cx, cy, w, h) tuples throughout.
"""

import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# geometry


def iou_ref(a, b):
    """Corner-arithmetic IoU of two center-form boxes."""
    ax0, ax1 = a[0] - a[2] / 2.0, a[0] + a[2] / 2.0
    ay0, ay1 = a[1] - a[3] / 2.0, a[1] + a[3] / 2.0
    bx0, bx1 = b[0] - b[2] / 2.0, b[0] + b[2] / 2.0
    by0, by1 = b[1] - b[3] / 2.0, b[1] + b[3] / 2.0
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union


def iou_grid_sample(a, b, cells=400):
    """Approximate IoU by point-sampling a regular grid over both boxes.

    Counts grid points inside the intersection and inside the union over
    the joint bounding rectangle. Accuracy is limited by the grid, so use
    it only as a sanity cross-check with a generous tolerance.
    """
    x0 = min(a[0] - a[2] / 2.0, b[0] - b[2] / 2.0)
    x1 = max(a[0] + a[2] / 2.0, b[0] + b[2] / 2.0)
    y0 = min(a[1] - a[3] / 2.0, b[1] - b[3] / 2.0)
    y1 = max(a[1] + a[3] / 2.0, b[1] + b[3] / 2.0)

    def inside(box, x, y):
        return (
            box[0] - box[2] / 2.0 <= x <= box[0] + box[2] / 2.0
            and box[1] - box[3] / 2.0 <= y <= box[1] + box[3] / 2.0
        )

    inter = 0
    union = 0
    for i in range(cells):
        x = x0 + (x1 - x0) * (i + 0.5) / cells
        for j in range(cells):
            y = y0 + (y1 - y0) * (j + 0.5) / cells
            in_a = inside(a, x, y)
            in_b = inside(b, x, y)
            if in_a and in_b:
                inter += 1
            if in_a or in_b:
                union += 1
    return inter / union


# ---------------------------------------------------------------------------
# pairwise similarity


def position_ref(gt, anchor, m, n):
    tx = m * (gt[0] - anchor[0]) / (gt[2] + anchor[2])
    ty = n * (gt[1] - anchor[1]) / (gt[3] + anchor[3])
    return math.sqrt(tx * tx + ty * ty)


def shape_ref(gt, anchor, m, n):
    tw = m * (gt[2] - anchor[2]) / (gt[2] + anchor[2])
    th = n * (gt[3] - anchor[3]) / (gt[3] + anchor[3])
    return math.sqrt(tw * tw + th * th)


def ps_ref(gt, anchor, m, n):
    return math.exp(-(position_ref(gt, anchor, m, n) + shape_ref(gt, anchor, m, n)))


def normalizers_ref(scenes):
    """Dataset normalizers from a list of (gt boxes, anchor boxes) scenes.

    Returns:
        (m, n, pair_count) where the means run over every gt-anchor pair
        of every scene.
    """
    sum_x = 0.0
    sum_y = 0.0
    pairs = 0
    for gts, anchors in scenes:
        for g in gts:
            for a in anchors:
                sum_x += abs(g[0] - a[0]) / (g[2] + a[2])
                sum_y += abs(g[1] - a[1]) / (g[3] + a[3])
                pairs += 1
    if pairs == 0:
        raise ZeroDivisionError("no pairs")
    return sum_x / pairs, sum_y / pairs, pairs


# ---------------------------------------------------------------------------
# label assignment


def assign_ref(scores, pos_thr=0.7, neg_thr=0.3, min_pos_thr=0.3):
    """Literal transcription of the five assignment steps.

    Args:
        scores: 2-d array-like, one row per gt, one column per anchor.
            A (0, A) numpy array expresses the no-gt case.

    Returns:
        (labels, gt_index, best) python lists; labels use 1/0/-1 for
        positive/negative/ignore and gt_index is -1 off the positives.
    """
    arr = np.asarray(scores, dtype=float)
    num_gts, num_anchors = arr.shape
    rows = [[float(v) for v in arr[g]] for g in range(num_gts)]

    best = []
    best_gt = []
    for a in range(num_anchors):
        top = 0.0
        top_g = -1
        for g in range(num_gts):
            if top_g < 0 or rows[g][a] > top:
                top = rows[g][a]
                top_g = g
        best.append(top if num_gts else 0.0)
        best_gt.append(top_g)

    labels = []
    gt_index = []
    for a in range(num_anchors):
        if best[a] < neg_thr:
            labels.append(0)
            gt_index.append(-1)
        elif best[a] >= pos_thr:
            labels.append(1)
            gt_index.append(best_gt[a])
        else:
            labels.append(-1)
            gt_index.append(-1)

    for g in range(num_gts):
        top_a = 0
        for a in range(1, num_anchors):
            if rows[g][a] > rows[g][top_a]:
                top_a = a
        if rows[g][top_a] >= min_pos_thr:
            labels[top_a] = 1
            gt_index[top_a] = g
    return labels, gt_index, best


def rescue_argmax_columns(scores, min_pos_thr=0.3):
    """Anchors claimed by the rescue step, one per rescuing gt, in gt order."""
    arr = np.asarray(scores, dtype=float)
    claimed = []
    for g in range(arr.shape[0]):
        row = [float(v) for v in arr[g]]
        top_a = 0
        for a in range(1, len(row)):
            if row[a] > row[top_a]:
                top_a = a
        if row[top_a] >= min_pos_thr:
            claimed.append(top_a)
    return claimed


def assigner_instances(count, seed, max_gts=8, max_anchors=64, min_pos_thr=0.3):
    """Seeded random score matrices whose rescue anchors never collide.

    Roughly a quarter of the draws are rounded to one decimal so exact
    ties exercise the lowest-index rule. Candidates where two gts would
    rescue the same anchor are redrawn, because only collision-free
    instances carry the per-gt coverage guarantee the suite checks.
    """
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        num_gts = int(rng.integers(0, max_gts + 1))
        num_anchors = int(rng.integers(1, max_anchors + 1))
        scores = rng.uniform(size=(num_gts, num_anchors))
        if num_gts and rng.uniform() < 0.25:
            scores = np.round(scores, 1)
        claimed = rescue_argmax_columns(scores, min_pos_thr)
        if len(set(claimed)) != len(claimed):
            continue
        instances.append(scores)
    return instances


# ---------------------------------------------------------------------------
# contrastive losses


def dot_ref(u, v):
    total = 0.0
    for a, b in zip(u, v):
        total += float(a) * float(b)
    return total


def info_nce_ref(q, k_pos, negatives, tau):
    """Unstabilized textbook form; only safe for moderate logits."""
    num = math.exp(dot_ref(q, k_pos) / tau)
    den = num
    for s in negatives:
        den += math.exp(dot_ref(q, s) / tau)
    return -math.log(num / den)


def unit_ref(v):
    norm = math.sqrt(dot_ref(v, v))
    return [float(x) / norm for x in v]


def negative_slots_ref(levels, images, x, y, include_same_image):
    """(family, level, image) of each negative of the term at (level x, image y).

    Both embedding families of every other image contribute at every
    level; the flag adds the same image's embeddings at the other levels.
    """
    slots = []
    for i in range(levels):
        for j in range(images):
            if j == y:
                continue
            slots.append(("lateral", i, j))
            slots.append(("fused", i, j))
    if include_same_image:
        for i in range(levels):
            if i == x:
                continue
            slots.append(("lateral", i, y))
            slots.append(("fused", i, y))
    return slots


def _pick(lateral, fused, slots):
    families = {"lateral": lateral, "fused": fused}
    return [families[family][i][j] for family, i, j in slots]


def spatial_negatives_ref(lateral, fused, x, y, include_same_image):
    """Negative set for the spatial term at (level x, image y)."""
    slots = negative_slots_ref(len(lateral), len(lateral[0]), x, y, include_same_image)
    return _pick(lateral, fused, slots)


def semantic_negatives_ref(lateral, fused, x, y):
    return _pick(lateral, fused, negative_slots_ref(len(lateral), len(lateral[0]), x, y, False))


def _as_nested(array):
    return [[list(map(float, vec)) for vec in level] for level in np.asarray(array)]


def spatial_loss_ref(batch, tau, include_same_image, l2_normalize=False):
    lateral = _as_nested(batch.spatial_lateral)
    fused = _as_nested(batch.spatial_fused)
    if l2_normalize:
        lateral = [[unit_ref(v) for v in level] for level in lateral]
        fused = [[unit_ref(v) for v in level] for level in fused]
    levels = len(lateral)
    images = len(lateral[0])
    total = 0.0
    for x in range(levels):
        for y in range(images):
            negs = spatial_negatives_ref(lateral, fused, x, y, include_same_image)
            total += info_nce_ref(fused[x][y], lateral[x][y], negs, tau)
    return total / (levels * images)


def semantic_loss_ref(batch, tau, l2_normalize=False):
    lateral = _as_nested(batch.semantic_lateral)
    fused = _as_nested(batch.semantic_fused)
    if l2_normalize:
        lateral = [[unit_ref(v) for v in level] for level in lateral]
        fused = [[unit_ref(v) for v in level] for level in fused]
    levels = len(lateral)
    images = len(lateral[0])
    total = 0.0
    for x in range(levels - 1):
        for y in range(images):
            negs = semantic_negatives_ref(lateral, fused, x, y)
            total += info_nce_ref(fused[x][y], fused[x + 1][y], negs, tau)
    return total / ((levels - 1) * images)


def info_nce_grad_ref(q, k_pos, negatives, tau):
    """Closed-form (grad_q, grad_k, grad_negatives) of info_nce_ref."""
    weights = [math.exp(dot_ref(q, k_pos) / tau)]
    weights += [math.exp(dot_ref(q, s) / tau) for s in negatives]
    total = sum(weights)
    p = [w / total for w in weights]
    grad_q = [(p[0] - 1.0) * float(kd) / tau for kd in k_pos]
    for p_s, s in zip(p[1:], negatives):
        for d, sd in enumerate(s):
            grad_q[d] += p_s * float(sd) / tau
    grad_k = [(p[0] - 1.0) * float(qd) / tau for qd in q]
    grad_negs = [[p_s * float(qd) / tau for qd in q] for p_s in p[1:]]
    return grad_q, grad_k, grad_negs


def contrast_grad_ref(batch, tau, include_same_image, l2_normalize=False):
    """Gradient of spatial_loss_ref + semantic_loss_ref, summed term by term.

    Each term adds its info_nce_grad_ref pieces, times its loss's 1/terms
    weight, to its query, positive key and negatives. Under l2_normalize
    the sums are then pulled back through x / |x|. Returns nested lists in
    (spatial_lateral, semantic_lateral, spatial_fused, semantic_fused)
    order.
    """
    names = ("spatial_lateral", "semantic_lateral", "spatial_fused", "semantic_fused")
    raw = {name: _as_nested(getattr(batch, name)) for name in names}
    emb = raw
    if l2_normalize:
        emb = {name: [[unit_ref(v) for v in level] for level in arr] for name, arr in raw.items()}
    levels = len(raw["spatial_lateral"])
    images = len(raw["spatial_lateral"][0])
    dim = len(raw["spatial_lateral"][0][0])
    grad = {name: [[[0.0] * dim for _ in range(images)] for _ in range(levels)] for name in names}

    def vec(slot):
        name, i, j = slot
        return emb[name][i][j]

    def add_term(kind, q_slot, k_slot, neg_slots, weight):
        neg_slots = [(f"{kind}_{family}", i, j) for family, i, j in neg_slots]
        grad_q, grad_k, grad_negs = info_nce_grad_ref(
            vec(q_slot), vec(k_slot), [vec(s) for s in neg_slots], tau
        )
        for (name, i, j), g in zip([q_slot, k_slot] + neg_slots, [grad_q, grad_k] + grad_negs):
            row = grad[name][i][j]
            for d, v in enumerate(g):
                row[d] += weight * v

    for x in range(levels):
        for y in range(images):
            add_term(
                "spatial",
                ("spatial_fused", x, y),
                ("spatial_lateral", x, y),
                negative_slots_ref(levels, images, x, y, include_same_image),
                1.0 / (levels * images),
            )
    for x in range(levels - 1):
        for y in range(images):
            add_term(
                "semantic",
                ("semantic_fused", x, y),
                ("semantic_fused", x + 1, y),
                negative_slots_ref(levels, images, x, y, False),
                1.0 / ((levels - 1) * images),
            )

    if l2_normalize:
        for name in names:
            for level_raw, level_grad in zip(raw[name], grad[name]):
                for j, (v, g) in enumerate(zip(level_raw, level_grad)):
                    norm = math.sqrt(dot_ref(v, v))
                    u = unit_ref(v)
                    radial = dot_ref(g, u)
                    level_grad[j] = [(gd - radial * ud) / norm for gd, ud in zip(g, u)]
    return tuple(grad[name] for name in names)


@np.errstate(over="ignore", invalid="ignore")
def gradient_check_ref(batch, cfg, step=1e-4):
    """Central differences of the library losses, one coordinate at a time.

    Each evaluation builds a fresh, validated EmbeddingBatch with a single
    coordinate moved by +/- step and calls spatial_loss + semantic_loss;
    the errors are those of GradientCheckResult, against contrast_grad.
    Python's max drops a NaN error, so compare on finite differences only.
    It runs with overflow and invalid-value warnings off, the analytic
    gradient included: non-finite values show in the result or raise. A
    loss that refuses its overflowing logits gives a NaN difference.
    """
    from smalldet import EmbeddingBatch, GradientCheckResult, contrast_grad
    from smalldet import semantic_loss, spatial_loss

    names = ("spatial_lateral", "semantic_lateral", "spatial_fused", "semantic_fused")
    arrays = {name: getattr(batch, name).copy() for name in names}

    def loss_at():
        candidate = EmbeddingBatch(**arrays)
        try:
            return spatial_loss(candidate, cfg) + semantic_loss(candidate, cfg)
        except ValueError as exc:
            # The losses refuse overflowing logits, which gradient_check
            # scores as a non-finite difference.
            if "logit is not finite" not in str(exc):
                raise
            return math.nan

    differences = {}
    for name in names:
        flat = arrays[name].reshape(-1)
        differences[name] = []
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            upper = loss_at()
            flat[idx] = original - step
            lower = loss_at()
            flat[idx] = original
            differences[name].append((upper - lower) / (2.0 * step))

    # As in gradient_check, a batch that cannot be perturbed raises before
    # the analytic gradient is taken.
    analytic = contrast_grad(batch, cfg)
    max_rel = 0.0
    max_abs = 0.0
    count = 0
    for name in names:
        for a, numeric in zip(getattr(analytic, name).reshape(-1).tolist(), differences[name]):
            abs_err = abs(a - numeric)
            rel_err = abs_err / max(abs(a), abs(numeric), 1e-4)
            max_abs = max(max_abs, abs_err)
            max_rel = max(max_rel, rel_err)
            count += 1
    return GradientCheckResult(max_rel_error=max_rel, max_abs_error=max_abs, num_coordinates=count)


# ---------------------------------------------------------------------------
# deterministic generator and toy pyramid


def splitmix64_ref(state, count):
    """First `count` outputs of the classic splitmix64 sequence."""
    out = []
    s = state & MASK64
    for _ in range(count):
        s = (s + GOLDEN) & MASK64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_ref(key, count):
    """Unit-interval doubles from the splitmix64 stream starting at key."""
    return [(word >> 11) * 2.0 ** -53 for word in splitmix64_ref(key, count)]


def stream_key_ref(*parts):
    """Stream key of integer parts: from state 0, each part (mod 2^64) is
    added to the state and one splitmix64 output becomes the next state."""
    key = 0
    for part in parts:
        key = splitmix64_ref(key + part, 1)[0]
    return key


def fuse_ref(lateral_arrays, reduction_for_level, fused_channels):
    """Plain-loop top-down fusion over one image.

    Args:
        lateral_arrays: per-level (C, H, W) float arrays, finest first.
        reduction_for_level: callable mapping a level index to its
            (fused_channels, C) reduction matrix.
        fused_channels: output channel count.

    Returns:
        Per-level fused arrays, matching the accumulation order of the
        library (ascending input channel, then the upsampled term).
    """
    top = len(lateral_arrays) - 1
    fused = [None] * len(lateral_arrays)
    for i in range(top, -1, -1):
        lat = lateral_arrays[i]
        channels, height, width = lat.shape
        reduction = reduction_for_level(i)
        out = np.zeros((fused_channels, height, width))
        for o in range(fused_channels):
            for h in range(height):
                for w in range(width):
                    acc = 0.0
                    for c in range(channels):
                        acc += float(reduction[o][c]) * float(lat[c][h][w])
                    out[o][h][w] = acc
        if i < top:
            above = fused[i + 1]
            for o in range(fused_channels):
                for h in range(height):
                    for w in range(width):
                        out[o][h][w] += above[o][h // 2][w // 2]
        fused[i] = out
    return fused


def encode_ref(data, projection):
    """Mean-pool each channel, then project with plain loops."""
    channels, height, width = data.shape
    pooled = []
    for c in range(channels):
        total = 0.0
        for h in range(height):
            for w in range(width):
                total += float(data[c][h][w])
        pooled.append(total / (height * width))
    out = []
    for row in projection:
        acc = 0.0
        for c in range(channels):
            acc += float(row[c]) * pooled[c]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# synthetic small-object scene suite


def small_object_scenes(seed, num_images=50, image_size=800.0, side_lo=4.0, side_hi=16.0, max_gts=8):
    """Seeded scenes of small ground-truth boxes on a square image.

    Returns:
        List of per-image box lists; every side is uniform in
        [side_lo, side_hi] and boxes lie fully inside the image.
    """
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(num_images):
        count = int(rng.integers(1, max_gts + 1))
        boxes = []
        for _ in range(count):
            w = float(rng.uniform(side_lo, side_hi))
            h = float(rng.uniform(side_lo, side_hi))
            cx = float(rng.uniform(w / 2.0, image_size - w / 2.0))
            cy = float(rng.uniform(h / 2.0, image_size - h / 2.0))
            boxes.append((cx, cy, w, h))
        scenes.append(boxes)
    return scenes


def write_coco(path, scenes, image_size=800.0):
    """Serialize scenes as a minimal COCO-style annotation file."""
    images = []
    annotations = []
    ann_id = 1
    for idx, boxes in enumerate(scenes):
        image_id = idx + 1
        images.append({"id": image_id, "width": image_size, "height": image_size})
        for cx, cy, w, h in boxes:
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "bbox": [cx - w / 2.0, cy - h / 2.0, w, h],
                    "category_id": 1,
                    "iscrowd": 0,
                }
            )
            ann_id += 1
    payload = {"images": images, "annotations": annotations}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path
