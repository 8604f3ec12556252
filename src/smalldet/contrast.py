"""InfoNCE alignment losses over pyramid embeddings, with analytic gradients.

Two losses operate on a batch of four embedding families indexed by pyramid
level and image: a spatial loss pulling each fused embedding toward its own
lateral embedding, and a semantic loss pulling each fused semantic embedding
toward the one a level above it. Negatives come from other images in the
batch (and optionally, for the spatial loss, from other levels of the same
image). Both losses are plain means over their terms.

Every InfoNCE caller runs one forward and one backward function. The
forward scores all of a loss's terms at once: one logits matrix of queries
against the stacked lateral and fused keys, with a boolean mask selecting
every term's negatives, and a max-shifted log-sum-exp. It keeps the shifted
exponentials, from which the backward takes the gradients in two matrix
products. spatial_loss and semantic_loss save their forward on the batch,
one entry per loss, under their ContrastConfig; contrast_grad with an
equal config takes those entries, runs only the backward and drops them,
and otherwise runs the forward itself. A batch so holds a saved forward
only between its losses and its gradient: per loss, the (T, 2 * L * N)
exponentials and the stacked keys, 4.3 MB for both losses at L=5, N=64,
D=128 (5.3 MB with the unit-normalized views under l2_normalize). The
batch's arrays are read-only copies, so what was saved cannot go stale.

A loss whose positive logit or largest logit is not finite (the logits
overflow at a tiny tau or for huge embeddings) raises ValueError naming
the loss, and so does contrast_grad when a gradient is not finite. Results are deterministic: repeated calls on the same batch and
config, in any order, return identical values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _finite_number

__all__ = [
    "EmbeddingBatch",
    "ContrastConfig",
    "LossComponents",
    "ContrastGradients",
    "GradientCheckResult",
    "info_nce",
    "info_nce_grad",
    "spatial_loss",
    "semantic_loss",
    "contrast_grad",
    "total_loss",
    "gradient_check",
]

_ARRAY_NAMES = ("spatial_lateral", "semantic_lateral", "spatial_fused", "semantic_fused")
# Each loss and the (lateral, fused) arrays it reads.
_LOSS_FAMILIES = {
    "spatial_loss": ("spatial_lateral", "spatial_fused"),
    "semantic_loss": ("semantic_lateral", "semantic_fused"),
}
# Bytes of perturbed inputs and logits, with the kernel's temporaries, that
# gradient_check scores per pass: 15 coordinates (30 perturbed batches) at
# the demo's L=4, N=3, D=16. Much larger blocks save little time and raise
# the demo's peak memory.
_CHECK_BLOCK_BYTES = 1 << 20


def _check_tau(tau) -> None:
    if not (_finite_number(tau, (int, float, np.floating)) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")


def _as_embedding_array(name: str, value) -> np.ndarray:
    """A read-only float64 copy of value, checked to be a finite (L, N, D) array."""
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (levels, images, dim), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """Four embedding families over a pyramid batch.

    Each array has shape (L, N, D): pyramid level, image, embedding
    dimension. Spatial and semantic embeddings each come in a lateral
    (pre-fusion) and fused (post-fusion) variant. The batch keeps
    read-only float64 copies of the arrays it is given, and it compares
    and hashes by identity: between a loss and contrast_grad it holds
    that loss's saved forward.

    Attributes:
        spatial_lateral: Spatial embeddings of the lateral features.
        semantic_lateral: Semantic embeddings of the lateral features.
        spatial_fused: Spatial embeddings of the fused features.
        semantic_fused: Semantic embeddings of the fused features.
    """

    spatial_lateral: np.ndarray
    semantic_lateral: np.ndarray
    spatial_fused: np.ndarray
    semantic_fused: np.ndarray
    # Loss name -> (config, terms, forward) of the loss's last evaluation.
    # An entry is fixed by the read-only arrays and its config, so threads
    # sharing a batch can at worst make contrast_grad run a forward again.
    _saved: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        arrays = {}
        for name in _ARRAY_NAMES:
            arrays[name] = _as_embedding_array(name, getattr(self, name))
            object.__setattr__(self, name, arrays[name])
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1:
            raise ValueError(f"embedding arrays disagree on shape: {sorted(shapes)}")
        levels, images, dim = self.spatial_lateral.shape
        if levels < 2:
            raise ValueError(f"an embedding batch needs at least 2 levels, got {levels}")
        if images < 1 or dim < 1:
            raise ValueError(f"batch and dim must be at least 1, got N={images}, D={dim}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.spatial_lateral.shape


@dataclass(frozen=True)
class ContrastConfig:
    """Knobs of the contrastive losses.

    Attributes:
        tau: Softmax temperature, > 0. The default 0.07 is the customary
            contrastive-learning setting; tune freely.
        include_same_image_other_levels: When true, the spatial negative
            set additionally contains the same image's embeddings at every
            other level. Off by default: the default set draws negatives
            from other images only.
        l2_normalize: When true, every embedding is scaled to unit length
            before entering the losses. Off by default; raw dot products
            are the logits.
    """

    tau: float = 0.07
    include_same_image_other_levels: bool = False
    l2_normalize: bool = False

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        for name in ("include_same_image_other_levels", "l2_normalize"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class LossComponents:
    """Scalar pieces of the combined training objective.

    Attributes:
        spatial_loss: Spatial contrast loss value.
        semantic_loss: Semantic contrast loss value.
        detector_loss: Externally supplied detection loss (classification
            plus regression); its internals live outside this library.
        alpha: Weight of the two contrast terms. Defaults to 0.1, the
            operating value used throughout the demos.
    """

    spatial_loss: float
    semantic_loss: float
    detector_loss: float
    alpha: float = 0.1

    def __post_init__(self) -> None:
        for name in ("spatial_loss", "semantic_loss", "detector_loss", "alpha"):
            v = getattr(self, name)
            if not _finite_number(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v!r}")


def total_loss(c: LossComponents) -> float:
    """Combined objective alpha * (spatial + semantic) + detector loss."""
    return c.alpha * (c.spatial_loss + c.semantic_loss) + c.detector_loss


def _stack_keys(lateral: np.ndarray, fused: np.ndarray) -> np.ndarray:
    """Both families as (..., 2 * L * N, D) rows in (level, image, family) order."""
    *lead, levels, images, dim = lateral.shape
    return np.stack((lateral, fused), axis=-2).reshape(*lead, 2 * levels * images, dim)


@functools.lru_cache(maxsize=8)
def _negative_mask(levels: int, images: int, query_levels: int, include_same_image: bool):
    """Boolean (query_levels * N, 2 * L * N) mask of every term's negatives.

    Row x * N + y is the term at level x, image y; columns are the rows of
    _stack_keys. A key is a negative of a term when it belongs to another
    image or, with include_same_image, to another level. The mask is made
    once per shape and returned read-only.
    """
    key_level, key_image = np.divmod(np.arange(2 * levels * images) // 2, images)
    term_level, term_image = np.divmod(np.arange(query_levels * images), images)
    mask = key_image[None, :] != term_image[:, None]
    if include_same_image:
        mask |= key_level[None, :] != term_level[:, None]
    mask.flags.writeable = False
    return mask


def _loss_terms(name: str, arrays, cfg: ContrastConfig):
    """Queries, positive keys, keys and negative mask of the named loss.

    arrays maps each of _ARRAY_NAMES to its (..., L, N, D) embeddings; the
    loss reads its lateral and fused family, unit-normalized under
    cfg.l2_normalize. Any leading axes carry over to the queries and keys,
    and the mask is shared by all of them. The spatial queries are the
    fused embeddings and their positives the lateral ones; the semantic
    queries are the fused embeddings below the top level and their
    positives the fused ones a level up.
    """
    lateral, fused = _loss_views(tuple(arrays[a] for a in _LOSS_FAMILIES[name]), cfg)
    *lead, levels, images, dim = lateral.shape
    keys = _stack_keys(lateral, fused)
    if name == "spatial_loss":
        mask = _negative_mask(levels, images, levels, cfg.include_same_image_other_levels)
        return fused.reshape(*lead, -1, dim), lateral.reshape(*lead, -1, dim), keys, mask
    mask = _negative_mask(levels, images, levels - 1, False)
    queries = fused[..., :-1, :, :].reshape(*lead, -1, dim)
    return queries, fused[..., 1:, :, :].reshape(*lead, -1, dim), keys, mask


def _check_vectors(q, k_pos, negatives):
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k_pos, dtype=np.float64)
    if q.ndim != 1 or k.shape != q.shape:
        raise ValueError(f"q and k_pos must be equal-length vectors, got {q.shape} and {k.shape}")
    negs = np.asarray(negatives, dtype=np.float64)
    if negs.size == 0:
        negs = negs.reshape(0, q.shape[0])
    if negs.ndim != 2 or negs.shape[1] != q.shape[0]:
        raise ValueError(f"negatives must have shape (K, {q.shape[0]}), got {negs.shape}")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(k)) and np.all(np.isfinite(negs))):
        raise ValueError("embeddings contain non-finite values")
    return q, k, negs


def _info_nce_forward(q, k, keys, mask, tau: float):
    """Row-wise InfoNCE of (..., T, D) queries q against positive keys k.

    Row t takes as negatives the rows of keys (..., K, D) where mask[t] is
    true; leading axes are independent problems sharing the (T, K) mask.
    Its loss is the log-sum-exp of its logits minus the positive logit,
    with the maximum logit shifted out so large logits stay finite; a row
    without negatives gives exactly 0. A loss is finite exactly when its
    positive logit and its maximum logit are; overflowing logits make it
    non-finite without a numpy warning, and _finite says so.

    Returns:
        (losses, e_pos, e_neg, total): the (..., T) losses, the shifted
        exponentials of the positive logits (..., T) and of the negative
        logits (..., T, K), 0 where mask is false, and their (..., T) sums.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pos = np.einsum("...td,...td->...t", q, k) / tau
        neg = np.where(mask, (q @ np.swapaxes(keys, -1, -2)) / tau, -np.inf)
        top = np.maximum(pos, neg.max(axis=-1, initial=-np.inf))
        e_pos = np.exp(pos - top)
        e_neg = np.exp(neg - top[..., None])
        total = e_pos + e_neg.sum(axis=-1)
        losses = top + np.log(total) - pos
    return losses, e_pos, e_neg, total


def _info_nce_backward(q, k, keys, forward, tau: float):
    """Gradients of the summed losses of a finite _info_nce_forward pass.

    With p[t, 0] = e_pos[t] / total[t] the softmax weight of row t's
    positive and p[t, r] = e_neg[t, r] / total[t] that of key r, the
    gradients are ((p[t, 0] - 1) * k_t + sum_r p[t, r] * keys_r) / tau for
    q_t, (p[t, 0] - 1) * q_t / tau for k_t, and sum_t p[t, r] * q_t / tau
    for keys_r.

    Returns:
        (grad_q, grad_k, grad_keys), shaped like q, k and keys.
    """
    _, e_pos, e_neg, total = forward
    d_pos = (e_pos / total - 1.0)[..., None]
    p_neg = e_neg / total[..., None]
    grad_q = (d_pos * k + p_neg @ keys) / tau
    grad_k = d_pos * q / tau
    grad_keys = np.swapaxes(p_neg, -1, -2) @ q / tau
    return grad_q, grad_k, grad_keys


def _finite(name: str, forward, tau: float):
    """forward, once its losses are all finite; else a ValueError naming the loss."""
    if not np.all(np.isfinite(forward[0])):
        raise ValueError(f"{name}: a positive or maximum logit is not finite at tau={tau!r}")
    return forward


def _single_term(name: str, q, k_pos, negatives, tau: float):
    """Checked terms and forward pass of one (query, positive, negatives) term."""
    _check_tau(tau)
    q, k, negs = _check_vectors(q, k_pos, negatives)
    terms = q[None], k[None], negs, np.ones((1, negs.shape[0]), dtype=bool)
    return terms, _finite(name, _info_nce_forward(*terms, tau), tau)


def info_nce(q, k_pos, negatives, tau: float) -> float:
    """Contrastive loss of one (query, positive key, negatives) term.

    Computes -log(exp(q.k/tau) / (exp(q.k/tau) + sum_s exp(q.s/tau)))
    through a max-shifted log-sum-exp, so large logits stay finite. An
    empty negative set gives exactly 0. A positive or largest logit that
    overflows raises ValueError.

    Args:
        q: Query vector.
        k_pos: Positive key vector, same length as q.
        negatives: Array-like of negative vectors, shape (K, D); may be
            empty.
        tau: Temperature, > 0.

    Returns:
        Non-negative loss value.
    """
    _, forward = _single_term("info_nce", q, k_pos, negatives, tau)
    return float(forward[0][0])


def info_nce_grad(q, k_pos, negatives, tau: float):
    """Analytic gradients of info_nce with respect to all inputs.

    With p the softmax of the logits (index 0 the positive pair), the
    gradients are (p_0 - 1) * k / tau + sum_i p_i * s_i / tau for q,
    (p_0 - 1) * q / tau for k_pos, and p_i * q / tau for negative i.

    Returns:
        Tuple (grad_q, grad_k, grad_negatives) with grad_negatives of
        shape (K, D).
    """
    (q, k, negs, _), forward = _single_term("info_nce_grad", q, k_pos, negatives, tau)
    grad_q, grad_k, grad_negs = _info_nce_backward(q, k, negs, forward, tau)
    return grad_q[0], grad_k[0], grad_negs


def _arrays(batch: EmbeddingBatch) -> tuple[np.ndarray, ...]:
    """The four embedding arrays in _ARRAY_NAMES order."""
    return tuple(getattr(batch, name) for name in _ARRAY_NAMES)


def _loss_views(arrays, cfg: ContrastConfig):
    """The (..., L, N, D) embedding arrays as the losses see them.

    Identity by default; unit-normalized copies under cfg.l2_normalize.
    """
    if not cfg.l2_normalize:
        return arrays
    out = []
    for arr in arrays:
        norms = np.sqrt((arr * arr).sum(axis=-1, keepdims=True))
        if np.any(norms == 0.0):
            raise ValueError("cannot l2-normalize a zero embedding")
        out.append(arr / norms)
    return tuple(out)


def _loss_forward(batch: EmbeddingBatch, name: str, cfg: ContrastConfig):
    """Terms and checked forward pass of the named loss on the batch."""
    terms = _loss_terms(name, vars(batch), cfg)
    return terms, _finite(name, _info_nce_forward(*terms, cfg.tau), cfg.tau)


def _saved_loss(batch: EmbeddingBatch, name: str, cfg: ContrastConfig) -> float:
    """The named loss's mean, with its forward saved on the batch for contrast_grad."""
    terms, forward = _loss_forward(batch, name, cfg)
    batch._saved[name] = (cfg, terms, forward)
    return float(forward[0].mean(axis=-1))


def spatial_loss(batch: EmbeddingBatch, cfg: ContrastConfig = ContrastConfig()) -> float:
    """Mean spatial contrast over all (level, image) terms.

    Term (x, y) is info_nce with query spatial_fused[x, y] and positive key
    spatial_lateral[x, y]. Its negatives are the lateral and fused spatial
    embeddings of every other image at every level, 2 * L * (N - 1) of
    them; with cfg.include_same_image_other_levels, image y's own at the
    other L - 1 levels join them. The mean runs over all L * N terms. The
    forward pass stays saved on the batch, replacing any earlier one of
    this loss, until contrast_grad takes it.
    """
    return _saved_loss(batch, "spatial_loss", cfg)


def semantic_loss(batch: EmbeddingBatch, cfg: ContrastConfig = ContrastConfig()) -> float:
    """Mean semantic contrast over levels 0..L-2 and all images.

    Term (x, y) is info_nce with query semantic_fused[x, y], positive key
    semantic_fused[x + 1, y] (the fused embedding one level up). Its
    negatives are the lateral and fused semantic embeddings of every other
    image at every level, 2 * L * (N - 1) of them. The mean runs over
    (L - 1) * N terms. The forward pass stays saved on the batch, as
    spatial_loss's does.
    """
    return _saved_loss(batch, "semantic_loss", cfg)


@dataclass(frozen=True)
class ContrastGradients:
    """Gradient of spatial_loss + semantic_loss, shaped like the batch."""

    spatial_lateral: np.ndarray
    semantic_lateral: np.ndarray
    spatial_fused: np.ndarray
    semantic_fused: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.spatial_lateral,
            self.semantic_lateral,
            self.spatial_fused,
            self.semantic_fused,
        )


def contrast_grad(batch: EmbeddingBatch, cfg: ContrastConfig = ContrastConfig()) -> ContrastGradients:
    """Exact gradients of spatial_loss(batch) + semantic_loss(batch).

    Each embedding accumulates contributions from every term it enters as
    query, positive key, or negative, scaled by the loss means' 1/(L*N)
    and 1/((L-1)*N) weights. Under cfg.l2_normalize the gradient is taken
    through the normalization. A loss's forward pass saved on the batch
    under an equal cfg is reused, and the call leaves no saved forward on
    the batch.

    Raises:
        ValueError: Naming the loss, when its logits or a gradient it
            contributes are not finite (at a tiny tau, the gradients, about
            embedding / tau, can overflow while the losses stay finite).
    """
    saved = dict(batch._saved)
    batch._saved.clear()
    levels, images, dim = batch.shape
    grads = {}
    # A gradient that overflows (about embedding / tau, so at a tiny tau)
    # is reported below as a ValueError, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for name in _LOSS_FAMILIES:
            entry = saved.get(name)
            if entry is not None and entry[0] == cfg:
                terms, forward = entry[1:]
            else:
                terms, forward = _loss_forward(batch, name, cfg)
            g_q, g_k, g_keys = _info_nce_backward(*terms[:3], forward, cfg.tau)
            grads[name] = g_q, g_k, g_keys.reshape(levels, images, 2, dim)

        g_q, g_k, g_keys = grads["spatial_loss"]
        weight = 1.0 / (levels * images)
        g_sp_lat = weight * (g_k.reshape(levels, images, dim) + g_keys[:, :, 0])
        g_sp_fus = weight * (g_q.reshape(levels, images, dim) + g_keys[:, :, 1])

        g_q, g_k, g_keys = grads["semantic_loss"]
        weight = 1.0 / ((levels - 1) * images)
        g_se_lat = weight * g_keys[:, :, 0]
        g_se_fus = g_keys[:, :, 1].copy()
        g_se_fus[:-1] += g_q.reshape(levels - 1, images, dim)
        g_se_fus[1:] += g_k.reshape(levels - 1, images, dim)
        g_se_fus *= weight

        if cfg.l2_normalize:
            g_sp_lat = _chain_through_normalize(batch.spatial_lateral, g_sp_lat)
            g_se_lat = _chain_through_normalize(batch.semantic_lateral, g_se_lat)
            g_sp_fus = _chain_through_normalize(batch.spatial_fused, g_sp_fus)
            g_se_fus = _chain_through_normalize(batch.semantic_fused, g_se_fus)

    for name, arrays in (("spatial_loss", (g_sp_lat, g_sp_fus)), ("semantic_loss", (g_se_lat, g_se_fus))):
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"{name}: a gradient is not finite at tau={cfg.tau!r}")

    return ContrastGradients(
        spatial_lateral=g_sp_lat,
        semantic_lateral=g_se_lat,
        spatial_fused=g_sp_fus,
        semantic_fused=g_se_fus,
    )


def _chain_through_normalize(raw: np.ndarray, grad_normalized: np.ndarray) -> np.ndarray:
    """Pull a gradient taken at x/||x|| back to x."""
    norms = np.sqrt((raw * raw).sum(axis=-1, keepdims=True))
    unit = raw / norms
    radial = (grad_normalized * unit).sum(axis=-1, keepdims=True)
    return (grad_normalized - radial * unit) / norms


@dataclass(frozen=True)
class GradientCheckResult:
    """Outcome of comparing analytic gradients to finite differences.

    The per-coordinate error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-4); the guard keeps near-zero gradients
    measured on an absolute scale instead of blowing up the quotient. A
    non-finite difference makes the errors NaN, which never passes.
    """

    max_rel_error: float
    max_abs_error: float
    num_coordinates: int

    def passed(self, tolerance: float = 1e-5) -> bool:
        return self.max_rel_error <= tolerance


def gradient_check(
    batch: EmbeddingBatch, cfg: ContrastConfig = ContrastConfig(), step: float = 1e-4
) -> GradientCheckResult:
    """Compare contrast_grad against central finite differences.

    Every coordinate of every embedding array is perturbed by +/- step and
    the total loss re-evaluated. The perturbed copies are stacked along a
    leading axis and scored a block of coordinates at a time, one forward
    pass per loss and block; each block holds about _CHECK_BLOCK_BYTES of
    perturbed inputs and logits, so memory stays bounded whatever the batch
    size. A perturbed value that is not finite raises ValueError, as
    EmbeddingBatch does, and a non-finite difference makes both reported
    errors non-finite, so the check fails.

    The discrepancy reported here includes the O(step^2) truncation error of
    the central difference itself. With l2_normalize enabled that term is
    amplified by the curvature of the normalization map, which grows like
    1 / norm^2, so batches whose embeddings have small norms need a smaller
    step before the comparison says anything about the analytic gradient.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    levels, images, dim = batch.shape
    flat = np.stack(_arrays(batch)).reshape(-1)
    # Overflow in the finite-difference passes is reported through the
    # result, as a ValueError here or as non-finite errors, so numpy need
    # not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        upper, lower = flat + step, flat - step
    bad = ~(np.isfinite(upper) & np.isfinite(lower)).reshape(4, -1).all(axis=1)
    if bad.any():
        name = _ARRAY_NAMES[int(np.argmax(bad))]
        raise ValueError(f"{name} contains non-finite values")
    analytic = np.concatenate([g.reshape(-1) for g in contrast_grad(batch, cfg).as_tuple()])

    # Per perturbed batch: the copy, its stacked keys and its query rows
    # (3 * C values), and about four logits-sized temporaries per loss.
    logits = (2 * levels - 1) * images * 2 * levels * images
    block = max(1, _CHECK_BLOCK_BYTES // (2 * 8 * (3 * flat.size + 4 * logits)))
    numeric = np.empty_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, block):
            idx = np.arange(start, min(start + block, flat.size))
            rows = np.arange(idx.size)
            copies = np.repeat(flat[None], 2 * idx.size, axis=0)
            copies[rows, idx] = upper[idx]
            copies[rows + idx.size, idx] = lower[idx]
            arrays = dict(zip(_ARRAY_NAMES, copies.reshape(-1, 4, levels, images, dim).swapaxes(0, 1)))
            totals = sum(
                _info_nce_forward(*_loss_terms(name, arrays, cfg), cfg.tau)[0].mean(axis=-1)
                for name in _LOSS_FAMILIES
            )
            numeric[idx] = (totals[: idx.size] - totals[idx.size :]) / (2.0 * step)

    abs_err = np.abs(analytic - numeric)
    rel_err = abs_err / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    # np.max propagates NaN, so a coordinate whose difference is NaN fails
    # the check instead of dropping out of the maximum.
    return GradientCheckResult(
        max_rel_error=float(rel_err.max()),
        max_abs_error=float(abs_err.max()),
        num_coordinates=int(flat.size),
    )
