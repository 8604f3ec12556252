"""Contrastive losses, their negative sets, and analytic gradients."""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

import smalldet.contrast
from smalldet import (
    ContrastConfig,
    ContrastGradients,
    EmbeddingBatch,
    LossComponents,
    ToyPyramidConfig,
    build_embedding_batch,
    contrast_grad,
    gradient_check,
    info_nce,
    info_nce_grad,
    semantic_loss,
    spatial_loss,
    total_loss,
)
from smalldet.contrast import _negative_mask, _stack_keys
from oracles import (
    contrast_grad_ref,
    gradient_check_ref,
    info_nce_ref,
    negative_slots_ref,
    semantic_loss_ref,
    semantic_negatives_ref,
    spatial_loss_ref,
    spatial_negatives_ref,
)


def toy_batch(seed=0, levels=4, batch=3, dim=16):
    cfg = ToyPyramidConfig(
        levels=levels,
        batch=batch,
        base_size=4 << (levels - 1),
        lateral_channels=tuple(8 + 4 * i for i in range(levels)),
        fused_channels=8,
        seed=seed,
    )
    return build_embedding_batch(cfg, dim)


def random_batch(seed, levels=3, batch=2, dim=8, scale=1.0):
    rng = np.random.default_rng(seed)
    return EmbeddingBatch(*(scale * rng.normal(size=(levels, batch, dim)) for _ in range(4)))


def contrast_arrays(batch):
    return batch.spatial_lateral, batch.semantic_lateral, batch.spatial_fused, batch.semantic_fused


def as_multiset(vectors):
    return sorted(tuple(float(x) for x in v) for v in vectors)


FLAG_SETS = [
    {},
    {"include_same_image_other_levels": True},
    {"l2_normalize": True},
    {"include_same_image_other_levels": True, "l2_normalize": True},
]


def test_embedding_batch_validation():
    rng = np.random.default_rng(41)
    good = rng.normal(size=(2, 2, 4))
    with pytest.raises(ValueError):
        EmbeddingBatch(good[:1], good[:1], good[:1], good[:1])  # single level
    with pytest.raises(ValueError):
        EmbeddingBatch(good, good, good, rng.normal(size=(2, 2, 5)))
    bad = good.copy()
    bad[0, 0, 0] = float("nan")
    with pytest.raises(ValueError):
        EmbeddingBatch(bad, good, good, good)


def test_embedding_batch_compares_and_hashes_by_identity():
    a, b = toy_batch(seed=4), toy_batch(seed=4)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_embedding_batch_holds_read_only_copies():
    rng = np.random.default_rng(51)
    sources = [rng.normal(size=(3, 2, 4)) for _ in range(4)]
    originals = [a.copy() for a in sources]
    batch = EmbeddingBatch(*sources)
    before = spatial_loss(batch), semantic_loss(batch)
    for arr, source in zip(contrast_arrays(batch), sources):
        assert not arr.flags.writeable and arr.dtype == np.float64
        assert not np.shares_memory(arr, source)
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0.0
        source += 10.0  # the caller's arrays stay theirs to change
    assert (spatial_loss(batch), semantic_loss(batch)) == before
    for arr, original in zip(contrast_arrays(batch), originals):
        np.testing.assert_array_equal(arr, original)


def test_config_validation():
    with pytest.raises(ValueError):
        ContrastConfig(tau=0.0)
    with pytest.raises(ValueError):
        ContrastConfig(tau=float("inf"))
    with pytest.raises(ValueError):
        ContrastConfig(tau=True)


@pytest.mark.parametrize("flag", ["include_same_image_other_levels", "l2_normalize"])
def test_config_flags_must_be_bools(flag):
    for value in ("no", 1, 0, None):
        with pytest.raises(ValueError, match=flag):
            ContrastConfig(**{flag: value})
    for value in (True, False, np.True_, np.False_):
        assert getattr(ContrastConfig(**{flag: value}), flag) == value


def test_tau_accepts_numpy_floating_scalars():
    batch = toy_batch(seed=2)
    for tau in (np.float32(0.07), np.float64(0.07), np.float16(0.5)):
        cfg = ContrastConfig(tau=tau)
        assert spatial_loss(batch, cfg) == spatial_loss(batch, ContrastConfig(tau=float(tau)))
    q, k, s = np.eye(3)
    assert info_nce(q, k, [s], tau=np.float32(1.0)) == info_nce(q, k, [s], tau=1.0)
    with pytest.raises(ValueError):
        ContrastConfig(tau=np.float32("nan"))
    with pytest.raises(ValueError):
        ContrastConfig(tau=np.float64(-0.5))


@pytest.mark.parametrize("field", ["spatial_loss", "semantic_loss", "detector_loss", "alpha"])
def test_loss_components_reject_bools(field):
    values = {"spatial_loss": 1.0, "semantic_loss": 1.0, "detector_loss": 1.0, "alpha": 0.1}
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match=field):
            LossComponents(**{**values, field: flag})


@pytest.mark.parametrize("tau", [True, 0.0, float("inf")])
def test_info_nce_rejects_bad_tau(tau):
    q, k, s = np.eye(3)
    with pytest.raises(ValueError):
        info_nce(q, k, [s], tau=tau)
    with pytest.raises(ValueError):
        info_nce_grad(q, k, [s], tau=tau)


def term_negatives(lateral, fused, query_levels, include_same_image):
    """Each term's negatives, row x * N + y, as the losses pick them from the keys."""
    levels, images, _ = lateral.shape
    keys = _stack_keys(lateral, fused)
    return [keys[row] for row in _negative_mask(levels, images, query_levels, include_same_image)]


@pytest.mark.parametrize("levels, images, query_levels", [(3, 2, 3), (3, 2, 2), (4, 1, 4), (2, 3, 1), (5, 64, 5)])
@pytest.mark.parametrize("include", [False, True])
def test_negative_mask_is_made_once_read_only_and_matches_reference(levels, images, query_levels, include):
    mask = _negative_mask(levels, images, query_levels, include)
    assert _negative_mask(levels, images, query_levels, include) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    family_column = {"lateral": 0, "fused": 1}
    want = np.zeros((query_levels * images, 2 * levels * images), dtype=bool)
    for x in range(query_levels):
        for y in range(images):
            for family, i, j in negative_slots_ref(levels, images, x, y, include):
                want[x * images + y, 2 * (i * images + j) + family_column[family]] = True
    np.testing.assert_array_equal(mask, want)


def test_spatial_negative_set_sizes():
    batch = random_batch(42, levels=3, batch=2)
    off = term_negatives(batch.spatial_lateral, batch.spatial_fused, 3, False)
    assert [len(negs) for negs in off] == [6] * 6  # 2 * 3 levels * 1 other image
    on = term_negatives(batch.spatial_lateral, batch.spatial_fused, 3, True)
    assert [len(negs) for negs in on] == [10] * 6  # 6 + 2 * 2 other levels of the same image

    lone = random_batch(43, levels=3, batch=1)
    for include, size in ((False, 0), (True, 4)):  # 4 = 2 * 2 other levels of the one image
        negs = term_negatives(lone.spatial_lateral, lone.spatial_fused, 3, include)
        assert [len(n) for n in negs] == [size] * 3


def nested(array):
    return [[list(v) for v in level] for level in array]


def test_spatial_negative_membership_matches_reference():
    for images in (1, 3):
        batch = random_batch(44, levels=3, batch=images)
        lateral, fused = nested(batch.spatial_lateral), nested(batch.spatial_fused)
        for include in (False, True):
            got = term_negatives(batch.spatial_lateral, batch.spatial_fused, 3, include)
            for x in range(3):
                for y in range(images):
                    want = spatial_negatives_ref(lateral, fused, x, y, include)
                    assert as_multiset(got[x * images + y]) == as_multiset(want)
    # in the N = 3 batch, nothing from image 2 may appear unless the flag
    # pulled it in
    for vec in term_negatives(batch.spatial_lateral, batch.spatial_fused, 3, False)[1 * 3 + 2]:
        for level in range(3):
            assert not np.array_equal(vec, batch.spatial_lateral[level, 2])
            assert not np.array_equal(vec, batch.spatial_fused[level, 2])


def test_semantic_negative_set():
    for images in (1, 2):
        batch = random_batch(45, levels=3, batch=images)
        got = term_negatives(batch.semantic_lateral, batch.semantic_fused, 2, False)
        assert [len(negs) for negs in got] == [6 * (images - 1)] * (2 * images)
        lateral, fused = nested(batch.semantic_lateral), nested(batch.semantic_fused)
        for x in range(2):  # semantic terms stop at L-2
            for y in range(images):
                want = semantic_negatives_ref(lateral, fused, x, y)
                assert as_multiset(got[x * images + y]) == as_multiset(want)


def test_info_nce_closed_forms():
    q = np.array([1.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0])
    assert info_nce(q, k, [], tau=1.0) == 0.0
    assert info_nce(q, k, [s], tau=1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    rng = np.random.default_rng(47)
    negs = [rng.normal(size=3) for _ in range(5)]
    assert info_nce(q, k, negs, tau=1e6) == pytest.approx(math.log(6.0), abs=1e-3)


def test_info_nce_matches_naive_reference():
    rng = np.random.default_rng(48)
    for _ in range(50):
        dim = int(rng.integers(2, 10))
        q = rng.normal(size=dim)
        k = rng.normal(size=dim)
        negs = [rng.normal(size=dim) for _ in range(int(rng.integers(0, 6)))]
        tau = float(rng.uniform(0.2, 3.0))
        assert info_nce(q, k, negs, tau) == pytest.approx(
            info_nce_ref(list(q), list(k), [list(s) for s in negs], tau), abs=1e-12
        )


def test_info_nce_monotone_in_negatives_and_nonnegative():
    rng = np.random.default_rng(49)
    q = rng.normal(size=6)
    k = rng.normal(size=6)
    negs = []
    previous = info_nce(q, k, negs, tau=0.5)
    assert previous == 0.0
    for _ in range(6):
        negs.append(rng.normal(size=6))
        current = info_nce(q, k, negs, tau=0.5)
        assert current >= previous
        assert current >= 0.0
        previous = current


def test_info_nce_stable_at_extreme_logits():
    q = np.array([100.0, 0.0])
    near = np.array([100.0, 0.0])  # logit +1e4 at tau 1
    far = np.array([-100.0, 0.0])  # logit -1e4
    hard = info_nce(q, far, [near], tau=1.0)
    assert math.isfinite(hard)
    assert hard == pytest.approx(2e4, rel=1e-12)
    easy = info_nce(q, near, [far], tau=1.0)
    # exact value is log1p(exp(-2e4)), below double resolution
    assert easy == 0.0
    with pytest.raises(ValueError):
        info_nce(np.array([float("nan"), 0.0]), near, [far], tau=1.0)


def test_losses_zero_for_single_image():
    batch = toy_batch(seed=3, batch=1)
    cfg = ContrastConfig()
    assert spatial_loss(batch, cfg) == 0.0
    assert semantic_loss(batch, cfg) == 0.0
    grads = contrast_grad(batch, cfg)
    for arr in grads.as_tuple():
        np.testing.assert_array_equal(arr, 0.0)


def test_spatial_loss_on_uniform_batch_equals_common_term():
    """All embeddings identical: every term is the same info_nce value."""
    levels, images, dim = 2, 3, 4
    v = np.full((levels, images, dim), 0.5)
    batch = EmbeddingBatch(v, v, v, v)
    cfg = ContrastConfig(tau=0.7)
    num_negs = 2 * levels * (images - 1)
    common = info_nce(v[0, 0], v[0, 0], [v[0, 0]] * num_negs, tau=0.7)
    assert spatial_loss(batch, cfg) == pytest.approx(common, abs=1e-12)
    assert common == pytest.approx(math.log(1 + num_negs), abs=1e-12)


@pytest.mark.parametrize("flags", FLAG_SETS)
def test_losses_match_naive_reference(flags):
    cfg = ContrastConfig(tau=0.07, **flags)
    batch = toy_batch(seed=0)
    assert spatial_loss(batch, cfg) == pytest.approx(
        spatial_loss_ref(batch, cfg.tau, cfg.include_same_image_other_levels, cfg.l2_normalize),
        abs=1e-12,
    )
    assert semantic_loss(batch, cfg) == pytest.approx(
        semantic_loss_ref(batch, cfg.tau, cfg.l2_normalize), abs=1e-12
    )


def test_losses_match_reference_on_gaussian_batches():
    for seed in range(3):
        batch = random_batch(seed, levels=4, batch=3, dim=8, scale=0.7)
        cfg = ContrastConfig(tau=1.3)
        assert spatial_loss(batch, cfg) == pytest.approx(
            spatial_loss_ref(batch, 1.3, False), abs=1e-12
        )
        assert semantic_loss(batch, cfg) == pytest.approx(
            semantic_loss_ref(batch, 1.3), abs=1e-12
        )


def test_losses_invariant_under_image_permutation():
    batch = toy_batch(seed=5)
    perm = [2, 0, 1]
    shuffled = EmbeddingBatch(
        batch.spatial_lateral[:, perm],
        batch.semantic_lateral[:, perm],
        batch.spatial_fused[:, perm],
        batch.semantic_fused[:, perm],
    )
    cfg = ContrastConfig()
    assert spatial_loss(shuffled, cfg) == pytest.approx(spatial_loss(batch, cfg), abs=1e-12)
    assert semantic_loss(shuffled, cfg) == pytest.approx(semantic_loss(batch, cfg), abs=1e-12)


def test_info_nce_grad_hand_case():
    """Orthogonal unit q, k, s at tau 1: both softmax weights are 1/2."""
    q = np.array([1.0, 0.0, 0.0])
    k = np.array([0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0])
    grad_q, grad_k, grad_negs = info_nce_grad(q, k, [s], tau=1.0)
    np.testing.assert_allclose(grad_q, 0.5 * (s - k), atol=1e-12)
    np.testing.assert_allclose(grad_k, -0.5 * q, atol=1e-12)
    np.testing.assert_allclose(grad_negs[0], 0.5 * q, atol=1e-12)


@pytest.mark.parametrize("images", [3, 1])
@pytest.mark.parametrize("flags", FLAG_SETS)
def test_contrast_grad_matches_closed_form_reference(flags, images):
    cfg = ContrastConfig(**flags)
    batch = toy_batch(seed=0, batch=images)
    want = contrast_grad_ref(batch, cfg.tau, cfg.include_same_image_other_levels, cfg.l2_normalize)
    for got, ref in zip(contrast_grad(batch, cfg).as_tuple(), want):
        np.testing.assert_allclose(got, np.asarray(ref), rtol=0, atol=1e-12)


def test_gradient_check_toy_batch_default_config():
    report = gradient_check(toy_batch(seed=0), ContrastConfig(), step=1e-4)
    assert report.num_coordinates == 4 * 4 * 3 * 16
    assert report.max_rel_error <= 1e-5
    assert report.passed()


def test_gradient_check_flag_paths():
    # Unit-scale embeddings and a moderate tau keep the finite-difference
    # truncation small enough to say something at h = 1e-4.
    batch = random_batch(50, levels=3, batch=2, dim=8)
    for flags in (
        {"include_same_image_other_levels": True},
        {"l2_normalize": True},
        {"include_same_image_other_levels": True, "l2_normalize": True},
    ):
        report = gradient_check(batch, ContrastConfig(tau=0.5, **flags), step=1e-4)
        assert report.max_rel_error <= 1e-5, flags


def test_gradient_check_l2_on_small_norm_embeddings():
    """Normalization curvature grows as 1/norm^2, so the toy batch (norms
    around 0.15) needs a smaller step before truncation clears the bar."""
    report = gradient_check(toy_batch(seed=0), ContrastConfig(l2_normalize=True), step=1e-6)
    assert report.max_rel_error <= 1e-5


def test_gradient_check_rejects_bad_step():
    with pytest.raises(ValueError):
        gradient_check(toy_batch(seed=1), ContrastConfig(), step=0.0)


@pytest.mark.parametrize("images", [3, 1])
@pytest.mark.parametrize("flags", FLAG_SETS)
def test_gradient_check_matches_loop_reference(flags, images):
    batch = toy_batch(seed=0, batch=images)
    cfg = ContrastConfig(**flags)
    got = gradient_check(batch, cfg)
    want = gradient_check_ref(batch, cfg)
    assert got.num_coordinates == want.num_coordinates == 4 * 4 * images * 16
    assert math.isclose(got.max_rel_error, want.max_rel_error, rel_tol=1e-9, abs_tol=0.0)
    assert math.isclose(got.max_abs_error, want.max_abs_error, rel_tol=1e-9, abs_tol=0.0)


def test_gradient_check_fails_on_nan_differences():
    """At step 1e308 most perturbed losses overflow to NaN; none may drop out."""
    report = gradient_check(toy_batch(seed=1), ContrastConfig(), step=1e308)
    assert not math.isfinite(report.max_rel_error)
    assert not math.isfinite(report.max_abs_error)
    assert not report.passed()


def test_gradient_check_rejects_non_finite_perturbations():
    batch = toy_batch(seed=1)
    arrays = [a.copy() for a in contrast_arrays(batch)]
    arrays[3][0, 0, 0] = 1e308
    bad = EmbeddingBatch(*arrays)
    for check in (gradient_check, gradient_check_ref):
        with pytest.raises(ValueError, match="^semantic_fused contains non-finite values$"):
            check(bad, ContrastConfig(), step=1e308)


def _grad_with_error(rel):
    """contrast_grad with its largest spatial_fused coordinate off by rel."""
    exact = smalldet.contrast.contrast_grad

    def grad(batch, cfg=ContrastConfig()):
        arrays = [g.copy() for g in exact(batch, cfg).as_tuple()]
        flat = arrays[2].reshape(-1)
        flat[np.argmax(np.abs(flat))] *= 1.0 + rel
        return ContrastGradients(*arrays)

    return grad


def test_gradient_check_catches_a_1e3_gradient_error(monkeypatch):
    monkeypatch.setattr(smalldet.contrast, "contrast_grad", _grad_with_error(1e-3))
    report = gradient_check(toy_batch(seed=0), ContrastConfig())
    assert report.max_rel_error > 1e-4
    assert not report.passed()


def test_grad_reference_test_catches_a_1e9_gradient_error(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "contrast_grad", _grad_with_error(1e-9))
    with pytest.raises(AssertionError):
        test_contrast_grad_matches_closed_form_reference({}, 3)


def test_total_loss_arithmetic():
    assert total_loss(LossComponents(1.0, 2.0, 5.0, alpha=0.1)) == pytest.approx(5.3, abs=1e-12)
    assert total_loss(LossComponents(1.0, 2.0, 5.0, alpha=0.0)) == 5.0
    assert total_loss(LossComponents(0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(ValueError):
        LossComponents(-1.0, 0.0, 0.0)



def test_overflowing_logits_raise_naming_the_loss():
    """At tau 1e-320 every dot product over tau overflows."""
    batch = toy_batch(seed=0)
    cfg = ContrastConfig(tau=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        for loss, name in ((spatial_loss, "spatial_loss"), (semantic_loss, "semantic_loss")):
            with pytest.raises(ValueError, match=f"^{name}: .*not finite"):
                loss(batch, cfg)
        with pytest.raises(ValueError, match="^spatial_loss: "):
            contrast_grad(batch, cfg)
        assert batch._saved == {}
        huge = np.array([1e150, 0.0])  # squared norm 1e300
        for fn in (info_nce, info_nce_grad):
            with pytest.raises(ValueError, match=f"^{fn.__name__}: "):
                fn(huge, huge, [], tau=1e-10)  # positive logit +inf
            with pytest.raises(ValueError, match=f"^{fn.__name__}: "):
                fn(huge, -huge, [huge], tau=1e-10)  # positive -inf, largest +inf
        # Huge but finite logits still give a finite loss.
        assert info_nce(huge, -huge, [huge], tau=1.0) == pytest.approx(2e300, rel=1e-12)


def loss_and_grad_bytes(batch, cfg, grad_first=False):
    if grad_first:
        grads = contrast_grad(batch, cfg)
        losses = spatial_loss(batch, cfg), semantic_loss(batch, cfg)
    else:
        losses = spatial_loss(batch, cfg), semantic_loss(batch, cfg)
        grads = contrast_grad(batch, cfg)
    return [np.array(losses).tobytes()] + [g.tobytes() for g in grads.as_tuple()]


@pytest.mark.parametrize("flags", FLAG_SETS)
def test_saved_forward_matches_a_fresh_batch_in_any_order(flags):
    cfg = ContrastConfig(**flags)
    fresh = loss_and_grad_bytes(toy_batch(seed=6), cfg)

    batch = toy_batch(seed=6)
    assert loss_and_grad_bytes(batch, cfg, grad_first=True) == fresh
    assert batch._saved.keys() == {"spatial_loss", "semantic_loss"}  # the losses ran last
    grads = contrast_grad(batch, cfg).as_tuple()
    assert batch._saved == {}
    assert [g.tobytes() for g in grads] == fresh[1:]
    assert [g.tobytes() for g in contrast_grad(batch, cfg).as_tuple()] == fresh[1:]
    assert loss_and_grad_bytes(batch, cfg) == fresh
    assert batch._saved == {}


def test_a_second_config_replaces_the_saved_forward():
    first, second = ContrastConfig(), ContrastConfig(tau=0.5, include_same_image_other_levels=True)
    batch = toy_batch(seed=7)
    spatial_loss(batch, first), semantic_loss(batch, first)
    losses = spatial_loss(batch, second), semantic_loss(batch, second)
    assert len(batch._saved) == 2
    assert all(entry[0] is second for entry in batch._saved.values())
    grads = [g.tobytes() for g in contrast_grad(batch, second).as_tuple()]
    assert batch._saved == {}
    assert [np.array(losses).tobytes()] + grads == loss_and_grad_bytes(toy_batch(seed=7), second)

    # An entry saved under another config is dropped, not used.
    spatial_loss(batch, first)
    grads = [g.tobytes() for g in contrast_grad(batch, second).as_tuple()]
    assert batch._saved == {}
    assert grads == loss_and_grad_bytes(toy_batch(seed=7), second)[1:]


# SHA-256 of the float64 losses [spatial, semantic], then the four
# gradient arrays, at L=5, N=64, D=128, seed 0.
TRAINING_SHAPE_DIGESTS = {
    (): "9451fa936cc9465186043cd6bfbee3edbe2ca663457a92bf979bb62a8ba9700d",
    ("include_same_image_other_levels",): "649215f06c52f142740fda441ee4e67e4266e2d3300f78be6fa8c5a51a0c2f7c",
    ("l2_normalize",): "179dbc26447e0ee19d46da4de57af1242c957f6dacb7507bf2a83d147f4f1a45",
    ("include_same_image_other_levels", "l2_normalize"):
        "df2ca96907fba54710b4081eefb6324c2075322490009fce848228e348702dfc",
}


def test_training_shape_losses_and_gradients_are_pinned():
    batch = toy_batch(seed=0, levels=5, batch=64, dim=128)
    for flags in FLAG_SETS:
        digest = hashlib.sha256()
        for chunk in loss_and_grad_bytes(batch, ContrastConfig(**flags)):
            digest.update(chunk)
        assert digest.hexdigest() == TRAINING_SHAPE_DIGESTS[tuple(sorted(flags))], flags
