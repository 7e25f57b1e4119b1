"""Ensemble strategy contracts: hand cases, invariances, and integration."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from promptlab import autodiff as ad
from promptlab.autodiff import Tensor
from promptlab.datagen import generate_dataset, sample_few_shot
from promptlab.encoders import EncoderState, ModelConfig, PromptSet
from promptlab.ensemble import (branch_confidences, ensemble_confidence,
                                ensemble_equal, ensemble_threshold, predict,
                                resolve_strategy, three_branch_logits)
from promptlab.evalkit import extract_attention_map, gradcam_map
from promptlab.tuning import (Batch, BranchOutputs, TextBank, augmented_logits,
                              build_text_bank, ce_logits, compute_losses,
                              forward_three_branch, global_branch_accuracy,
                              loss_aug_single, loss_ce)


def mk(g, a, v):
    """The ``(K, ..., C)`` stack of the present branches."""
    return np.stack([np.asarray(x, dtype=np.float64) for x in (g, a, v)
                     if x is not None])


def softmax_oracle(v):
    e = np.exp(np.asarray(v) - np.max(v))
    return e / e.sum()


# ----------------------------------------------------- three_branch_logits

def hand_logits(glob, rows, aug=None, vanilla_rows=None, tau=0.5):
    """three_branch_logits of hand-built reps; the vanilla rep is the
    global one, scored against ``vanilla_rows`` (default: ``rows``)."""
    rows = np.asarray(rows, dtype=np.float64)
    vrows = rows if vanilla_rows is None else np.asarray(vanilla_rows, float)
    outputs = BranchOutputs(
        global_rep=Tensor(np.asarray(glob, dtype=np.float64)),
        augmented_reps=None if aug is None else Tensor(np.asarray(aug, float)),
        vanilla_rep=Tensor(np.asarray(glob, dtype=np.float64)))
    bank = TextBank(prompted=Tensor(rows), vanilla=Tensor(vrows))
    return three_branch_logits(outputs, bank, tau)


def test_three_branch_logits_hand_case_1d():
    # rep e0 against identity bank: cosines (1, 0), scaled by 1/tau
    glob, aug, van = hand_logits([1.0, 0.0], np.eye(2), aug=[[1.0, 0.0]],
                                 vanilla_rows=np.eye(2)[::-1])
    assert np.allclose(glob, [2.0, 0.0], atol=1e-12)
    assert np.allclose(aug, [2.0, 0.0], atol=1e-12)
    assert np.allclose(van, [0.0, 2.0], atol=1e-12)   # its own rows


def test_three_branch_logits_normalizes_inputs():
    # cosine is scale free on both sides, in every branch
    lg = hand_logits([3.0, 0.0], 7.0 * np.eye(2), aug=[[5.0, 0.0]])
    for logits in lg:
        assert np.allclose(logits, [2.0, 0.0], atol=1e-12)


def test_three_branch_logits_augmented_is_the_mean_of_rows():
    aug = np.array([[0.8, 0.6], [0.0, 1.0]])
    lg = hand_logits([1.0, 0.0], np.eye(2), aug=aug)
    assert np.allclose(lg[1], [0.4 / 0.5, 0.8 / 0.5], atol=1e-12)


def test_three_branch_logits_augmented_matches_per_row_calls():
    rng = np.random.default_rng(7)
    aug = rng.normal(size=(3, 5))
    aug /= np.linalg.norm(aug, axis=1, keepdims=True)
    rows = rng.normal(size=(4, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    tau = 0.25
    lg = hand_logits(aug[0], rows, aug=aug, tau=tau)
    want = [augmented_logits(Tensor(aug), Tensor(rows[i]), 1.0).item() / tau
            for i in range(4)]
    assert np.allclose(lg[1], want, atol=1e-12)


def test_three_branch_logits_global_matches_loss_ce():
    # -log softmax of the global-branch logits must equal the training CE
    rng = np.random.default_rng(11)
    rep = rng.normal(size=6)
    rows = rng.normal(size=(3, 6))
    bank = TextBank(prompted=Tensor(rows), vanilla=Tensor(rows.copy()))
    tau = 0.5
    logits = hand_logits(rep, rows, tau=tau)[0]
    for y in range(3):
        ce = loss_ce(Tensor(rep), bank, y, tau).item()
        assert abs(ce + np.log(softmax_oracle(logits)[y])) < 1e-12


def test_three_branch_logits_rejects_zero_vectors():
    with pytest.raises(ValueError, match="degenerate"):
        hand_logits(np.zeros(3), np.eye(3), tau=1.0)
    with pytest.raises(ValueError, match="degenerate"):
        hand_logits(np.ones(3), np.zeros((2, 3)), tau=1.0)
    with pytest.raises(ValueError, match="degenerate"):
        hand_logits(np.ones(3), np.eye(3), aug=np.zeros((2, 3)), tau=1.0)


# ------------------------------------------------------------------- equal

def test_equal_hand_case():
    out = ensemble_equal(mk([1.0, 0.0], [0.0, 1.0], [2.0, 2.0]))
    assert np.array_equal(out, [1.0, 1.0])


def test_equal_identical_logits_pass_through():
    v = np.array([0.3, -1.2, 4.0])
    out = ensemble_equal(mk(v, v, v))
    assert np.allclose(out, v, atol=1e-12)


def test_equal_two_branches_when_augmented_absent():
    out = ensemble_equal(mk([1.0, 0.0], None, [0.0, 1.0]))
    assert np.array_equal(out, [0.5, 0.5])


# -------------------------------------------------------------- confidence

def test_confidence_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lg = mk(rng.normal(size=4), rng.normal(size=4), rng.normal(size=4))
        conf = branch_confidences(lg)
        w = conf / conf.sum()
        assert abs(w.sum() - 1.0) < 1e-12
        want = w[0] * lg[0] + w[1] * lg[1] + w[2] * lg[2]
        assert np.allclose(ensemble_confidence(lg), want, atol=1e-12)


def test_confidence_hand_case():
    # branch A peaked (max prob 0.9), B and C flat (max prob 0.5)
    a = np.array([np.log(9.0), 0.0])
    flat = np.zeros(2)
    lg = mk(a, flat, flat)
    conf = np.array([softmax_oracle(a).max(), 0.5, 0.5])
    want = (conf[0] * a + conf[1] * flat + conf[2] * flat) / conf.sum()
    assert np.allclose(ensemble_confidence(lg), want, atol=1e-12)
    assert abs(conf[0] - 0.9) < 1e-12


def test_confidence_identical_logits_pass_through():
    v = np.array([2.0, -0.5, 0.1])
    assert np.allclose(ensemble_confidence(mk(v, v, v)), v, atol=1e-12)


def test_confidence_shift_invariant_weights():
    # adding a constant to every branch shifts the output by that constant
    rng = np.random.default_rng(3)
    lg = mk(rng.normal(size=5), rng.normal(size=5), rng.normal(size=5))
    base = ensemble_confidence(lg)
    c = 3.7
    shifted = mk(lg[0] + c, lg[1] + c, lg[2] + c)
    assert np.allclose(ensemble_confidence(shifted), base + c, atol=1e-12)
    assert np.argmax(ensemble_confidence(shifted)) == np.argmax(base)


def test_confidence_permutation_equivariant():
    rng = np.random.default_rng(4)
    lg = mk(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6))
    perm = rng.permutation(6)
    permuted = mk(lg[0][perm], lg[1][perm], lg[2][perm])
    assert np.allclose(ensemble_confidence(permuted),
                       ensemble_confidence(lg)[perm], atol=1e-12)


# --------------------------------------------------------------- threshold

def peaked_flat_logits():
    a = np.array([np.log(9.0), 0.0])      # max prob ~0.9
    return mk(a, np.zeros(2), np.zeros(2))


def test_threshold_keeps_only_confident_branch():
    lg = peaked_flat_logits()
    out = ensemble_threshold(lg, theta=0.8)
    assert np.array_equal(out, lg[0])


def test_threshold_small_theta_equals_equal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lg = mk(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        assert np.array_equal(ensemble_threshold(lg, theta=1e-9),
                              ensemble_equal(lg))


def test_threshold_no_branch_confident_falls_back_to_equal():
    lg = peaked_flat_logits()
    out = ensemble_threshold(lg, theta=0.99)
    assert np.array_equal(out, ensemble_equal(lg))


def test_threshold_theta_validation():
    lg = peaked_flat_logits()
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="theta"):
            ensemble_threshold(lg, theta=bad)


def test_threshold_default_is_point_eight():
    lg = peaked_flat_logits()
    assert np.array_equal(ensemble_threshold(lg),
                          ensemble_threshold(lg, theta=0.8))


# ------------------------------------------------------------- batching

def threshold_oracle(lg, theta):
    """The per-image rule: mean of the branches above theta, else equal."""
    vecs = list(lg)
    kept = [v for v in vecs if softmax_oracle(v).max() > theta]
    return np.mean(kept or vecs, axis=0)


@pytest.mark.parametrize("with_aug", [True, False])
def test_ensembles_on_a_batch_equal_row_by_row_calls(with_aug):
    rng = np.random.default_rng(6)
    g, a, v = (2.0 * rng.normal(size=(40, 3)) for _ in range(3))
    batch = mk(g, a if with_aug else None, v)
    rows = [mk(g[i], a[i] if with_aug else None, v[i]) for i in range(40)]
    passing = (branch_confidences(batch) > 0.8).any(axis=0)
    assert passing.any() and not passing.all()   # kept rows and fallbacks
    assert np.array_equal(branch_confidences(batch),
                          np.stack([branch_confidences(r) for r in rows], 1))
    for fn in (ensemble_equal, ensemble_confidence, ensemble_threshold,
               resolve_strategy("threshold:0.6")):
        assert np.array_equal(fn(batch), np.stack([fn(r) for r in rows]))
    for theta in (0.8, 0.6):
        want = np.stack([threshold_oracle(r, theta) for r in rows])
        assert np.array_equal(ensemble_threshold(batch, theta), want)


# --------------------------------------------------------- strategy lookup

def test_resolve_strategy_names():
    lg = peaked_flat_logits()
    assert np.array_equal(resolve_strategy("equal")(lg), ensemble_equal(lg))
    assert np.array_equal(resolve_strategy("confidence")(lg),
                          ensemble_confidence(lg))
    assert np.array_equal(resolve_strategy("threshold")(lg),
                          ensemble_threshold(lg))
    assert np.array_equal(resolve_strategy(" Equal ")(lg), ensemble_equal(lg))


def test_resolve_strategy_custom_theta():
    lg = peaked_flat_logits()
    # 0.95 rejects every branch (fallback), default 0.8 keeps the peaked one
    strict = resolve_strategy("threshold:0.95")(lg)
    assert np.array_equal(strict, ensemble_equal(lg))
    assert not np.array_equal(strict, resolve_strategy("threshold")(lg))


def test_resolve_strategy_rejects_unknown():
    with pytest.raises(ValueError, match="unknown ensemble strategy"):
        resolve_strategy("median")
    with pytest.raises(ValueError, match="theta"):
        resolve_strategy("threshold:1.5")
    with pytest.raises(ValueError):
        resolve_strategy("threshold:abc")


# -------------------------------------------------------------- integration

CFG = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=2,
                  heads=2, patch_grid=(2, 2), image_size=8, vocab_size=12,
                  text_prompt_len=2, visual_prompt_len=2)


def setup_model(v=2):
    cfg = CFG if v == 2 else ModelConfig(**{**CFG.to_dict(),
                                            "visual_prompt_len": v})
    state = EncoderState.initialize(cfg, seed=0)
    prompts = PromptSet.initialize(cfg, seed=1)
    bank = build_text_bank(["square", "ring"], prompts, cfg, state)
    rng = np.random.default_rng(2)
    image = rng.uniform(size=(cfg.image_size, cfg.image_size))
    return cfg, state, prompts, bank, image


def test_three_branch_logits_shapes_and_consistency():
    cfg, state, prompts, bank, image = setup_model()
    out = forward_three_branch(image, prompts, cfg, state)
    lg = three_branch_logits(out, bank, cfg.temperature)
    assert lg.shape == (3, 2)
    rep, rows = out.vanilla_rep.data, bank.vanilla.data
    want = (rows @ rep / np.linalg.norm(rows, axis=1) / np.linalg.norm(rep)
            / cfg.temperature)
    assert np.allclose(lg[2], want, atol=1e-12)


@pytest.mark.parametrize("n_images", [None, 5])
def test_three_branch_logits_are_the_training_logits_bitwise(n_images):
    # one image or a stack: each branch is scored by the expression its
    # loss term takes the cross entropy of, bit for bit
    cfg, state, prompts, bank, image = setup_model()
    if n_images is not None:
        rng = np.random.default_rng(4)
        image = rng.uniform(size=(n_images, cfg.image_size, cfg.image_size))
    out = forward_three_branch(image, prompts, cfg, state)
    tau = cfg.temperature
    lg = three_branch_logits(out, bank, tau)
    pairs = [
        (lg[0], ce_logits(out.global_rep, bank.prompted, tau)),
        (lg[1], augmented_logits(out.augmented_reps, bank.prompted, tau)),
        (lg[2], ce_logits(out.vanilla_rep, bank.vanilla, tau))]
    for got, want in pairs:
        assert np.array_equal(got, want.data)
    y = 1 if n_images is None else np.arange(n_images) % 2
    pick = y if n_images is None else (np.arange(n_images), y)

    def nll(logits):
        return (-ad.log_softmax(Tensor(logits))[pick]).data

    assert np.array_equal(nll(lg[0]),
                          loss_ce(out.global_rep, bank, y, tau).data)
    assert np.array_equal(nll(lg[1]), loss_aug_single(
        out.augmented_reps, bank, y, tau).data)


@pytest.mark.parametrize("v", [0, 2])
def test_projection_scale_leaves_logits_and_losses_unchanged(v):
    # projections are plain products and every score is a cosine, so
    # positive scales of the two projection heads change no logit or loss
    cfg, state, prompts, _, _ = setup_model(v)
    scaled = replace(state, img_proj=Tensor(3.5 * state.img_proj.data),
                     text_proj=Tensor(0.02 * state.text_proj.data))
    rng = np.random.default_rng(10)
    images = rng.uniform(size=(4, cfg.image_size, cfg.image_size))
    batch = Batch(images=images, labels=np.array([0, 1, 1, 0]))
    names = ["square", "ring"]
    logits, losses = [], []
    for st in (state, scaled):
        bank = build_text_bank(names, prompts, cfg, st)
        out = forward_three_branch(images, prompts, cfg, st)
        logits.append(three_branch_logits(out, bank, cfg.temperature))
        losses.append(compute_losses(batch, prompts, cfg, st, names))
    assert logits[0].shape == (3 if v else 2, 4, 2)
    np.testing.assert_allclose(logits[1], logits[0], rtol=1e-12, atol=1e-12)
    assert losses[1].keys() == losses[0].keys()
    for key, want in losses[0].items():
        assert np.isclose(losses[1][key].item(), want.item(), rtol=1e-12,
                          atol=1e-12), key


def test_predict_deterministic_and_valid():
    cfg, state, prompts, bank, image = setup_model()
    for strategy in ("equal", "confidence", "threshold", "threshold:0.6"):
        a = predict(image, prompts, cfg, state, bank, strategy)
        b = predict(image, prompts, cfg, state, bank, strategy)
        assert a == b and a in (0, 1)


def test_predict_without_visual_prompts():
    cfg, state, prompts, bank, image = setup_model(v=0)
    out = forward_three_branch(image, prompts, cfg, state)
    assert out.augmented_reps is None
    for strategy in ("equal", "confidence", "threshold"):
        assert predict(image, prompts, cfg, state, bank, strategy) in (0, 1)


STRATEGY_NAMES = ("equal", "confidence", "threshold", "threshold:0.6")


@pytest.mark.parametrize("v", [0, 2])
def test_predict_on_a_stack_equals_one_image_at_a_time(v):
    cfg, state, prompts, bank, _ = setup_model(v)
    rng = np.random.default_rng(9)
    images = rng.uniform(size=(7, cfg.image_size, cfg.image_size))
    singles, stacks = {}, {}
    for strategy in STRATEGY_NAMES:
        single = [predict(img, prompts, cfg, state, bank, strategy)
                  for img in images]
        assert all(type(p) is int for p in single)
        batched = predict(images, prompts, cfg, state, bank, strategy)
        assert batched.shape == (7,)
        assert batched.tolist() == single
        singles[strategy], stacks[strategy] = single, batched
    # a tuple of names gives each name's one-name result, in its order
    for k in range(1, len(STRATEGY_NAMES) + 1):
        for names in itertools.permutations(STRATEGY_NAMES, k):
            for i, img in enumerate(images[:2]):
                got = predict(img, prompts, cfg, state, bank, names)
                assert type(got) is tuple and len(got) == k
                assert all(type(p) is int for p in got)
                assert list(got) == [singles[n][i] for n in names]
            got = predict(images, prompts, cfg, state, bank, names)
            assert type(got) is tuple and len(got) == k
            for name, preds in zip(names, got):
                assert preds.dtype == stacks[name].dtype
                assert preds.tobytes() == stacks[name].tobytes()


@pytest.mark.parametrize("names", [(), ("equal", "median"), ("median",)])
def test_predict_rejects_bad_strategy_tuples_before_encoding(names,
                                                             monkeypatch):
    import promptlab.ensemble as ens
    cfg, state, prompts, bank, image = setup_model()
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return forward_three_branch(*args, **kw)

    monkeypatch.setattr(ens, "forward_three_branch", counting)
    with pytest.raises(ValueError):
        predict(image, prompts, cfg, state, bank, names)
    assert not calls
    predict(image, prompts, cfg, state, bank, ("equal",))
    assert calls == [1]


def test_scoring_leaves_the_callers_prompts_alone():
    cfg, state, prompts, _, image = setup_model()
    ds = generate_dataset(2, 2, cfg.image_size, seed=3)
    subset = sample_few_shot(ds, 2, (0, 1), seed=0)
    names = [ds.class_names[c] for c in subset.class_list]
    bank = build_text_bank(names, prompts, cfg, state)   # graph on prompts

    out = forward_three_branch(image, prompts, cfg, state)
    assert (not out.global_rep.requires_grad
            and not out.vanilla_rep.requires_grad)
    assert not out.augmented_reps.requires_grad
    calls = {
        "predict": lambda: predict(image, prompts, cfg, state, bank),
        "global_branch_accuracy": lambda: global_branch_accuracy(
            subset, names, prompts, cfg, state),
        "extract_attention_map": lambda: extract_attention_map(
            image, prompts, cfg, state, "VP:1"),
        "gradcam_map": lambda: gradcam_map(image, prompts, cfg, state, bank),
    }
    for name, call in calls.items():
        call()
        assert all(t.grad is None for t in prompts.parameters()), name


def test_predict_tie_breaks_to_lowest_index():
    cfg, state, prompts, _, image = setup_model()
    row = np.zeros(cfg.shared_width)
    row[0] = 1.0
    same = Tensor(np.stack([row, row, row]))
    bank = TextBank(prompted=same, vanilla=same)
    for strategy in ("equal", "confidence", "threshold"):
        assert predict(image, prompts, cfg, state, bank, strategy) == 0
