"""Loss stack, branch isolation, optimizer, and train-loop tests.

Scalar loss oracles were produced with 60-digit extended-precision
arithmetic before the implementation existed and are frozen below.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promptlab.autodiff as ad
from oracle_helpers import (oracle_plain_image, oracle_plain_text,
                            oracle_project, oracle_prompted_image,
                            oracle_prompted_text)
from promptlab.autodiff import Tensor
from promptlab.datagen import generate_dataset, sample_few_shot, tokenize_template
from promptlab.encoders import EncoderState, ModelConfig, PromptSet
from promptlab.tuning import (Batch, SGDMomentum, TextBank, build_text_bank,
                              combine_global, compute_losses,
                              forward_three_branch, global_branch_accuracy,
                              loss_aug_single, loss_ce, loss_consistency,
                              sim_augmented, train, train_step,
                              vanilla_image_rep, vanilla_text_rows)

# frozen extended-precision oracles: -log softmax(sims/tau)[y]
CE_SIMS_TAU05_Y0 = 0.2720858382796124   # sims (0.9, 0.1, -0.2), tau 0.5
CE_SIMS_TAU05_Y2 = 2.4720858382796124
CE_SIMS_TAU001_Y0 = 1.8048513878455841e-35  # same sims, tau 0.01
AUG_TABLE_ORACLE = 0.22041740991845093  # per-class means (0.6, -0.1), tau 0.5
LN2 = 0.6931471805599453


def hand_bank(rows, vanilla=None):
    rows = np.asarray(rows, dtype=np.float64)
    if vanilla is None:
        vanilla = rows.copy()
    return TextBank(prompted=Tensor(rows), vanilla=Tensor(np.asarray(vanilla)))


def bank_from_cosines(cosines):
    """Unit rows whose cosine to e0 equals each requested value."""
    d = len(cosines) + 1
    rows = []
    for i, c in enumerate(cosines):
        r = np.zeros(d)
        r[0] = c
        r[i + 1] = np.sqrt(1.0 - c * c)
        rows.append(r)
    return hand_bank(np.stack(rows)), np.eye(d)[0]


# --------------------------------------------------------------- loss_ce

def test_loss_ce_single_class_is_zero():
    bank, x = bank_from_cosines([0.3])
    assert loss_ce(Tensor(x), bank, 0, tau=0.5).item() == 0.0


def test_loss_ce_uniform_gives_log_nc():
    bank = hand_bank(np.eye(2))
    x = Tensor(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert abs(loss_ce(x, bank, 0, tau=0.7).item() - LN2) < 1e-12
    bank3 = hand_bank(np.eye(3))
    x3 = Tensor(np.ones(3) / np.sqrt(3.0))
    assert abs(loss_ce(x3, bank3, 1, tau=0.2).item() - np.log(3.0)) < 1e-12


def test_loss_ce_matches_extended_precision_oracle():
    bank, x = bank_from_cosines([0.9, 0.1, -0.2])
    assert abs(loss_ce(Tensor(x), bank, 0, 0.5).item()
               - CE_SIMS_TAU05_Y0) < 1e-12
    assert abs(loss_ce(Tensor(x), bank, 2, 0.5).item()
               - CE_SIMS_TAU05_Y2) < 1e-12
    # at tau=0.01 the true value underflows float64; stays within 1e-30
    assert abs(loss_ce(Tensor(x), bank, 0, 0.01).item()
               - CE_SIMS_TAU001_Y0) < 1e-30


def test_loss_ce_scale_invariance_and_errors():
    bank, x = bank_from_cosines([0.9, 0.1, -0.2])
    a = loss_ce(Tensor(x), bank, 0, 0.5).item()
    b = loss_ce(Tensor(7.5 * x), bank, 0, 0.5).item()
    assert abs(a - b) < 1e-12
    with pytest.raises(ValueError):
        loss_ce(Tensor(x), bank, 3, 0.5)
    with pytest.raises(ValueError):
        loss_ce(Tensor(x), bank, -1, 0.5)
    with pytest.raises(ValueError, match="degenerate vector"):
        loss_ce(Tensor(np.zeros(4)), bank, 0, 0.5)


# --------------------------------------------------------- consistency

def test_loss_consistency_endpoints():
    v = Tensor(np.array([0.6, 0.8]))
    assert abs(loss_consistency(v, v).item()) < 1e-12
    w = Tensor(np.array([-0.6, -0.8]))
    assert abs(loss_consistency(v, w).item() - 2.0) < 1e-12
    u = Tensor(np.array([-0.8, 0.6]))
    assert loss_consistency(v, u).item() == 1.0


# ------------------------------------------------------- sim_augmented

def test_sim_augmented_mean_and_edges():
    z = Tensor(np.eye(3)[0])
    r1 = np.array([0.8, np.sqrt(1 - 0.64), 0.0])
    r2 = np.array([0.2, 0.0, np.sqrt(1 - 0.04)])
    rows = Tensor(np.stack([r1, r2]))
    assert abs(sim_augmented(rows, z).item() - 0.5) < 1e-12
    one = Tensor(r1.reshape(1, 3))
    assert sim_augmented(one, z).item() == \
        ad.cosine_similarity(Tensor(r1), z).item()
    twice = Tensor(np.stack([r1, r1]))
    assert sim_augmented(twice, z).item() == \
        ad.cosine_similarity(Tensor(r1), z).item()
    with pytest.raises(ValueError, match="augmented branch requires"):
        sim_augmented(None, z)
    with pytest.raises(ValueError, match="augmented branch requires"):
        sim_augmented(Tensor(np.zeros((0, 3))), z)


def test_loss_aug_single_matches_hand_table():
    # V=2, N_c=2: cosines to z0 are (0.8, 0.4), to z1 are (0.1, -0.3)
    z0 = np.array([1.0, 0, 0, 0])
    z1 = np.array([0, 1.0, 0, 0])
    r1 = np.array([0.8, 0.1, np.sqrt(1 - 0.64 - 0.01), 0.0])
    r2 = np.array([0.4, -0.3, 0.0, np.sqrt(1 - 0.16 - 0.09)])
    bank = hand_bank(np.stack([z0, z1]))
    got = loss_aug_single(Tensor(np.stack([r1, r2])), bank, 0, 0.5).item()
    assert abs(got - AUG_TABLE_ORACLE) < 1e-12


def test_loss_aug_single_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    aug = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    rows = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    bank = TextBank(prompted=rows, vanilla=Tensor(rows.data.copy()))

    def make_loss():
        return loss_aug_single(aug, bank, 2, tau=0.5)

    ad.backward(make_loss())
    fd = ad.finite_difference_gradient(lambda: make_loss().item(),
                                       [aug, rows])
    assert ad.max_relative_error(aug.grad, fd[0]) < 1e-6
    assert ad.max_relative_error(rows.grad, fd[1]) < 1e-6


def test_loss_aug_collapses_to_ce_when_rows_equal_global():
    bank, x = bank_from_cosines([0.4, -0.1])
    rows = Tensor(np.tile(x, (3, 1)))
    a = loss_aug_single(rows, bank, 1, 0.3).item()
    b = loss_ce(Tensor(x), bank, 1, 0.3).item()
    assert abs(a - b) < 1e-10


# -------------------------------------------------------- combination

def test_combine_global_paper_weights():
    assert abs(combine_global(0.5, 0.1, 0.05, 3.0, 4.0) - 1.0) < 1e-12


# ---------------------------------------------------- batch-level losses

def tuning_cfg(**kw):
    base = dict(visual_width=8, text_width=8, shared_width=8, depth=2,
                heads=2, patch_grid=(2, 2), image_size=8, vocab_size=12,
                visual_prompt_len=2, text_prompt_len=2)
    base.update(kw)
    return ModelConfig(**base)


def tiny_task(cfg, n_classes=2, per_class=2, seed=0):
    ds = generate_dataset(n_classes=n_classes, per_class=per_class,
                          image_size=cfg.image_size, seed=seed)
    sub = sample_few_shot(ds, per_class, tuple(range(n_classes)), seed=1)
    names = [ds.class_names[c] for c in sub.class_list]
    return Batch.from_subset(sub), names


def test_loss_global_reduces_to_ce_when_weights_zero():
    cfg = tuning_cfg(text_consistency_weight=0.0, image_consistency_weight=0.0)
    state = EncoderState.initialize(cfg, seed=3)
    prompts = PromptSet.initialize(cfg, seed=4)
    batch, names = tiny_task(cfg)
    losses = compute_losses(batch, prompts, cfg, state, names)
    assert abs(losses["global"].item() - losses["ce"].item()) < 1e-12


def test_promptless_config_makes_consistency_vanish():
    cfg = tuning_cfg(visual_prompt_len=0, text_prompt_len=0)
    state = EncoderState.initialize(cfg, seed=3)
    prompts = PromptSet([], [])
    batch, names = tiny_task(cfg)
    losses = compute_losses(batch, prompts, cfg, state, names)
    assert abs(losses["text"].item()) < 1e-10
    assert abs(losses["img"].item()) < 1e-10
    assert abs(losses["global"].item() - losses["ce"].item()) < 1e-10
    assert losses["total"].item() == losses["global"].item()
    assert losses["aug"].item() == 0.0


def test_loss_total_is_global_plus_aug():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=3)
    prompts = PromptSet.initialize(cfg, seed=4)
    batch, names = tiny_task(cfg)
    losses = compute_losses(batch, prompts, cfg, state, names)
    assert abs(losses["total"].item()
               - (losses["global"].item() + losses["aug"].item())) < 1e-12
    again = compute_losses(batch, prompts, cfg, state, names)
    for key in ("total", "global", "aug"):
        assert again[key].item() == losses[key].item()


def test_empty_batch_rejected():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=3)
    prompts = PromptSet.initialize(cfg, seed=4)
    batch = Batch(images=np.zeros((0, 8, 8)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty batch"):
        compute_losses(batch, prompts, cfg, state, ["square", "ring"])
    with pytest.raises(ValueError, match="augmented branch requires"):
        loss_aug_single(None, hand_bank(np.eye(2)), 0, tau=0.5)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 4),
       kw=st.sampled_from([{}, dict(visual_prompt_len=0),
                           dict(depth=3, prompt_depth=1)]),
       seed=st.integers(0, 2 ** 16))
def test_batched_losses_equal_mean_of_single_image_losses(n, kw, seed):
    cfg = tuning_cfg(**kw)
    state = EncoderState.initialize(cfg, seed=seed)
    prompts = PromptSet.initialize(cfg, seed=seed + 1)
    params = prompts.parameters()
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(n, cfg.image_size, cfg.image_size))
    labels = rng.integers(0, 2, size=n)
    names = ["square", "ring"]

    batched = compute_losses(Batch(images, labels), prompts, cfg, state, names)
    ad.backward(batched["total"])
    grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    singles = [compute_losses(Batch(images[i:i + 1], labels[i:i + 1]),
                              prompts, cfg, state, names) for i in range(n)]
    for key, value in batched.items():
        mean = sum(s[key].item() for s in singles) / n
        assert abs(value.item() - mean) <= 1e-12 * max(1.0, abs(mean)), key
    for s in singles:
        ad.backward(s["total"] * (1.0 / n))
    for p, g in zip(params, grads):
        assert ad.max_relative_error(g, p.grad) < 1e-9


# -------------------------------------------------------- three branches

def test_vanilla_rep_is_prompt_independent_and_constant():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=5)
    image = generate_dataset(2, 1, cfg.image_size, seed=2).images[0]
    reps = []
    for s in range(5):
        out = forward_three_branch(image, PromptSet.initialize(cfg, seed=s),
                                   cfg, state)
        assert out.vanilla_rep.is_constant
        reps.append(out.vanilla_rep.data.tobytes())
    assert len(set(reps)) == 1
    assert out.augmented_reps.shape == (2, 8)
    assert abs(np.linalg.norm(out.global_rep.data) - 1.0) < 1e-10
    np.testing.assert_allclose(
        np.linalg.norm(out.augmented_reps.data, axis=1), 1.0, atol=1e-10)
    assert abs(np.linalg.norm(out.vanilla_rep.data) - 1.0) < 1e-10


def test_pipeline_matches_straight_line_oracle():
    # single-layer, single-head, single-patch config checked end to end
    cfg = ModelConfig(visual_width=2, text_width=2, shared_width=2, depth=1,
                      heads=1, patch_grid=(1, 1), image_size=2, vocab_size=12,
                      visual_prompt_len=1, text_prompt_len=1)
    state = EncoderState.initialize(cfg, seed=11)
    prompts = PromptSet.initialize(cfg, seed=12)
    image = np.random.default_rng(13).uniform(size=(2, 2))
    names = ["square", "ring"]

    out = forward_three_branch(image, prompts, cfg, state)
    bank = build_text_bank(names, prompts, cfg, state)

    vp = [t.data for t in prompts.visual]
    tp = [t.data for t in prompts.textual]
    seq = oracle_prompted_image(image, cfg, state, vp)
    x_p = oracle_project(seq[0], state.img_proj.data)
    x_aug = oracle_project(seq[2], state.img_proj.data)
    x_van = oracle_project(oracle_plain_image(image, cfg, state)[0],
                           state.img_proj.data)
    np.testing.assert_allclose(out.global_rep.data, x_p, atol=1e-12)
    np.testing.assert_allclose(out.augmented_reps.data[0], x_aug, atol=1e-12)
    np.testing.assert_allclose(out.vanilla_rep.data, x_van, atol=1e-12)

    for i, name in enumerate(names):
        ids = tokenize_template(name)
        z_p = oracle_project(oracle_prompted_text(ids, cfg, state, tp)[0],
                             state.text_proj.data)
        z = oracle_project(oracle_plain_text(ids, cfg, state)[0],
                           state.text_proj.data)
        np.testing.assert_allclose(bank.prompted.data[i], z_p, atol=1e-12)
        np.testing.assert_allclose(bank.vanilla.data[i], z, atol=1e-12)


def test_vanilla_branch_contributes_no_gradient():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=5)
    prompts = PromptSet.initialize(cfg, seed=6)
    batch, names = tiny_task(cfg)
    losses = compute_losses(batch, prompts, cfg, state, names)
    record = ad.backward(losses["total"])
    # frozen weights and vanilla constants receive nothing
    assert all(t.grad is None for _, t in state.tensor_items())
    for t in prompts.parameters():
        assert t.grad is not None and np.abs(t.grad).max() > 0
    # and the record never treats vanilla reps as differentiable inputs
    vr = vanilla_image_rep(batch.images[0], cfg, state)
    assert vr.is_constant


def test_loss_graph_is_freed_without_the_cyclic_collector():
    # graphs link outputs to inputs only, so reference counting frees them
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=5)
    prompts = PromptSet.initialize(cfg, seed=6)
    batch, names = tiny_task(cfg)
    gc.collect()
    gc.disable()
    try:
        losses = compute_losses(batch, prompts, cfg, state, names)
        ad.backward(losses["total"])
        del losses
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- gradients

def test_loss_total_gradients_match_finite_differences():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=7)
    prompts = PromptSet.initialize(cfg, seed=8)
    batch, names = tiny_task(cfg)
    params = prompts.parameters()

    loss = compute_losses(batch, prompts, cfg, state, names)["total"]
    ad.backward(loss)
    analytic = [p.grad.copy() for p in params]

    numeric = ad.finite_difference_gradient(
        lambda: compute_losses(batch, prompts, cfg, state,
                               names)["total"].item(), params)
    for a, n in zip(analytic, numeric):
        assert ad.max_relative_error(a, n) < 1e-4


# -------------------------------------------------------------- optimizer

def test_sgd_momentum_hand_update():
    opt = SGDMomentum()
    p = [np.array([1.0])]
    p = opt.step(p, [np.array([0.5])], lr=0.1)
    assert np.isclose(p[0][0], 0.95, atol=1e-15)
    p = opt.step(p, [np.array([0.5])], lr=0.1)
    # v = 0.9*0.5 + 0.5 = 0.95 ; p = 0.95 - 0.095
    assert np.isclose(p[0][0], 0.855, atol=1e-15)


def test_train_step_lr_zero_is_identity():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=9)
    prompts = PromptSet.initialize(cfg, seed=10)
    batch, names = tiny_task(cfg)
    before = prompts.to_bytes()
    new_prompts, stats = train_step(batch, prompts, cfg, state, 0.0, names)
    assert new_prompts.to_bytes() == before
    assert np.isfinite(stats["total"])


def test_train_step_moves_prompts_not_state():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=9)
    prompts = PromptSet.initialize(cfg, seed=10)
    batch, names = tiny_task(cfg)
    state_before = state.to_bytes()
    opt = SGDMomentum()
    p = prompts
    for _ in range(3):
        p, stats = train_step(batch, p, cfg, state, 0.05, names, optimizer=opt)
    assert p.to_bytes() != prompts.to_bytes()
    assert state.to_bytes() == state_before


def test_train_step_ignores_gradients_the_prompts_carry():
    # the first step leaves .grad on the prompts; the second must not add it
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=9)
    prompts = PromptSet.initialize(cfg, seed=10)
    batch, names = tiny_task(cfg)
    first, stats_first = train_step(batch, prompts, cfg, state, 0.05, names)
    second, stats_second = train_step(batch, prompts, cfg, state, 0.05, names)
    assert second.to_bytes() == first.to_bytes()
    assert stats_second == stats_first


def test_train_step_reports_divergence():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=9)
    prompts = PromptSet.initialize(cfg, seed=10)
    prompts.visual[0].data[0, 0] = np.inf
    batch, names = tiny_task(cfg)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
        train_step(batch, prompts, cfg, state, 0.05, names)


def test_train_step_rejects_non_finite_gradient(monkeypatch):
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=9)
    prompts = PromptSet.initialize(cfg, seed=10)
    batch, names = tiny_task(cfg)
    opt = SGDMomentum()
    prompts, _ = train_step(batch, prompts, cfg, state, 0.05, names,
                            optimizer=opt)
    velocity = [v.copy() for v in opt.velocity]
    backward = ad.backward

    def poisoned_backward(output):
        record = backward(output)
        prompts.textual[0].grad[0, 0] = np.nan
        return record

    monkeypatch.setattr(ad, "backward", poisoned_backward)
    with pytest.raises(ValueError,
                       match="non-finite gradient in textual_prompt_0"):
        train_step(batch, prompts, cfg, state, 0.05, names, optimizer=opt)
    assert all(np.array_equal(v, w) for v, w in zip(opt.velocity, velocity))


# ------------------------------------------------------------- train loop

def test_train_rows_and_determinism():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=14)
    ds = generate_dataset(2, 3, cfg.image_size, seed=15)
    sub = sample_few_shot(ds, 2, (0, 1), seed=0)
    names = [ds.class_names[c] for c in sub.class_list]

    def run():
        prompts = PromptSet.initialize(cfg, seed=16)
        return train(sub, names, prompts, cfg, state, epochs=2, batch_size=2,
                     lr=0.02, seed=17)

    a, b = run(), run()
    assert a.steps == 4 and len(a.log_rows) == 2
    assert list(a.log_rows[0]) == ["epoch", "loss_total", "loss_ce",
                                   "loss_text", "loss_img", "loss_aug",
                                   "base_accuracy"]
    assert a.log_rows == b.log_rows
    assert a.prompts.to_bytes() == b.prompts.to_bytes()
    assert a.initial == b.initial and a.final == b.final


def accuracy_task(per_class=6, shots=4):
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=14)
    ds = generate_dataset(2, per_class, cfg.image_size, seed=15)
    sub = sample_few_shot(ds, shots, (0, 1), seed=0)
    names = [ds.class_names[c] for c in sub.class_list]
    return cfg, state, sub, names


@pytest.mark.parametrize("batch_size,lr", [(8, 3e-5), (12, 3e-5), (3, 1e-5),
                                           (5, 2e-5)],
                         ids=["one_step", "one_short_batch", "multi_step",
                              "two_uneven_steps"])
def test_epoch_accuracy_scores_the_prompts_each_epoch_ends_with(batch_size,
                                                                lr):
    # small steps that still flip predictions: accuracy moves 0.125 -> 0.5
    cfg, state, sub, names = accuracy_task()
    epochs = 4

    def run(e):
        return train(sub, names, PromptSet.initialize(cfg, seed=1), cfg,
                     state, epochs=e, batch_size=batch_size, lr=lr, seed=17)

    rows = run(epochs).log_rows
    assert len({r["base_accuracy"] for r in rows}) > 1
    for e in range(epochs):
        want = global_branch_accuracy(sub, names, run(e + 1).prompts, cfg,
                                      state)
        assert rows[e]["base_accuracy"] == want, e


@pytest.mark.parametrize("batch_size,evals", [(8, 0), (100, 0), (3, 2)])
def test_standalone_epoch_evals_only_in_multi_step_epochs(monkeypatch,
                                                          batch_size, evals):
    import promptlab.tuning as tuning
    cfg, state, sub, names = accuracy_task()
    calls = {"eval": [], "step": 0}
    real_eval, real_step = tuning.global_branch_accuracy, tuning.train_step

    def counting_eval(subset, *args, **kw):
        calls["eval"].append(len(subset))
        return real_eval(subset, *args, **kw)

    def counting_step(*args, **kw):
        calls["step"] += 1
        return real_step(*args, **kw)

    monkeypatch.setattr(tuning, "global_branch_accuracy", counting_eval)
    monkeypatch.setattr(tuning, "train_step", counting_step)
    result = train(sub, names, PromptSet.initialize(cfg, seed=16), cfg,
                   state, epochs=3, batch_size=batch_size, lr=0.5, seed=17)
    # every epoch but the last scores the rows outside the next first batch
    assert calls["eval"] == [len(sub) - batch_size] * evals
    # the loop reaches train_step through the module global
    assert calls["step"] == result.steps == 3 * -(-len(sub) // batch_size)
    assert all(0.0 <= r["base_accuracy"] <= 1.0 for r in result.log_rows)


def test_compute_losses_accuracy_equals_global_branch_accuracy():
    cfg, state, sub, names = accuracy_task(per_class=8, shots=8)
    for seed in range(4):
        prompts = PromptSet.initialize(cfg, seed=seed)
        losses = compute_losses(Batch.from_subset(sub), prompts, cfg, state,
                                names)
        assert losses["accuracy"].is_constant
        assert losses["accuracy"].item() == global_branch_accuracy(
            sub, names, prompts, cfg, state)


def test_full_set_losses_are_the_graph_values_bitwise():
    cfg, state, sub, names = accuracy_task()
    prompts = PromptSet.initialize(cfg, seed=16)
    result = train(sub, names, prompts, cfg, state, epochs=1, batch_size=8,
                   lr=0.0, seed=17)
    graph = compute_losses(Batch.from_subset(sub), prompts, cfg, state, names)
    assert graph["total"].node is not None
    want = {k: v.item() for k, v in graph.items()}
    assert result.initial == want and result.final == want
    assert result.log_rows[0]["base_accuracy"] == want["accuracy"]


def test_global_branch_accuracy_bounds():
    cfg = tuning_cfg()
    state = EncoderState.initialize(cfg, seed=14)
    ds = generate_dataset(2, 2, cfg.image_size, seed=15)
    sub = sample_few_shot(ds, 2, (0, 1), seed=0)
    names = [ds.class_names[c] for c in sub.class_list]
    acc = global_branch_accuracy(sub, names, PromptSet.initialize(cfg, 16),
                                 cfg, state)
    assert 0.0 <= acc <= 1.0
