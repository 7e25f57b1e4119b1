"""Acceptance gate: the nine shipping criteria, one verdict line each.

Each test prints "[PASS] criterion N: ..." after its assertions hold, so a
`pytest -s tests/test_acceptance.py` run reads as a checklist.  Tolerances
are part of the contract and must not be loosened.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import promptlab.autodiff as ad
from promptlab.autodiff import Tensor
from promptlab.cli import load_config, run_base_to_novel
from promptlab.datagen import generate_dataset
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                build_prompt_mask)
from promptlab.ensemble import (BranchLogits, branch_confidences,
                                ensemble_confidence, ensemble_equal,
                                ensemble_threshold)
from promptlab.evalkit import (extract_attention_map, foreground_mass,
                               harmonic_mean, segmentation_metrics)
from promptlab.tuning import (Batch, TextBank, build_text_bank,
                              compute_losses, forward_three_branch,
                              loss_aug_single, loss_ce, loss_consistency)


def verdict(n: int, text: str) -> None:
    print(f"\n[PASS] criterion {n}: {text}")


# ---------------------------------------------------------------- 1

def test_criterion_1_gradient_fidelity():
    """Total-loss gradients vs central differences on the stated sizes."""
    started = time.time()
    cfg = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=2,
                      heads=2, patch_grid=(2, 2), image_size=8, vocab_size=12,
                      text_prompt_len=2, visual_prompt_len=2, temperature=0.5)
    state = EncoderState.initialize(cfg, seed=0)
    prompts = PromptSet.initialize(cfg, seed=1)
    ds = generate_dataset(n_classes=2, per_class=1, image_size=8, seed=0)
    batch = Batch(images=ds.images, labels=ds.labels)
    names = list(ds.class_names)

    loss = compute_losses(batch, prompts, cfg, state, names)["total"]
    ad.backward(loss)
    params = prompts.parameters()
    analytic = [p.grad.copy() for p in params]

    fd = ad.finite_difference_gradient(
        lambda: compute_losses(batch, prompts, cfg, state,
                               names)["total"].item(),
        params, step=1e-5)
    worst = max(ad.max_relative_error(a, f) for a, f in zip(analytic, fd))
    elapsed = time.time() - started
    assert worst < 1e-3, f"relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    verdict(1, f"prompt gradients match finite differences "
               f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------- 2

def test_criterion_2_equation_identities():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(2, 6))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    bank = TextBank(prompted=Tensor(rows), vanilla=Tensor(rows.copy()))
    x = rng.normal(size=6)
    x /= np.linalg.norm(x)

    # weighted global loss collapses to plain CE at zero weights
    cfg = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=2,
                      heads=2, patch_grid=(2, 2), image_size=8, vocab_size=12,
                      text_prompt_len=2, visual_prompt_len=2,
                      text_consistency_weight=0.0,
                      image_consistency_weight=0.0, temperature=0.5)
    state = EncoderState.initialize(cfg, seed=0)
    prompts = PromptSet.initialize(cfg, seed=1)
    ds = generate_dataset(n_classes=2, per_class=1, image_size=8, seed=1)
    losses = compute_losses(Batch(images=ds.images, labels=ds.labels),
                            prompts, cfg, state, list(ds.class_names))
    d_global = abs(losses["global"].item() - losses["ce"].item())
    assert d_global <= 1e-10

    # augmented loss collapses to the global-branch CE when every
    # augmented row equals the global representation
    d_aug = 0.0
    for y in (0, 1):
        ce = loss_ce(Tensor(x), bank, y, tau=0.5).item()
        aug = loss_aug_single(Tensor(np.stack([x, x])), bank, y,
                              tau=0.5).item()
        d_aug = max(d_aug, abs(aug - ce))
    assert d_aug <= 1e-10

    # consistency endpoints on colinear / orthogonal / antipodal pairs
    e0, e1 = np.eye(2)
    endpoints = [
        (loss_consistency(Tensor(e0), Tensor(e0.copy())).item(), 0.0),
        (loss_consistency(Tensor(e0), Tensor(e1)).item(), 1.0),
        (loss_consistency(Tensor(e0), Tensor(-e0)).item(), 2.0),
    ]
    d_cons = max(abs(got - want) for got, want in endpoints)
    assert d_cons <= 1e-10
    verdict(2, f"loss identities hold (max deviations: global-vs-CE "
               f"{d_global:.1e}, aug collapse {d_aug:.1e}, "
               f"consistency {d_cons:.1e})")


# ---------------------------------------------------------------- 3

def test_criterion_3_published_arithmetic():
    pairs = [((84.63, 76.30), 80.25), ((92.19, 54.74), 68.69)]
    worst = max(abs(harmonic_mean(*ab) - want) for ab, want in pairs)
    assert worst <= 0.01
    verdict(3, f"harmonic mean reproduces the published values "
               f"(worst deviation {worst:.4f})")


# ---------------------------------------------------------------- 4

def test_criterion_4_mask_semantics():
    rng = np.random.default_rng(7)
    n, d, heads, v = 7, 8, 2, 3
    q, k, vv = (rng.normal(size=(n, d)) for _ in range(3))
    mask = build_prompt_mask(v, n)
    start = n - v

    # the class-token row is never masked
    assert not mask[0].any()

    # each prompt's attention output ignores the other prompts' keys/values
    base, _ = ad.masked_attention(Tensor(q), Tensor(k), Tensor(vv),
                                  mask=mask, heads=heads)
    for i in range(v):
        k2, v2 = k.copy(), vv.copy()
        for j in range(v):
            if j != i:
                k2[start + j] = 0.0
                v2[start + j] = 0.0
        out2, _ = ad.masked_attention(Tensor(q), Tensor(k2), Tensor(v2),
                                      mask=mask, heads=heads)
        assert np.array_equal(base.data[start + i], out2.data[start + i]), i

    # an all-false mask is bit-identical to no mask at all
    plain, _ = ad.masked_attention(Tensor(q), Tensor(k), Tensor(vv),
                                   mask=None, heads=heads)
    allfalse, _ = ad.masked_attention(Tensor(q), Tensor(k), Tensor(vv),
                                      mask=np.zeros((n, n), dtype=bool),
                                      heads=heads)
    assert np.array_equal(plain.data, allfalse.data)
    verdict(4, "prompt mask blocks exactly the prompt-to-prompt edges "
               "(exact equality)")


# ---------------------------------------------------------------- 5

def test_criterion_5_branch_isolation(reference_run):
    cfg = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=2,
                      heads=2, patch_grid=(2, 2), image_size=8, vocab_size=12,
                      text_prompt_len=2, visual_prompt_len=2)
    state = EncoderState.initialize(cfg, seed=0)
    image = np.random.default_rng(1).uniform(size=(8, 8))
    reps = []
    for i in range(100):
        prompts = PromptSet.initialize(cfg, seed=i)
        reps.append(forward_three_branch(image, prompts, cfg,
                                         state).vanilla_rep.data.tobytes())
    assert len(set(reps)) == 1

    assert reference_run.state.to_bytes() == reference_run.state_bytes_before
    assert reference_run.result.steps == 200
    verdict(5, "vanilla branch constant over 100 prompt draws; encoder "
               "state bytes untouched by 200 train steps")


# ---------------------------------------------------------------- 6

def test_criterion_6_ensemble_contracts():
    rng = np.random.default_rng(3)
    g, a, v = (rng.normal(size=5) for _ in range(3))
    lg = BranchLogits(global_=g, augmented=a, vanilla=v)

    # permutation invariance of equal weighting over branch roles
    for pg, pa, pv in ((a, v, g), (v, g, a), (g, v, a)):
        other = BranchLogits(global_=pg, augmented=pa, vanilla=pv)
        assert np.allclose(ensemble_equal(lg), ensemble_equal(other),
                           atol=1e-12)

    conf = branch_confidences(lg)
    assert abs((conf / conf.sum()).sum() - 1.0) < 1e-12

    assert np.allclose(ensemble_threshold(lg, theta=1e-12),
                       ensemble_equal(lg), atol=0)

    same = BranchLogits(global_=g, augmented=g.copy(), vanilla=g.copy())
    for fn in (ensemble_equal, ensemble_confidence, ensemble_threshold):
        assert np.allclose(fn(same), g, atol=1e-12)
    verdict(6, "ensemble strategies obey their combination contracts "
               "(1e-12)")


# ---------------------------------------------------------------- 7

def test_criterion_7_synthetic_learning(reference_run):
    from promptlab.tuning import global_branch_accuracy
    run = reference_run
    initial = run.result.initial["total"]
    final = run.result.final["total"]
    drop = 1.0 - final / initial
    names = [run.dataset.class_names[c] for c in run.dataset.base_classes]
    acc = global_branch_accuracy(run.held_out, names, run.result.prompts,
                                 run.mcfg, run.state)
    assert drop >= 0.50, f"loss drop {drop:.2%}"
    assert acc >= 0.95, f"held-out base accuracy {acc}"
    assert run.elapsed < 120.0, f"training took {run.elapsed:.0f}s"
    verdict(7, f"200 steps: loss {initial:.3f} -> {final:.3f} "
               f"({drop:.0%} drop), held-out base accuracy {acc:.4f}, "
               f"{run.elapsed:.0f}s")


# ---------------------------------------------------------------- 8

def test_criterion_8_segmentation_protocol(reference_run):
    gt = np.array([[1, 1, 0, 0],
                   [1, 1, 0, 0],
                   [1, 1, 0, 0],
                   [1, 0, 0, 0]], dtype=bool)
    perfect = segmentation_metrics(gt.astype(float), gt, gt)
    assert perfect.as_tuple() == (1.0, 1.0, 1.0)

    pred = np.array([[1, 1, 0, 0],
                     [1, 1, 0, 0],
                     [1, 0, 0, 0],
                     [0, 0, 1, 0]], dtype=bool)
    heat = np.array([[0.90, 0.80, 0.30, 0.10],
                     [0.70, 0.60, 0.20, 0.10],
                     [0.50, 0.05, 0.20, 0.00],
                     [0.04, 0.55, 0.10, 0.00]])

    def enumerate_ap(h, g):
        h, g = h.ravel(), g.ravel()
        ap, prev = 0.0, 0.0
        for t in sorted(set(h.tolist()), reverse=True):
            sel = h >= t
            tp = (sel & g).sum()
            ap += (tp / g.sum() - prev) * (tp / sel.sum())
            prev = tp / g.sum()
        return ap

    m = segmentation_metrics(heat, pred, gt)
    assert abs(m.pix_acc - 13.0 / 16.0) < 1e-10
    assert abs(m.m_iou - 0.5 * (5.0 / 8.0 + 8.0 / 11.0)) < 1e-10
    assert abs(m.m_ap - enumerate_ap(heat, gt)) < 1e-10

    # direction check: training must not reduce the class token's
    # attention mass on gt foreground (fixed reference seed)
    run = reference_run

    def mean_mass(prompts):
        total = 0.0
        for idx in run.held_out.indices:
            amap = extract_attention_map(run.dataset.images[idx], prompts,
                                         run.mcfg, run.state, "CLS")
            total += foreground_mass(amap, run.dataset.gt_masks[idx])
        return total / len(run.held_out.indices)

    untrained = mean_mass(run.prompts0)
    trained = mean_mass(run.result.prompts)
    assert trained >= untrained, (trained, untrained)
    verdict(8, f"segmentation metrics exact on hand cases; CLS foreground "
               f"mass {untrained:.4f} -> {trained:.4f} after training")


# ---------------------------------------------------------------- 9

def test_criterion_9_reproducibility(tmp_path):
    from promptlab.cli import ExperimentConfig
    base = replace(ExperimentConfig(), visual_width=8, text_width=8,
                   shared_width=8, depth=2, heads=2, patch_grid=2,
                   temperature=0.1, visual_prompt_len=2, text_prompt_len=2,
                   n_classes=2, per_class=4, image_size=8, data_seed=0,
                   shots=2, lr=0.05, batch_size=4, epochs=2, seed=0)
    first = run_base_to_novel(replace(base, out=str(tmp_path / "a")))["out"]
    second = run_base_to_novel(replace(base, out=str(tmp_path / "b")))["out"]
    snap = load_config(first / "config.ini")
    third = run_base_to_novel(replace(snap, out=str(tmp_path / "c")))["out"]
    for name in ("metrics.csv", "log.csv", "checkpoint.bin"):
        blob = (first / name).read_bytes()
        assert blob == (second / name).read_bytes(), name
        assert blob == (third / name).read_bytes(), name
    verdict(9, "repeated and snapshot-driven runs emit byte-identical "
               "CSVs and checkpoints")
