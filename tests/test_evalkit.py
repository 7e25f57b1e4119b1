"""Metric, attention-map, segmentation-protocol, and GradCAM tests.

The 4x4 segmentation hand case was worked out in exact rational arithmetic
(fractions) before the implementation; the frozen values appear below.
"""

import numpy as np
import pytest

import promptlab.autodiff as ad
from oracle_helpers import oracle_attention_weights, oracle_ln, patches_by_loop
from promptlab.autodiff import Tensor
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                build_prompt_mask, encode_image_from_layer,
                                encode_image_prompted, project_global)
from promptlab.evalkit import (SegmentationMetrics, accuracy,
                               average_precision, binarize_map,
                               extract_attention_map, foreground_mass,
                               gradcam_map, harmonic_mean, mean_metrics,
                               segmentation_metrics, upsample_nearest,
                               write_csv, write_pgm)
from promptlab.tuning import TextBank, build_text_bank

# 4x4 hand case: 5 TP, 1 FP, 2 FN, 8 TN (worked out by hand, see docstring)
HAND_GT = np.array([[1, 1, 0, 0],
                    [1, 1, 0, 0],
                    [1, 1, 0, 0],
                    [1, 0, 0, 0]], dtype=bool)
HAND_PRED = np.array([[1, 1, 0, 0],
                      [1, 1, 0, 0],
                      [1, 0, 0, 0],
                      [0, 0, 1, 0]], dtype=bool)
HAND_HEAT = np.array([[0.90, 0.80, 0.30, 0.10],
                      [0.70, 0.60, 0.20, 0.10],
                      [0.50, 0.05, 0.20, 0.00],
                      [0.04, 0.55, 0.10, 0.00]])
HAND_PIXACC = 13.0 / 16.0
HAND_IOU_FG = 5.0 / 8.0
HAND_IOU_BG = 8.0 / 11.0
HAND_AP = 226.0 / 273.0   # exact rational from the all-thresholds PR curve


def brute_force_ap(heat, gt):
    """Independent enumerate-all-thresholds oracle."""
    h = np.asarray(heat, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=bool).ravel()
    n_pos = g.sum()
    if n_pos == 0:
        return 1.0
    ap, prev = 0.0, 0.0
    for t in sorted(set(h.tolist()), reverse=True):
        sel = h >= t
        tp = (sel & g).sum()
        p, r = tp / sel.sum(), tp / n_pos
        ap += (r - prev) * p
        prev = r
    return ap


# ------------------------------------------------------------ accuracy/HM

def test_accuracy_trivials():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([0, 0], [1, 2]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_harmonic_mean_published_values():
    assert abs(harmonic_mean(84.63, 76.30) - 80.25) <= 0.01
    assert abs(harmonic_mean(92.19, 54.74) - 68.69) <= 0.01


def test_harmonic_mean_properties():
    assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4, abs=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0.01, 1.0, size=2)
        hm = harmonic_mean(a, b)
        assert hm <= (a + b) / 2 + 1e-15
        assert hm == pytest.approx(harmonic_mean(b, a), abs=1e-15)


def test_harmonic_mean_rejects_nonpositive():
    for a, b in ((0.0, 0.5), (0.5, 0.0), (-1.0, 0.5)):
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean(a, b)


# -------------------------------------------------------- attention maps

SMALL = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=1,
                    heads=2, patch_grid=2, image_size=4, vocab_size=6,
                    text_prompt_len=2, visual_prompt_len=2)


def small_image(seed=0, size=4):
    return np.random.default_rng(seed).uniform(size=(size, size))


def test_attention_map_single_patch_is_one():
    cfg = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=1,
                      heads=2, patch_grid=1, image_size=4, vocab_size=6,
                      text_prompt_len=2, visual_prompt_len=2)
    state = EncoderState.initialize(cfg, seed=0)
    prompts = PromptSet.initialize(cfg, seed=1)
    grid = extract_attention_map(small_image(), prompts, cfg, state, "CLS")
    assert grid.shape == (1, 1)
    assert grid[0, 0] == 1.0


def test_attention_map_uniform_when_patches_identical():
    state = EncoderState.initialize(SMALL, seed=0)
    state.patch_embed.data[:] = 0.0
    state.pos_image.data[:] = 0.0
    prompts = PromptSet.initialize(SMALL, seed=1)
    grid = extract_attention_map(small_image(), prompts, SMALL, state, "CLS")
    assert np.allclose(grid, 0.25, atol=1e-12)


def test_attention_map_sums_to_one():
    state = EncoderState.initialize(SMALL, seed=2)
    prompts = PromptSet.initialize(SMALL, seed=3)
    for sel in ("CLS", "VP:0", "VP:1"):
        grid = extract_attention_map(small_image(1), prompts, SMALL, state, sel)
        assert abs(grid.sum() - 1.0) < 1e-10
        assert (grid >= 0).all()
        assert grid.shape == (SMALL.patch_grid,) * 2


def weights_oracle(image, prompts, cfg, state):
    """Single-layer straight-line route to the head-stacked weights."""
    E = patches_by_loop(image, cfg) @ state.patch_embed.data \
        + state.patch_bias.data
    seq = np.concatenate([state.class_token.data.reshape(1, -1),
                          E + state.pos_image.data,
                          prompts.visual[0].data], axis=0)
    lw = state.image_layers[0]
    a = oracle_ln(seq, lw.ln1_gamma.data, lw.ln1_beta.data)
    mask = build_prompt_mask(cfg.visual_prompt_len, seq.shape[0])
    return oracle_attention_weights(a @ lw.wq.data + lw.bq.data,
                                    a @ lw.wk.data + lw.bk.data,
                                    a @ lw.wv.data + lw.bv.data,
                                    cfg.heads, mask)


def test_attention_map_matches_hand_oracle():
    state = EncoderState.initialize(SMALL, seed=4)
    prompts = PromptSet.initialize(SMALL, seed=5)
    image = small_image(6)
    w = weights_oracle(image, prompts, SMALL, state).mean(axis=0)
    m = SMALL.num_patches
    for sel, row_idx in (("CLS", 0), ("VP:0", 1 + m), ("VP:1", 2 + m)):
        row = w[row_idx, 1:1 + m]
        want = (row / row.sum()).reshape(SMALL.patch_grid, SMALL.patch_grid)
        got = extract_attention_map(image, prompts, SMALL, state, sel)
        assert np.allclose(got, want, atol=1e-12)


def test_attention_map_selector_validation():
    state = EncoderState.initialize(SMALL, seed=0)
    prompts = PromptSet.initialize(SMALL, seed=1)
    with pytest.raises(ValueError, match="out of range"):
        extract_attention_map(small_image(), prompts, SMALL, state, "VP:2")
    with pytest.raises(ValueError, match="selector"):
        extract_attention_map(small_image(), prompts, SMALL, state, "EOS")
    with pytest.raises(ValueError, match="selector"):
        extract_attention_map(small_image(), prompts, SMALL, state, "VP:x")


# ---------------------------------------------------- binarize / upsample

def test_binarize_constant_map_all_background():
    mask = binarize_map(np.full((2, 2), 0.25), image_size=4)
    assert mask.shape == (4, 4) and not mask.any()


def test_binarize_two_valued_map():
    grid = np.full((4, 4), 0.1)
    grid[::2, ::2] = 0.9
    grid[1::2, 1::2] = 0.9     # 8 cells high, 8 low
    mask = binarize_map(grid, image_size=4)
    assert np.array_equal(mask, grid > 0.5)


def test_binarize_random_vs_direct_oracle():
    rng = np.random.default_rng(9)
    grid = rng.uniform(size=(4, 4))
    mask = binarize_map(grid, image_size=8)
    want = np.zeros((8, 8), dtype=bool)
    for r in range(8):
        for c in range(8):
            want[r, c] = grid[r // 2, c // 2] > grid.mean()
    assert np.array_equal(mask, want)


def test_binarize_accepts_grid_and_checks_divisibility():
    grid = np.array([[0.9, 0.1], [0.1, 0.1]])
    mask = binarize_map(grid, image_size=4)
    assert mask[:2, :2].all() and mask.sum() == 4
    with pytest.raises(ValueError, match="divisible"):
        binarize_map(grid, image_size=5)


def test_upsample_nearest_blocks():
    up = upsample_nearest(np.array([[1.0, 2.0], [3.0, 4.0]]), image_size=4)
    assert np.array_equal(up, np.array([[1, 1, 2, 2], [1, 1, 2, 2],
                                        [3, 3, 4, 4], [3, 3, 4, 4]], float))


def test_foreground_mass_hand_case():
    grid = np.array([[0.5, 0.5], [0.0, 0.0]])
    gt = np.zeros((4, 4), dtype=bool)
    gt[:2, :2] = True            # top-left patch fully foreground
    gt[:1, 2:] = True            # top-right patch half foreground
    assert foreground_mass(grid, gt) == pytest.approx(0.75, abs=1e-12)
    assert foreground_mass(grid, np.ones((4, 4), bool)) == pytest.approx(1.0)
    assert foreground_mass(grid, np.zeros((4, 4), bool)) == 0.0


# ------------------------------------------------------------ seg metrics

def test_perfect_prediction_scores_ones():
    heat = HAND_GT.astype(float)
    m = segmentation_metrics(heat, HAND_GT, HAND_GT)
    assert m.as_tuple() == (1.0, 1.0, 1.0)


def test_complement_prediction_scores_zero():
    gt = np.zeros((4, 4), dtype=bool)
    gt[:, :2] = True
    m = segmentation_metrics(np.where(~gt, 1.0, 0.0), ~gt, gt)
    assert m.pix_acc == 0.0 and m.m_iou == 0.0


def test_hand_case_matches_frozen_oracle():
    m = segmentation_metrics(HAND_HEAT, HAND_PRED, HAND_GT)
    assert abs(m.pix_acc - HAND_PIXACC) < 1e-10
    assert abs(m.m_iou - 0.5 * (HAND_IOU_FG + HAND_IOU_BG)) < 1e-10
    assert abs(m.m_ap - HAND_AP) < 1e-10
    assert abs(m.m_ap - brute_force_ap(HAND_HEAT, HAND_GT)) < 1e-12


def test_ap_random_vs_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        heat = np.round(rng.uniform(size=(4, 4)), 1)   # force ties
        gt = rng.uniform(size=(4, 4)) > 0.5
        assert average_precision(heat, gt) == \
            pytest.approx(brute_force_ap(heat, gt), abs=1e-12)


def test_ap_monotone_transform_invariant():
    rng = np.random.default_rng(4)
    heat = rng.uniform(size=(4, 4))
    gt = rng.uniform(size=(4, 4)) > 0.4
    base = average_precision(heat, gt)
    for f in (lambda x: 2 * x + 1, np.exp, lambda x: x ** 3):
        assert average_precision(f(heat), gt) == pytest.approx(base, abs=1e-12)


def test_ap_rejects_a_nan_heatmap():
    heat = np.array([[0.2, np.nan], [0.1, 0.4]])
    with pytest.raises(ValueError, match="NaN"):
        average_precision(heat, heat > 0.15)


def test_relabel_symmetry():
    m = segmentation_metrics(HAND_HEAT, HAND_PRED, HAND_GT)
    flipped = segmentation_metrics(HAND_HEAT, ~HAND_PRED, ~HAND_GT)
    assert m.pix_acc == flipped.pix_acc
    assert m.m_iou == pytest.approx(flipped.m_iou, abs=1e-15)


def test_absent_class_conventions():
    gt_empty = np.zeros((2, 2), dtype=bool)
    heat = np.zeros((2, 2))
    # nothing to find, nothing predicted: perfect
    m = segmentation_metrics(heat, gt_empty, gt_empty)
    assert m.as_tuple() == (1.0, 1.0, 1.0)
    # spurious foreground against empty gt: fg IoU 0, bg IoU 12/16... by hand
    pred = np.array([[1, 0], [0, 0]], dtype=bool)
    m = segmentation_metrics(heat, pred, gt_empty)
    assert m.m_iou == pytest.approx(0.5 * (0.0 + 3.0 / 4.0), abs=1e-15)
    # all-foreground gt matched exactly: bg absent on both sides
    gt_full = np.ones((2, 2), dtype=bool)
    m = segmentation_metrics(gt_full.astype(float), gt_full, gt_full)
    assert m.m_iou == 1.0


def test_seg_metrics_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        segmentation_metrics(np.zeros((2, 2)), np.zeros((2, 2), bool),
                             np.zeros((2, 3), bool))
    with pytest.raises(ValueError, match="shape mismatch"):
        average_precision(np.zeros(4), np.zeros(5, dtype=bool))


def test_mean_metrics_aggregation():
    a = SegmentationMetrics(1.0, 0.5, 0.8)
    b = SegmentationMetrics(0.5, 0.25, 0.4)
    agg = mean_metrics([a, b])
    assert agg.as_tuple() == (0.75, 0.375, 0.6000000000000001)
    with pytest.raises(ValueError, match="no per-image"):
        mean_metrics([])


# ---------------------------------------------------------------- GradCAM

GCFG = ModelConfig(visual_width=8, text_width=8, shared_width=8, depth=2,
                   heads=2, patch_grid=2, image_size=4, vocab_size=12,
                   text_prompt_len=2, visual_prompt_len=2)


def gradcam_setup(seed=0):
    state = EncoderState.initialize(GCFG, seed=seed)
    prompts = PromptSet.initialize(GCFG, seed=seed + 1)
    bank = build_text_bank(["square", "ring"], prompts, GCFG, state)
    return state, prompts, bank


def test_gradcam_nonnegative_and_shaped():
    state, prompts, bank = gradcam_setup()
    grid = gradcam_map(small_image(3), prompts, GCFG, state, bank)
    assert grid.shape == (GCFG.patch_grid,) * 2
    assert (grid >= 0).all()


def test_gradcam_deterministic_and_default_class():
    state, prompts, bank = gradcam_setup()
    image = small_image(5)
    a = gradcam_map(image, prompts, GCFG, state, bank)
    b = gradcam_map(image, prompts, GCFG, state, bank)
    assert np.array_equal(a, b)
    # the map is the highest-similarity class's: a bank of that row alone
    # gives the same map
    res = encode_image_prompted(image, prompts, GCFG, state)
    x_p = project_global(res.cls, state)
    sims = [ad.cosine_similarity(x_p, bank.prompted[i]).item()
            for i in range(2)]
    top = int(np.argmax(sims))
    only_top = TextBank(prompted=Tensor(bank.prompted.data[top:top + 1]),
                        vanilla=bank.vanilla)
    assert np.array_equal(a, gradcam_map(image, prompts, GCFG, state,
                                         only_top))


def test_gradcam_zero_when_last_layer_inert():
    # zero the final layer's value path and MLP output: the class token
    # passes through untouched, so patch activations carry no gradient
    state, prompts, bank = gradcam_setup(seed=2)
    lw = state.image_layers[-1]
    for t in (lw.wv, lw.bv, lw.wo, lw.bo, lw.w2, lw.b2):
        t.data[:] = 0.0
    grid = gradcam_map(small_image(7), prompts, GCFG, state, bank)
    assert np.array_equal(grid, np.zeros((GCFG.patch_grid,) * 2))


def test_gradcam_channel_weights_match_finite_differences():
    state, prompts, bank = gradcam_setup(seed=3)
    image = small_image(8)
    res = encode_image_prompted(image, prompts, GCFG, state)
    acts = res.layer_inputs[-1]
    m = GCFG.num_patches
    sims = ad.cosine_similarity(project_global(res.cls, state), bank.prompted)
    target = bank.prompted[int(np.argmax(sims.data))]   # the top class

    leaf = Tensor(acts.copy(), requires_grad=True)

    def sim_of_leaf():
        out = encode_image_from_layer(leaf, GCFG.depth - 1, prompts, GCFG,
                                      state)
        return ad.cosine_similarity(project_global(out.cls, state), target)

    ad.backward(sim_of_leaf())
    g_ad = leaf.grad.copy()
    (g_fd,) = ad.finite_difference_gradient(lambda: sim_of_leaf().item(),
                                            [leaf], step=1e-5)
    assert ad.max_relative_error(g_ad[1:1 + m], g_fd[1:1 + m]) < 1e-3

    got = gradcam_map(image, prompts, GCFG, state, bank)
    want = np.maximum(acts[1:1 + m] @ g_ad[1:1 + m].mean(axis=0),
                      0.0).reshape(GCFG.patch_grid, GCFG.patch_grid)
    assert np.allclose(got, want, atol=1e-12)


# -------------------------------------------------------------- exporters

def test_write_pgm_format(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "P2" and lines[1] == "2 2" and lines[2] == "255"
    vals = [int(v) for line in lines[3:] for v in line.split()]
    assert vals == [0, 128, 255, 64]


def test_write_pgm_zero_map_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, np.zeros((2, 3)))
    assert "255" in p1.read_text() and \
        sum(int(v) for v in p1.read_text().split()[4:]) == 0
    grid = np.random.default_rng(0).uniform(size=(3, 3))
    write_pgm(p1, grid)
    write_pgm(p2, grid)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_round_trip(tmp_path):
    import csv as csv_mod
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], ["x", -3]])
    with open(path, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows == [["a", "b"], ["1", "2.5"], ["x", "-3"]]


def test_write_csv_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[1]])
    before = path.read_bytes()

    def rows():
        yield [2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ["a"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
