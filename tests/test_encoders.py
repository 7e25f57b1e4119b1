"""Encoder tests: assembly, deep prompt replacement, masking, projections.

The plain-transformer oracle below is written directly against numpy with
no calls into promptlab's layer code, so agreement (bit-exact for the
promptless path) checks the encoder against an independent route.
"""

import numpy as np
import pytest

import promptlab.autodiff as ad
import promptlab.encoders as enc
from oracle_helpers import (oracle_plain_image as _oracle_plain_image,
                            oracle_plain_text as _oracle_plain_text,
                            patches_by_loop as _patches_by_loop)
from promptlab.autodiff import Tensor
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                build_prompt_mask, embed_image, embed_text,
                                encode_image_from_layer, encode_image_prompted,
                                encode_text_prompted, project_augmented,
                                project_global, project_text)


def small_cfg(**kw):
    base = dict(visual_width=8, text_width=8, shared_width=4, depth=2,
                heads=2, patch_grid=(2, 2), image_size=4, vocab_size=6,
                text_prompt_len=2, visual_prompt_len=2)
    base.update(kw)
    return ModelConfig(**base)


# ------------------------------------------------------------------ config

def test_config_validation_errors():
    with pytest.raises(ValueError):
        ModelConfig(visual_width=6, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(prompt_depth=0)
    with pytest.raises(ValueError):
        ModelConfig(depth=2, prompt_depth=3)
    with pytest.raises(ValueError):
        ModelConfig(temperature=0.0)
    with pytest.raises(ValueError):
        ModelConfig(image_size=10, patch_grid=(4, 4))
    with pytest.raises(ValueError):
        ModelConfig(visual_prompt_len=-1)


def test_config_prompt_depth_defaults_to_depth():
    cfg = ModelConfig(depth=5)
    assert cfg.prompt_depth == 5


def test_config_dict_roundtrip():
    cfg = small_cfg(prompt_depth=1, mask_prompts=False)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_derived_sizes():
    cfg = small_cfg()
    assert cfg.num_patches == 4
    assert cfg.patch_shape == (2, 2)
    assert cfg.patch_dim == 4


# -------------------------------------------------------------- embeddings

def test_patchify_hand_case():
    cfg = small_cfg()
    image = np.arange(16, dtype=np.float64).reshape(4, 4)
    expected = np.array([[0, 1, 4, 5], [2, 3, 6, 7],
                         [8, 9, 12, 13], [10, 11, 14, 15]], dtype=np.float64)
    assert np.array_equal(enc.patchify(image, cfg), expected)


def test_patchify_matches_loop_extraction():
    cfg = ModelConfig(image_size=12, patch_grid=(3, 4), visual_width=8, heads=2)
    g = np.random.default_rng(7)
    image = g.normal(size=(12, 12))
    assert np.array_equal(enc.patchify(image, cfg), _patches_by_loop(image, cfg))


def test_embed_image_is_linear_patch_map():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=3)
    g = np.random.default_rng(0)
    image = g.uniform(size=(4, 4))
    c0, E0 = embed_image(image, cfg, state)
    assert np.array_equal(c0.data, state.class_token.data)
    expected = _patches_by_loop(image, cfg) @ state.patch_embed.data + state.patch_bias.data
    assert np.array_equal(E0.data, expected)


def test_embed_image_rejects_wrong_shape():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=3)
    with pytest.raises(ValueError):
        embed_image(np.zeros((5, 4)), cfg, state)


def test_embed_text_rows_and_errors():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=3)
    e0, W = embed_text([1, 4, 1], cfg, state)
    assert np.array_equal(e0.data, state.eos_token.data)
    assert np.array_equal(W.data, state.token_table.data[[1, 4, 1]])
    with pytest.raises(ValueError, match="vocabulary"):
        embed_text([0, 6], cfg, state)
    with pytest.raises(ValueError, match="positional"):
        embed_text(list(range(3)) * 6, cfg, state)


# ------------------------------------------------------------ state / init

def test_state_initialization_is_deterministic():
    cfg = small_cfg()
    a = EncoderState.initialize(cfg, seed=11)
    b = EncoderState.initialize(cfg, seed=11)
    c = EncoderState.initialize(cfg, seed=12)
    assert a.to_bytes() == b.to_bytes()
    assert a.to_bytes() != c.to_bytes()


def test_state_shapes_match_expected_table():
    cfg = small_cfg(depth=3)
    state = EncoderState.initialize(cfg, seed=0)
    actual = {name: t.shape for name, t in state.tensor_items()}
    assert actual == EncoderState.expected_shapes(cfg)


def test_state_tensors_are_frozen():
    state = EncoderState.initialize(small_cfg(), seed=0)
    assert all(not t.requires_grad for _, t in state.tensor_items())


def test_promptset_shapes_and_determinism():
    cfg = small_cfg(depth=3, prompt_depth=2)
    p = PromptSet.initialize(cfg, seed=5)
    assert len(p.visual) == 2 and len(p.textual) == 2
    assert p.visual[0].shape == (2, 8) and p.textual[1].shape == (2, 8)
    assert all(t.requires_grad for t in p.parameters())
    q = PromptSet.initialize(cfg, seed=5)
    assert p.to_bytes() == q.to_bytes()
    assert p.to_bytes() != PromptSet.initialize(cfg, seed=6).to_bytes()
    # small zero-mean init
    assert abs(p.visual[0].data).max() < 0.2


def test_promptset_empty_when_lengths_zero():
    cfg = small_cfg(visual_prompt_len=0, text_prompt_len=0)
    p = PromptSet.initialize(cfg, seed=0)
    assert p.parameters() == []


# ------------------------------------------------- promptless == plain path

def test_empty_prompts_bit_identical_to_plain_transformer():
    cfg = small_cfg(visual_prompt_len=0, text_prompt_len=0, depth=3)
    state = EncoderState.initialize(cfg, seed=21)
    p = PromptSet.initialize(cfg, seed=0)
    g = np.random.default_rng(2)
    image = g.uniform(size=(4, 4))

    res = encode_image_prompted(image, p, cfg, state)
    plain = _oracle_plain_image(image, cfg, state)
    assert np.array_equal(res.cls.data, plain[0])
    assert np.array_equal(res.patches.data, plain[1:])
    assert res.prompts is None

    ids = [1, 3, 5]
    tres = encode_text_prompted(ids, p, cfg, state)
    tplain = _oracle_plain_text(ids, cfg, state)
    assert np.array_equal(tres.eos.data, tplain[0])


def test_empty_prompt_set_is_the_plain_route_under_a_prompted_config():
    # the prompt set, not the config, decides the prompt slots
    cfg = small_cfg(depth=3, visual_prompt_len=3, mask_prompts=True)
    state = EncoderState.initialize(cfg, seed=21)
    empty = PromptSet([], [])
    image = np.random.default_rng(2).uniform(size=(4, 4))
    res = encode_image_prompted(image, empty, cfg, state)
    plain = _oracle_plain_image(image, cfg, state)
    assert np.array_equal(res.cls.data, plain[0])
    assert np.array_equal(res.patches.data, plain[1:])
    assert res.prompts is None
    ids = [1, 3, 5]
    tres = encode_text_prompted(ids, empty, cfg, state)
    assert np.array_equal(tres.eos.data, _oracle_plain_text(ids, cfg, state)[0])


def _blocks(count, rows, width=8):
    g = np.random.default_rng(30)
    return [Tensor(0.02 * g.normal(size=(rows, width))) for _ in range(count)]


@pytest.mark.parametrize("kw, count, rows", [
    (dict(visual_prompt_len=2, text_prompt_len=2, mask_prompts=False), 2, 3),
    (dict(visual_prompt_len=0, text_prompt_len=0), 2, 3),
    (dict(), 1, 2),
    (dict(), 3, 2),
])
def test_prompt_set_not_matching_the_config_is_rejected(kw, count, rows):
    cfg = small_cfg(**kw)
    state = EncoderState.initialize(cfg, seed=21)
    image = np.random.default_rng(2).uniform(size=(4, 4))
    with pytest.raises(ValueError, match="prompt set does not match"):
        encode_image_prompted(image, PromptSet(_blocks(count, rows), []),
                              cfg, state)
    with pytest.raises(ValueError, match="prompt set does not match"):
        encode_image_from_layer(Tensor(np.zeros((1 + 4 + rows, 8))), 1,
                                PromptSet(_blocks(count, rows), []), cfg,
                                state)
    with pytest.raises(ValueError, match="prompt set does not match"):
        encode_text_prompted([1, 2], PromptSet([], _blocks(count, rows)),
                             cfg, state)


def test_prompted_tokens_extend_plain_sequence_rows():
    # with prompts present, class/patch rows still start from the same
    # assembled values (checked via the captured first-layer input)
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=21)
    p = PromptSet.initialize(cfg, seed=4)
    image = np.random.default_rng(3).uniform(size=(4, 4))
    _, E0 = embed_image(image, cfg, state)
    res = encode_image_prompted(image, p, cfg, state, capture_layer_input=0)
    first = res.layer_input
    assert first.shape == (1 + 4 + 2, 8)
    assert np.array_equal(first[0], state.class_token.data)
    assert np.array_equal(first[1:5], E0.data + state.pos_image.data)
    assert np.array_equal(first[5:], p.visual[0].data)


# -------------------------------------------------- deep prompt replacement

def test_replacement_feeds_fresh_parameters_each_layer():
    cfg = small_cfg(depth=3, prompt_depth=3)
    state = EncoderState.initialize(cfg, seed=8)
    p = PromptSet.initialize(cfg, seed=9)
    image = np.random.default_rng(1).uniform(size=(4, 4))
    for j in range(3):
        res = encode_image_prompted(image, p, cfg, state, capture_layer_input=j)
        assert np.array_equal(res.layer_input[-2:], p.visual[j].data)


def test_shallow_prompts_propagate_after_prompt_depth():
    cfg = small_cfg(depth=3, prompt_depth=1)
    state = EncoderState.initialize(cfg, seed=8)
    p = PromptSet.initialize(cfg, seed=9)
    assert len(p.visual) == 1
    image = np.random.default_rng(1).uniform(size=(4, 4))
    res = encode_image_prompted(image, p, cfg, state, capture_layer_input=1)
    # layer 1 sees transformer outputs in the prompt slots, not parameters
    assert not np.array_equal(res.layer_input[-2:], p.visual[0].data)
    assert res.prompts.shape == (2, 8)


def test_final_prompt_outputs_depend_on_image():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=8)
    p = PromptSet.initialize(cfg, seed=9)
    g = np.random.default_rng(5)
    outs = []
    for _ in range(2):
        outs.append(encode_image_prompted(g.uniform(size=(4, 4)), p, cfg,
                                          state).prompts.data)
    assert not np.array_equal(outs[0], outs[1])


# ------------------------------------------------------------- prompt mask

def test_build_prompt_mask_layout():
    mask = build_prompt_mask(2, 5)
    expected = np.zeros((5, 5), dtype=bool)
    expected[3, 4] = expected[4, 3] = True
    assert np.array_equal(mask, expected)
    assert not mask[0].any()  # class row attends everywhere
    assert np.array_equal(build_prompt_mask(0, 4), np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        build_prompt_mask(5, 4)


def test_mask_blocks_cross_prompt_attention_in_every_layer():
    cfg = small_cfg(visual_prompt_len=3, depth=3)
    state = EncoderState.initialize(cfg, seed=13)
    p = PromptSet.initialize(cfg, seed=14)
    image = np.random.default_rng(6).uniform(size=(4, 4))
    res = encode_image_prompted(image, p, cfg, state, collect_attention=True)
    start = 1 + cfg.num_patches
    for w in res.attentions:
        assert w.shape == (2, 8, 8)
        for i in range(3):
            for j in range(3):
                block = w[:, start + i, start + j]
                if i == j:
                    assert (block > 0).all()
                else:
                    assert (block == 0.0).all()
        # non-prompt rows keep full attention support
        assert (w[:, :start, :] > 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_masking_changes_output_when_enabled():
    # with full-depth replacement the mask can only show up in the final
    # prompt outputs; class rows see identical prompt values either way
    cfg_on = small_cfg(mask_prompts=True)
    cfg_off = small_cfg(mask_prompts=False)
    state = EncoderState.initialize(cfg_on, seed=13)
    p = PromptSet.initialize(cfg_on, seed=14)
    image = np.random.default_rng(6).uniform(size=(4, 4))
    on = encode_image_prompted(image, p, cfg_on, state)
    off = encode_image_prompted(image, p, cfg_off, state)
    assert not np.array_equal(on.prompts.data, off.prompts.data)
    assert np.array_equal(on.cls.data, off.cls.data)

    # once prompt outputs propagate past prompt_depth, the class token
    # feels the mask as well
    cfg_on = small_cfg(mask_prompts=True, depth=2, prompt_depth=1)
    cfg_off = small_cfg(mask_prompts=False, depth=2, prompt_depth=1)
    p = PromptSet.initialize(cfg_on, seed=14)
    on = encode_image_prompted(image, p, cfg_on, state)
    off = encode_image_prompted(image, p, cfg_off, state)
    assert not np.array_equal(on.cls.data, off.cls.data)


def test_single_prompt_mask_is_noop_bitwise():
    # one prompt token has no distinct partner, so the mask is all-False
    cfg_on = small_cfg(visual_prompt_len=1, mask_prompts=True)
    cfg_off = small_cfg(visual_prompt_len=1, mask_prompts=False)
    state = EncoderState.initialize(cfg_on, seed=15)
    p = PromptSet.initialize(cfg_on, seed=16)
    image = np.random.default_rng(7).uniform(size=(4, 4))
    on = encode_image_prompted(image, p, cfg_on, state)
    off = encode_image_prompted(image, p, cfg_off, state)
    assert np.array_equal(on.cls.data, off.cls.data)
    assert np.array_equal(on.prompts.data, off.prompts.data)


def test_text_encoder_is_unmasked():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=17)
    p = PromptSet.initialize(cfg, seed=18)
    res = encode_text_prompted([1, 2], p, cfg, state, collect_attention=True)
    for w in res.attentions:
        assert (w > 0).all()


# -------------------------------------------------------------- projections

def test_projections_are_unit_norm():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=19)
    p = PromptSet.initialize(cfg, seed=20)
    image = np.random.default_rng(8).uniform(size=(4, 4))
    res = encode_image_prompted(image, p, cfg, state)
    x = project_global(res.cls, state)
    assert abs(np.linalg.norm(x.data) - 1.0) < 1e-12
    xa = project_augmented(res.prompts, state)
    assert xa.shape == (2, 4)
    np.testing.assert_allclose(np.linalg.norm(xa.data, axis=1), 1.0, atol=1e-12)
    z = project_text(encode_text_prompted([1], p, cfg, state).eos, state)
    assert abs(np.linalg.norm(z.data) - 1.0) < 1e-12


def test_augmented_single_row_equals_global_projection():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=19)
    row = Tensor(np.random.default_rng(9).normal(size=8))
    stacked = Tensor(row.data.reshape(1, 8).copy())
    assert np.array_equal(project_augmented(stacked, state).data[0],
                          project_global(row, state).data)


def test_projection_matches_manual_formula():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=19)
    v = np.random.default_rng(10).normal(size=8)
    manual = v @ state.img_proj.data
    manual = manual / np.sqrt((manual * manual).sum())
    assert np.array_equal(project_global(Tensor(v.copy()), state).data, manual)


def test_projection_errors():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=19)
    with pytest.raises(ValueError, match="degenerate vector"):
        project_global(Tensor(np.zeros(8)), state)
    with pytest.raises(ValueError, match="augmented branch requires visual prompts"):
        project_augmented(None, state)
    with pytest.raises(ValueError, match="augmented branch requires visual prompts"):
        project_augmented(Tensor(np.zeros((0, 8))), state)


# ---------------------------------------------------------------- gradients

def _encoder_loss(cfg, state, prompts, image, ids, probe):
    ires = encode_image_prompted(image, prompts, cfg, state)
    tres = encode_text_prompted(ids, prompts, cfg, state)
    x = project_global(ires.cls, state)
    z = project_text(tres.eos, state)
    xa = project_augmented(ires.prompts, state)
    return ad.dot(x, z) + ad.tsum(xa @ Tensor(probe)) * 0.1


def test_gradients_reach_every_prompt_tensor():
    cfg = small_cfg(depth=3, prompt_depth=2)
    state = EncoderState.initialize(cfg, seed=23)
    prompts = PromptSet.initialize(cfg, seed=24)
    image = np.random.default_rng(11).uniform(size=(4, 4))
    probe = np.random.default_rng(12).normal(size=(4, 2))
    loss = _encoder_loss(cfg, state, prompts, image, [1, 2], probe)
    ad.backward(loss)
    for t in prompts.parameters():
        assert t.grad is not None
        assert np.abs(t.grad).max() > 0


def test_encoder_gradients_match_finite_differences():
    cfg = small_cfg(depth=2, prompt_depth=2)
    state = EncoderState.initialize(cfg, seed=23)
    prompts = PromptSet.initialize(cfg, seed=24)
    image = np.random.default_rng(11).uniform(size=(4, 4))
    probe = np.random.default_rng(12).normal(size=(4, 2))
    params = prompts.parameters()

    loss = _encoder_loss(cfg, state, prompts, image, [1, 2], probe)
    ad.backward(loss)
    analytic = [p.grad.copy() for p in params]

    numeric = ad.finite_difference_gradient(
        lambda: _encoder_loss(cfg, state, prompts, image, [1, 2], probe).item(),
        params)
    for a, n in zip(analytic, numeric):
        assert ad.max_relative_error(a, n) < 1e-4


def test_frozen_state_receives_no_gradients():
    cfg = small_cfg()
    state = EncoderState.initialize(cfg, seed=23)
    prompts = PromptSet.initialize(cfg, seed=24)
    image = np.random.default_rng(13).uniform(size=(4, 4))
    probe = np.random.default_rng(14).normal(size=(4, 2))
    loss = _encoder_loss(cfg, state, prompts, image, [1], probe)
    ad.backward(loss)
    assert all(t.grad is None for _, t in state.tensor_items())


# ------------------------------------------------------------------ resume

def test_resume_from_captured_layer_input():
    cfg = small_cfg(depth=3)
    state = EncoderState.initialize(cfg, seed=25)
    prompts = PromptSet.initialize(cfg, seed=26)
    image = np.random.default_rng(15).uniform(size=(4, 4))
    last = cfg.depth - 1
    full = encode_image_prompted(image, prompts, cfg, state,
                                 capture_layer_input=last)
    resumed = encode_image_from_layer(Tensor(full.layer_input.copy()), last,
                                      prompts, cfg, state)
    assert np.array_equal(resumed.cls.data, full.cls.data)
    assert np.array_equal(resumed.patches.data, full.patches.data)
    assert np.array_equal(resumed.prompts.data, full.prompts.data)


# ---------------------------------------------------------------- batching

@pytest.mark.parametrize("kw", [dict(depth=3), dict(depth=3, prompt_depth=1),
                                dict(visual_prompt_len=0),
                                dict(mask_prompts=False)])
def test_batched_encode_slices_equal_single_image_encodes(kw):
    cfg = small_cfg(**kw)
    state = EncoderState.initialize(cfg, seed=27)
    p = PromptSet.initialize(cfg, seed=28)
    images = np.random.default_rng(16).uniform(size=(3, 4, 4))
    last = cfg.depth - 1
    c0, E0 = embed_image(images, cfg, state)
    assert c0.shape == (3, 8) and E0.shape == (3, 4, 8)
    batched = encode_image_prompted(images, p, cfg, state,
                                    collect_attention=True,
                                    capture_layer_input=last)
    for b, image in enumerate(images):
        c, E = embed_image(image, cfg, state)
        assert np.array_equal(c0.data[b], c.data)
        assert np.array_equal(E0.data[b], E.data)
        one = encode_image_prompted(image, p, cfg, state,
                                    collect_attention=True,
                                    capture_layer_input=last)
        assert np.array_equal(batched.cls.data[b], one.cls.data)
        assert np.array_equal(batched.patches.data[b], one.patches.data)
        assert np.array_equal(batched.layer_input[b], one.layer_input)
        for wb, w in zip(batched.attentions, one.attentions):
            assert np.array_equal(wb[b], w)
        np.testing.assert_allclose(project_global(batched.cls, state).data[b],
                                   project_global(one.cls, state).data,
                                   rtol=0, atol=1e-14)
        if cfg.visual_prompt_len:
            assert np.array_equal(batched.prompts.data[b], one.prompts.data)
            assert np.array_equal(
                project_augmented(batched.prompts, state).data[b],
                project_augmented(one.prompts, state).data)
        else:
            assert batched.prompts is None


def test_l2_normalize_rejects_any_zero_row():
    rows = np.random.default_rng(17).normal(size=(3, 4))
    rows[1] = 0.0
    with pytest.raises(ValueError, match="degenerate vector"):
        enc.l2_normalize(Tensor(rows))
    rows[1] = 1.0
    out = enc.l2_normalize(Tensor(rows)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-15)
