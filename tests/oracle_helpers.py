"""Straight-line numpy re-implementations used as independent oracles.

Nothing here calls into promptlab's layer code; tests compare the library
against these routes (bit-exactly where the op order is mirrored).
"""

import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
LN_EPS = 1e-5


def oracle_ln(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    y = (x - mu) / np.sqrt(var + LN_EPS)
    return y * gamma + beta


def oracle_gelu(x):
    inner = GELU_C * (x + GELU_A * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def oracle_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_attention(q, k, v, heads):
    n, d = q.shape
    dh = d // heads
    qh = np.ascontiguousarray(q.reshape(n, heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.reshape(n, heads, dh).transpose(1, 0, 2))
    vh = np.ascontiguousarray(v.reshape(n, heads, dh).transpose(1, 0, 2))
    scores = (qh @ np.ascontiguousarray(kh.transpose(0, 2, 1))) \
        * (1.0 / math.sqrt(dh))
    w = oracle_softmax(scores)
    return np.ascontiguousarray((w @ vh).transpose(1, 0, 2)).reshape(n, d)


def oracle_attention_weights(q, k, v, heads, mask=None):
    """Per-head softmax weights (heads, n, n), additive -1e9 fill + re-zero."""
    n, d = q.shape
    dh = d // heads
    qh = np.ascontiguousarray(q.reshape(n, heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.reshape(n, heads, dh).transpose(1, 0, 2))
    scores = (qh @ np.ascontiguousarray(kh.transpose(0, 2, 1))) \
        * (1.0 / math.sqrt(dh))
    if mask is not None and mask.any():
        scores = scores + np.where(mask, -1e9, 0.0)
        return oracle_softmax(scores) * np.where(mask, 0.0, 1.0)
    return oracle_softmax(scores)


def oracle_layer(h, lw, heads):
    a = oracle_ln(h, lw.ln1_gamma.data, lw.ln1_beta.data)
    att = oracle_attention(a @ lw.wq.data + lw.bq.data,
                           a @ lw.wk.data + lw.bk.data,
                           a @ lw.wv.data + lw.bv.data, heads)
    h = h + (att @ lw.wo.data + lw.bo.data)
    m = oracle_ln(h, lw.ln2_gamma.data, lw.ln2_beta.data)
    return h + (oracle_gelu(m @ lw.w1.data + lw.b1.data) @ lw.w2.data
                + lw.b2.data)


def patches_by_loop(image, cfg):
    ph, pw = cfg.patch_shape
    rows = []
    for r in range(cfg.patch_grid[0]):
        for c in range(cfg.patch_grid[1]):
            rows.append(image[r * ph:(r + 1) * ph,
                              c * pw:(c + 1) * pw].reshape(-1))
    return np.stack(rows)


def oracle_plain_image(image, cfg, state):
    """Promptless image forward through every layer."""
    E = patches_by_loop(image, cfg) @ state.patch_embed.data \
        + state.patch_bias.data
    seq = np.concatenate([state.class_token.data.reshape(1, -1),
                          E + state.pos_image.data], axis=0)
    for lw in state.image_layers:
        seq = oracle_layer(seq, lw, cfg.heads)
    return seq


def oracle_plain_text(ids, cfg, state):
    rows = state.token_table.data[np.asarray(ids, dtype=int)]
    seq = np.concatenate([state.eos_token.data.reshape(1, -1),
                          rows + state.pos_text.data[:len(ids)]], axis=0)
    for lw in state.text_layers:
        seq = oracle_layer(seq, lw, cfg.heads)
    return seq


def oracle_prompted_image(image, cfg, state, visual_prompts):
    """Prompted image forward with deep replacement, no prompt mask
    (valid for V=1 or mask_prompts=False)."""
    E = patches_by_loop(image, cfg) @ state.patch_embed.data \
        + state.patch_bias.data
    seq = np.concatenate([state.class_token.data.reshape(1, -1),
                          E + state.pos_image.data,
                          visual_prompts[0]], axis=0)
    keep = 1 + cfg.num_patches
    for j, lw in enumerate(state.image_layers):
        if 0 < j < cfg.prompt_depth:
            seq = np.concatenate([seq[:keep], visual_prompts[j]], axis=0)
        seq = oracle_layer(seq, lw, cfg.heads)
    return seq


def oracle_prompted_text(ids, cfg, state, textual_prompts):
    rows = state.token_table.data[np.asarray(ids, dtype=int)]
    seq = np.concatenate([state.eos_token.data.reshape(1, -1),
                          rows + state.pos_text.data[:len(ids)],
                          textual_prompts[0]], axis=0)
    keep = 1 + len(ids)
    for j, lw in enumerate(state.text_layers):
        if 0 < j < cfg.prompt_depth:
            seq = np.concatenate([seq[:keep], textual_prompts[j]], axis=0)
        seq = oracle_layer(seq, lw, cfg.heads)
    return seq


def oracle_project(v, proj):
    out = v @ proj
    return out / np.sqrt((out * out).sum())
