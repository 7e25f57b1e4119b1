"""Miniature image/text transformer encoders with deep learnable prompts.

Both encoders are frozen after random initialization; only the prompt
tokens (a :class:`PromptSet`) ever train.  Prompt tokens are appended after
the patch/word tokens, fresh prompt parameters replace the prompt outputs
at every layer up to ``prompt_depth``, and (optionally, image side only) a
self-mask stops prompt tokens from attending to one another while leaving
class and patch attention untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROMPT_INIT_STD = 0.02  # zero-mean Gaussian for prompt initialization
MLP_RATIO = 2  # hidden width of the feed-forward block, as a multiple of d
MAX_TEXT_LEN = 16  # rows of the text positional table


@dataclass(frozen=True)
class ModelConfig:
    """All scalar hyperparameters of the dual encoder: each image is cut
    into ``patch_grid`` x ``patch_grid`` square patches, and
    ``prompt_depth = 0`` puts prompts at every layer."""

    visual_width: int = 32
    text_width: int = 32
    shared_width: int = 16
    depth: int = 3
    heads: int = 4
    patch_grid: int = 4
    image_size: int = 16
    vocab_size: int = 16
    text_prompt_len: int = 4
    visual_prompt_len: int = 4
    prompt_depth: int = 0
    temperature: float = 0.01
    text_consistency_weight: float = 3.0
    image_consistency_weight: float = 4.0
    mask_prompts: bool = True

    def __post_init__(self):
        for name in ("depth", "heads", "visual_width", "text_width",
                     "shared_width", "image_size", "vocab_size", "patch_grid"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.prompt_depth == 0:
            object.__setattr__(self, "prompt_depth", self.depth)
        if self.visual_width % self.heads or self.text_width % self.heads:
            raise ValueError("encoder widths must be divisible by head count")
        if not 1 <= self.prompt_depth <= self.depth:
            raise ValueError("prompt_depth must lie in 0..depth")
        for name in ("visual_prompt_len", "text_prompt_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # written so that NaN fails every range check
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")
        for name in ("text_consistency_weight", "image_consistency_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")
        if self.image_size % self.patch_grid:
            raise ValueError("image_size must be divisible by patch_grid")

    @property
    def num_patches(self) -> int:
        return self.patch_grid ** 2

    @property
    def patch_dim(self) -> int:
        return (self.image_size // self.patch_grid) ** 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for an independent, platform-stable stream."""
    return np.random.default_rng(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


class PromptSet:
    """Learnable prompt tokens, one fresh block per prompted layer."""

    def __init__(self, visual: list, textual: list):
        self.visual = visual    # prompt_depth tensors of shape (V, d_v)
        self.textual = textual  # prompt_depth tensors of shape (T, d_t)

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int) -> "PromptSet":
        visual, textual = [], []
        for i in range(cfg.prompt_depth):
            if cfg.visual_prompt_len > 0:
                g = _stream(seed, 0, i)
                visual.append(Tensor(PROMPT_INIT_STD * g.normal(size=(
                    cfg.visual_prompt_len, cfg.visual_width)), requires_grad=True))
            if cfg.text_prompt_len > 0:
                g = _stream(seed, 1, i)
                textual.append(Tensor(PROMPT_INIT_STD * g.normal(size=(
                    cfg.text_prompt_len, cfg.text_width)), requires_grad=True))
        return cls(visual, textual)

    def parameters(self) -> list:
        return list(self.visual) + list(self.textual)

    def detached(self) -> "PromptSet":
        """Constant views of the prompts; encoding them builds no graph."""
        return PromptSet([Tensor(t.data) for t in self.visual],
                         [Tensor(t.data) for t in self.textual])

    def tensor_items(self) -> list:
        items = [(f"visual_prompt_{i}", t) for i, t in enumerate(self.visual)]
        items += [(f"textual_prompt_{i}", t) for i, t in enumerate(self.textual)]
        return items

    def to_bytes(self) -> bytes:
        return b"".join(t.data.astype("<f8").tobytes() for _, t in self.tensor_items())


@dataclass
class LayerWeights:
    """Frozen weights of one pre-LN transformer block."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def initialize(cls, width: int, rng: np.random.Generator) -> "LayerWeights":
        hidden = MLP_RATIO * width
        s = 1.0 / np.sqrt(width)
        return cls(
            ln1_gamma=Tensor(np.ones(width)), ln1_beta=Tensor(np.zeros(width)),
            wq=Tensor(s * rng.normal(size=(width, width))), bq=Tensor(np.zeros(width)),
            wk=Tensor(s * rng.normal(size=(width, width))), bk=Tensor(np.zeros(width)),
            wv=Tensor(s * rng.normal(size=(width, width))), bv=Tensor(np.zeros(width)),
            wo=Tensor(s * rng.normal(size=(width, width))), bo=Tensor(np.zeros(width)),
            ln2_gamma=Tensor(np.ones(width)), ln2_beta=Tensor(np.zeros(width)),
            w1=Tensor(s * rng.normal(size=(width, hidden))), b1=Tensor(np.zeros(hidden)),
            w2=Tensor(rng.normal(size=(hidden, width)) / np.sqrt(hidden)),
            b2=Tensor(np.zeros(width)),
        )


@dataclass
class EncoderState:
    """Every frozen parameter of both encoders plus the projection heads."""

    patch_embed: Tensor
    patch_bias: Tensor
    class_token: Tensor
    pos_image: Tensor
    token_table: Tensor
    eos_token: Tensor
    pos_text: Tensor
    image_layers: list
    text_layers: list
    img_proj: Tensor
    text_proj: Tensor

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int) -> "EncoderState":
        g = _stream(seed, 100)
        pd = cfg.patch_dim
        return cls(
            patch_embed=Tensor(g.normal(size=(pd, cfg.visual_width)) / np.sqrt(pd)),
            patch_bias=Tensor(np.zeros(cfg.visual_width)),
            class_token=Tensor(g.normal(size=cfg.visual_width)),
            pos_image=Tensor(0.5 * g.normal(size=(cfg.num_patches, cfg.visual_width))),
            token_table=Tensor(g.normal(size=(cfg.vocab_size, cfg.text_width))),
            eos_token=Tensor(g.normal(size=cfg.text_width)),
            pos_text=Tensor(0.5 * g.normal(size=(MAX_TEXT_LEN, cfg.text_width))),
            image_layers=[LayerWeights.initialize(cfg.visual_width, _stream(seed, 101, i))
                          for i in range(cfg.depth)],
            text_layers=[LayerWeights.initialize(cfg.text_width, _stream(seed, 102, i))
                         for i in range(cfg.depth)],
            img_proj=Tensor(g.normal(size=(cfg.visual_width, cfg.shared_width))
                            / np.sqrt(cfg.visual_width)),
            text_proj=Tensor(g.normal(size=(cfg.text_width, cfg.shared_width))
                             / np.sqrt(cfg.text_width)),
        )

    def tensor_items(self) -> list:
        """Every tensor by its checkpoint name, in file order."""
        items = [
            ("patch_embed", self.patch_embed), ("patch_bias", self.patch_bias),
            ("class_token", self.class_token), ("pos_image", self.pos_image),
            ("token_table", self.token_table), ("eos_token", self.eos_token),
            ("pos_text", self.pos_text),
        ]
        for side, layers in (("image", self.image_layers), ("text", self.text_layers)):
            for i, lw in enumerate(layers):
                items += [(f"{side}_layer_{i}_{f.name}", getattr(lw, f.name))
                          for f in fields(lw)]
        items += [("img_proj", self.img_proj), ("text_proj", self.text_proj)]
        return items

    def to_bytes(self) -> bytes:
        return b"".join(t.data.astype("<f8").tobytes() for _, t in self.tensor_items())


def tensor_values(cfg: ModelConfig) -> int:
    """How many floats the ``tensor_items()`` of the encoder state and the
    prompts that ``cfg`` builds hold, counted without building them."""
    dv, dt = cfg.visual_width, cfg.text_width

    def layer(w: int) -> int:   # two layer norms, Q/K/V/O affines, the MLP
        hidden = MLP_RATIO * w
        return (4 * w + 4 * (w * w + w)
                + (w * hidden + hidden) + (hidden * w + w))

    return ((cfg.patch_dim + 2 + cfg.num_patches) * dv
            + (cfg.vocab_size + 1 + MAX_TEXT_LEN) * dt
            + cfg.depth * (layer(dv) + layer(dt))
            + (dv + dt) * cfg.shared_width
            + cfg.prompt_depth * (cfg.visual_prompt_len * dv
                                  + cfg.text_prompt_len * dt))


# ----------------------------------------------------------- embeddings

def patchify(image: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Split an image into row-major flattened patches, shape (m, patch_dim);
    a stack of images (..., size, size) gives (..., m, patch_dim)."""
    n, side = cfg.patch_grid, cfg.image_size // cfg.patch_grid
    lead = image.shape[:-2]
    patches = image.reshape(*lead, n, side, n, side).swapaxes(-3, -2)
    return np.ascontiguousarray(
        patches.reshape(*lead, cfg.num_patches, cfg.patch_dim))


def embed_image(image, cfg: ModelConfig, state: EncoderState):
    """Pixels -> (stored class token, linear patch embeddings).

    One ``(size, size)`` image gives ``(d,)`` and ``(m, d)``; a batch
    ``(B, size, size)`` gives ``(B, d)`` and ``(B, m, d)``.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3) or \
            image.shape[-2:] != (cfg.image_size, cfg.image_size):
        raise ValueError(
            f"image shape {image.shape} does not match configured size "
            f"{cfg.image_size}")
    embeddings = patchify(image, cfg) @ state.patch_embed.data + state.patch_bias.data
    cls = np.empty(image.shape[:-2] + state.class_token.shape)
    cls[...] = state.class_token.data
    return Tensor(cls), Tensor(embeddings)


def embed_text(token_ids, cfg: ModelConfig, state: EncoderState):
    """Token ids -> (stored eos token, embedding-table rows)."""
    ids = list(token_ids)
    for i in ids:
        if not 0 <= int(i) < cfg.vocab_size:
            raise ValueError(f"token id {i} out of vocabulary")
    if len(ids) > MAX_TEXT_LEN:
        raise ValueError("token sequence exceeds positional table")
    rows = state.token_table.data[np.asarray(ids, dtype=int)]
    return Tensor(state.eos_token.data.copy()), Tensor(rows)


# ----------------------------------------------------------- prompt mask

def build_prompt_mask(num_prompts: int, total_tokens: int) -> np.ndarray:
    """Boolean mask where only distinct prompt-prompt pairs are blocked."""
    if num_prompts > total_tokens:
        raise ValueError("more prompts than tokens")
    mask = np.zeros((total_tokens, total_tokens), dtype=bool)
    if num_prompts > 0:
        start = total_tokens - num_prompts
        mask[start:, start:] = True
        np.fill_diagonal(mask[start:, start:], False)
    return mask


# ----------------------------------------------------------- encoders

def _layer_forward(h: Tensor, lw: LayerWeights, heads: int,
                   mask: Optional[np.ndarray]):
    a = ad.layer_norm(h, lw.ln1_gamma, lw.ln1_beta)
    q = a @ lw.wq + lw.bq
    k = a @ lw.wk + lw.bk
    v = a @ lw.wv + lw.bv
    att, weights = ad.masked_attention(q, k, v, mask=mask, heads=heads)
    h = h + (att @ lw.wo + lw.bo)
    m = ad.layer_norm(h, lw.ln2_gamma, lw.ln2_beta)
    h = h + (ad.gelu(m @ lw.w1 + lw.b1) @ lw.w2 + lw.b2)
    return h, weights


@dataclass
class ImageEncodeResult:
    """Final-layer outputs and the arrays of every layer run; a batched
    encode adds a leading (B,) axis."""

    cls: Tensor                      # final class embedding, (d_v,)
    patches: Tensor                  # final patch embeddings, (m, d_v)
    prompts: Optional[Tensor]        # final prompt embeddings, (V, d_v) or None
    layer_inputs: list               # input (n, d_v) of each layer run
    attentions: list                 # weights (heads, n, n) of each layer run


@dataclass
class TextEncodeResult:
    eos: Tensor
    attentions: list                 # weights (heads, n, n) of each layer


def _checked_blocks(blocks: list, length: int, width: int,
                    cfg: ModelConfig) -> list:
    """``blocks`` if they fit the config: none at all (the promptless
    route), or ``prompt_depth`` blocks of shape ``(length, width)``."""
    if blocks and (len(blocks) != cfg.prompt_depth or
                   any(b.shape != (length, width) for b in blocks)):
        raise ValueError(f"prompt set does not match the config: blocks "
                         f"{[b.shape for b in blocks]}, expected none or "
                         f"{cfg.prompt_depth} of {(length, width)}")
    return blocks


def _run_layers(h: Tensor, layers: list, blocks: list, heads: int,
                mask=None, start_layer: int = 0):
    """Shared deep-prompt loop (VPT-deep): block ``j`` replaces the prompt
    slots for ``start_layer < j < len(blocks)``, and the outputs flow on
    after that.  ``h`` is ``(n, d)`` or a stack ``(B, n, d)`` that shares
    each prompt block.  Returns the output with the input array and the
    attention-weight array of every layer run (the forward's own arrays,
    which no later operation writes to)."""
    n_keep = h.shape[-2] - (blocks[0].shape[0] if blocks else 0)
    inputs, attentions = [], []
    for j in range(start_layer, len(layers)):
        if start_layer < j < len(blocks):
            h = ad.concat([h[..., :n_keep, :], blocks[j]], axis=-2)
        inputs.append(h.data)
        h, weights = _layer_forward(h, layers[j], heads, mask)
        attentions.append(weights.data)
    return h, inputs, attentions


def _image_layers(seq: Tensor, start_layer: int, blocks: list,
                  cfg: ModelConfig, state: EncoderState) -> ImageEncodeResult:
    """The image layer loop from ``start_layer`` on a ``[class | patches |
    prompts]`` sequence whose prompt slots ``blocks`` decide."""
    m = cfg.num_patches
    num_prompts = cfg.visual_prompt_len if blocks else 0
    if seq.shape[-2:] != (1 + m + num_prompts, cfg.visual_width):
        raise ValueError(f"layer input {seq.shape} does not match the config "
                         f"and prompt set")
    mask = build_prompt_mask(num_prompts, 1 + m + num_prompts) \
        if cfg.mask_prompts and num_prompts else None
    h, inputs, attentions = _run_layers(seq, state.image_layers, blocks,
                                        cfg.heads, mask, start_layer)
    return ImageEncodeResult(
        cls=h[..., 0, :], patches=h[..., 1:1 + m, :],
        prompts=h[..., 1 + m:, :] if num_prompts else None,
        layer_inputs=inputs, attentions=attentions)


def encode_image_prompted(image, prompts: PromptSet, cfg: ModelConfig,
                          state: EncoderState) -> ImageEncodeResult:
    """Prompted image forward of one ``(size, size)`` image, or of a
    ``(B, size, size)`` stack at once: every result then gains a leading
    (B,) axis and the prompt blocks are shared.  An empty prompt set runs
    the promptless (vanilla) route."""
    blocks = _checked_blocks(prompts.visual, cfg.visual_prompt_len,
                             cfg.visual_width, cfg)
    class_token, patch_embeddings = embed_image(image, cfg, state)
    lead = patch_embeddings.shape[:-2]
    seq = ad.concat([ad.reshape(class_token, (*lead, 1, cfg.visual_width)),
                     patch_embeddings + state.pos_image, *blocks[:1]], axis=-2)
    return _image_layers(seq, 0, blocks, cfg, state)


def encode_image_from_layer(layer_input: Tensor, start_layer: int,
                            prompts: PromptSet, cfg: ModelConfig,
                            state: EncoderState) -> ImageEncodeResult:
    """Resume the prompted image forward from a layer input, such as an
    entry of an earlier result's ``layer_inputs``."""
    blocks = _checked_blocks(prompts.visual, cfg.visual_prompt_len,
                             cfg.visual_width, cfg)
    return _image_layers(layer_input, start_layer, blocks, cfg, state)


def encode_text_prompted(token_ids, prompts: PromptSet, cfg: ModelConfig,
                         state: EncoderState) -> TextEncodeResult:
    """Prompted text forward of one token sequence; an empty prompt set
    runs the promptless (vanilla) route."""
    blocks = _checked_blocks(prompts.textual, cfg.text_prompt_len,
                             cfg.text_width, cfg)
    eos_token, word_embeddings = embed_text(token_ids, cfg, state)
    n = word_embeddings.shape[0]
    seq = ad.concat([ad.reshape(eos_token, (1, cfg.text_width)),
                     word_embeddings + Tensor(state.pos_text.data[:n]),
                     *blocks[:1]], axis=0)
    h, _, attentions = _run_layers(seq, state.text_layers, blocks, cfg.heads)
    return TextEncodeResult(eos=h[0], attentions=attentions)


# ----------------------------------------------------------- projections

def project_global(class_embedding: Tensor, state: EncoderState) -> Tensor:
    """Class embedding (d_v,) or a batch (B, d_v) -> rows in the shared
    space."""
    return class_embedding @ state.img_proj


def project_text(eos_embedding: Tensor, state: EncoderState) -> Tensor:
    return eos_embedding @ state.text_proj


def project_augmented(prompt_embeddings: Tensor, state: EncoderState) -> Tensor:
    """Project every prompt output, (V, d_v) or (B, V, d_v), with the shared
    image projection."""
    if prompt_embeddings is None or prompt_embeddings.shape[-2] == 0:
        raise ValueError("augmented branch requires visual prompts")
    return prompt_embeddings @ state.img_proj
