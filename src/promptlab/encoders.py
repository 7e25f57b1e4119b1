"""Miniature image/text transformer encoders with deep learnable prompts.

Both encoders are frozen after random initialization; only the prompt
tokens (a :class:`PromptSet`) ever train.  Prompt tokens are appended after
the patch/word tokens, fresh prompt parameters replace the prompt outputs
at every layer up to ``prompt_depth``, and (optionally, image side only) a
self-mask stops prompt tokens from attending to one another while leaving
class and patch attention untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROMPT_INIT_STD = 0.02  # zero-mean Gaussian for prompt initialization
MLP_RATIO = 2  # hidden width of the feed-forward block, as a multiple of d
DEFAULT_MAX_TEXT_LEN = 16


@dataclass(frozen=True)
class ModelConfig:
    """All scalar hyperparameters of the dual encoder."""

    visual_width: int = 32
    text_width: int = 32
    shared_width: int = 16
    depth: int = 3
    heads: int = 4
    patch_grid: tuple = (4, 4)
    image_size: int = 16
    vocab_size: int = 16
    text_prompt_len: int = 4
    visual_prompt_len: int = 4
    prompt_depth: Optional[int] = None
    temperature: float = 0.01
    text_consistency_weight: float = 3.0
    image_consistency_weight: float = 4.0
    mask_prompts: bool = True

    def __post_init__(self):
        if self.prompt_depth is None:
            object.__setattr__(self, "prompt_depth", self.depth)
        if self.visual_width % self.heads or self.text_width % self.heads:
            raise ValueError("encoder widths must be divisible by head count")
        if not 1 <= self.prompt_depth <= self.depth:
            raise ValueError("prompt_depth must lie in 1..depth")
        if self.visual_prompt_len < 0 or self.text_prompt_len < 0:
            raise ValueError("prompt lengths must be nonnegative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.text_consistency_weight < 0 or self.image_consistency_weight < 0:
            raise ValueError("consistency weights must be nonnegative")
        rows, cols = self.patch_grid
        if self.image_size % rows or self.image_size % cols:
            raise ValueError("image_size must be divisible by the patch grid")

    @property
    def num_patches(self) -> int:
        return self.patch_grid[0] * self.patch_grid[1]

    @property
    def patch_shape(self) -> tuple:
        rows, cols = self.patch_grid
        return self.image_size // rows, self.image_size // cols

    @property
    def patch_dim(self) -> int:
        ph, pw = self.patch_shape
        return ph * pw

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["patch_grid"] = list(self.patch_grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["patch_grid"] = tuple(d["patch_grid"])
        return cls(**d)


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
    def initialize(cls, cfg: ModelConfig, seed: int,
                   std: float = PROMPT_INIT_STD) -> "PromptSet":
        visual, textual = [], []
        for i in range(cfg.prompt_depth):
            if cfg.visual_prompt_len > 0:
                g = _stream(seed, 0, i)
                visual.append(Tensor(
                    std * g.normal(size=(cfg.visual_prompt_len, cfg.visual_width)),
                    requires_grad=True))
            if cfg.text_prompt_len > 0:
                g = _stream(seed, 1, i)
                textual.append(Tensor(
                    std * g.normal(size=(cfg.text_prompt_len, cfg.text_width)),
                    requires_grad=True))
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

    @classmethod
    def expected_shapes(cls, cfg: ModelConfig) -> dict:
        shapes = {}
        if cfg.visual_prompt_len > 0:
            for i in range(cfg.prompt_depth):
                shapes[f"visual_prompt_{i}"] = (cfg.visual_prompt_len, cfg.visual_width)
        if cfg.text_prompt_len > 0:
            for i in range(cfg.prompt_depth):
                shapes[f"textual_prompt_{i}"] = (cfg.text_prompt_len, cfg.text_width)
        return shapes

    @classmethod
    def from_tensors(cls, cfg: ModelConfig, tensors: dict) -> "PromptSet":
        visual, textual = [], []
        if cfg.visual_prompt_len > 0:
            visual = [Tensor(np.array(tensors[f"visual_prompt_{i}"], dtype=np.float64),
                             requires_grad=True) for i in range(cfg.prompt_depth)]
        if cfg.text_prompt_len > 0:
            textual = [Tensor(np.array(tensors[f"textual_prompt_{i}"], dtype=np.float64),
                              requires_grad=True) for i in range(cfg.prompt_depth)]
        return cls(visual, textual)


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

    FIELDS = ("ln1_gamma", "ln1_beta", "wq", "bq", "wk", "bk", "wv", "bv",
              "wo", "bo", "ln2_gamma", "ln2_beta", "w1", "b1", "w2", "b2")

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

    @classmethod
    def expected_shapes(cls, width: int) -> dict:
        hidden = MLP_RATIO * width
        return {
            "ln1_gamma": (width,), "ln1_beta": (width,),
            "wq": (width, width), "bq": (width,),
            "wk": (width, width), "bk": (width,),
            "wv": (width, width), "bv": (width,),
            "wo": (width, width), "bo": (width,),
            "ln2_gamma": (width,), "ln2_beta": (width,),
            "w1": (width, hidden), "b1": (hidden,),
            "w2": (hidden, width), "b2": (width,),
        }


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
    max_text_len: int = DEFAULT_MAX_TEXT_LEN

    @classmethod
    def initialize(cls, cfg: ModelConfig, seed: int,
                   max_text_len: int = DEFAULT_MAX_TEXT_LEN) -> "EncoderState":
        g = _stream(seed, 100)
        pd = cfg.patch_dim
        state = cls(
            patch_embed=Tensor(g.normal(size=(pd, cfg.visual_width)) / np.sqrt(pd)),
            patch_bias=Tensor(np.zeros(cfg.visual_width)),
            class_token=Tensor(g.normal(size=cfg.visual_width)),
            pos_image=Tensor(0.5 * g.normal(size=(cfg.num_patches, cfg.visual_width))),
            token_table=Tensor(g.normal(size=(cfg.vocab_size, cfg.text_width))),
            eos_token=Tensor(g.normal(size=cfg.text_width)),
            pos_text=Tensor(0.5 * g.normal(size=(max_text_len, cfg.text_width))),
            image_layers=[LayerWeights.initialize(cfg.visual_width, _stream(seed, 101, i))
                          for i in range(cfg.depth)],
            text_layers=[LayerWeights.initialize(cfg.text_width, _stream(seed, 102, i))
                         for i in range(cfg.depth)],
            img_proj=Tensor(g.normal(size=(cfg.visual_width, cfg.shared_width))
                            / np.sqrt(cfg.visual_width)),
            text_proj=Tensor(g.normal(size=(cfg.text_width, cfg.shared_width))
                             / np.sqrt(cfg.text_width)),
            max_text_len=max_text_len,
        )
        return state

    def tensor_items(self) -> list:
        items = [
            ("patch_embed", self.patch_embed), ("patch_bias", self.patch_bias),
            ("class_token", self.class_token), ("pos_image", self.pos_image),
            ("token_table", self.token_table), ("eos_token", self.eos_token),
            ("pos_text", self.pos_text),
        ]
        for side, layers in (("image", self.image_layers), ("text", self.text_layers)):
            for i, lw in enumerate(layers):
                for name in LayerWeights.FIELDS:
                    items.append((f"{side}_layer_{i}_{name}", getattr(lw, name)))
        items += [("img_proj", self.img_proj), ("text_proj", self.text_proj)]
        return items

    def to_bytes(self) -> bytes:
        return b"".join(t.data.astype("<f8").tobytes() for _, t in self.tensor_items())

    @classmethod
    def expected_shapes(cls, cfg: ModelConfig,
                        max_text_len: int = DEFAULT_MAX_TEXT_LEN) -> dict:
        shapes = {
            "patch_embed": (cfg.patch_dim, cfg.visual_width),
            "patch_bias": (cfg.visual_width,),
            "class_token": (cfg.visual_width,),
            "pos_image": (cfg.num_patches, cfg.visual_width),
            "token_table": (cfg.vocab_size, cfg.text_width),
            "eos_token": (cfg.text_width,),
            "pos_text": (max_text_len, cfg.text_width),
        }
        for side, width in (("image", cfg.visual_width), ("text", cfg.text_width)):
            per_layer = LayerWeights.expected_shapes(width)
            for i in range(cfg.depth):
                for name, shp in per_layer.items():
                    shapes[f"{side}_layer_{i}_{name}"] = shp
        shapes["img_proj"] = (cfg.visual_width, cfg.shared_width)
        shapes["text_proj"] = (cfg.text_width, cfg.shared_width)
        return shapes

    @classmethod
    def from_tensors(cls, cfg: ModelConfig, tensors: dict,
                     max_text_len: int = DEFAULT_MAX_TEXT_LEN) -> "EncoderState":
        def t(name):
            return Tensor(np.array(tensors[name], dtype=np.float64))

        sides = {}
        for side in ("image", "text"):
            sides[side] = [LayerWeights(**{f: t(f"{side}_layer_{i}_{f}")
                                           for f in LayerWeights.FIELDS})
                           for i in range(cfg.depth)]
        return cls(
            patch_embed=t("patch_embed"), patch_bias=t("patch_bias"),
            class_token=t("class_token"), pos_image=t("pos_image"),
            token_table=t("token_table"), eos_token=t("eos_token"),
            pos_text=t("pos_text"),
            image_layers=sides["image"], text_layers=sides["text"],
            img_proj=t("img_proj"), text_proj=t("text_proj"),
            max_text_len=max_text_len,
        )


# ----------------------------------------------------------- embeddings

def patchify(image: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Split an image into row-major flattened patches, shape (m, patch_dim);
    a stack of images (..., size, size) gives (..., m, patch_dim)."""
    rows, cols = cfg.patch_grid
    ph, pw = cfg.patch_shape
    lead = image.shape[:-2]
    patches = image.reshape(*lead, rows, ph, cols, pw).swapaxes(-3, -2)
    return np.ascontiguousarray(
        patches.reshape(*lead, cfg.num_patches, ph * pw))


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
    if len(ids) > state.max_text_len:
        raise ValueError("token sequence exceeds positional table")
    rows = state.token_table.data[np.asarray(ids, dtype=int)] if ids else \
        np.zeros((0, cfg.text_width))
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
    att, weights = ad.masked_attention(q, k, v, mask=mask, heads=heads,
                                       return_weights=True)
    h = h + (att @ lw.wo + lw.bo)
    m = ad.layer_norm(h, lw.ln2_gamma, lw.ln2_beta)
    h = h + (ad.gelu(m @ lw.w1 + lw.b1) @ lw.w2 + lw.b2)
    return h, weights


@dataclass
class ImageEncodeResult:
    """Final-layer outputs; a batched encode adds a leading (B,) axis."""

    cls: Tensor                      # final class embedding, (d_v,)
    patches: Tensor                  # final patch embeddings, (m, d_v)
    prompts: Optional[Tensor]        # final prompt embeddings, (V, d_v) or None
    attentions: Optional[list] = None          # per-layer (heads, n, n) arrays
    layer_input: Optional[np.ndarray] = None   # captured input of one layer


@dataclass
class TextEncodeResult:
    eos: Tensor
    attentions: Optional[list] = None


def _run_layers(seq: Tensor, layers: list, prompt_blocks: list, num_prompts: int,
                cfg: ModelConfig, mask, start_layer: int = 0,
                collect_attention: bool = False, capture_layer_input=None):
    """Shared deep-prompt loop: replace prompt slots with fresh parameters
    for layers below prompt_depth, let outputs flow afterwards.  ``seq`` is
    ``(n, d)`` or a stack ``(B, n, d)`` that shares each prompt block."""
    n_keep = seq.shape[-2] - num_prompts
    attentions = [] if collect_attention else None
    captured = None
    h = seq
    for j in range(start_layer, cfg.depth):
        if j > start_layer and num_prompts > 0 and j < cfg.prompt_depth:
            h = ad.concat([h[..., :n_keep, :], prompt_blocks[j]], axis=-2)
        if capture_layer_input == j:
            captured = h.data.copy()
        h, weights = _layer_forward(h, layers[j], cfg.heads, mask)
        if collect_attention:
            attentions.append(weights.data.copy())
    return h, attentions, captured


def encode_image_prompted(class_token: Tensor, patch_embeddings: Tensor,
                          prompts: PromptSet, cfg: ModelConfig,
                          state: EncoderState, *, collect_attention: bool = False,
                          capture_layer_input=None) -> ImageEncodeResult:
    """Prompted image forward of one image, or of a batch at once: with
    ``class_token`` ``(B, d)`` and ``patch_embeddings`` ``(B, m, d)`` every
    result gains a leading (B,) axis and the prompt blocks are shared."""
    m = cfg.num_patches
    lead = patch_embeddings.shape[:-2]
    if patch_embeddings.shape[-2:] != (m, cfg.visual_width) or \
            class_token.shape != lead + (cfg.visual_width,):
        raise ValueError("patch embeddings do not match config")
    num_prompts = cfg.visual_prompt_len
    if num_prompts > 0 and len(prompts.visual) != cfg.prompt_depth:
        raise ValueError("prompt set does not match prompt_depth")
    parts = [ad.reshape(class_token, (*lead, 1, cfg.visual_width)),
             patch_embeddings + state.pos_image]
    if num_prompts > 0:
        parts.append(prompts.visual[0])
    seq = ad.concat(parts, axis=-2)
    total = 1 + m + num_prompts
    mask = None
    if cfg.mask_prompts and num_prompts > 0:
        mask = build_prompt_mask(num_prompts, total)
        if not mask.any():
            mask = None
    h, attentions, captured = _run_layers(
        seq, state.image_layers, prompts.visual, num_prompts, cfg, mask,
        collect_attention=collect_attention,
        capture_layer_input=capture_layer_input)
    return ImageEncodeResult(
        cls=h[..., 0, :],
        patches=h[..., 1:1 + m, :],
        prompts=h[..., 1 + m:, :] if num_prompts > 0 else None,
        attentions=attentions,
        layer_input=captured,
    )


def encode_image_from_layer(layer_input: Tensor, start_layer: int,
                            prompts: PromptSet, cfg: ModelConfig,
                            state: EncoderState) -> ImageEncodeResult:
    """Resume the prompted image forward from a captured layer input."""
    m = cfg.num_patches
    num_prompts = layer_input.shape[-2] - 1 - m
    mask = None
    if cfg.mask_prompts and num_prompts > 0:
        mask = build_prompt_mask(num_prompts, layer_input.shape[-2])
    h, _, _ = _run_layers(layer_input, state.image_layers, prompts.visual,
                          num_prompts, cfg, mask, start_layer=start_layer)
    return ImageEncodeResult(cls=h[..., 0, :], patches=h[..., 1:1 + m, :],
                             prompts=h[..., 1 + m:, :] if num_prompts > 0
                             else None)


def encode_text_prompted(eos_token: Tensor, word_embeddings: Tensor,
                         prompts: PromptSet, cfg: ModelConfig,
                         state: EncoderState, *,
                         collect_attention: bool = False) -> TextEncodeResult:
    n = word_embeddings.shape[0]
    if n > state.max_text_len:
        raise ValueError("token sequence exceeds positional table")
    num_prompts = cfg.text_prompt_len
    if num_prompts > 0 and len(prompts.textual) != cfg.prompt_depth:
        raise ValueError("prompt set does not match prompt_depth")
    parts = [ad.reshape(eos_token, (1, cfg.text_width))]
    if n > 0:
        parts.append(word_embeddings + Tensor(state.pos_text.data[:n]))
    if num_prompts > 0:
        parts.append(prompts.textual[0])
    seq = ad.concat(parts, axis=0)
    h, attentions, _ = _run_layers(seq, state.text_layers, prompts.textual,
                                   num_prompts, cfg, mask=None,
                                   collect_attention=collect_attention)
    return TextEncodeResult(eos=h[0], attentions=attentions)


# ----------------------------------------------------------- projections

def l2_normalize(v: Tensor) -> Tensor:
    """Scale every row (the last axis) to unit length."""
    length = ad.norm(v, keepdims=True)
    if not length.data.all():
        raise ValueError("degenerate vector")
    return v / length


def project_global(class_embedding: Tensor, state: EncoderState) -> Tensor:
    """Class embedding (d_v,) or a batch (B, d_v) -> unit rows in the
    shared space."""
    return l2_normalize(class_embedding @ state.img_proj)


def project_text(eos_embedding: Tensor, state: EncoderState) -> Tensor:
    return l2_normalize(eos_embedding @ state.text_proj)


def project_augmented(prompt_embeddings: Tensor, state: EncoderState) -> Tensor:
    """Project every prompt output, (V, d_v) or (B, V, d_v), with the shared
    image projection to unit rows."""
    if prompt_embeddings is None or prompt_embeddings.shape[-2] == 0:
        raise ValueError("augmented branch requires visual prompts")
    return l2_normalize(prompt_embeddings @ state.img_proj)
