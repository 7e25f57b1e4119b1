"""Three-branch forward pass, the full loss stack, and prompt optimization.

The image forward yields three representations: the prompted class token
(global), the projected final-layer prompt outputs (augmented), and a
promptless encode (vanilla).  Only prompt parameters receive gradients;
vanilla quantities enter the losses as constants, which the train loop
exploits by caching them once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datagen import Subset, tokenize_template
from .encoders import (EncoderState, ModelConfig, PromptSet, _stream,
                       encode_image_prompted, encode_text_prompted,
                       project_augmented, project_global, project_text)

MOMENTUM = 0.9
# images per graph-free encode when scoring a split: batching cuts the
# per-image cost, while a whole split at once raises peak memory
EVAL_CHUNK = 8


@dataclass
class Batch:
    images: np.ndarray   # (B, size, size)
    labels: np.ndarray   # (B,) indices into the bank's class list

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must align")

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_subset(cls, subset: Subset) -> "Batch":
        return cls(images=subset.images, labels=subset.labels)


@dataclass
class BranchOutputs:
    global_rep: Tensor             # x_p, (..., d_shared)
    augmented_reps: Optional[Tensor]  # (..., V, d_shared), None if no prompts
    vanilla_rep: Tensor            # x, (..., d_shared), prompt-free


@dataclass
class TextBank:
    prompted: Tensor   # (N_c, d_shared) rows, graph-carrying
    vanilla: Tensor    # (N_c, d_shared) rows, constant


_EMPTY_PROMPTS = PromptSet([], [])


def text_rows(class_names, prompts: PromptSet, cfg: ModelConfig,
              state: EncoderState) -> Tensor:
    """Text rows ``(C, d)``, one per class prompt, encoded under
    ``prompts``; a constant for detached or empty prompts."""
    return ad.stack_rows([
        project_text(encode_text_prompted(tokenize_template(n), prompts, cfg,
                                          state).eos, state)
        for n in class_names])


def vanilla_text_rows(class_names, cfg: ModelConfig,
                      state: EncoderState) -> Tensor:
    """Promptless text bank rows; constant, safe to cache per run."""
    return text_rows(class_names, _EMPTY_PROMPTS, cfg, state)


def build_text_bank(class_names, prompts: PromptSet, cfg: ModelConfig,
                    state: EncoderState, vanilla_rows=None) -> TextBank:
    rows = text_rows(class_names, prompts, cfg, state)
    if vanilla_rows is None:
        vanilla_rows = vanilla_text_rows(class_names, cfg, state)
    return TextBank(prompted=rows, vanilla=vanilla_rows)


def vanilla_image_rep(image, cfg: ModelConfig, state: EncoderState) -> Tensor:
    """Promptless global representation, (d,) or (B, d) for a batch of
    images; a constant, since no learnable tensor enters the encode."""
    res = encode_image_prompted(image, _EMPTY_PROMPTS, cfg, state)
    return project_global(res.cls, state)


def forward_three_branch(image, prompts: PromptSet, cfg: ModelConfig,
                         state: EncoderState) -> BranchOutputs:
    """Branch reps of one image or a ``(B, size, size)`` stack, as constants."""
    res = encode_image_prompted(image, prompts.detached(), cfg, state)
    x_p = project_global(res.cls, state)
    aug = None if res.prompts is None else project_augmented(res.prompts, state)
    return BranchOutputs(global_rep=x_p, augmented_reps=aug,
                         vanilla_rep=vanilla_image_rep(image, cfg, state))


# ------------------------------------------------------------------ losses

def _nll(logits: Tensor, y) -> Tensor:
    """-log softmax picked at the labels: logits (C,) with an int label
    give a scalar, logits (B, C) with (B,) labels give (B,) losses."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != logits.shape[:-1]:
        raise ValueError("one label per row of logits expected")
    if ((y < 0) | (y >= logits.shape[-1])).any():
        raise ValueError("class index out of range")
    pick = int(y) if y.ndim == 0 else (np.arange(len(y)), y)
    return -ad.log_softmax(logits)[pick]


def _n_correct(scores: np.ndarray, labels) -> int:
    """How many rows of ``scores`` (one column per class) peak at the label."""
    return int((np.argmax(scores, axis=-1) == labels).sum())


def ce_logits(x_rep: Tensor, rows: Tensor, tau: float) -> Tensor:
    """cosine/tau logits against the text rows ``(C, d)``: ``(C,)`` for one
    rep, ``(B, C)`` for a batch.  The one scoring rule of a rep."""
    if x_rep.data.ndim > 1:
        x_rep = ad.reshape(x_rep, (*x_rep.shape[:-1], 1, x_rep.shape[-1]))
    return ad.cosine_similarity(x_rep, rows) * (1.0 / tau)


def loss_ce(x_rep: Tensor, bank: TextBank, y, tau: float) -> Tensor:
    """Cross entropy of cosine/tau logits against the prompted text bank.

    ``x_rep`` ``(d,)`` with an int ``y`` gives a scalar; a batch ``(B, d)``
    with ``(B,)`` labels gives the ``(B,)`` per-image losses.
    """
    return _nll(ce_logits(x_rep, bank.prompted, tau), y)


def loss_consistency(prompted: Tensor, vanilla: Tensor) -> Tensor:
    return ad.sub(1.0, ad.cosine_similarity(prompted, vanilla))


def augmented_logits(aug_reps: Optional[Tensor], rows: Tensor,
                     tau: float) -> Tensor:
    """The augmented branch's logits: the equal-weight mean of per-prompt
    cosine similarities to each text row, over tau.

    ``aug_reps`` is ``(V, d)``, or ``(B, V, d)`` for a batch; ``rows`` is
    one row ``(d,)`` or a bank ``(C, d)``, giving one logit per row (per
    image).
    """
    if aug_reps is None or aug_reps.shape[-2] == 0:
        raise ValueError("augmented branch requires visual prompts")
    *lead, n_prompts, width = aug_reps.shape
    per_prompt = ad.reshape(aug_reps, (*lead, n_prompts, 1, width))
    return ad.mean(ad.cosine_similarity(per_prompt, rows), axis=-2) * \
        (1.0 / tau)


def loss_aug_single(aug_reps: Optional[Tensor], bank: TextBank, y,
                    tau: float) -> Tensor:
    """Cross entropy of the augmented branch; batched like :func:`loss_ce`."""
    return _nll(augmented_logits(aug_reps, bank.prompted, tau), y)


def compute_losses(batch: Batch, prompts: PromptSet, cfg: ModelConfig,
                   state: EncoderState, class_names, *, bank: TextBank = None,
                   vanilla_reps=None, use_aug: bool = True) -> dict:
    """All loss terms of one batch as graph tensors, keyed by name, and the
    constant ``accuracy``: the share of rows whose CE logits peak at the label.

    The whole batch is encoded in one ``(B, n, d)`` forward and every term
    is the mean of its per-image (per-class for ``text``) values.
    ``vanilla_reps`` holds the batch's promptless reps as ``(B, d)`` rows
    (see :func:`vanilla_image_rep`).  ``use_aug=False`` drops the augmented
    term from the total (loss ablation) without touching the prompt layout.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if bank is None:
        bank = build_text_bank(class_names, prompts, cfg, state)
    if vanilla_reps is None:
        vanilla_reps = vanilla_image_rep(batch.images, cfg, state)
    vanilla = ad.as_tensor(vanilla_reps)
    if vanilla.shape[:-1] != (len(batch),):
        raise ValueError("one vanilla rep per image expected")

    res = encode_image_prompted(batch.images, prompts, cfg, state)
    x_p = project_global(res.cls, state)
    tau = cfg.temperature
    logits = ce_logits(x_p, bank.prompted, tau)
    ce = ad.mean(_nll(logits, batch.labels))
    text = ad.mean(loss_consistency(bank.prompted, bank.vanilla))
    img = ad.mean(loss_consistency(x_p, vanilla))
    glob = ce + text * cfg.text_consistency_weight + \
        img * cfg.image_consistency_weight
    out = {"ce": ce, "text": text, "img": img, "global": glob, "accuracy":
           Tensor(_n_correct(logits.data, batch.labels) / len(batch))}
    if use_aug and res.prompts is not None:
        aug = project_augmented(res.prompts, state)
        out["aug"] = ad.mean(loss_aug_single(aug, bank, batch.labels, tau))
        out["total"] = glob + out["aug"]
    else:
        out["aug"] = Tensor(np.asarray(0.0))
        out["total"] = glob
    return out


# --------------------------------------------------------------- optimizer

class SGDMomentum:
    """Classic heavy-ball SGD: v <- mu*v + g, p <- p - lr*v."""

    def __init__(self):
        self.velocity = None

    def step(self, values: list, grads: list, lr: float) -> list:
        if self.velocity is None:
            self.velocity = [np.zeros_like(g) for g in grads]
        if len(grads) != len(self.velocity):
            raise ValueError("parameter count changed between steps")
        out = []
        for i, (p, g) in enumerate(zip(values, grads)):
            self.velocity[i] = MOMENTUM * self.velocity[i] + g
            out.append(p - lr * self.velocity[i])
        return out


def train_step(batch: Batch, prompts: PromptSet, cfg: ModelConfig,
               state: EncoderState, lr: float, class_names, *,
               optimizer: SGDMomentum = None, vanilla_rows=None,
               vanilla_reps=None, use_aug: bool = True):
    """One optimization step; returns (new PromptSet, loss floats dict)."""
    bank = build_text_bank(class_names, prompts, cfg, state,
                           vanilla_rows=vanilla_rows)
    losses = compute_losses(batch, prompts, cfg, state, class_names,
                            bank=bank, vanilla_reps=vanilla_reps,
                            use_aug=use_aug)
    total = losses["total"]
    if not np.isfinite(total.item()):
        raise ValueError("diverged")
    params = prompts.parameters()
    ad.zero_grads(params)    # the step's gradient only, not a caller's
    ad.backward(total)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
             for p in params]
    for (name, _), g in zip(prompts.tensor_items(), grads):
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in {name}")
    if optimizer is None:
        optimizer = SGDMomentum()
    new_values = optimizer.step([p.data for p in params], grads, lr)
    nv = len(prompts.visual)
    new_prompts = PromptSet(
        [Tensor(v, requires_grad=True) for v in new_values[:nv]],
        [Tensor(v, requires_grad=True) for v in new_values[nv:]])
    stats = {k: float(v.item()) for k, v in losses.items()}
    return new_prompts, stats


# -------------------------------------------------------------- train loop

LOG_COLUMNS = ("epoch", "loss_total", "loss_ce", "loss_text", "loss_img",
               "loss_aug", "base_accuracy")


@dataclass
class TrainResult:
    prompts: PromptSet
    log_rows: list         # one dict per epoch, keys LOG_COLUMNS
    initial: dict          # loss floats on the full train set, untrained
    final: dict            # same after the last step
    steps: int


def global_branch_accuracy(subset: Subset, class_names, prompts: PromptSet,
                           cfg: ModelConfig, state: EncoderState) -> float:
    """Share of ``subset`` whose global branch picks the right class.

    Scoring builds no graph: prompts enter as detached views, and images
    are encoded, projected and scored by :func:`ce_logits` ``EVAL_CHUNK``
    at a time.
    """
    if len(subset) == 0:
        raise ValueError("empty evaluation subset")
    frozen = prompts.detached()
    rows = text_rows(class_names, frozen, cfg, state)
    correct = 0
    for start in range(0, len(subset), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        res = encode_image_prompted(subset.images[chunk], frozen, cfg, state)
        logits = ce_logits(project_global(res.cls, state), rows,
                           cfg.temperature)
        correct += _n_correct(logits.data, subset.labels[chunk])
    return correct / len(subset)


@np.errstate(all="raise", under="ignore")  # the attention mask underflows
def train(train_set: Subset, class_names, prompts: PromptSet,
          cfg: ModelConfig, state: EncoderState, *, epochs: int,
          batch_size: int, lr: float, seed: int,
          use_aug: bool = True) -> TrainResult:
    """Epoch loop over shuffled minibatches with per-epoch CSV-ready rows.

    An epoch's ``base_accuracy`` scores the whole set under the prompts the
    epoch ended with: the next epoch's first step scores its batch through
    its CE logits, a standalone pass scores the other rows (none when one
    batch holds the set), and the last epoch's value is ``final``'s.
    Overflow, division by zero and invalid results raise
    ``FloatingPointError`` where they happen; one raised in a step names its
    epoch and step, both counted from 0."""
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if not 0 <= lr < np.inf:   # NaN fails it too
        raise ValueError("learning rate must be nonnegative and finite")
    n = len(train_set)
    if n == 0:
        raise ValueError("empty batch")

    vrows = vanilla_text_rows(class_names, cfg, state)
    vreps = vanilla_image_rep(train_set.images, cfg, state).data
    full = Batch.from_subset(train_set)

    def full_losses(p):
        p = p.detached()
        bank = build_text_bank(class_names, p, cfg, state, vanilla_rows=vrows)
        losses = compute_losses(full, p, cfg, state, class_names, bank=bank,
                                vanilla_reps=vreps, use_aug=use_aug)
        return {k: float(v.item()) for k, v in losses.items()}

    initial = full_losses(prompts)
    optimizer = SGDMomentum()
    rows, steps, rest_correct = [], 0, 0
    order = _stream(seed, 400, 0).permutation(n)
    for epoch in range(epochs):
        sums = {k: 0.0 for k in ("total", "ce", "text", "img", "aug")}
        count = 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            batch = Batch(images=train_set.images[idx],
                          labels=train_set.labels[idx])
            try:
                prompts, stats = train_step(
                    batch, prompts, cfg, state, lr, class_names,
                    optimizer=optimizer, vanilla_rows=vrows,
                    vanilla_reps=vreps[idx], use_aug=use_aug)
            except FloatingPointError as e:   # keeps the raising frame
                e.args = (f"{e} at epoch {epoch}, step {steps}",)
                raise
            if start == 0 and rows:   # add counts, divide once, as n rows
                correct = rest_correct + round(stats["accuracy"] * len(idx))
                rows[-1]["base_accuracy"] = correct / n
            for k in sums:
                sums[k] += stats[k]
            count += 1
            steps += 1
        rows.append({"epoch": epoch,
                     **{f"loss_{k}": v / count for k, v in sums.items()},
                     "base_accuracy": None})
        order = _stream(seed, 400, epoch + 1).permutation(n)
        rest = order[batch_size:]    # outside the next epoch's first batch
        if len(rest) and epoch + 1 < epochs:
            rest_correct = round(len(rest) * global_branch_accuracy(
                Batch(train_set.images[rest], train_set.labels[rest]),
                class_names, prompts, cfg, state))
    final = full_losses(prompts)
    rows[-1]["base_accuracy"] = final["accuracy"]
    return TrainResult(prompts=prompts, log_rows=rows, initial=initial,
                       final=final, steps=steps)
