"""Logit-level self-ensemble over the three branch predictions.

All functions here operate on plain numpy logits ``(..., C)``, one row per
image, combined along the last axis (evaluation never needs gradients).
The global and augmented branches score against the prompted text bank;
the vanilla branch keeps its zero-shot character by scoring against the
promptless text bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, softmax
from .encoders import EncoderState, ModelConfig, PromptSet
from .tuning import (BranchOutputs, TextBank, forward_three_branch,
                     sim_augmented)

DEFAULT_THRESHOLD = 0.8


@dataclass
class BranchLogits:
    global_: np.ndarray
    augmented: Optional[np.ndarray]
    vanilla: np.ndarray
    tau: float

    def present(self) -> list:
        out = [self.global_]
        if self.augmented is not None:
            out.append(self.augmented)
        out.append(self.vanilla)
        return out


def branch_logits(rep, bank_rows, tau: float) -> np.ndarray:
    """Cosine/tau logits of one branch against one side of the text bank.

    ``rep`` is rows ``(..., R, d)``, or one row ``(d,)``, scored by the mean
    of the per-row cosines to each class row, as the augmented branch is in
    training.  Both sides enter as constants, so scoring builds no graph.
    """
    rep = Tensor(np.atleast_2d(getattr(rep, "data", rep)))
    rows = Tensor(getattr(bank_rows, "data", bank_rows))
    return sim_augmented(rep, rows).data / tau


def three_branch_logits(outputs: BranchOutputs, bank: TextBank,
                        tau: float) -> BranchLogits:
    aug = None
    if outputs.augmented_reps is not None:
        aug = branch_logits(outputs.augmented_reps, bank.prompted, tau)
    glob = outputs.global_rep.data[..., None, :]      # one row per image
    vanilla = outputs.vanilla_rep.data[..., None, :]
    return BranchLogits(
        global_=branch_logits(glob, bank.prompted, tau),
        augmented=aug,
        vanilla=branch_logits(vanilla, bank.vanilla, tau),
        tau=tau,
    )


def _check_shapes(logits: BranchLogits) -> np.ndarray:
    """The present branches stacked as ``(K, ..., C)``."""
    vecs = logits.present()
    if any(v.shape != vecs[0].shape for v in vecs):
        raise ValueError("branch logits shape mismatch")
    return np.stack(vecs)


def ensemble_equal(logits: BranchLogits) -> np.ndarray:
    return np.mean(_check_shapes(logits), axis=0)


def branch_confidences(logits: BranchLogits) -> np.ndarray:
    """Max softmax probability of each branch, ``(K, ...)``."""
    return softmax(_check_shapes(logits)).max(axis=-1)


def ensemble_confidence(logits: BranchLogits) -> np.ndarray:
    vecs = _check_shapes(logits)
    conf = branch_confidences(logits)
    weights = conf / conf.sum(axis=0)
    return np.sum(weights[..., None] * vecs, axis=0)


def ensemble_threshold(logits: BranchLogits,
                       theta: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Per row: mean of the branches above ``theta``, else ensemble_equal."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    vecs = _check_shapes(logits)
    keep = (branch_confidences(logits) > theta)[..., None]
    kept = keep.sum(axis=0)
    mean_kept = np.where(keep, vecs, 0.0).sum(axis=0) / np.maximum(kept, 1)
    return np.where(kept > 0, mean_kept, ensemble_equal(logits))


def resolve_strategy(name: str):
    """Map a strategy string ('equal' | 'confidence' | 'threshold[:theta]')
    to a function over BranchLogits."""
    name = name.strip().lower()
    if name == "equal":
        return ensemble_equal
    if name == "confidence":
        return ensemble_confidence
    if name == "threshold":
        return ensemble_threshold
    if name.startswith("threshold:"):
        theta = float(name.split(":", 1)[1])
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        return lambda lg: ensemble_threshold(lg, theta)
    raise ValueError(f"unknown ensemble strategy {name!r}")


def predict(image, prompts: PromptSet, cfg: ModelConfig, state: EncoderState,
            bank: TextBank, strategy: str = "equal"):
    """Final class index under the chosen ensemble, ties breaking low: an
    ``int`` for one image, a ``(B,)`` array for a ``(B, size, size)`` stack."""
    combine = resolve_strategy(strategy)
    outputs = forward_three_branch(image, prompts, cfg, state)
    combined = combine(three_branch_logits(outputs, bank, cfg.temperature))
    pred = np.argmax(combined, axis=-1)
    return int(pred) if pred.ndim == 0 else pred
