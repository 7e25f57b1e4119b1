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
from .tuning import (BranchOutputs, TextBank, augmented_logits, ce_logits,
                     forward_three_branch)

DEFAULT_THRESHOLD = 0.8


@dataclass
class BranchLogits:
    global_: np.ndarray
    augmented: Optional[np.ndarray]
    vanilla: np.ndarray

    def present(self) -> list:
        out = [self.global_]
        if self.augmented is not None:
            out.append(self.augmented)
        out.append(self.vanilla)
        return out


def three_branch_logits(outputs: BranchOutputs, bank: TextBank,
                        tau: float) -> BranchLogits:
    """Each branch's training logits as arrays: :func:`ce_logits` for the
    global and vanilla reps, :func:`augmented_logits` for the augmented.
    The bank enters as constants, so scoring builds no graph."""
    prompted, vanilla = Tensor(bank.prompted.data), Tensor(bank.vanilla.data)
    aug = None
    if outputs.augmented_reps is not None:
        aug = augmented_logits(outputs.augmented_reps, prompted, tau).data
    return BranchLogits(
        global_=ce_logits(outputs.global_rep, prompted, tau).data,
        augmented=aug,
        vanilla=ce_logits(outputs.vanilla_rep, vanilla, tau).data,
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
    return softmax(Tensor(_check_shapes(logits))).data.max(axis=-1)


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
