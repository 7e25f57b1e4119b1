"""Logit-level self-ensemble over the three branch predictions.

All functions here operate on plain numpy logits stacked as ``(K, ..., C)``:
K branches, one row per image, C classes along the last axis (evaluation
never needs gradients).
The global and augmented branches score against the prompted text bank;
the vanilla branch keeps its zero-shot character by scoring against the
promptless text bank.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, softmax
from .encoders import EncoderState, ModelConfig, PromptSet
from .tuning import (BranchOutputs, TextBank, augmented_logits, ce_logits,
                     forward_three_branch)

DEFAULT_THRESHOLD = 0.8


def three_branch_logits(outputs: BranchOutputs, bank: TextBank,
                        tau: float) -> np.ndarray:
    """Each branch's training logits stacked as ``(K, ..., C)``: global and
    vanilla by :func:`ce_logits`, and between them the augmented branch by
    :func:`augmented_logits` when it is present (K = 3, else 2).  The bank
    enters as constants, so scoring builds no graph."""
    prompted, vanilla = Tensor(bank.prompted.data), Tensor(bank.vanilla.data)
    branches = [ce_logits(outputs.global_rep, prompted, tau)]
    if outputs.augmented_reps is not None:
        branches.append(augmented_logits(outputs.augmented_reps, prompted,
                                         tau))
    branches.append(ce_logits(outputs.vanilla_rep, vanilla, tau))
    return np.stack([b.data for b in branches])


def ensemble_equal(logits: np.ndarray) -> np.ndarray:
    return np.mean(logits, axis=0)


def branch_confidences(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability of each branch, ``(K, ...)``."""
    return softmax(Tensor(logits)).data.max(axis=-1)


def ensemble_confidence(logits: np.ndarray) -> np.ndarray:
    conf = branch_confidences(logits)
    weights = conf / conf.sum(axis=0)
    return np.sum(weights[..., None] * logits, axis=0)


def ensemble_threshold(logits: np.ndarray,
                       theta: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Per row: mean of the branches above ``theta``, else ensemble_equal."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    keep = (branch_confidences(logits) > theta)[..., None]
    kept = keep.sum(axis=0)
    mean_kept = np.where(keep, logits, 0.0).sum(axis=0) / np.maximum(kept, 1)
    return np.where(kept > 0, mean_kept, ensemble_equal(logits))


def resolve_strategy(name: str):
    """Map a strategy string ('equal' | 'confidence' | 'threshold[:theta]')
    to a function over a ``(K, ..., C)`` logits stack."""
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
            bank: TextBank, strategy: str | tuple = "equal"):
    """Final class index under the chosen ensemble, ties breaking low: an
    ``int`` for one image, a ``(B,)`` array for a ``(B, size, size)`` stack;
    a tuple of strategy names gives a tuple, one per name, from one forward."""
    names = (strategy,) if isinstance(strategy, str) else tuple(strategy)
    if not names:
        raise ValueError("no ensemble strategy given")
    combines = [resolve_strategy(name) for name in names]
    outputs = forward_three_branch(image, prompts, cfg, state)
    logits = three_branch_logits(outputs, bank, cfg.temperature)
    preds = [np.argmax(combine(logits), axis=-1) for combine in combines]
    preds = tuple(int(p) if p.ndim == 0 else p for p in preds)
    return preds[0] if isinstance(strategy, str) else preds
