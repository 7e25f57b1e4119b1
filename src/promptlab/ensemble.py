"""Logit-level self-ensemble over the three branch predictions.

All functions here operate on plain numpy logit vectors (evaluation never
needs gradients).  The global and augmented branches score against the
prompted text bank; the vanilla branch keeps its zero-shot character by
scoring against the promptless text bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, cosine_similarity, softmax
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

    A 2-D ``rep`` (the augmented branch) is scored by the equal-weight mean
    of its per-row cosines to each class row, exactly as in training.  Both
    sides enter as constants, so scoring builds no graph.
    """
    rep = Tensor(getattr(rep, "data", rep))
    rows = Tensor(getattr(bank_rows, "data", bank_rows))
    if rep.data.ndim == 1:
        sims = cosine_similarity(rep, rows)
    else:
        sims = sim_augmented(rep, rows)
    return sims.data / tau


def three_branch_logits(outputs: BranchOutputs, bank: TextBank,
                        tau: float) -> BranchLogits:
    aug = None
    if outputs.augmented_reps is not None:
        aug = branch_logits(outputs.augmented_reps, bank.prompted, tau)
    return BranchLogits(
        global_=branch_logits(outputs.global_rep, bank.prompted, tau),
        augmented=aug,
        vanilla=branch_logits(outputs.vanilla_rep, bank.vanilla, tau),
        tau=tau,
    )


def _check_shapes(logits: BranchLogits) -> list:
    vecs = logits.present()
    shape = vecs[0].shape
    if any(v.shape != shape for v in vecs) or len(shape) != 1:
        raise ValueError("branch logits shape mismatch")
    return vecs


def ensemble_equal(logits: BranchLogits) -> np.ndarray:
    vecs = _check_shapes(logits)
    return np.mean(vecs, axis=0)


def branch_confidences(logits: BranchLogits) -> np.ndarray:
    vecs = _check_shapes(logits)
    return np.array([float(softmax(v).max()) for v in vecs])


def ensemble_confidence(logits: BranchLogits) -> np.ndarray:
    vecs = _check_shapes(logits)
    conf = branch_confidences(logits)
    weights = conf / conf.sum()
    return sum(w * v for w, v in zip(weights, vecs))


def ensemble_threshold(logits: BranchLogits,
                       theta: float = DEFAULT_THRESHOLD) -> np.ndarray:
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    vecs = _check_shapes(logits)
    conf = branch_confidences(logits)
    kept = [v for c, v in zip(conf, vecs) if c > theta]
    if not kept:
        return ensemble_equal(logits)
    return np.mean(kept, axis=0)


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
            bank: TextBank, strategy: str = "equal") -> int:
    """Final class index under the chosen ensemble; ties break low."""
    combine = resolve_strategy(strategy)
    outputs = forward_three_branch(image, prompts, cfg, state)
    combined = combine(three_branch_logits(outputs, bank, cfg.temperature))
    return int(np.argmax(combined))
