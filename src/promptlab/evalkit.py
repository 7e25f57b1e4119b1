"""Classification metrics, attention-map tooling, the foreground
segmentation protocol (pixAcc / mIoU / mAP), and GradCAM grids.

All metric functions are pure numpy; batch evaluation reduces per-image
results in dataset order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datagen import atomic_open
from .encoders import (EncoderState, ModelConfig, PromptSet,
                       encode_image_from_layer, encode_image_prompted,
                       project_global)

PGM_MAXVAL = 255  # white level of the exported graymaps


# ------------------------------------------------------ scalar metrics

def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("length mismatch between predictions and labels")
    if predictions.size == 0:
        raise ValueError("empty prediction list")
    return float((predictions == labels).mean())


def harmonic_mean(base_acc: float, novel_acc: float) -> float:
    if base_acc <= 0 or novel_acc <= 0:
        raise ValueError("harmonic mean requires positive accuracies")
    return 2.0 * base_acc * novel_acc / (base_acc + novel_acc)


# ------------------------------------------------------ attention maps

def _selector_index(selector: str, cfg: ModelConfig) -> int:
    sel = selector.strip()
    if sel.upper() == "CLS":
        return 0
    if sel.upper().startswith("VP:"):
        try:
            i = int(sel[3:])
        except ValueError:
            raise ValueError(f"unknown token selector {selector!r}")
        if not 0 <= i < cfg.visual_prompt_len:
            raise ValueError(
                f"visual prompt index {i} out of range "
                f"(V={cfg.visual_prompt_len})")
        return 1 + cfg.num_patches + i
    raise ValueError(f"unknown token selector {selector!r}")


def extract_attention_map(image, prompts: PromptSet, cfg: ModelConfig,
                          state: EncoderState,
                          token_selector: str = "CLS") -> np.ndarray:
    """:func:`attention_grid` of the image's final-layer attention."""
    _selector_index(token_selector, cfg)               # fail before encoding
    res = encode_image_prompted(image, prompts.detached(), cfg, state)
    return attention_grid(res.attentions[-1], token_selector, cfg)


def attention_grid(attention: np.ndarray, token_selector: str,
                   cfg: ModelConfig) -> np.ndarray:
    """Attention ``(heads, n, n)`` of the selected query token over the
    patch tokens, head-averaged and renormalized to sum to 1, as a
    ``patch_grid`` array."""
    row = attention.mean(axis=0)[_selector_index(token_selector, cfg)]
    row = row[1:1 + cfg.num_patches]                   # patch columns only
    return (row / row.sum()).reshape(cfg.patch_grid)


def _patch_blocks(image_size: int, grid_shape) -> tuple:
    gr, gc = grid_shape
    if image_size % gr or image_size % gc:
        raise ValueError("image size not divisible by patch grid")
    return image_size // gr, image_size // gc


def upsample_nearest(amap, image_size: int) -> np.ndarray:
    grid = np.asarray(amap, dtype=np.float64)
    sy, sx = _patch_blocks(image_size, grid.shape)
    return grid.repeat(sy, 0).repeat(sx, 1)


def binarize_map(amap, image_size: int) -> np.ndarray:
    """Foreground = strictly above the map's own mean; nearest-neighbor
    upsample from the patch grid to pixel resolution."""
    grid = np.asarray(amap, dtype=np.float64)
    fg = grid > grid.mean()
    sy, sx = _patch_blocks(image_size, grid.shape)
    return fg.repeat(sy, 0).repeat(sx, 1)


def foreground_mass(amap, gt_mask) -> float:
    """Fraction of the map's attention mass that falls on gt foreground,
    spreading each patch's mass uniformly over its pixels."""
    grid = np.asarray(amap, dtype=np.float64)
    gt = np.asarray(gt_mask, dtype=np.float64)
    sy, sx = _patch_blocks(gt.shape[0], grid.shape)
    gr, gc = grid.shape
    frac = gt.reshape(gr, sy, gc, sx).mean(axis=(1, 3))
    return float((grid * frac).sum())


# ------------------------------------------------- segmentation metrics

@dataclass
class SegmentationMetrics:
    pix_acc: float
    m_iou: float
    m_ap: float

    def as_tuple(self):
        return (self.pix_acc, self.m_iou, self.m_ap)


def _iou(pred: np.ndarray, gt: np.ndarray) -> float:
    inter = np.logical_and(pred, gt).sum()
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        # class absent from gt and prediction alike
        return 1.0
    return float(inter) / float(union)


def average_precision(heatmap, gt_mask) -> float:
    """Area under the precision-recall curve, enumerating every distinct
    heatmap value as a threshold (step interpolation)."""
    heat = np.asarray(heatmap, dtype=np.float64).ravel()
    gt = np.asarray(gt_mask, dtype=bool).ravel()
    if heat.shape != gt.shape:
        raise ValueError("shape mismatch between heatmap and gt mask")
    if np.isnan(heat).any():
        raise ValueError("heatmap contains NaN")
    n_pos = int(gt.sum())
    if n_pos == 0:
        return 1.0
    # counts at each threshold: every pixel up to the last of its value
    order = np.argsort(-heat, kind="stable")
    ranked = heat[order]
    hits = np.cumsum(gt[order])
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    precision = hits[last] / (last + 1)
    recall = hits[last] / n_pos
    # summed in threshold order, as a running total would
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def segmentation_metrics(heatmap, pred_mask, gt_mask) -> SegmentationMetrics:
    heat = np.asarray(heatmap, dtype=np.float64)
    pred = np.asarray(pred_mask, dtype=bool)
    gt = np.asarray(gt_mask, dtype=bool)
    if not (heat.shape == pred.shape == gt.shape):
        raise ValueError("shape mismatch between heatmap, pred and gt")
    pix_acc = float((pred == gt).mean())
    m_iou = 0.5 * (_iou(pred, gt) + _iou(~pred, ~gt))
    return SegmentationMetrics(pix_acc=pix_acc, m_iou=m_iou,
                               m_ap=average_precision(heat, gt))


def mean_metrics(per_image) -> SegmentationMetrics:
    """Dataset-level aggregation: plain mean of each per-image metric."""
    rows = list(per_image)
    if not rows:
        raise ValueError("no per-image metrics to aggregate")
    return SegmentationMetrics(
        pix_acc=float(np.mean([r.pix_acc for r in rows])),
        m_iou=float(np.mean([r.m_iou for r in rows])),
        m_ap=float(np.mean([r.m_ap for r in rows])),
    )


# -------------------------------------------------------------- GradCAM

def gradcam_map(image, prompts: PromptSet, cfg: ModelConfig,
                state: EncoderState, bank) -> np.ndarray:
    """relu(sum_c w_c A_jc) over final-layer input patch activations A,
    with w_c the patch-mean gradient of the similarity score for the
    highest-scoring class.  Only the layer input receives a gradient:
    prompts and bank enter as constants."""
    frozen = prompts.detached()
    res = encode_image_prompted(image, frozen, cfg, state)
    acts = res.layer_inputs[-1]
    m = cfg.num_patches
    rows = Tensor(bank.prompted.data)
    x_p = project_global(res.cls, state)
    class_index = int(np.argmax(ad.cosine_similarity(x_p, rows).data))

    leaf = Tensor(acts, requires_grad=True)
    resumed = encode_image_from_layer(leaf, cfg.depth - 1, frozen, cfg, state)
    sim = ad.cosine_similarity(project_global(resumed.cls, state),
                               rows[class_index])
    ad.backward(sim)
    w = leaf.grad[1:1 + m].mean(axis=0)
    return np.maximum(acts[1:1 + m] @ w, 0.0).reshape(cfg.patch_grid)


# ------------------------------------------------------------- exporters

def write_pgm(path, grid) -> None:
    """Plain-text (P2) portable graymap, values scaled so the map maximum
    lands on ``PGM_MAXVAL``; an all-zero map stays all zero."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("PGM export expects a 2-D grid")
    top = grid.max()
    scaled = np.zeros(grid.shape, dtype=int) if top <= 0 else \
        np.rint(grid / top * PGM_MAXVAL).astype(int)
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", f"{PGM_MAXVAL}"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header, rows) -> None:
    """Header plus rows, replacing ``path`` only once every row is written."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
