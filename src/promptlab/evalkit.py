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

@dataclass
class AttentionMap:
    grid: np.ndarray   # patch_grid of nonnegative reals summing to 1
    token: str         # "CLS" or "VP:i"
    layer: int


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
                          token_selector: str = "CLS") -> AttentionMap:
    """Final-layer attention of the selected query token over the patch
    tokens, head-averaged and renormalized to sum to 1."""
    row_idx = _selector_index(token_selector, cfg)
    res = encode_image_prompted(image, prompts.detached(), cfg, state,
                                collect_attention=True)
    weights = res.attentions[-1].mean(axis=0)          # (n, n), heads merged
    m = cfg.num_patches
    row = weights[row_idx, 1:1 + m]                    # patch columns only
    grid = (row / row.sum()).reshape(cfg.patch_grid)
    return AttentionMap(grid=grid, token=token_selector.strip(),
                        layer=cfg.depth - 1)


def _grid_of(amap) -> np.ndarray:
    grid = amap.grid if isinstance(amap, AttentionMap) else np.asarray(amap)
    return np.asarray(grid, dtype=np.float64)


def _patch_blocks(image_size: int, grid_shape) -> tuple:
    gr, gc = grid_shape
    if image_size % gr or image_size % gc:
        raise ValueError("image size not divisible by patch grid")
    return image_size // gr, image_size // gc


def upsample_nearest(amap, image_size: int) -> np.ndarray:
    grid = _grid_of(amap)
    sy, sx = _patch_blocks(image_size, grid.shape)
    return np.kron(grid, np.ones((sy, sx)))


def binarize_map(amap, image_size: int) -> np.ndarray:
    """Foreground = strictly above the map's own mean; nearest-neighbor
    upsample from the patch grid to pixel resolution."""
    grid = _grid_of(amap)
    fg = grid > grid.mean()
    sy, sx = _patch_blocks(image_size, grid.shape)
    return np.kron(fg, np.ones((sy, sx), dtype=bool))


def foreground_mass(amap, gt_mask) -> float:
    """Fraction of the map's attention mass that falls on gt foreground,
    spreading each patch's mass uniformly over its pixels."""
    grid = _grid_of(amap)
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
    n_pos = int(gt.sum())
    if n_pos == 0:
        return 1.0
    ap = 0.0
    prev_recall = 0.0
    for t in np.unique(heat)[::-1]:
        pred = heat >= t
        tp = int(np.logical_and(pred, gt).sum())
        precision = tp / int(pred.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


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
                state: EncoderState, bank, class_index=None) -> np.ndarray:
    """relu(sum_c w_c A_jc) over final-layer input patch activations A,
    with w_c the patch-mean gradient of the similarity score for the chosen
    class (highest-scoring class when class_index is None).  Only the
    layer input receives a gradient: prompts and bank enter as constants."""
    frozen = prompts.detached()
    res = encode_image_prompted(image, frozen, cfg, state,
                                capture_layer_input=cfg.depth - 1)
    m = cfg.num_patches
    rows = Tensor(bank.prompted.data)
    if class_index is None:
        x_p = project_global(res.cls, state)
        class_index = int(np.argmax(ad.cosine_similarity(x_p, rows).data))
    elif not 0 <= int(class_index) < rows.shape[0]:
        raise ValueError("class index out of range")

    leaf = Tensor(res.layer_input, requires_grad=True)
    resumed = encode_image_from_layer(leaf, cfg.depth - 1, frozen, cfg, state)
    sim = ad.cosine_similarity(project_global(resumed.cls, state),
                               rows[int(class_index)])
    ad.backward(sim)
    w = leaf.grad[1:1 + m].mean(axis=0)
    acts = res.layer_input[1:1 + m]
    return np.maximum(acts @ w, 0.0).reshape(cfg.patch_grid)


# ------------------------------------------------------------- exporters

def write_pgm(path, grid, maxval: int = 255) -> None:
    """Plain-text (P2) portable graymap, values scaled so the map maximum
    lands on ``maxval``; an all-zero map stays all zero."""
    grid = _grid_of(grid)
    if grid.ndim != 2:
        raise ValueError("PGM export expects a 2-D grid")
    top = grid.max()
    scaled = np.zeros(grid.shape, dtype=int) if top <= 0 else \
        np.rint(grid / top * maxval).astype(int)
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", f"{maxval}"]
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
