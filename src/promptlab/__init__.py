"""promptlab: a desk-scale prompt-tuning laboratory.

A miniature CLIP-style dual encoder (float64, numpy, hand-rolled reverse-mode
autodiff) that trains deep visual and text prompts end to end on synthetic
shape data, with no pretrained weights anywhere.  The package covers the full
loop: tensor library with a finite-difference oracle, the two transformer
encoders with prompt insertion and a prompt-to-prompt attention mask, the
three-branch tuning objective, logit self-ensembles, deterministic data
generation, evaluation (classification and attention-based segmentation),
and an experiment CLI.
"""

from promptlab.autodiff import (Tensor, backward, finite_difference_gradient,
                                masked_attention, max_relative_error)
from promptlab.datagen import (SyntheticDataset, generate_dataset, held_out,
                               load_checkpoint, sample_few_shot,
                               save_checkpoint, select_classes, tokenize)
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                build_prompt_mask)
from promptlab.ensemble import (ensemble_confidence, ensemble_equal,
                                ensemble_threshold, predict, resolve_strategy,
                                three_branch_logits)
from promptlab.evalkit import (accuracy, binarize_map, extract_attention_map,
                               foreground_mass, gradcam_map, harmonic_mean,
                               segmentation_metrics, upsample_nearest)
from promptlab.tuning import (Batch, TextBank, TrainResult, build_text_bank,
                              compute_losses, forward_three_branch,
                              global_branch_accuracy, train)

__all__ = [
    "Tensor", "backward", "finite_difference_gradient", "masked_attention",
    "max_relative_error",
    "SyntheticDataset", "generate_dataset", "held_out", "load_checkpoint",
    "sample_few_shot", "save_checkpoint", "select_classes", "tokenize",
    "EncoderState", "ModelConfig", "PromptSet", "build_prompt_mask",
    "ensemble_confidence", "ensemble_equal", "ensemble_threshold", "predict",
    "resolve_strategy", "three_branch_logits",
    "accuracy", "binarize_map", "extract_attention_map", "foreground_mass",
    "gradcam_map", "harmonic_mean", "segmentation_metrics",
    "upsample_nearest",
    "Batch", "TextBank", "TrainResult", "build_text_bank", "compute_losses",
    "forward_three_branch", "global_branch_accuracy", "train",
]

__version__ = "0.1.0"
