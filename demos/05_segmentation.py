"""Attention maps as free segmentation masks.

Extracts the class token's final-layer attention over the patch grid,
binarizes it against its own mean, and scores the result with pixel
accuracy / mIoU / mAP against the dataset's ground-truth shape masks.
Also shows the gradient-weighted (GradCAM-style) variant and writes both
heatmaps as PGM images you can open in any viewer.
"""

import numpy as np

from promptlab.datagen import generate_dataset
from promptlab.encoders import EncoderState, ModelConfig, PromptSet
from promptlab.evalkit import (binarize_map, extract_attention_map,
                               foreground_mass, gradcam_map, mean_metrics,
                               segmentation_metrics, upsample_nearest,
                               write_pgm)
from promptlab.tuning import build_text_bank

cfg = ModelConfig(visual_width=16, text_width=16, shared_width=8, depth=2,
                  heads=2, patch_grid=(4, 4), image_size=16, vocab_size=16,
                  text_prompt_len=2, visual_prompt_len=2, temperature=0.1)
state = EncoderState.initialize(cfg, seed=0)
prompts = PromptSet.initialize(cfg, seed=1)

ds = generate_dataset(n_classes=4, per_class=4, image_size=16, seed=3)
bank = build_text_bank(list(ds.class_names), prompts, cfg, state)

per_image = []
for idx in range(0, len(ds.images), 4):        # one image per class
    image, gt = ds.images[idx], ds.gt_masks[idx]
    amap = extract_attention_map(image, prompts, cfg, state, "CLS")
    pred = binarize_map(amap, cfg.image_size)
    heat = upsample_nearest(amap, cfg.image_size)
    m = segmentation_metrics(heat, pred, gt)
    per_image.append(m)
    name = ds.class_names[int(ds.labels[idx])]
    print(f"{name:7s} fg-mass {foreground_mass(amap, gt):.3f}  "
          f"pixAcc {m.pix_acc:.3f}  mIoU {m.m_iou:.3f}  mAP {m.m_ap:.3f}")

agg = mean_metrics(per_image)
print(f"mean    pixAcc {agg.pix_acc:.3f}  mIoU {agg.m_iou:.3f}  "
      f"mAP {agg.m_ap:.3f}")

# The same image through both map styles, saved for eyeballing.
amap = extract_attention_map(ds.images[0], prompts, cfg, state, "CLS")
gmap = gradcam_map(ds.images[0], prompts, cfg, state, bank)
write_pgm("demo_attention.pgm", upsample_nearest(amap, cfg.image_size))
write_pgm("demo_gradcam.pgm", upsample_nearest(gmap, cfg.image_size))
print("wrote demo_attention.pgm and demo_gradcam.pgm")
print("gradcam grid:\n", np.round(gmap, 4))
