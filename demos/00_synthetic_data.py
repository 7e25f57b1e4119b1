"""The synthetic shape corpus: deterministic images, ground-truth masks,
the parity base/novel split, the toy tokenizer, and checkpoint round-trips.

Every image is drawn procedurally from a seeded generator, so the same
(n_classes, per_class, image_size, seed) call always yields byte-identical
arrays; that determinism is what makes the whole lab reproducible.
"""

import pathlib
import tempfile

import numpy as np

from promptlab.datagen import (generate_dataset, load_checkpoint,
                               sample_few_shot, save_checkpoint, tokenize,
                               tokenize_template)
from promptlab.encoders import EncoderState, ModelConfig, PromptSet

ds = generate_dataset(n_classes=6, per_class=2, image_size=16, seed=3)
print("classes:", ", ".join(ds.class_names))
print("base  (even ids):", [ds.class_names[c] for c in ds.base_classes])
print("novel (odd ids): ", [ds.class_names[c] for c in ds.novel_classes])

# Crude ASCII render of one example per class, with its gt mask extent.
for c in range(ds.n_classes):
    idx = int(np.flatnonzero(ds.labels == c)[0])
    img, gt = ds.images[idx], ds.gt_masks[idx]
    lines = ["".join("#" if v > 0.5 else "." for v in row) for row in img]
    print(f"{ds.class_names[c]:8s} fg pixels {int(gt.sum()):3d}   {lines[7]}")

# Determinism: the same call is byte-identical, a different seed is not.
again = generate_dataset(n_classes=6, per_class=2, image_size=16, seed=3)
other = generate_dataset(n_classes=6, per_class=2, image_size=16, seed=4)
print("same seed byte-identical:", np.array_equal(ds.images, again.images))
print("different seed differs:  ", not np.array_equal(ds.images,
                                                      other.images))

# Few-shot selection is seeded too and never leaks across classes.
shots = sample_few_shot(ds, k=1, class_list=ds.base_classes, seed=0)
print("few-shot picks:", shots.indices.tolist(),
      "labels", shots.labels.tolist())

# The toy tokenizer maps template words to stable ids.
print("tokenize('a photo of a ring'):", tokenize("a photo of a ring"))
print("template ids for 'cross':     ", tokenize_template("cross"))

# Checkpoints: config + encoder weights + prompts, round-tripped exactly.
cfg = ModelConfig(visual_width=16, text_width=16, shared_width=8, depth=2,
                  heads=2, patch_grid=4, image_size=16, vocab_size=16,
                  text_prompt_len=2, visual_prompt_len=2)
state = EncoderState.initialize(cfg, seed=0)
prompts = PromptSet.initialize(cfg, seed=1)
path = pathlib.Path(tempfile.mkdtemp()) / "ckpt.bin"
save_checkpoint(path, cfg, state, prompts)
cfg2, state2, prompts2 = load_checkpoint(path)
print("checkpoint round-trip exact:",
      state2.to_bytes() == state.to_bytes()
      and prompts2.to_bytes() == prompts.to_bytes() and cfg2 == cfg)
