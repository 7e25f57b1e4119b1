"""The miniature dual encoder: token layout, deep prompt insertion, and
what the prompt-to-prompt attention mask actually blocks.

No pretrained weights anywhere; both towers start from seeded Gaussian
initialization and everything runs in float64 numpy.
"""

import numpy as np

from promptlab.datagen import generate_dataset, tokenize_template
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                build_prompt_mask, encode_image_prompted,
                                encode_text_prompted)
from promptlab.tuning import forward_three_branch

cfg = ModelConfig(visual_width=16, text_width=16, shared_width=8, depth=2,
                  heads=2, patch_grid=(4, 4), image_size=16, vocab_size=16,
                  text_prompt_len=2, visual_prompt_len=3)
state = EncoderState.initialize(cfg, seed=0)      # frozen backbone
prompts = PromptSet.initialize(cfg, seed=1)       # the only trainables

ds = generate_dataset(n_classes=2, per_class=1, image_size=16, seed=0)
image = ds.images[0]

# Image tokens are laid out [class, 16 patches, 3 visual prompts].
n = 1 + cfg.num_patches + cfg.visual_prompt_len
print(f"image token count: 1 + {cfg.num_patches} + "
      f"{cfg.visual_prompt_len} = {n}")

# The mask forbids exactly the prompt-to-prompt edges, nothing else.
mask = build_prompt_mask(cfg.visual_prompt_len, n)
print(f"masked edges: {int(mask.sum())} "
      f"(= V*(V-1) = {cfg.visual_prompt_len * (cfg.visual_prompt_len - 1)})")
print(f"class-token row masked anywhere: {bool(mask[0].any())}")

# Deep insertion: every layer replaces the prompt rows with that layer's
# own learned vectors, so prompts steer each block independently.
res = encode_image_prompted(image, prompts, cfg, state,
                            collect_attention=True)
print(f"per-layer attention maps collected: {len(res.attentions)}, "
      f"each {res.attentions[0].shape} (heads, tokens, tokens)")

# The text tower mirrors this with learned token prompts ahead of the
# template words.
ids = tokenize_template(ds.class_names[0])
t = encode_text_prompted(ids, prompts, cfg, state)
print(f"text rep for {ds.class_names[0]!r}: shape {t.eos.shape}")

# One image, three representations: prompted global, per-prompt augmented,
# and the prompt-free vanilla route (bit-identical for any PromptSet).
out = forward_three_branch(image, prompts, cfg, state)
print(f"global rep   {out.global_rep.shape}")
print(f"augmented    {out.augmented_reps.shape}  (one row per visual prompt)")
print(f"vanilla      {out.vanilla_rep.shape}")
other = forward_three_branch(image, PromptSet.initialize(cfg, seed=99),
                             cfg, state)
print("vanilla identical under a different PromptSet:",
      np.array_equal(out.vanilla_rep.data, other.vanilla_rep.data))
