"""Logit self-ensembles over the three prompt branches.

The three routes through the model (prompted global, per-prompt augmented,
prompt-free vanilla) each produce their own cosine logits against the
matching text bank.  This demo shows the per-branch logits for one image
and how the three combination strategies weigh them.
"""

import numpy as np

from promptlab.datagen import generate_dataset
from promptlab.encoders import EncoderState, ModelConfig, PromptSet
from promptlab.ensemble import (branch_confidences, ensemble_confidence,
                                ensemble_equal, ensemble_threshold, predict,
                                resolve_strategy, three_branch_logits)
from promptlab.tuning import build_text_bank, forward_three_branch

cfg = ModelConfig(visual_width=16, text_width=16, shared_width=8, depth=2,
                  heads=2, patch_grid=4, image_size=16, vocab_size=16,
                  text_prompt_len=2, visual_prompt_len=3, temperature=0.1)
state = EncoderState.initialize(cfg, seed=0)
prompts = PromptSet.initialize(cfg, seed=1)

ds = generate_dataset(n_classes=3, per_class=2, image_size=16, seed=1)
names = list(ds.class_names)
bank = build_text_bank(names, prompts, cfg, state)

image, label = ds.images[0], int(ds.labels[0])
outputs = forward_three_branch(image, prompts, cfg, state)
logits = three_branch_logits(outputs, bank, cfg.temperature)

print(f"true class: {names[label]!r}")
for tag, vec in zip(("global", "augmented", "vanilla"), logits):
    print(f"  {tag:9s} logits {np.round(vec, 3)}")

conf = branch_confidences(logits)
print(f"branch confidences (max softmax prob): {np.round(conf, 3)}")

for tag, combined in (
    ("equal", ensemble_equal(logits)),
    ("confidence", ensemble_confidence(logits)),
    ("threshold(0.4)", ensemble_threshold(logits, theta=0.4)),
):
    pred = names[int(np.argmax(combined))]
    print(f"  {tag:15s} -> {np.round(combined, 3)}  predicts {pred!r}")

# Strategy names resolve the same way the CLI parses them.
fn = resolve_strategy("threshold:0.4")
assert np.allclose(fn(logits), ensemble_threshold(logits, theta=0.4))
print("predict() end to end:",
      names[predict(image, prompts, cfg, state, bank, strategy="equal")])
