"""Dataset generation, splits, tokenizer, and checkpoint persistence."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab.datagen import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                               FAMILIES, MIN_CONTRAST, TEMPLATE, VOCAB,
                               generate_dataset, load_checkpoint,
                               sample_few_shot, save_checkpoint,
                               select_classes, tokenize, tokenize_template)
from promptlab.encoders import (EncoderState, ModelConfig, PromptSet,
                                tensor_values)


def small_dataset(seed=0, **kw):
    args = dict(n_classes=4, per_class=6, image_size=16, seed=seed)
    args.update(kw)
    return generate_dataset(**args)


# ---------------------------------------------------------------- dataset

def test_generation_is_deterministic():
    a = small_dataset(seed=5)
    b = small_dataset(seed=5)
    c = small_dataset(seed=6)
    assert a.to_bytes() == b.to_bytes()
    assert a.to_bytes() != c.to_bytes()


def test_parity_split():
    ds = generate_dataset(n_classes=2, per_class=1, image_size=16, seed=0)
    assert ds.base_classes == (0,) and ds.novel_classes == (1,)
    ds = small_dataset()
    assert ds.base_classes == (0, 2) and ds.novel_classes == (1, 3)
    assert set(ds.base_classes) | set(ds.novel_classes) == set(range(4))
    assert set(ds.base_classes) & set(ds.novel_classes) == set()


def test_generation_validation():
    with pytest.raises(ValueError):
        generate_dataset(1, 4, 16, 0)
    with pytest.raises(ValueError):
        generate_dataset(9, 4, 16, 0)
    with pytest.raises(ValueError):
        generate_dataset(4, 0, 16, 0)
    with pytest.raises(ValueError):
        generate_dataset(4, 4, 4, 0)


def test_shapes_and_counts():
    ds = small_dataset()
    assert ds.images.shape == (24, 16, 16)
    assert ds.gt_masks.shape == (24, 16, 16)
    assert np.bincount(ds.labels).tolist() == [6, 6, 6, 6]
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_foreground_background_contrast():
    ds = small_dataset()
    for img, mask in zip(ds.images, ds.gt_masks):
        assert mask.any() and not mask.all()
        assert img[mask].mean() - img[~mask].mean() > MIN_CONTRAST


def test_every_family_renders_nonempty():
    ds = generate_dataset(n_classes=8, per_class=2, image_size=16, seed=1)
    assert ds.class_names == FAMILIES
    frac = ds.gt_masks.reshape(16, -1).mean(axis=1)
    assert (frac > 0.02).all() and (frac < 0.5).all()


def test_family_offset_rotates_classes():
    ds = small_dataset(family_offset=4)
    assert ds.class_names == ("disk", "triangle", "diamond", "blob")
    base = small_dataset()
    assert not np.array_equal(ds.images, base.images)


def test_manifest_roundtrip():
    ds = small_dataset(seed=9)
    m = json.loads(json.dumps(ds.manifest()))
    assert m["seed"] == 9
    assert m["class_names"] == list(ds.class_names)
    assert m["base_classes"] == [0, 2]


# ------------------------------------------------------------------ splits

def test_select_classes_remaps_labels():
    ds = small_dataset()
    sub = select_classes(ds, ds.novel_classes)
    assert len(sub) == 12
    assert set(sub.labels.tolist()) == {0, 1}
    # label 0 now means original class 1
    assert all(int(ds.labels[i]) == sub.class_list[l]
               for i, l in zip(sub.indices, sub.labels))
    with pytest.raises(ValueError):
        select_classes(ds, (0, 7))


def test_sample_few_shot_counts_and_determinism():
    ds = small_dataset()
    a = sample_few_shot(ds, 3, ds.base_classes, seed=2)
    b = sample_few_shot(ds, 3, ds.base_classes, seed=2)
    c = sample_few_shot(ds, 3, ds.base_classes, seed=3)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)
    assert np.bincount(a.labels).tolist() == [3, 3]
    # only base classes present
    assert all(int(ds.labels[i]) in ds.base_classes for i in a.indices)


def test_sample_few_shot_full_k_covers_class():
    ds = small_dataset()
    sub = sample_few_shot(ds, ds.per_class, (1,), seed=0)
    expected = set(np.nonzero(ds.labels == 1)[0].tolist())
    assert set(sub.indices.tolist()) == expected


def test_sample_few_shot_validation():
    ds = small_dataset()
    with pytest.raises(ValueError):
        sample_few_shot(ds, 7, ds.base_classes, seed=0)
    with pytest.raises(ValueError):
        sample_few_shot(ds, 0, ds.base_classes, seed=0)
    with pytest.raises(ValueError):
        sample_few_shot(ds, 1, (), seed=0)


def test_linear_probe_separability():
    # held-out ridge-probe accuracy on a fixed 4-class, 16-shot instance;
    # measured 1.000 for this seed when the generator was frozen
    ds = generate_dataset(n_classes=4, per_class=24, image_size=16, seed=3)
    train = sample_few_shot(ds, 16, range(4), seed=1)
    held = np.setdiff1d(np.arange(len(ds.labels)), train.indices)
    X = np.hstack([train.images.reshape(len(train), -1),
                   np.ones((len(train), 1))])
    Y = np.eye(4)[train.labels]
    W = np.linalg.solve(X.T @ X + np.eye(X.shape[1]), X.T @ Y)
    Xt = np.hstack([ds.images[held].reshape(len(held), -1),
                    np.ones((len(held), 1))])
    acc = float(((Xt @ W).argmax(axis=1) == ds.labels[held]).mean())
    assert acc >= 0.95


# --------------------------------------------------------------- tokenizer

def test_tokenize_template_fixed_ids():
    assert VOCAB[:4] == ("a", "photo", "of", ".")
    assert tokenize_template("square") == [0, 1, 2, 0, 4, 3]
    assert tokenize_template("ring") == [0, 1, 2, 0, 5, 3]


def test_tokenize_template_is_deterministic_and_positional():
    a = tokenize_template("cross")
    assert a == tokenize_template("cross")
    b = tokenize_template("bars")
    diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert diffs == [4]  # only the class-word slot differs


def test_tokenize_unknown_word():
    with pytest.raises(ValueError, match="unknown word"):
        tokenize("a photo of a dog.")


def test_template_matches_expected_phrase():
    assert TEMPLATE.format("ring") == "A photo of a ring."


# -------------------------------------------------------------- checkpoint

def ckpt_fixture(**overrides):
    args = dict(visual_width=8, text_width=8, shared_width=4, depth=2,
                heads=2, patch_grid=2, image_size=4, vocab_size=12,
                visual_prompt_len=2, text_prompt_len=2)
    cfg = ModelConfig(**{**args, **overrides})
    state = EncoderState.initialize(cfg, seed=7)
    prompts = PromptSet.initialize(cfg, seed=8)
    return cfg, state, prompts


def rewrite_header(raw: bytes, edit) -> bytes:
    """``raw`` with its JSON header passed through ``edit``, payload kept."""
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    header = json.loads(raw[16:16 + hlen].decode())
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
            + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])


@pytest.mark.parametrize("overrides", [
    {}, {"visual_prompt_len": 0}, {"text_prompt_len": 0}, {"prompt_depth": 1},
], ids=["reference", "no_visual_prompts", "no_text_prompts", "shallow_prompts"])
def test_checkpoint_roundtrip_bytes(tmp_path, overrides):
    cfg, state, prompts = ckpt_fixture(**overrides)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, cfg, state, prompts)
    cfg2, state2, prompts2 = load_checkpoint(p1)
    save_checkpoint(p2, cfg2, state2, prompts2)
    assert p1.read_bytes() == p2.read_bytes()
    assert cfg2 == cfg
    assert state2.to_bytes() == state.to_bytes()
    assert prompts2.to_bytes() == prompts.to_bytes()
    assert all(t.requires_grad for t in prompts2.parameters())


def test_checkpoint_truncation_and_magic(tmp_path):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    raw = p.read_bytes()
    bad = tmp_path / "bad.ckpt"

    bad.write_bytes(raw[:len(raw) - 17])
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_checkpoint(bad)

    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_checkpoint(bad)


def test_checkpoint_version_rejected(tmp_path):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)

    def as_version_2(header):   # a (rows, cols) grid and a text length
        header["config"]["patch_grid"] = [cfg.patch_grid] * 2
        header["max_text_len"] = 16

    bad = tmp_path / "bad.ckpt"
    for version, edit in ((1, lambda header: None), (2, as_version_2)):
        raw = bytearray(rewrite_header(p.read_bytes(), edit))
        raw[4:8] = struct.pack("<I", version)
        bad.write_bytes(bytes(raw))
        match = f"^unsupported checkpoint version {version}$"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(bad)


def test_checkpoint_cross_config_shape_mismatch(tmp_path):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    tampered = rewrite_header(
        p.read_bytes(),
        lambda header: header["config"].update(visual_prompt_len=3))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(tampered)
    with pytest.raises(ValueError, match="shape mismatch"):
        load_checkpoint(bad)


@settings(max_examples=60, deadline=None)
@given(heads=st.integers(1, 3), dv=st.integers(1, 4), dt=st.integers(1, 4),
       shared=st.integers(1, 5), depth=st.integers(1, 3),
       prompt_depth=st.integers(0, 3), grid=st.integers(1, 2),
       patch=st.integers(1, 3), vocab=st.integers(1, 20),
       visual=st.integers(0, 3), text=st.integers(0, 3))
def test_tensor_values_counts_tensor_items(heads, dv, dt, shared, depth,
                                           prompt_depth, grid, patch, vocab,
                                           visual, text):
    cfg = ModelConfig(visual_width=heads * dv, text_width=heads * dt,
                      shared_width=shared, depth=depth, heads=heads,
                      patch_grid=grid, image_size=grid * patch,
                      vocab_size=vocab, visual_prompt_len=visual,
                      text_prompt_len=text,
                      prompt_depth=min(prompt_depth, depth))
    items = (EncoderState.initialize(cfg, seed=0).tensor_items()
             + PromptSet.initialize(cfg, seed=0).tensor_items())
    assert tensor_values(cfg) == sum(t.data.size for _, t in items)


HUGE = 1 << 30     # a width whose first weight alone is 32 GiB of float64

LOAD_UNDER_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from promptlab.datagen import load_checkpoint
try:
    load_checkpoint(sys.argv[1])
except ValueError as e:
    print(e)
"""


@pytest.mark.parametrize("tensors,match", [
    (None, "^shape mismatch: file has "),
    ([["patch_embed", [HUGE, HUGE]]], "^corrupt checkpoint$"),
], ids=["config", "config_and_tensor_list"])
def test_checkpoint_header_with_huge_width_is_rejected_before_allocating(
        tmp_path, tensors, match):
    # in a child under a 1 GiB address-space limit: a load that built the
    # header's model first would raise MemoryError there, not ValueError
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)

    def edit(header):
        header["config"].update(visual_width=HUGE, text_width=HUGE)
        if tensors is not None:
            header["tensors"] = tensors

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(p.read_bytes(), edit))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", LOAD_UNDER_LIMIT, str(bad)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert re.search(match, done.stdout.strip()), done.stdout


@pytest.mark.parametrize("config", [{"heads": 0}, {"patch_grid": 0},
                                    {"visual_width": 0}, {"image_size": -16},
                                    {"vocab_size": 0}],
                         ids=["zero_heads", "zero_grid_side", "zero_width",
                              "negative_image_size", "zero_vocab"])
def test_checkpoint_header_config_that_cannot_build_is_corrupt(tmp_path,
                                                               config):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(
        p.read_bytes(), lambda header: header["config"].update(config)))
    with pytest.raises(ValueError, match="^corrupt checkpoint$"):
        load_checkpoint(bad)


@pytest.mark.parametrize("edit", [
    lambda tensors: tensors.insert(0, tensors.pop()),
    lambda tensors: tensors.pop(3),
], ids=["reordered", "missing"])
def test_checkpoint_tensor_list_must_match_layout(tmp_path, edit):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(rewrite_header(p.read_bytes(),
                                   lambda header: edit(header["tensors"])))
    with pytest.raises(ValueError, match="^corrupt checkpoint$"):
        load_checkpoint(bad)


def test_checkpoint_garbage_header(tmp_path):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    raw = p.read_bytes()
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    blob = b"{" * hlen
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:16] + blob + raw[16 + hlen:])
    with pytest.raises(ValueError, match="corrupt checkpoint"):
        load_checkpoint(bad)


@pytest.mark.parametrize("name,value", [("visual_prompt_0", np.nan),
                                        ("class_token", np.inf)])
def test_checkpoint_rejects_non_finite_tensor(tmp_path, name, value):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    raw = bytearray(p.read_bytes())
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    offset = 16 + hlen
    for entry, shape in json.loads(raw[16:offset].decode())["tensors"]:
        if entry == name:
            break
        offset += int(np.prod(shape)) * 8
    struct.pack_into("<d", raw, offset, value)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"non-finite values in {name}$"):
        load_checkpoint(bad)


def test_checkpoint_rejects_finite_payload_flips(tmp_path):
    cfg, state, prompts = ckpt_fixture()
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, cfg, state, prompts)
    raw = p.read_bytes()
    start = 16 + struct.unpack_from("<Q", raw, 8)[0]
    bad = tmp_path / "bad.ckpt"
    # the low byte of a little-endian float64 is mantissa only, so every
    # flipped value stays finite and only the digest can catch it
    for offset in range(start, len(raw), 8 * 97):
        flipped = bytearray(raw)
        flipped[offset] ^= 0x01
        bad.write_bytes(bytes(flipped))
        with pytest.raises(ValueError,
                           match="corrupt checkpoint: payload sha256 mismatch"):
            load_checkpoint(bad)
