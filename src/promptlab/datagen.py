"""Deterministic synthetic shape datasets, toy tokenization, persistence.

Each class is one parametric foreground shape (bright, jittered in position
and scale) drawn on a dim textured background, with the exact foreground
mask kept as segmentation ground truth.  Everything is a pure function of
(arguments, seed) through counter-based random streams, so regeneration is
bit-identical across platforms.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoders import (MAX_TEXT_LEN, EncoderState, ModelConfig, PromptSet,
                       _stream, tensor_values)

# ordered so small n_classes slices are maximally distinct; offset 4 yields
# a disjoint family set for transfer targets
FAMILIES = ("square", "ring", "cross", "bars",
            "disk", "triangle", "diamond", "blob")

VOCAB = ("a", "photo", "of", ".") + FAMILIES
WORD_TO_ID = {w: i for i, w in enumerate(VOCAB)}
TEMPLATE = "A photo of a {}."

BACKGROUND_LEVEL = 0.2   # background texture is uniform on [0, this]
FOREGROUND_LEVEL = 0.85  # foreground intensity center
FOREGROUND_NOISE = 0.1
MIN_CONTRAST = 0.4       # guaranteed fg-vs-bg mean intensity gap
MIN_IMAGE_SIZE = 8       # smallest canvas the shape renderer supports

CHECKPOINT_MAGIC = b"PLCK"
CHECKPOINT_VERSION = 2


# ---------------------------------------------------------------- shapes

def _shape_mask(family: str, size: int, cy: float, cx: float,
                r: float) -> np.ndarray:
    Y, X = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = Y - cy, X - cx
    dist = np.sqrt(dy * dy + dx * dx)
    if family == "square":
        return (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if family == "disk":
        return dist <= r
    if family == "cross":
        arm = max(r / 3.0, 0.6)
        return ((np.abs(dy) <= arm) & (np.abs(dx) <= r)) | \
               ((np.abs(dx) <= arm) & (np.abs(dy) <= r))
    if family == "triangle":
        return (dy >= -r) & (dy <= r) & (np.abs(dx) <= 0.5 * (dy + r))
    if family == "ring":
        return (dist <= r) & (dist >= 0.55 * r)
    if family == "diamond":
        return np.abs(dy) + np.abs(dx) <= r
    if family == "bars":
        box = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        return box & ((X.astype(int) - int(np.floor(cx))) % 2 == 0)
    if family == "blob":
        d1 = np.sqrt((dy + 0.2 * r) ** 2 + (dx + 0.2 * r) ** 2)
        d2 = np.sqrt((dy - 0.45 * r) ** 2 + (dx - 0.45 * r) ** 2)
        return (d1 <= 0.75 * r) | (d2 <= 0.55 * r)
    raise ValueError(f"unknown shape family {family!r}")


def _render(family: str, size: int, rng: np.random.Generator):
    jitter = size / 16.0
    cy = size / 2.0 + rng.uniform(-jitter, jitter)
    cx = size / 2.0 + rng.uniform(-jitter, jitter)
    r = (size / 4.0) * rng.uniform(0.85, 1.1)
    mask = _shape_mask(family, size, cy, cx, r)
    image = rng.uniform(0.0, BACKGROUND_LEVEL, size=(size, size))
    fg = FOREGROUND_LEVEL + rng.uniform(-FOREGROUND_NOISE, FOREGROUND_NOISE,
                                        size=(size, size))
    image = np.where(mask, fg, image)
    return image, mask


# ---------------------------------------------------------------- dataset

@dataclass
class SyntheticDataset:
    images: np.ndarray        # (n, size, size) float64 in [0, 1]
    labels: np.ndarray        # (n,) int64, class indices
    gt_masks: np.ndarray      # (n, size, size) bool foreground masks
    class_names: tuple
    base_classes: tuple
    novel_classes: tuple
    per_class: int
    seed: int
    family_offset: int = 0

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_size(self) -> int:
        return self.images.shape[1]

    def to_bytes(self) -> bytes:
        return (self.images.astype("<f8").tobytes()
                + self.gt_masks.astype(np.uint8).tobytes()
                + self.labels.astype("<i8").tobytes())

    def manifest(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "base_classes": list(self.base_classes),
            "novel_classes": list(self.novel_classes),
            "per_class": self.per_class,
            "image_size": self.image_size,
            "seed": self.seed,
            "family_offset": self.family_offset,
        }


def generate_dataset(n_classes: int, per_class: int, image_size: int,
                     seed: int, family_offset: int = 0) -> SyntheticDataset:
    if n_classes < 2 or n_classes > len(FAMILIES):
        raise ValueError(f"n_classes must be in 2..{len(FAMILIES)}")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if image_size < MIN_IMAGE_SIZE:
        raise ValueError(f"image_size must be at least {MIN_IMAGE_SIZE}")
    names = tuple(FAMILIES[(i + family_offset) % len(FAMILIES)]
                  for i in range(n_classes))
    images, labels, masks = [], [], []
    for c in range(n_classes):
        for idx in range(per_class):
            rng = _stream(seed, 200, c, idx)
            img, mask = _render(names[c], image_size, rng)
            images.append(img)
            masks.append(mask)
            labels.append(c)
    return SyntheticDataset(
        images=np.stack(images),
        labels=np.asarray(labels, dtype=np.int64),
        gt_masks=np.stack(masks),
        class_names=names,
        base_classes=tuple(range(0, n_classes, 2)),
        novel_classes=tuple(range(1, n_classes, 2)),
        per_class=per_class,
        seed=seed,
        family_offset=family_offset,
    )


@dataclass
class Subset:
    """A view of dataset rows with labels remapped onto ``class_list``."""

    images: np.ndarray
    labels: np.ndarray
    indices: np.ndarray
    class_list: tuple

    def __len__(self) -> int:
        return len(self.labels)


def _take(dataset: SyntheticDataset, indices, class_list) -> Subset:
    indices = np.asarray(indices, dtype=np.int64)
    remap = {c: i for i, c in enumerate(class_list)}
    labels = np.asarray([remap[int(dataset.labels[i])] for i in indices],
                        dtype=np.int64)
    return Subset(images=dataset.images[indices], labels=labels,
                  indices=indices, class_list=tuple(class_list))


def select_classes(dataset: SyntheticDataset, class_list) -> Subset:
    """Every sample of the listed classes, labels remapped by position."""
    class_list = tuple(class_list)
    for c in class_list:
        if not 0 <= c < dataset.n_classes:
            raise ValueError(f"class {c} not in dataset")
    keep = [i for i in range(len(dataset.labels))
            if int(dataset.labels[i]) in set(class_list)]
    return _take(dataset, keep, class_list)


def held_out(dataset: SyntheticDataset, subset: Subset) -> Subset:
    """Rows of ``subset.class_list`` classes absent from ``subset``."""
    used = set(subset.indices.tolist())
    classes = set(subset.class_list)
    keep = [i for i in range(len(dataset.labels))
            if int(dataset.labels[i]) in classes and i not in used]
    return _take(dataset, keep, subset.class_list)


def sample_few_shot(dataset: SyntheticDataset, k: int, class_list,
                    seed: int) -> Subset:
    class_list = tuple(class_list)
    if not class_list:
        raise ValueError("class_list must be nonempty")
    if k < 1 or k > dataset.per_class:
        raise ValueError(f"k must be in 1..{dataset.per_class}")
    chosen = []
    for c in class_list:
        if not 0 <= c < dataset.n_classes:
            raise ValueError(f"class {c} not in dataset")
        rows = np.nonzero(dataset.labels == c)[0]
        order = _stream(seed, 300, c).permutation(len(rows))
        chosen.extend(rows[order[:k]])
    return _take(dataset, chosen, class_list)


# --------------------------------------------------------------- tokenizer

def tokenize(text: str) -> list:
    words = text.lower().replace(".", " . ").split()
    ids = []
    for w in words:
        if w not in WORD_TO_ID:
            raise ValueError(f"unknown word {w!r}")
        ids.append(WORD_TO_ID[w])
    return ids


def tokenize_template(class_name: str) -> list:
    return tokenize(TEMPLATE.format(class_name))


# -------------------------------------------------------------- persistence

@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write ``path`` through a sibling temp file that replaces it only
    when the block completes, so a failed write leaves the previous file
    (or none) and no partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, cfg: ModelConfig, state: EncoderState,
                    prompts: PromptSet) -> None:
    payload = state.to_bytes() + prompts.to_bytes()
    header = {
        "config": cfg.to_dict(),
        "max_text_len": MAX_TEXT_LEN,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "tensors": [[name, list(t.shape)] for name, t in
                    state.tensor_items() + prompts.tensor_items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(payload)


def load_checkpoint(path):
    """Read a checkpoint back as (config, state, prompts).

    The payload must hold exactly the floats the header's tensor list names,
    and the header's config must imply as many (``tensor_values``), before
    anything is built: a crafted header cannot make the load allocate more
    than the file holds.  The config then builds a fresh model whose
    ``tensor_items()`` are the layout the file must match, name by name and
    then shape by shape; each tensor is checked finite and copied into that
    model, and the payload must match the header's sha256."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError("corrupt checkpoint")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    hlen = struct.unpack_from("<Q", raw, 8)[0]
    offset = 16 + hlen
    if len(raw) < offset:
        raise ValueError("corrupt checkpoint")
    try:
        header = json.loads(raw[16:offset].decode())
        cfg = ModelConfig.from_dict(header["config"])
        entries = [(str(n), tuple(s)) for n, s in header["tensors"]]
        digest = header["sha256"]
        listed = sum(math.prod(s) for _, s in entries)
        implied = tensor_values(cfg)
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError("corrupt checkpoint") from e
    if 8 * listed != len(raw) - offset:
        raise ValueError("corrupt checkpoint")
    if implied != listed:
        raise ValueError(f"shape mismatch: file has {listed} values, config "
                         f"implies {implied}")
    try:
        state = EncoderState.initialize(cfg, seed=0)
        prompts = PromptSet.initialize(cfg, seed=0)
    except (ValueError, TypeError) as e:
        raise ValueError("corrupt checkpoint") from e

    template = state.tensor_items() + prompts.tensor_items()
    if [n for n, _ in entries] != [n for n, _ in template]:
        raise ValueError("corrupt checkpoint")
    for (name, shape), (_, t) in zip(entries, template):
        if shape != t.shape:
            raise ValueError(f"shape mismatch for {name}: file has {shape}, "
                             f"config implies {t.shape}")

    for name, t in template:
        arr = np.frombuffer(raw, dtype="<f8", count=t.size, offset=offset)
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in {name}")
        t.data[...] = arr.reshape(t.shape)
        offset += arr.nbytes
    if hashlib.sha256(memoryview(raw)[16 + hlen:]).hexdigest() != digest:
        raise ValueError("corrupt checkpoint: payload sha256 mismatch")
    return cfg, state, prompts
