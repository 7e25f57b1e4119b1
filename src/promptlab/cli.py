"""Command-line front end: reproducible training, evaluation, segmentation
and ablation runs driven by an INI config file.

Every run writes a complete config snapshot next to its outputs; re-running
from the snapshot (same seed) reproduces every CSV and checkpoint byte for
byte.  Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datagen import (FAMILIES, MIN_IMAGE_SIZE, VOCAB, SyntheticDataset,
                      atomic_open, generate_dataset, held_out,
                      sample_few_shot, save_checkpoint, select_classes,
                      tokenize_template)
from .encoders import (EncoderState, ModelConfig, PromptSet,
                       encode_image_prompted)
from .ensemble import predict, resolve_strategy
from .evalkit import (accuracy, attention_grid, binarize_map, foreground_mass,
                      gradcam_map, harmonic_mean, mean_metrics,
                      segmentation_metrics, upsample_nearest, write_csv,
                      write_pgm)
from .tuning import (EVAL_CHUNK, LOG_COLUMNS, build_text_bank,
                     global_branch_accuracy, train, vanilla_text_rows)

STRATEGIES = ("equal", "confidence", "threshold")
# each ablation axis and the config key it sweeps; the loss axis toggles
# loss terms instead
ABLATE_AXES = {"depth": "prompt_depth", "length": "visual_prompt_len",
               "loss": None, "ensemble": "strategy"}
LOSS_VARIANTS = ("full", "no-aug", "no-consistency", "ce-only")


class ConfigError(ValueError):
    """Anything the user can fix by editing the config or flags."""


@dataclass
class ExperimentConfig:
    # model architecture (miniature dual encoder)
    visual_width: int = 32
    text_width: int = 32
    shared_width: int = 16
    depth: int = 3
    heads: int = 4
    patch_grid: int = 4
    prompt_depth: int = 0            # 0 = prompts at every layer
    temperature: float = 0.01
    mask_prompts: bool = True
    text_consistency_weight: float = 3.0
    image_consistency_weight: float = 4.0
    # run-level hyperparameters (defaults follow the published recipe)
    visual_prompt_len: int = 32
    text_prompt_len: int = 4
    lr: float = 0.0016
    batch_size: int = 32
    epochs: int = 50
    # dataset
    n_classes: int = 4
    per_class: int = 32
    image_size: int = 16
    data_seed: int = 3
    family_offset: int = 0
    shots: int = 16
    # run
    strategy: str = ""               # empty = report every strategy
    seed: int = 3
    out: str = "runs/exp"
    targets: tuple = (7, 8, 9)
    target_family_offset: int = 4
    ablate_axis: str = "depth"
    ablate_values: tuple = ()        # empty = default sweep for the axis


SECTIONS = {
    "model": ("visual_width", "text_width", "shared_width", "depth", "heads",
              "patch_grid", "prompt_depth", "temperature", "mask_prompts",
              "text_consistency_weight", "image_consistency_weight",
              "visual_prompt_len", "text_prompt_len"),
    "data": ("n_classes", "per_class", "image_size", "data_seed",
             "family_offset", "shots"),
    "train": ("lr", "batch_size", "epochs"),
    "run": ("strategy", "seed", "out", "targets", "target_family_offset",
            "ablate_axis", "ablate_values"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def reference_config() -> ExperimentConfig:
    """The verified desk-scale preset: converges on the 4-class synthetic
    task in 200 steps (recorded during implementation)."""
    return replace(ExperimentConfig(), visual_prompt_len=4, lr=0.02,
                   epochs=200, temperature=0.1)


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not np.isfinite(value):
                raise ValueError(raw)
            return value
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "tuple":
            parts = raw.replace(",", " ").split()
            if name == "targets":
                return tuple(int(p) for p in parts)
            return tuple(parts)
        return raw
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {name}: {raw!r}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text())
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config: {e}")
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in SECTIONS[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            values[key] = _parse_value(key, parser[section][key])
    return replace(ExperimentConfig(), **values)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Full snapshot; load_config(save_config(cfg)) round-trips exactly."""
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            v = getattr(cfg, key)
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            elif isinstance(v, tuple):
                v = " ".join(str(x) for x in v)
            lines.append(f"{key} = {v}")
        lines.append("")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines))


def to_model_config(cfg: ExperimentConfig) -> ModelConfig:
    """Every field the two configs share, by name; the grid side becomes a
    pair, prompt depth 0 means full depth, and the vocabulary is fixed."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)
              if f.name in _FIELD_TYPES}
    shared.update(patch_grid=(cfg.patch_grid, cfg.patch_grid),
                  prompt_depth=cfg.prompt_depth or None, vocab_size=len(VOCAB))
    try:
        return ModelConfig(**shared)
    except ValueError as e:
        raise ConfigError(str(e))


def validate(cfg: ExperimentConfig) -> None:
    if not 2 <= cfg.n_classes <= 8:
        raise ConfigError("n_classes must be in 2..8")
    if cfg.per_class < 1:
        raise ConfigError("per_class must be positive")
    if not 1 <= cfg.shots <= cfg.per_class:
        raise ConfigError(f"shots must be in 1..per_class ({cfg.per_class})")
    if cfg.image_size < MIN_IMAGE_SIZE:
        raise ConfigError(f"image_size must be at least {MIN_IMAGE_SIZE}")
    # the random streams take non-negative seeds only
    for name, seeds in (("seed", [cfg.seed]), ("data_seed", [cfg.data_seed]),
                        ("targets", cfg.targets)):
        if any(s < 0 for s in seeds):
            raise ConfigError(f"{name} must be nonnegative")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be positive")
    if not 0 <= cfg.lr < np.inf:
        raise ConfigError("lr must be nonnegative and finite")
    if cfg.strategy:
        try:
            resolve_strategy(cfg.strategy)
        except ValueError as e:
            raise ConfigError(str(e))
    if cfg.ablate_axis not in ABLATE_AXES:
        raise ConfigError(f"unknown ablation axis {cfg.ablate_axis!r}")
    to_model_config(cfg)   # surface model-level validation errors now
    # a run's largest arrays are one layer's float64 attention weights,
    # heads x n x n per sequence: for a batch (or an eval chunk) of
    # [class | patches | prompts] images, or for one [eos | words | prompts]
    # class text
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n_image = 1 + cfg.patch_grid ** 2 + cfg.visual_prompt_len
    n_text = 1 + len(tokenize_template(FAMILIES[0])) + cfg.text_prompt_len
    for name, nbytes in (
            ("visual_prompt_len",
             max(cfg.batch_size, EVAL_CHUNK) * cfg.heads * n_image ** 2 * 8),
            ("text_prompt_len", cfg.heads * n_text ** 2 * 8)):
        if nbytes > memory:
            raise ConfigError(
                f"{name} = {getattr(cfg, name)} needs {nbytes / 2**30:,.1f} "
                f"GiB of attention weights, more than the "
                f"{memory / 2**30:,.1f} GiB of physical memory")


# ------------------------------------------------------------ run helpers

def _hm_or_zero(a: float, b: float) -> float:
    return harmonic_mean(a, b) if a > 0 and b > 0 else 0.0


def _predict_all(subset, prompts, mcfg, state, bank, strategies) -> list:
    """Accuracy of each strategy, from one forward per chunk for all."""
    chunks = [predict(subset.images[start:start + EVAL_CHUNK], prompts, mcfg,
                      state, bank, strategies)
              for start in range(0, len(subset), EVAL_CHUNK)]
    return [accuracy(np.concatenate(preds), subset.labels)
            for preds in zip(*chunks)]


def _score(split, prompts, mcfg, state, strategies, bank=None) -> list:
    """Accuracy on a (class names, rows) split per strategy, one text bank
    (``bank``, or one built here from the detached prompts)."""
    names, subset = split
    if bank is None:
        bank = build_text_bank(names, prompts.detached(), mcfg, state)
    return _predict_all(subset, prompts, mcfg, state, bank, strategies)


def _splits(ds: SyntheticDataset, train_set, note: bool = True) -> tuple:
    """(class names, rows) of the base and the novel split.  Base rows are
    the held-out ones, else (shots == per_class) the training rows."""
    rows = held_out(ds, train_set)
    if not len(rows) and note:
        print("note: no held-out base rows (shots == per_class); base "
              "accuracy is scored on the training rows", file=sys.stderr)
    base = rows if len(rows) else select_classes(ds, ds.base_classes)
    novel = select_classes(ds, ds.novel_classes)
    return tuple(([ds.class_names[c] for c in ids], subset) for ids, subset
                 in ((ds.base_classes, base), (ds.novel_classes, novel)))


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(path, rows) -> None:
    write_csv(path, LOG_COLUMNS, [[r[c] for c in LOG_COLUMNS] for r in rows])


def _write_run(cfg: ExperimentConfig, table: str, header, rows,
               trained=None) -> Path:
    """Write ``table``, then ``log.csv`` and ``checkpoint.bin`` of ``trained``
    = (model config, encoder state, train result), then ``config.ini``."""
    out = _outdir(cfg)
    write_csv(out / table, header, rows)
    if trained is not None:
        mcfg, state, result = trained
        _write_log(out / "log.csv", result.log_rows)
        save_checkpoint(out / "checkpoint.bin", mcfg, state, result.prompts)
    save_config(cfg, out / "config.ini")
    return out


def _train_run(cfg: ExperimentConfig, mcfg: ModelConfig,
               ds: SyntheticDataset, class_ids, use_aug: bool = True):
    """Initialize + train on a few-shot subset of the given classes."""
    names = [ds.class_names[c] for c in class_ids]
    train_set = sample_few_shot(ds, cfg.shots, class_ids, seed=cfg.data_seed)
    state = EncoderState.initialize(mcfg, seed=cfg.seed)
    prompts0 = PromptSet.initialize(mcfg, seed=cfg.seed + 1)
    result = train(train_set, names, prompts0, mcfg, state,
                   epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
                   seed=cfg.seed, use_aug=use_aug)
    return state, prompts0, train_set, result


# --------------------------------------------------------------- protocols

def run_base_to_novel(cfg: ExperimentConfig) -> dict:
    mcfg = to_model_config(cfg)
    ds = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                          cfg.data_seed, cfg.family_offset)
    state, _, train_set, result = _train_run(cfg, mcfg, ds, ds.base_classes)
    prompts = result.prompts
    splits = _splits(ds, train_set)
    banks = [build_text_bank(names, prompts.detached(), mcfg, state)
             for names, _ in splits]
    gb, gn = (global_branch_accuracy(subset, names, prompts, mcfg, state,
                                     bank=bank)
              for (names, subset), bank in zip(splits, banks))
    strategies = (cfg.strategy,) if cfg.strategy else STRATEGIES
    base, novel = (_score(split, prompts, mcfg, state, strategies, bank)
                   for split, bank in zip(splits, banks))
    rows = [[name, ab, an, _hm_or_zero(ab, an)] for name, ab, an in
            zip(("global-branch", *strategies), (gb, *base), (gn, *novel))]
    out = _write_run(cfg, "metrics.csv", ["strategy", "base_accuracy",
                                          "novel_accuracy", "harmonic_mean"],
                     rows, (mcfg, state, result))
    return {"rows": rows, "result": result, "out": out}


def run_cross_dataset(cfg: ExperimentConfig) -> dict:
    if not cfg.targets:
        raise ConfigError("cross-dataset protocol needs at least one target")
    mcfg = to_model_config(cfg)
    source = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                              cfg.data_seed, cfg.family_offset)
    state, _, _, result = _train_run(cfg, mcfg, source,
                                     tuple(range(cfg.n_classes)))
    strategies = (cfg.strategy or "equal",)

    def score(ds: SyntheticDataset) -> float:
        full = select_classes(ds, tuple(range(ds.n_classes)))
        return _score((ds.class_names, full), result.prompts, mcfg, state,
                      strategies)[0]

    rows = [["source", cfg.data_seed, cfg.family_offset, score(source)]]
    for t in cfg.targets:
        target = generate_dataset(cfg.n_classes, cfg.per_class,
                                  cfg.image_size, t,
                                  cfg.target_family_offset)
        rows.append(["target", t, cfg.target_family_offset, score(target)])
    out = _write_run(cfg, "metrics.csv",
                     ["role", "seed", "family_offset", "accuracy"], rows,
                     (mcfg, state, result))
    return {"rows": rows, "result": result, "out": out}


def run_segment(cfg: ExperimentConfig) -> dict:
    mcfg = to_model_config(cfg)
    ds = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                          cfg.data_seed, cfg.family_offset)
    state, prompts0, train_set, result = _train_run(cfg, mcfg, ds,
                                                    ds.base_classes)
    (base_names, eval_set), _ = _splits(ds, train_set)
    gts = ds.gt_masks[eval_set.indices]
    size = cfg.image_size

    tokens = ["CLS"] + [f"VP:{i}" for i in range(cfg.visual_prompt_len)]
    rows = []
    out = _outdir(cfg)
    vrows = vanilla_text_rows(base_names, mcfg, state)
    for tag, prompts in (("untrained", prompts0), ("trained", result.prompts)):
        frozen = prompts.detached()
        bank = build_text_bank(base_names, frozen, mcfg, state, vrows)
        # every token reads the same final-layer attention of one encode
        final = [encode_image_prompted(img, frozen, mcfg, state).attentions[-1]
                 for img in eval_set.images]
        maps = {token: [attention_grid(a, token, mcfg) for a in final]
                for token in tokens}
        maps["GradCAM"] = [gradcam_map(img, prompts, mcfg, state, bank)
                           for img in eval_set.images]
        for token, grids in maps.items():
            agg = mean_metrics(segmentation_metrics(
                upsample_nearest(g, size), binarize_map(g, size), gt)
                for g, gt in zip(grids, gts))
            mass = "" if token == "GradCAM" else float(np.mean(
                [foreground_mass(g, gt) for g, gt in zip(grids, gts)]))
            rows.append([tag, token, agg.pix_acc, agg.m_iou, agg.m_ap, mass])
        # the first image's maps of CLS, VP:0 and GradCAM, for eyeballing
        for token in (*tokens[:2], "GradCAM"):
            name = token.replace(":", "-").replace("GradCAM", "gradcam")
            write_pgm(out / f"heatmap_{tag}_{name}.pgm", maps[token][0])

    _write_run(cfg, "segmentation.csv",
               ["model", "token", "pix_acc", "m_iou", "m_ap", "fg_mass"], rows,
               (mcfg, state, result))
    return {"rows": rows, "result": result, "out": out}


def _axis_values(cfg: ExperimentConfig) -> tuple:
    if cfg.ablate_values:
        return cfg.ablate_values
    return {
        "depth": tuple(str(d) for d in range(1, cfg.depth + 1)),
        "length": ("0", "2", "4"),
        "loss": LOSS_VARIANTS,
        "ensemble": STRATEGIES,
    }[cfg.ablate_axis]


def _ablation_point(cfg: ExperimentConfig, axis: str, value: str):
    """Per-value experiment config + loss toggle.  A depth, length or
    ensemble value is parsed and checked like the INI key its axis sets."""
    if axis == "loss":
        if value not in LOSS_VARIANTS:
            raise ConfigError(f"unknown loss variant {value!r}; choose from "
                              f"{', '.join(LOSS_VARIANTS)}")
        point = cfg
        if value in ("no-consistency", "ce-only"):
            point = replace(cfg, text_consistency_weight=0.0,
                            image_consistency_weight=0.0)
        return point, value not in ("no-aug", "ce-only")
    key = ABLATE_AXES[axis]
    point = replace(cfg, **{key: _parse_value(key, value)})
    # 0 means "every layer" in the INI; a depth sweep names its layers
    if axis == "depth" and point.prompt_depth < 1:
        raise ConfigError(f"prompt_depth {point.prompt_depth} outside "
                          f"1..{cfg.depth}")
    validate(point)
    return point, True


def run_ablate(cfg: ExperimentConfig) -> dict:
    axis = cfg.ablate_axis
    values = _axis_values(cfg)
    points = [_ablation_point(cfg, axis, v) for v in values]

    rows = []
    cache = {}
    for value, (point, use_aug) in zip(values, points):
        mcfg = to_model_config(point)
        # identical training configs (the ensemble axis) share one run:
        # training is deterministic, so retraining would reproduce it anyway
        key = (mcfg, use_aug)
        if key not in cache:
            ds = generate_dataset(point.n_classes, point.per_class,
                                  point.image_size, point.data_seed,
                                  point.family_offset)
            state, _, train_set, result = _train_run(point, mcfg, ds,
                                                     ds.base_classes,
                                                     use_aug=use_aug)
            cache[key] = (ds, state, train_set, result)
        ds, state, train_set, result = cache[key]
        # every point draws the same rows, so the first one notes for all
        splits = _splits(ds, train_set, note=not rows)
        ab, an = (_score(split, result.prompts, mcfg, state,
                         (point.strategy or "equal",))[0] for split in splits)
        rows.append([axis, value, ab, an, _hm_or_zero(ab, an)])

    out = _write_run(cfg, "ablation.csv",
                     ["axis", "value", "base_accuracy", "novel_accuracy",
                      "harmonic_mean"], rows)
    return {"rows": rows, "out": out}


RUNNERS = {
    "base-to-novel": run_base_to_novel,
    "cross-dataset": run_cross_dataset,
    "segment": run_segment,
    "ablate": run_ablate,
}


# --------------------------------------------------------------- arg parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="promptlab",
                     description="miniature prompt-tuning laboratory")
    sub = parser.add_subparsers(dest="command")
    # each subcommand runs one protocol; a config cannot pick another
    for name, protocol, text in (
            ("train", "base-to-novel",
             "few-shot base-class training + base-to-novel report"),
            ("eval", "cross-dataset",
             "cross-dataset transfer of trained prompts"),
            ("segment", "segment",
             "attention/GradCAM foreground segmentation scoring"),
            ("ablate", "ablate",
             "sweep one design axis and tabulate accuracy")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(protocol=protocol)
        p.add_argument("--config", help="INI experiment config")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy",
                       help="ensemble strategy: equal | confidence | "
                            "threshold[:theta]")
    return parser


# glibc's mallopt parameters (malloc.h) and the values the CLI fixes them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 256 << 20
_MMAP_THRESHOLD = 32 << 20       # glibc's largest allowed on 64-bit


def _keep_freed_arrays() -> None:
    """Keep the arrays a train step frees in the process heap.

    A reference step frees about 25 MB of graph arrays.  glibc's dynamic
    thresholds then hand the top of the heap back to the kernel, and the
    next step faults the same pages in again (over 2,000 minor faults per
    step).  Fixing both thresholds keeps them; fixing either one alone
    switches the dynamic adjustment off and faults more.  Does nothing
    where the C library has no ``mallopt``.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_arrays()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError("a subcommand is required "
                              "(train | eval | segment | ablate)")
        cfg = load_config(args.config) if args.config else reference_config()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out:
            cfg = replace(cfg, out=args.out)
        if args.strategy:
            cfg = replace(cfg, strategy=args.strategy)
        validate(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        report = RUNNERS[args.protocol](cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # divergence and friends
        # name the innermost frame in this package (main's, at the least)
        here = Path(__file__).parent
        code = [f.f_code for f, _ in traceback.walk_tb(e.__traceback__)
                if Path(f.f_code.co_filename).parent == here][-1]
        print(f"runtime error: {e} ({type(e).__name__} in promptlab."
              f"{Path(code.co_filename).stem}.{code.co_name})",
              file=sys.stderr)
        return 2

    for row in report["rows"]:
        print(" ".join(_fmt(v) for v in row))
    print(f"outputs written to {report['out']}")
    return 0


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)


if __name__ == "__main__":
    sys.exit(main())
