"""Command-line front end: reproducible training, evaluation, segmentation
and ablation runs driven by an INI config file.

Every run writes a complete config snapshot next to its outputs; re-running
from the snapshot (same seed) reproduces every CSV and checkpoint byte for
byte.  Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datagen import (VOCAB, SyntheticDataset, atomic_open, generate_dataset,
                      held_out, sample_few_shot, save_checkpoint,
                      select_classes)
from .encoders import EncoderState, ModelConfig, PromptSet
from .ensemble import predict, resolve_strategy
from .evalkit import (accuracy, binarize_map, extract_attention_map,
                      foreground_mass, gradcam_map, harmonic_mean,
                      mean_metrics, segmentation_metrics, upsample_nearest,
                      write_csv, write_pgm)
from .tuning import (EVAL_CHUNK, LOG_COLUMNS, build_text_bank,
                     global_branch_accuracy, train)

PROTOCOLS = ("base-to-novel", "cross-dataset", "segment", "ablate")
STRATEGIES = ("equal", "confidence", "threshold")
ABLATE_AXES = ("depth", "length", "loss", "ensemble")
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
    protocol: str = "base-to-novel"
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
    "run": ("protocol", "strategy", "seed", "out", "targets",
            "target_family_offset", "ablate_axis", "ablate_values"),
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
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "tuple":
            parts = raw.replace(",", " ").split()
            if name == "targets":
                return tuple(int(p) for p in parts)
            return tuple(parts)
        return raw
    except ValueError:
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
    try:
        return ModelConfig(
            visual_width=cfg.visual_width,
            text_width=cfg.text_width,
            shared_width=cfg.shared_width,
            depth=cfg.depth,
            heads=cfg.heads,
            patch_grid=(cfg.patch_grid, cfg.patch_grid),
            image_size=cfg.image_size,
            vocab_size=len(VOCAB),
            text_prompt_len=cfg.text_prompt_len,
            visual_prompt_len=cfg.visual_prompt_len,
            prompt_depth=None if cfg.prompt_depth == 0 else cfg.prompt_depth,
            temperature=cfg.temperature,
            text_consistency_weight=cfg.text_consistency_weight,
            image_consistency_weight=cfg.image_consistency_weight,
            mask_prompts=cfg.mask_prompts,
        )
    except ValueError as e:
        raise ConfigError(str(e))


def validate(cfg: ExperimentConfig) -> None:
    if cfg.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {cfg.protocol!r}; "
                          f"choose from {', '.join(PROTOCOLS)}")
    if not 2 <= cfg.n_classes <= 8:
        raise ConfigError("n_classes must be in 2..8")
    if cfg.per_class < 1:
        raise ConfigError("per_class must be positive")
    if not 1 <= cfg.shots <= cfg.per_class:
        raise ConfigError(f"shots must be in 1..per_class ({cfg.per_class})")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be positive")
    if cfg.lr < 0:
        raise ConfigError("lr must be nonnegative")
    if cfg.strategy:
        try:
            resolve_strategy(cfg.strategy)
        except ValueError as e:
            raise ConfigError(str(e))
    if cfg.ablate_axis not in ABLATE_AXES:
        raise ConfigError(f"unknown ablation axis {cfg.ablate_axis!r}")
    to_model_config(cfg)   # surface model-level validation errors now


# ------------------------------------------------------------ run helpers

def _strategies(cfg: ExperimentConfig) -> tuple:
    return (cfg.strategy,) if cfg.strategy else STRATEGIES


def _hm_or_zero(a: float, b: float) -> float:
    return harmonic_mean(a, b) if a > 0 and b > 0 else 0.0


def _predict_all(subset, prompts, mcfg, state, bank, strategy) -> float:
    preds = [predict(subset.images[start:start + EVAL_CHUNK], prompts, mcfg,
                     state, bank, strategy)
             for start in range(0, len(subset), EVAL_CHUNK)]
    return accuracy(np.concatenate(preds), subset.labels)


def _base_eval(ds: SyntheticDataset, train_set, note: bool = True):
    """Held-out base rows, else (shots == per_class) the training rows."""
    rows = held_out(ds, train_set)
    if not len(rows) and note:
        print("note: no held-out base rows (shots == per_class); base "
              "accuracy is scored on the training rows", file=sys.stderr)
    return rows if len(rows) else select_classes(ds, ds.base_classes)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(path, rows) -> None:
    write_csv(path, LOG_COLUMNS, [[r[c] for c in LOG_COLUMNS] for r in rows])


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
    base_names = [ds.class_names[c] for c in ds.base_classes]
    novel_names = [ds.class_names[c] for c in ds.novel_classes]
    base_eval = _base_eval(ds, train_set)
    novel_eval = select_classes(ds, ds.novel_classes)

    bank_b = build_text_bank(base_names, prompts.detached(), mcfg, state)
    bank_n = build_text_bank(novel_names, prompts.detached(), mcfg, state)
    gb = global_branch_accuracy(base_eval, base_names, prompts, mcfg, state)
    gn = global_branch_accuracy(novel_eval, novel_names, prompts, mcfg, state)
    rows = [["global-branch", gb, gn, _hm_or_zero(gb, gn)]]
    for strat in _strategies(cfg):
        ab = _predict_all(base_eval, prompts, mcfg, state, bank_b, strat)
        an = _predict_all(novel_eval, prompts, mcfg, state, bank_n, strat)
        rows.append([strat, ab, an, _hm_or_zero(ab, an)])

    out = _outdir(cfg)
    _write_log(out / "log.csv", result.log_rows)
    write_csv(out / "metrics.csv",
              ["strategy", "base_accuracy", "novel_accuracy", "harmonic_mean"],
              rows)
    save_checkpoint(out / "checkpoint.bin", mcfg, state, prompts)
    save_config(cfg, out / "config.ini")
    return {"rows": rows, "result": result, "out": out}


def run_cross_dataset(cfg: ExperimentConfig) -> dict:
    if not cfg.targets:
        raise ConfigError("cross-dataset protocol needs at least one target")
    mcfg = to_model_config(cfg)
    source = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                              cfg.data_seed, cfg.family_offset)
    state, _, _, result = _train_run(cfg, mcfg, source,
                                     tuple(range(cfg.n_classes)))
    prompts = result.prompts
    strategy = cfg.strategy or "equal"

    out = _outdir(cfg)
    save_checkpoint(out / "checkpoint.bin", mcfg, state, prompts)

    def score(ds: SyntheticDataset) -> float:
        full = select_classes(ds, tuple(range(ds.n_classes)))
        bank = build_text_bank(ds.class_names, prompts.detached(), mcfg, state)
        return _predict_all(full, prompts, mcfg, state, bank, strategy)

    rows = [["source", cfg.data_seed, cfg.family_offset, score(source)]]
    for t in cfg.targets:
        target = generate_dataset(cfg.n_classes, cfg.per_class,
                                  cfg.image_size, t,
                                  cfg.target_family_offset)
        rows.append(["target", t, cfg.target_family_offset, score(target)])

    _write_log(out / "log.csv", result.log_rows)
    write_csv(out / "metrics.csv",
              ["role", "seed", "family_offset", "accuracy"], rows)
    save_config(cfg, out / "config.ini")
    return {"rows": rows, "result": result, "out": out}


def run_segment(cfg: ExperimentConfig, dataset: SyntheticDataset = None) -> dict:
    mcfg = to_model_config(cfg)
    ds = dataset if dataset is not None else generate_dataset(
        cfg.n_classes, cfg.per_class, cfg.image_size, cfg.data_seed,
        cfg.family_offset)
    if getattr(ds, "gt_masks", None) is None:
        raise ConfigError("segmentation needs a dataset with gt masks")
    state, prompts0, train_set, result = _train_run(cfg, mcfg, ds,
                                                    ds.base_classes)
    base_names = [ds.class_names[c] for c in ds.base_classes]
    eval_set = _base_eval(ds, train_set)
    gts = ds.gt_masks[eval_set.indices]

    tokens = ["CLS"] + [f"VP:{i}" for i in range(cfg.visual_prompt_len)]
    rows = []
    out = _outdir(cfg)
    for tag, prompts in (("untrained", prompts0), ("trained", result.prompts)):
        bank = build_text_bank(base_names, prompts.detached(), mcfg, state)
        for token in tokens:
            per_image, masses = [], []
            for img, gt in zip(eval_set.images, gts):
                amap = extract_attention_map(img, prompts, mcfg, state, token)
                heat = upsample_nearest(amap, cfg.image_size)
                pred = binarize_map(amap, cfg.image_size)
                per_image.append(segmentation_metrics(heat, pred, gt))
                masses.append(foreground_mass(amap, gt))
            agg = mean_metrics(per_image)
            rows.append([tag, token, agg.pix_acc, agg.m_iou, agg.m_ap,
                         float(np.mean(masses))])
        per_image = []
        for img, gt in zip(eval_set.images, gts):
            grid = gradcam_map(img, prompts, mcfg, state, bank)
            heat = upsample_nearest(grid, cfg.image_size)
            pred = binarize_map(grid, cfg.image_size)
            per_image.append(segmentation_metrics(heat, pred, gt))
        agg = mean_metrics(per_image)
        rows.append([tag, "GradCAM", agg.pix_acc, agg.m_iou, agg.m_ap, ""])
        # one example heatmap per token for eyeballing
        sample = eval_set.images[0]
        for token in tokens[:2]:
            amap = extract_attention_map(sample, prompts, mcfg, state, token)
            name = f"heatmap_{tag}_{token.replace(':', '-')}.pgm"
            write_pgm(out / name, amap.grid)
        write_pgm(out / f"heatmap_{tag}_gradcam.pgm",
                  gradcam_map(sample, prompts, mcfg, state, bank))

    write_csv(out / "segmentation.csv",
              ["model", "token", "pix_acc", "m_iou", "m_ap", "fg_mass"], rows)
    _write_log(out / "log.csv", result.log_rows)
    save_checkpoint(out / "checkpoint.bin", mcfg, state, result.prompts)
    save_config(cfg, out / "config.ini")
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
    """Per-value experiment config + loss toggle; rejects illegal values."""
    use_aug = True
    point = cfg
    if axis == "depth":
        try:
            d = int(value)
        except ValueError:
            raise ConfigError(f"bad depth value {value!r}")
        if not 1 <= d <= cfg.depth:
            raise ConfigError(f"prompt depth {d} outside 1..{cfg.depth}")
        point = replace(cfg, prompt_depth=d)
    elif axis == "length":
        try:
            v = int(value)
        except ValueError:
            raise ConfigError(f"bad length value {value!r}")
        if v < 0:
            raise ConfigError("visual prompt length cannot be negative")
        point = replace(cfg, visual_prompt_len=v)
    elif axis == "loss":
        if value not in LOSS_VARIANTS:
            raise ConfigError(f"unknown loss variant {value!r}; choose from "
                              f"{', '.join(LOSS_VARIANTS)}")
        if value in ("no-aug", "ce-only"):
            use_aug = False
        if value in ("no-consistency", "ce-only"):
            point = replace(cfg, text_consistency_weight=0.0,
                            image_consistency_weight=0.0)
    elif axis == "ensemble":
        try:
            resolve_strategy(value)
        except ValueError as e:
            raise ConfigError(str(e))
        point = replace(cfg, strategy=value)
    return point, use_aug


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
        key = str(sorted(mcfg.to_dict().items())) + str(use_aug)
        if key not in cache:
            ds = generate_dataset(point.n_classes, point.per_class,
                                  point.image_size, point.data_seed,
                                  point.family_offset)
            state, _, train_set, result = _train_run(point, mcfg, ds,
                                                     ds.base_classes,
                                                     use_aug=use_aug)
            cache[key] = (ds, state, train_set, result)
        ds, state, train_set, result = cache[key]
        prompts = result.prompts
        base_names = [ds.class_names[c] for c in ds.base_classes]
        novel_names = [ds.class_names[c] for c in ds.novel_classes]
        # every point draws the same rows, so the first one notes for all
        base_eval = _base_eval(ds, train_set, note=not rows)
        novel_eval = select_classes(ds, ds.novel_classes)
        strategy = point.strategy or "equal"
        bank_b = build_text_bank(base_names, prompts.detached(), mcfg, state)
        bank_n = build_text_bank(novel_names, prompts.detached(), mcfg, state)
        ab = _predict_all(base_eval, prompts, mcfg, state, bank_b, strategy)
        an = _predict_all(novel_eval, prompts, mcfg, state, bank_n, strategy)
        rows.append([axis, value, ab, an, _hm_or_zero(ab, an)])

    out = _outdir(cfg)
    write_csv(out / "ablation.csv",
              ["axis", "value", "base_accuracy", "novel_accuracy",
               "harmonic_mean"], rows)
    save_config(cfg, out / "config.ini")
    return {"rows": rows, "out": out}


RUNNERS = {
    "base-to-novel": run_base_to_novel,
    "cross-dataset": run_cross_dataset,
    "segment": run_segment,
    "ablate": run_ablate,
}

_COMMAND_PROTOCOL = {
    "train": "base-to-novel",
    "eval": "cross-dataset",
    "segment": "segment",
    "ablate": "ablate",
}


# --------------------------------------------------------------- arg parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="promptlab",
                     description="miniature prompt-tuning laboratory")
    sub = parser.add_subparsers(dest="command")
    helps = {
        "train": "few-shot base-class training + base-to-novel report",
        "eval": "cross-dataset transfer of trained prompts",
        "segment": "attention/GradCAM foreground segmentation scoring",
        "ablate": "sweep one design axis and tabulate accuracy",
    }
    for name in _COMMAND_PROTOCOL:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="INI experiment config")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy",
                       help="ensemble strategy: equal | confidence | "
                            "threshold[:theta]")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError("a subcommand is required "
                              "(train | eval | segment | ablate)")
        cfg = load_config(args.config) if args.config else reference_config()
        cfg = replace(cfg, protocol=_COMMAND_PROTOCOL[args.command])
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
        report = RUNNERS[cfg.protocol](cfg)
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
