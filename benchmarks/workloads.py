"""The three benchmark workloads and the checks on their outputs.

Each workload runs one caller in a closed loop: the next call starts when
the previous one returns.  All of them use the reference preset
(``cli.reference_config()``) and only the public functions of the
promptlab modules.  The workload seed picks one of ``N_SETS`` input sets
(data seed and model seed); the outputs of every set are recorded in
``expected.json`` by ``record.py``.

* ``train``   - the ``promptlab train`` protocol through ``cli.main``.
* ``infer``   - base-to-novel and cross-dataset scoring with fixed prompts.
* ``segment`` - attention-map and GradCAM segmentation scoring.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from promptlab import cli, datagen, ensemble, evalkit, tuning
from promptlab.encoders import EncoderState, PromptSet

N_SETS = 8            # distinct input sets the workload seed selects from
TRAIN_EPOCHS = 20     # epochs of one train protocol run (one step each)
RTOL = 1e-9           # relative tolerance of recorded float outputs
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def input_set(seed: int) -> int:
    return seed % N_SETS


def preset(k: int) -> cli.ExperimentConfig:
    """The reference preset with the data and model seeds of input set k."""
    ref = cli.reference_config()
    return replace(ref, data_seed=ref.data_seed + k, seed=ref.seed + k)


class Checker:
    """Compares outputs with recorded ones, counting checks and failures.

    Without recorded outputs it records what it is shown instead.
    """

    def __init__(self, expected: dict = None):
        self.expected = expected
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0

    def _fail(self, count: int, what: str) -> None:
        self.failed += count
        if self.failed <= 5:
            print(f"check failed: {what}", file=sys.stderr)

    def require(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(1, what)

    def check(self, key: str, observed) -> None:
        """One check: ``observed`` equals the record, floats to RTOL."""
        if self.expected is None:
            self.recorded[key] = observed
            self.attempted += 1
            return
        self.require(key in self.expected
                     and _match(self.expected[key], observed), key)

    def check_each(self, key: str, observed: str) -> None:
        """One check per character, e.g. a string of predicted classes."""
        if self.expected is None:
            self.recorded[key] = observed
            self.attempted += len(observed)
            return
        want = self.expected.get(key, "")
        self.attempted += len(observed)
        wrong = sum(a != b for a, b in zip(observed, want))
        wrong += max(0, len(observed) - len(want))
        if wrong:
            self._fail(wrong, f"{key}: {wrong} of {len(observed)} differ")


def _match(want, got) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        want, got = float(want), float(got)
        return abs(want - got) <= RTOL * max(abs(want), abs(got))
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(map(_match, want, got))
    return want == got


class Workload:
    name = ""
    unit = ""            # "step" or "image"
    tail_pct = 0.0       # highest percentile with >= 10 samples beyond it
    idle = frozenset()   # traced functions this workload never calls

    def __init__(self, k: int, workdir: Path):
        self.k = k
        self.workdir = workdir
        self.cfg = preset(k)
        self.mcfg = cli.to_model_config(self.cfg)
        self.reset()

    def reset(self) -> None:
        """Forget the samples of earlier iterations."""
        self.op_ms: list = []       # one sample per timed call
        self.rates: list = []       # images per second, one per iteration
        self.units = 0              # steps or images completed

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, checker: Checker) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Train(Workload):
    """``promptlab train`` in process, with a config that shortens epochs."""

    name = "train"
    unit = "step"
    tail_pct = 80.0
    idle = frozenset({
        "datagen.load_checkpoint", "encoders.encode_image_from_layer",
        "evalkit.extract_attention_map", "evalkit.gradcam_map",
        "evalkit.upsample_nearest", "evalkit.binarize_map",
        "evalkit.segmentation_metrics", "evalkit.foreground_mass"})

    def __init__(self, k: int, workdir: Path):
        super().__init__(k, workdir)
        self.cfg = replace(self.cfg, epochs=TRAIN_EPOCHS)
        self.ini = workdir / "train.ini"
        self.runs = 0
        self._images = 0
        self.first_bytes = None
        # time every tuning.train_step call; train() looks it up by name
        self._step = tuning.train_step
        tuning.train_step = self._timed_step

    def _timed_step(self, batch, *args, **kwargs):
        start = perf_counter()
        out = self._step(batch, *args, **kwargs)
        self.op_ms.append(1e3 * (perf_counter() - start))
        self.units += 1
        self._images += len(batch)
        return out

    def close(self) -> None:
        tuning.train_step = self._step

    def setup(self) -> None:
        cli.save_config(self.cfg, self.ini)
        cli.validate(cli.load_config(self.ini))

    def iterate(self, checker: Checker) -> None:
        out = self.workdir / f"run{self.runs}"
        self.runs += 1
        self._images = 0
        steps_before = self.units
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(self.ini),
                             "--out", str(out)])
        elapsed = perf_counter() - start
        checker.require(code == 0, f"promptlab train exit code {code}")
        if code == 0:
            if self.units == steps_before:
                raise RuntimeError("no tuning.train_step call was timed")
            self.rates.append(self._images / elapsed)
            files = [out / n for n in ("log.csv", "metrics.csv",
                                       "checkpoint.bin")]
            digest = [hashlib.sha256(f.read_bytes()).hexdigest()
                      for f in files]
            if self.first_bytes is None:
                self.first_bytes = digest
            checker.require(digest == self.first_bytes,
                            "outputs not byte-identical across runs")
            checker.check("log.csv", _read_csv(files[0]))
            checker.check("metrics.csv", _read_csv(files[1]))
        shutil.rmtree(out, ignore_errors=True)


def _read_csv(path: Path) -> list:
    """CSV rows with numeric cells as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[_number(c) for c in row] for row in rows[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _fixed_model(cfg, mcfg, path: Path):
    """Initial encoder and prompts, round-tripped through a checkpoint."""
    state = EncoderState.initialize(mcfg, seed=cfg.seed)
    prompts = PromptSet.initialize(mcfg, seed=cfg.seed + 1)
    datagen.save_checkpoint(path, mcfg, state, prompts)
    loaded_cfg, state, prompts = datagen.load_checkpoint(path)
    if loaded_cfg != mcfg:
        raise RuntimeError("checkpoint round trip changed the model config")
    return state, prompts


def _source(cfg):
    ds = datagen.generate_dataset(cfg.n_classes, cfg.per_class,
                                  cfg.image_size, cfg.data_seed,
                                  cfg.family_offset)
    train_set = datagen.sample_few_shot(ds, cfg.shots, ds.base_classes,
                                        seed=cfg.data_seed)
    return ds, datagen.held_out(ds, train_set)


class Infer(Workload):
    """Forward-only scoring, one image at a time, with fixed prompts."""

    name = "infer"
    unit = "image"
    tail_pct = 99.8
    idle = frozenset({
        "cli.run_base_to_novel", "cli._predict_all", "cli._write_log",
        "cli.save_config", "evalkit.write_csv", "tuning.train",
        "tuning.train_step", "tuning.compute_losses",
        "tuning.SGDMomentum.step", "encoders.encode_image_from_layer",
        "evalkit.extract_attention_map", "evalkit.gradcam_map",
        "evalkit.upsample_nearest", "evalkit.binarize_map",
        "evalkit.segmentation_metrics", "evalkit.foreground_mass",
        "autodiff.backward", "autodiff.sub", "autodiff.exp", "autodiff.log",
        "autodiff.dot", "autodiff.log_softmax",
        "autodiff.cosine_similarity"})

    def setup(self) -> None:
        cfg = self.cfg
        self.state, self.prompts = _fixed_model(cfg, self.mcfg,
                                                self.workdir / "infer.bin")
        ds, base = _source(cfg)
        novel = datagen.select_classes(ds, ds.novel_classes)
        self.splits = [
            ("base", [ds.class_names[c] for c in ds.base_classes], base),
            ("novel", [ds.class_names[c] for c in ds.novel_classes], novel)]
        self.targets = []
        for t in cfg.targets:
            target = datagen.generate_dataset(cfg.n_classes, cfg.per_class,
                                              cfg.image_size, t,
                                              cfg.target_family_offset)
            full = datagen.select_classes(target,
                                          tuple(range(target.n_classes)))
            self.targets.append((t, target.class_names, full))

    def _predict_all(self, subset, bank, strategy: str) -> str:
        preds = []
        for img in subset.images:
            start = perf_counter()
            preds.append(ensemble.predict(img, self.prompts, self.mcfg,
                                          self.state, bank, strategy))
            self.op_ms.append(1e3 * (perf_counter() - start))
        return "".join(str(p) for p in preds)

    def iterate(self, checker: Checker) -> None:
        mcfg, state, prompts = self.mcfg, self.state, self.prompts
        images = 0
        start = perf_counter()
        banks = [tuning.build_text_bank(names, prompts, mcfg, state)
                 for _, names, _ in self.splits]
        for (split, names, subset), bank in zip(self.splits, banks):
            acc = tuning.global_branch_accuracy(subset, names, prompts, mcfg,
                                                state)
            checker.check(f"base-to-novel/{split}/global", acc)
            for strategy in cli.STRATEGIES:
                checker.check_each(f"base-to-novel/{split}/{strategy}",
                                   self._predict_all(subset, bank, strategy))
            images += len(subset)
        for t, names, subset in self.targets:
            bank = tuning.build_text_bank(names, prompts, mcfg, state)
            checker.check_each(f"cross-dataset/{t}/equal",
                               self._predict_all(subset, bank, "equal"))
            images += len(subset)
        self.rates.append(images / (perf_counter() - start))
        self.units += images


class Segment(Workload):
    """Attention maps for CLS and every visual prompt, plus GradCAM."""

    name = "segment"
    unit = "image"
    tail_pct = 99.0
    idle = frozenset({
        "cli.run_base_to_novel", "cli._predict_all", "cli._write_log",
        "cli.save_config", "evalkit.write_csv", "tuning.train",
        "tuning.train_step", "tuning.compute_losses",
        "tuning.SGDMomentum.step", "tuning.global_branch_accuracy",
        "tuning.vanilla_image_rep", "encoders.project_augmented",
        "tuning.forward_three_branch", "ensemble.predict",
        "ensemble.ensemble_equal", "ensemble.ensemble_confidence",
        "ensemble.ensemble_threshold", "autodiff.sub", "autodiff.exp",
        "autodiff.log", "autodiff.log_softmax"})

    def setup(self) -> None:
        cfg = self.cfg
        self.state, self.prompts = _fixed_model(cfg, self.mcfg,
                                                self.workdir / "segment.bin")
        ds, self.eval_set = _source(cfg)
        self.gts = ds.gt_masks[self.eval_set.indices]
        self.names = [ds.class_names[c] for c in ds.base_classes]
        self.tokens = ["CLS"] + [f"VP:{i}"
                                 for i in range(cfg.visual_prompt_len)]

    def _score(self, grid, gt, with_mass: bool) -> list:
        size = self.cfg.image_size
        heat = evalkit.upsample_nearest(grid, size)
        pred = evalkit.binarize_map(grid, size)
        row = list(evalkit.segmentation_metrics(heat, pred, gt).as_tuple())
        if with_mass:
            row.append(evalkit.foreground_mass(grid, gt))
        return row

    def iterate(self, checker: Checker) -> None:
        mcfg, state, prompts = self.mcfg, self.state, self.prompts
        rows = {token: [] for token in self.tokens + ["GradCAM"]}
        start = perf_counter()
        bank = tuning.build_text_bank(self.names, prompts, mcfg, state)
        for img, gt in zip(self.eval_set.images, self.gts):
            t0 = perf_counter()
            for token in self.tokens:
                amap = evalkit.extract_attention_map(img, prompts, mcfg,
                                                     state, token)
                rows[token].append(self._score(amap, gt, with_mass=True))
            grid = evalkit.gradcam_map(img, prompts, mcfg, state, bank)
            rows["GradCAM"].append(self._score(grid, gt, with_mass=False))
            self.op_ms.append(1e3 * (perf_counter() - t0))
        n = len(self.eval_set)
        self.rates.append(n / (perf_counter() - start))
        self.units += n
        for token, per_image in rows.items():
            means = [sum(col) / n for col in zip(*per_image)]
            checker.check(f"{token}", means)


WORKLOADS = {w.name: w for w in (Train, Infer, Segment)}
