"""Config plumbing, protocol runners, exit codes, reproducibility."""

import numpy as np
import pytest

from promptlab import cli
from promptlab.cli import (ConfigError, ExperimentConfig, load_config, main,
                           reference_config, run_ablate, run_base_to_novel,
                           run_cross_dataset, run_segment, save_config,
                           to_model_config, validate)
from promptlab.datagen import VOCAB, generate_dataset
from promptlab.encoders import EncoderState, PromptSet
from promptlab.tuning import LOG_COLUMNS, global_branch_accuracy
from dataclasses import fields, replace


def tiny(**over) -> ExperimentConfig:
    base = dict(visual_width=8, text_width=8, shared_width=8, depth=2,
                heads=2, patch_grid=2, temperature=0.1, visual_prompt_len=2,
                text_prompt_len=2, n_classes=2, per_class=4, image_size=8,
                data_seed=0, shots=2, lr=0.05, batch_size=4, epochs=2, seed=0)
    base.update(over)
    return replace(ExperimentConfig(), **base)


def read(path):
    return path.read_bytes()


# -------------------------------------------------------------- config file

def test_config_round_trip(tmp_path):
    cfg = replace(reference_config(), strategy="threshold:0.6",
                  targets=(4, 5), ablate_values=("1", "2"))
    path = tmp_path / "c.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_partial_config_falls_back_to_defaults(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text("[train]\nlr = 0.5\n")
    cfg = load_config(path)
    assert cfg.lr == 0.5
    assert cfg.epochs == 50 and cfg.visual_prompt_len == 32  # published set
    assert cfg.batch_size == 32 and cfg.lr != ExperimentConfig().lr


def test_dataclass_defaults_match_published_records():
    # the dataclass defaults are the published base-to-novel recipe and
    # must not drift away from it; the cross-dataset recipe (README) sets
    # fields that exist
    published_base_to_novel = {"lr": 0.0016, "batch_size": 32, "epochs": 50,
                               "text_prompt_len": 4, "visual_prompt_len": 32}
    published_cross_dataset = {"lr": 0.05, "epochs": 10,
                               "visual_prompt_len": 8}
    cfg = ExperimentConfig()
    for key, val in published_base_to_novel.items():
        assert getattr(cfg, key) == val, key
    assert set(published_cross_dataset) <= {f.name for f in fields(cfg)}


def test_config_rejects_unknown_and_malformed(tmp_path):
    cases = {
        "s.ini": ("[surprise]\nx = 1\n", "unknown config section"),
        "k.ini": ("[train]\nlearning = 0.1\n", "unknown config key"),
        "v.ini": ("[train]\nepochs = soon\n", "bad value"),
        "b.ini": ("[model]\nmask_prompts = maybe\n", "bad value"),
    }
    for name, (text, match) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(p)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_validate_catches_bad_fields():
    bad = [
        (tiny(protocol="magic"), "unknown protocol"),
        (tiny(shots=9), "shots"),
        (tiny(epochs=0), "epochs"),
        (tiny(lr=-1.0), "lr"),
        (tiny(n_classes=9), "n_classes"),
        (tiny(strategy="median"), "unknown ensemble strategy"),
        (tiny(ablate_axis="width"), "unknown ablation axis"),
        (tiny(heads=3), "head"),          # surfaced from the model config
    ]
    for cfg, match in bad:
        with pytest.raises(ConfigError, match=match):
            validate(cfg)
    validate(tiny())   # the good one passes


def test_to_model_config_mapping():
    mcfg = to_model_config(tiny(prompt_depth=0))
    assert mcfg.prompt_depth == 2       # 0 means full depth
    assert mcfg.vocab_size == len(VOCAB)
    assert tuple(mcfg.patch_grid) == (2, 2)
    assert to_model_config(tiny(prompt_depth=1)).prompt_depth == 1


def test_reference_config_is_valid():
    cfg = reference_config()
    validate(cfg)
    assert cfg.epochs == 200 and cfg.lr == 0.02
    assert cfg.visual_prompt_len == 4 and cfg.temperature == 0.1


# ------------------------------------------------------------ base-to-novel

def test_base_to_novel_outputs(tmp_path):
    cfg = tiny(out=str(tmp_path / "run"))
    report = run_base_to_novel(cfg)
    out = report["out"]
    for name in ("log.csv", "metrics.csv", "checkpoint.bin", "config.ini"):
        assert (out / name).is_file()
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "strategy,base_accuracy,novel_accuracy,harmonic_mean"
    assert len(lines) == 1 + 1 + 3      # header, global-branch, 3 strategies
    assert lines[1].startswith("global-branch,")
    log = (out / "log.csv").read_text().strip().split("\n")
    assert log[0] == ",".join(LOG_COLUMNS)
    assert len(log) == 1 + cfg.epochs


def test_base_to_novel_single_strategy(tmp_path):
    report = run_base_to_novel(tiny(out=str(tmp_path / "r"),
                                    strategy="confidence"))
    names = [row[0] for row in report["rows"]]
    assert names == ["global-branch", "confidence"]


def test_lr_zero_keeps_untrained_accuracy(tmp_path):
    cfg = tiny(out=str(tmp_path / "r"), lr=0.0, epochs=1, shots=4)
    report = run_base_to_novel(cfg)
    mcfg = to_model_config(cfg)
    ds = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                          cfg.data_seed, cfg.family_offset)
    state = EncoderState.initialize(mcfg, seed=cfg.seed)
    prompts0 = PromptSet.initialize(mcfg, seed=cfg.seed + 1)
    from promptlab.datagen import select_classes
    # shots == per_class leaves nothing held out; eval covers the base split
    base_eval = select_classes(ds, ds.base_classes)
    names = [ds.class_names[c] for c in ds.base_classes]
    untrained = global_branch_accuracy(base_eval, names, prompts0, mcfg, state)
    assert report["rows"][0][1] == untrained


def test_runs_reproduce_byte_identically(tmp_path):
    # config.ini records its own out dir, so compare the measured outputs
    outputs = ("log.csv", "metrics.csv", "checkpoint.bin")
    a = run_base_to_novel(tiny(out=str(tmp_path / "a")))["out"]
    b = run_base_to_novel(tiny(out=str(tmp_path / "b")))["out"]
    for name in outputs:
        assert read(a / name) == read(b / name), name
    # third run driven by the snapshot itself
    snap = load_config(a / "config.ini")
    c = run_base_to_novel(replace(snap, out=str(tmp_path / "c")))["out"]
    for name in ("log.csv", "metrics.csv", "checkpoint.bin"):
        assert read(a / name) == read(c / name), name


# ------------------------------------------------------------ cross-dataset

def test_cross_dataset_rows_and_identity(tmp_path):
    cfg = tiny(out=str(tmp_path / "x"), targets=(0, 5, 6),
               target_family_offset=0)
    report = run_cross_dataset(cfg)
    rows = report["rows"]
    assert [r[0] for r in rows] == ["source", "target", "target", "target"]
    # target seed == source seed with the same offset: same numbers
    assert rows[1][3] == rows[0][3]
    assert (report["out"] / "checkpoint.bin").is_file()


def test_cross_dataset_needs_targets(tmp_path):
    with pytest.raises(ConfigError, match="target"):
        run_cross_dataset(tiny(out=str(tmp_path / "x"), targets=()))


# ----------------------------------------------------------------- segment

def test_segment_outputs(tmp_path):
    cfg = tiny(out=str(tmp_path / "s"))
    report = run_segment(cfg)
    rows = report["rows"]
    tags = [r[0] for r in rows]
    tokens = [r[1] for r in rows]
    per_model = 1 + cfg.visual_prompt_len + 1   # CLS, VP:i..., GradCAM
    assert tags == ["untrained"] * per_model + ["trained"] * per_model
    assert tokens[:per_model] == ["CLS", "VP:0", "VP:1", "GradCAM"]
    for r in rows:
        for v in r[2:5]:
            assert 0.0 <= float(v) <= 1.0
    pgms = sorted(p.name for p in report["out"].glob("*.pgm"))
    assert len(pgms) == 6
    text = (report["out"] / "heatmap_trained_CLS.pgm").read_text()
    assert text.startswith("P2\n")


def test_segment_requires_gt_masks(tmp_path):
    cfg = tiny(out=str(tmp_path / "s"))
    ds = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                          cfg.data_seed)
    ds = replace(ds, gt_masks=None)
    with pytest.raises(ConfigError, match="gt masks"):
        run_segment(cfg, dataset=ds)


def test_segment_reproducible(tmp_path):
    a = run_segment(tiny(out=str(tmp_path / "a")))["out"]
    b = run_segment(tiny(out=str(tmp_path / "b")))["out"]
    assert read(a / "segmentation.csv") == read(b / "segmentation.csv")


# ------------------------------------------------------------------ ablate

def test_ablate_depth_sweep(tmp_path):
    report = run_ablate(tiny(out=str(tmp_path / "d"), ablate_axis="depth"))
    rows = report["rows"]
    assert [(r[0], r[1]) for r in rows] == [("depth", "1"), ("depth", "2")]
    assert (report["out"] / "ablation.csv").is_file()


def test_ablate_length_sweep_includes_zero(tmp_path):
    report = run_ablate(tiny(out=str(tmp_path / "l"), ablate_axis="length",
                             ablate_values=("0", "2")))
    assert [r[1] for r in report["rows"]] == ["0", "2"]


def test_ablate_loss_axis(tmp_path):
    report = run_ablate(tiny(out=str(tmp_path / "lo"), ablate_axis="loss",
                             ablate_values=("full", "no-aug")))
    assert [r[1] for r in report["rows"]] == ["full", "no-aug"]


def test_ablate_ensemble_axis_trains_once(tmp_path, monkeypatch):
    calls = []
    real = cli.train

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "train", counting)
    report = run_ablate(tiny(out=str(tmp_path / "e"), ablate_axis="ensemble"))
    assert [r[1] for r in report["rows"]] == list(cli.STRATEGIES)
    assert len(calls) == 1      # deterministic retrains are shared


NOTE = ("note: no held-out base rows (shots == per_class); base accuracy "
        "is scored on the training rows\n")


def test_training_row_fallback_is_noted_on_stderr(tmp_path, capsys):
    run_base_to_novel(tiny(out=str(tmp_path / "held")))
    run_segment(tiny(out=str(tmp_path / "seg"), epochs=1))
    assert "note:" not in capsys.readouterr().err
    full = dict(shots=4, per_class=4)
    run_base_to_novel(tiny(out=str(tmp_path / "b2n"), **full))
    assert capsys.readouterr().err == NOTE
    run_segment(tiny(out=str(tmp_path / "s"), epochs=1, **full))
    assert capsys.readouterr().err == NOTE
    run_ablate(tiny(out=str(tmp_path / "abl"), ablate_axis="depth", **full))
    assert capsys.readouterr().err == NOTE      # once for the whole sweep


def test_ablate_rejects_illegal_values(tmp_path):
    with pytest.raises(ConfigError, match="outside"):
        run_ablate(tiny(ablate_axis="depth", ablate_values=("5",)))
    with pytest.raises(ConfigError, match="loss variant"):
        run_ablate(tiny(ablate_axis="loss", ablate_values=("nonsense",)))
    with pytest.raises(ConfigError, match="bad depth"):
        run_ablate(tiny(ablate_axis="depth", ablate_values=("two",)))


# -------------------------------------------------------------- entry point

def write_tiny_ini(tmp_path, **over):
    path = tmp_path / "exp.ini"
    save_config(tiny(**over), path)
    return str(path)


def test_main_success_and_outputs(tmp_path):
    ini = write_tiny_ini(tmp_path)
    code = main(["train", "--config", ini, "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_main_flag_overrides(tmp_path):
    ini = write_tiny_ini(tmp_path)
    out = tmp_path / "o2"
    assert main(["train", "--config", ini, "--out", str(out),
                 "--strategy", "equal", "--seed", "1"]) == 0
    snap = load_config(out / "config.ini")
    assert snap.seed == 1 and snap.strategy == "equal"
    assert snap.protocol == "base-to-novel"


def test_main_validation_failures_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["train", "--config", str(tmp_path / "nope.ini")]) == 1
    assert main(["train", "--bogus-flag"]) == 1
    bad = write_tiny_ini(tmp_path, shots=9)
    assert main(["train", "--config", bad]) == 1
    ini = write_tiny_ini(tmp_path)
    assert main(["train", "--config", ini, "--strategy", "median"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_runtime_failures_exit_2(tmp_path, monkeypatch):
    def boom(cfg):
        raise ValueError("diverged")
    monkeypatch.setitem(cli.RUNNERS, "base-to-novel", boom)
    ini = write_tiny_ini(tmp_path)
    assert main(["train", "--config", ini]) == 2


def test_main_runtime_error_names_type_and_innermost_frame(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    import promptlab.autodiff as ad
    import promptlab.tuning as tuning
    ini = write_tiny_ini(tmp_path)

    def diverging_step(*args, **kw):      # not a promptlab frame
        raise ValueError("diverged")

    monkeypatch.setattr(tuning, "train_step", diverging_step)
    assert main(["train", "--config", ini, "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err == (
        "runtime error: diverged (ValueError in promptlab.tuning.train)\n")
    monkeypatch.undo()

    real_backward = ad.backward

    def nan_backward(output):
        record = real_backward(output)
        for t in record:                  # poison the leaves' gradients
            for leaf in t.node.inputs:
                if leaf.grad is not None:
                    leaf.grad[...] = np.nan
        return record

    monkeypatch.setattr(ad, "backward", nan_backward)
    assert main(["train", "--config", ini, "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: non-finite gradient in ")
    assert err.endswith(" (ValueError in promptlab.tuning.train_step)\n")


def test_main_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
