"""Config plumbing, protocol runners, exit codes, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptlab import cli
from promptlab.cli import (ConfigError, ExperimentConfig, load_config, main,
                           reference_config, run_ablate, run_base_to_novel,
                           run_cross_dataset, run_segment, save_config,
                           to_model_config, validate)
from promptlab.datagen import (VOCAB, generate_dataset, load_checkpoint,
                               save_checkpoint)
from promptlab.encoders import EncoderState, ModelConfig, PromptSet
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
        "n.ini": ("[model]\ntemperature = nan\n", "bad value for temperature"),
        "i.ini": ("[train]\nlr = inf\n", "bad value for lr"),
        "m.ini": ("[model]\ntext_consistency_weight = -inf\n",
                  "bad value for text_consistency_weight"),
        "o.ini": ("[train]\nlr = 1e999\n", "bad value for lr"),
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
    assert mcfg.patch_grid == 2
    assert to_model_config(tiny(prompt_depth=1)).prompt_depth == 1


def test_to_model_config_carries_every_shared_field():
    over = dict(visual_width=12, text_width=12, shared_width=6, depth=5,
                heads=3, patch_grid=2, image_size=10, prompt_depth=4,
                temperature=0.2, mask_prompts=False,
                text_consistency_weight=1.5, image_consistency_weight=2.5,
                visual_prompt_len=5, text_prompt_len=3)
    shared = ({f.name for f in fields(ModelConfig)}
              & {f.name for f in fields(ExperimentConfig)})
    assert set(over) == shared
    mcfg = to_model_config(replace(ExperimentConfig(), **over))
    for name, value in over.items():
        assert getattr(ExperimentConfig(), name) != value, name
        assert getattr(ModelConfig(), name) != value, name
        assert getattr(mcfg, name) == value, name


@settings(max_examples=40, deadline=None)
@given(heads=st.integers(1, 3), dv=st.integers(1, 4), dt=st.integers(1, 4),
       shared=st.integers(1, 5), depth=st.integers(1, 3),
       prompt_depth=st.integers(0, 3), grid=st.integers(1, 4),
       patch=st.integers(1, 3), visual=st.integers(0, 3),
       text=st.integers(0, 3), mask=st.booleans(),
       temperature=st.floats(1e-3, 10.0),
       weights=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
def test_model_config_round_trips_through_a_checkpoint(
        tmp_path_factory, heads, dv, dt, shared, depth, prompt_depth, grid,
        patch, visual, text, mask, temperature, weights):
    cfg = tiny(visual_width=heads * dv, text_width=heads * dt,
               shared_width=shared, depth=depth, heads=heads,
               prompt_depth=min(prompt_depth, depth), patch_grid=grid,
               image_size=grid * max(patch, -(-8 // grid)),
               visual_prompt_len=visual, text_prompt_len=text,
               mask_prompts=mask, temperature=temperature,
               text_consistency_weight=weights[0],
               image_consistency_weight=weights[1])
    validate(cfg)
    mcfg = to_model_config(cfg)
    assert mcfg.prompt_depth == (cfg.prompt_depth or depth)
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
    save_checkpoint(path, mcfg, EncoderState.initialize(mcfg, seed=0),
                    PromptSet.initialize(mcfg, seed=0))
    assert load_checkpoint(path)[0] == mcfg


# float key -> (lower bound, whether the bound itself is valid)
FLOAT_RANGES = {"lr": (0.0, True), "temperature": (0.0, False),
                "text_consistency_weight": (0.0, True),
                "image_consistency_weight": (0.0, True)}


def test_float_ranges_cover_every_float_key():
    assert sorted(FLOAT_RANGES) == sorted(
        f.name for f in fields(ExperimentConfig) if f.type == "float")


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(FLOAT_RANGES)),
       value=st.one_of(st.floats(), st.sampled_from(
           [0.0, -0.0, float("nan"), float("inf"), float("-inf")])))
def test_validate_rejects_exactly_non_finite_or_out_of_range_floats(key,
                                                                     value):
    low, closed = FLOAT_RANGES[key]
    valid = np.isfinite(value) and (value >= low if closed else value > low)
    cfg = tiny(**{key: value})
    if valid:
        validate(cfg)
    else:
        with pytest.raises(ConfigError, match=key):
            validate(cfg)


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


def test_cross_dataset_multi_step_epochs_reproduce_byte_identically(tmp_path):
    # batch 3 of 4 training rows: two steps per epoch, so each base_accuracy
    # but the last joins a step's count with a standalone pass
    runs = [run_cross_dataset(tiny(out=str(tmp_path / k), targets=(5,),
                                   batch_size=3, epochs=3)) for k in "ab"]
    assert runs[0]["result"].steps == 6
    for name in ("log.csv", "metrics.csv", "checkpoint.bin"):
        assert read(runs[0]["out"] / name) == read(runs[1]["out"] / name), name


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


def test_segment_reproducible(tmp_path):
    a = run_segment(tiny(out=str(tmp_path / "a")))["out"]
    b = run_segment(tiny(out=str(tmp_path / "b")))["out"]
    assert read(a / "segmentation.csv") == read(b / "segmentation.csv")


def test_segment_encodes_each_image_once_per_prompt_state(tmp_path,
                                                         monkeypatch):
    # after train(), every token's map of an image reads one encode's
    # final-layer attention, GradCAM encodes on its own, and the promptless
    # text rows are encoded once for both prompt states' banks
    import promptlab.encoders as enc
    import promptlab.evalkit as evalkit
    import promptlab.tuning as tuning
    real_train = cli.train
    real_image, real_text = enc.encode_image_prompted, enc.encode_text_prompted
    trained, images, texts = [], [], []

    def marking_train(*args, **kw):
        result = real_train(*args, **kw)
        trained.append(1)
        return result

    def counting_image(*args, **kw):
        if trained:
            images.append(1)
        return real_image(*args, **kw)

    def counting_text(ids, prompts, *args, **kw):
        if trained:
            texts.append(not prompts.visual and not prompts.textual)
        return real_text(ids, prompts, *args, **kw)

    monkeypatch.setattr(cli, "train", marking_train)
    for module in (enc, cli, evalkit, tuning):
        if hasattr(module, "encode_image_prompted"):
            monkeypatch.setattr(module, "encode_image_prompted",
                                counting_image)
    monkeypatch.setattr(tuning, "encode_text_prompted", counting_text)
    cfg = replace(reference_config(), epochs=1, out=str(tmp_path / "s"))
    report = run_segment(cfg)
    n_eval = cfg.per_class * 2 - cfg.shots * 2      # held-out base rows
    assert n_eval == 32
    assert len(report["rows"]) == 2 * (1 + cfg.visual_prompt_len + 1)
    # 2 prompt states x 32 images x (one attention encode + GradCAM's)
    assert len(images) == 2 * n_eval * 2 == 128
    # 2 base classes: prompted rows per state, promptless rows once
    assert len(texts) == 6 and sum(texts) == 2


def test_segment_attention_maps_equal_extract_attention_map(tmp_path):
    from promptlab.evalkit import extract_attention_map
    cfg = tiny(out=str(tmp_path / "s"), epochs=1)
    report = run_segment(cfg)
    mcfg = to_model_config(cfg)
    ds = generate_dataset(cfg.n_classes, cfg.per_class, cfg.image_size,
                          cfg.data_seed, cfg.family_offset)
    state = EncoderState.initialize(mcfg, seed=cfg.seed)
    prompts0 = PromptSet.initialize(mcfg, seed=cfg.seed + 1)
    (_, eval_set), _ = cli._splits(ds, cli.sample_few_shot(
        ds, cfg.shots, ds.base_classes, seed=cfg.data_seed))
    gts = ds.gt_masks[eval_set.indices]
    for prompts, tag in ((prompts0, "untrained"),
                         (report["result"].prompts, "trained")):
        want = {}
        for token in ["CLS"] + [f"VP:{i}" for i in range(2)]:
            grids = [extract_attention_map(img, prompts, mcfg, state, token)
                     for img in eval_set.images]
            agg = cli.mean_metrics(cli.segmentation_metrics(
                cli.upsample_nearest(g, cfg.image_size),
                cli.binarize_map(g, cfg.image_size), gt)
                for g, gt in zip(grids, gts))
            mass = float(np.mean([cli.foreground_mass(g, gt)
                                  for g, gt in zip(grids, gts)]))
            want[token] = [agg.pix_acc, agg.m_iou, agg.m_ap, mass]
        got = {r[1]: r[2:] for r in report["rows"] if r[0] == tag}
        for token, values in want.items():
            assert got[token] == values, (tag, token)


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


def test_base_to_novel_encodes_each_split_bank_once(tmp_path, monkeypatch):
    # after train(), each split's prompted and vanilla rows are encoded once
    # and shared by the global-branch accuracy and every strategy's score
    import promptlab.tuning as tuning
    real_train, real_encode = cli.train, tuning.encode_text_prompted
    trained, encodes = [], []

    def marking_train(*args, **kw):
        result = real_train(*args, **kw)
        trained.append(1)
        return result

    def counting_encode(*args, **kw):
        if trained:
            encodes.append(1)
        return real_encode(*args, **kw)

    monkeypatch.setattr(cli, "train", marking_train)
    monkeypatch.setattr(tuning, "encode_text_prompted", counting_encode)
    report = run_base_to_novel(tiny(out=str(tmp_path / "b"), n_classes=4,
                                    epochs=1))
    assert len(report["rows"]) == 1 + len(cli.STRATEGIES)
    assert len(encodes) == 2 * 4       # 4 classes, prompted and vanilla


def test_score_runs_one_forward_per_chunk_for_every_strategy(monkeypatch):
    import promptlab.ensemble as ens
    from promptlab.datagen import select_classes
    cfg = tiny(per_class=10)
    mcfg = to_model_config(cfg)
    ds = generate_dataset(2, 10, cfg.image_size, 0)
    split = (ds.class_names, select_classes(ds, (0, 1)))
    assert len(split[1]) == 20
    state = EncoderState.initialize(mcfg, seed=0)
    prompts = PromptSet.initialize(mcfg, seed=1)
    one_by_one = [cli._score(split, prompts, mcfg, state, (s,))[0]
                  for s in cli.STRATEGIES]
    real, calls = ens.forward_three_branch, []

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(ens, "forward_three_branch", counting)
    scores = cli._score(split, prompts, mcfg, state, cli.STRATEGIES)
    assert len(calls) == 3                 # ceil(20 / EVAL_CHUNK) chunks
    assert scores == one_by_one


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
    # a swept value is parsed and checked like the INI key its axis sets
    out = tmp_path / "out"
    for axis, value, match in [
            ("depth", "5", "prompt_depth"), ("depth", "0", "outside"),
            ("depth", "two", "bad value for prompt_depth"),
            ("loss", "nonsense", "loss variant"),
            ("length", "-1", "visual_prompt_len"),
            ("length", "x", "bad value for visual_prompt_len"),
            ("ensemble", "median", "unknown ensemble strategy")]:
        with pytest.raises(ConfigError, match=match):
            run_ablate(tiny(out=str(out), ablate_axis=axis,
                            ablate_values=(value,)))
    assert not out.exists()


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
    nan = write_tiny_ini(tmp_path, temperature=float("nan"))
    out = tmp_path / "nan_out"
    assert main(["train", "--config", nan, "--out", str(out)]) == 1
    assert "bad value for temperature" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["threshold:abc", "threshold:"])
def test_main_bad_threshold_exits_1_naming_the_strategy(tmp_path, capsys,
                                                        strategy):
    ini = write_tiny_ini(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", ini, "--out", str(out),
                 "--strategy", strategy]) == 1
    assert capsys.readouterr().err == (
        f"error: ensemble strategy {strategy!r}: theta must be a number in "
        f"(0, 1)\n")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("heads", 0), ("heads", -4),
                                       ("patch_grid", 0)])
def test_main_rejects_nonpositive_heads_and_grid(tmp_path, capsys, key,
                                                 value):
    ini = write_tiny_ini(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["train", "--config", ini, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("data_seed", -1), ("targets", (7, -2)), ("image_size", 4),
    ("shared_width", 0), ("visual_width", 0), ("text_width", 0), ("depth", 0)])
def test_main_rejects_values_that_would_fail_at_run_time(tmp_path, capsys,
                                                         key, value):
    ini = write_tiny_ini(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["eval", "--config", ini, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not out.exists()


@pytest.mark.parametrize("command,protocol", [("train", "cross-dataset"),
                                              ("segment", "magic")])
def test_main_rejects_the_protocol_key(tmp_path, capsys, command, protocol):
    # the subcommand alone picks the protocol
    ini = Path(write_tiny_ini(tmp_path))
    ini.write_text(ini.read_text() + f"protocol = {protocol}\n")  # in [run]
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: unknown config key [run] protocol\n"
    assert not out.exists()


LONG_SWEEP = "[run]\nablate_axis = length\nablate_values = 100000\n"


@pytest.mark.parametrize("command,key,value,text", [
    pytest.param("train", "visual_prompt_len", 100000, None,
                 id="visual_prompt_len-100000"),
    pytest.param("train", "text_prompt_len", 1000000, None,
                 id="text_prompt_len-1000000"),
    pytest.param("ablate", "visual_prompt_len", 100000, LONG_SWEEP,
                 id="ablate-visual_prompt_len-100000")])
def test_main_rejects_prompts_too_long_for_physical_memory(tmp_path, command,
                                                           key, value, text):
    # a child process under a 1 GiB address-space limit, so a run that got
    # past validation would fail fast rather than exhaust the machine; an
    # ablate sweep value is checked like its INI key
    ini = tmp_path / "big.ini"
    ini.write_text(text or f"[model]\n{key} = {value}\n")
    out = tmp_path / "out"
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from promptlab.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", child, command, "--config", str(ini), "--out",
         str(out)], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 1, done.stderr[-2000:]
    assert done.stderr.startswith(f"error: {key} = {value} needs ")
    assert done.stderr.endswith(" GiB of physical memory\n")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("lr", 1e300), ("temperature", 1e-300)])
def test_main_overflow_exits_2_naming_epoch_and_step(tmp_path, key, value):
    ini = tmp_path / "exp.ini"
    save_config(replace(reference_config(), epochs=3, **{key: value}), ini)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "promptlab.cli", "train", "--config", str(ini),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 2
    assert done.stderr == (
        "runtime error: overflow encountered in square at epoch 1, step 1 "
        "(FloatingPointError in promptlab.autodiff.layer_norm)\n")


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


def test_outputs_are_byte_identical_across_blas_thread_counts(tmp_path):
    # OpenBLAS reads its thread count once, at import, so each count needs
    # its own process; the environment is set for the children only
    ini = tmp_path / "ref.ini"
    save_config(replace(reference_config(), epochs=3), ini)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "promptlab.cli", "train", "--config",
             str(ini), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        outs.append(out)
    for name in ("log.csv", "metrics.csv", "checkpoint.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
            name


STEP_FAULTS = """
import resource, statistics, sys
from dataclasses import replace
from promptlab import cli, tuning

real_step, faults = tuning.train_step, []

def counted_step(*args, **kw):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = real_step(*args, **kw)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out

tuning.train_step = counted_step
cli.save_config(replace(cli.reference_config(), epochs=8), sys.argv[1])
code = cli.main(["train", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, statistics.median(faults[2:]))
"""


def _has_mallopt() -> bool:
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_main_keeps_freed_step_arrays_in_the_heap(tmp_path):
    # a fresh process, so the heap policy is the CLI's alone: without it a
    # reference step faults over 2,000 freed pages back in
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", STEP_FAULTS, str(tmp_path / "ref.ini"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    code, median = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert float(median) <= 64


@pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
def test_main_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch, libc):
    import ctypes

    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    ini = write_tiny_ini(tmp_path)
    assert main(["train", "--config", ini, "--out", str(tmp_path / "o")]) == 0


def test_main_help_exits_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0


def test_import_promptlab_leaves_the_cli_and_its_modules_unloaded():
    # the benchmark's set-up time is this import, numpy already loaded
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
             "before = set(sys.modules); import promptlab; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = set(done.stdout.split())
    assert "promptlab" in added and "promptlab.ensemble" in added
    for name in ("promptlab.cli", "argparse", "configparser", "traceback"):
        assert name not in added, name
