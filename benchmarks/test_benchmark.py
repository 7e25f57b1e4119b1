"""Checks on the benchmark itself.

    python3 -m pytest benchmarks

A wrong recorded output must count as a failed check, and a wrapped
function the traced run cannot see must be reported instead of silently
reading zero.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import pytest

from program import ROOT, load_program

load_program()

from promptlab import autodiff as ad  # noqa: E402
from promptlab import cli, tuning  # noqa: E402
from promptlab.encoders import EncoderState, PromptSet  # noqa: E402
from tracer import Tracer, census  # noqa: E402
from workloads import EXPECTED, WORKLOADS, Checker  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    return json.loads(EXPECTED.read_text())["sets"]


@pytest.fixture
def workdir():
    path = ROOT / ".bench_out" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _wrong(name: str, record: dict) -> dict:
    """The record with one output deliberately changed."""
    wrong = copy.deepcopy(record)
    if name == "train":
        wrong["log.csv"][1][1] *= 1.0 + 1e-6       # epoch 0 loss_total
    elif name == "infer":
        key = "base-to-novel/base/equal"
        flipped = "1" if wrong[key][0] == "0" else "0"
        wrong[key] = flipped + wrong[key][1:]
    else:
        wrong["CLS"][0] *= 1.0 + 1e-6               # pixel accuracy
    return wrong


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_recorded_output_is_counted_as_failure(name, recorded,
                                                     workdir):
    workload = WORKLOADS[name](0, workdir)
    right, wrong = Checker(recorded[name]["0"]), Checker(
        _wrong(name, recorded[name]["0"]))
    try:
        workload.setup()
        workload.iterate(right)
        workload.iterate(wrong)
    finally:
        workload.close()
    assert right.attempted > 0 and right.failed == 0
    assert wrong.attempted == right.attempted
    assert wrong.failed / wrong.attempted > 0


def test_census_counts_nodes_by_op_name():
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.tsum(a * a + a)
    assert census([loss]) == {"mul": 1, "add": 1, "sum": 1}


def test_call_through_hidden_reference_is_reported_idle():
    mcfg = cli.to_model_config(cli.reference_config())
    state = EncoderState.initialize(mcfg, seed=0)
    prompts = PromptSet.initialize(mcfg, seed=1)
    hidden = tuning.build_text_bank   # a reference no module binding holds
    original_runner = cli.RUNNERS["base-to-novel"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.RUNNERS["base-to-novel"] is not original_runner
        hidden(["square", "ring"], prompts, mcfg, state)
    finally:
        tracer.uninstall()
    assert cli.RUNNERS["base-to-novel"] is original_runner
    assert tuning.build_text_bank is hidden
    idle = tracer.idle_targets(frozenset())
    assert "tuning.build_text_bank" in idle
    assert "encoders.encode_text_prompted" not in idle
