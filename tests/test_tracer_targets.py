"""Every function the benchmark's traced run wraps exists in the package,
and each workload still calls every traced function it is expected to.

``benchmarks/tracer.py`` names its targets by string, and a traced run
fails when a wrapped function records no calls, so a rename or a dropped
call under ``src/`` would otherwise only surface in a ``--trace 1`` run.
"""

import importlib
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# run_path compiles in memory and writes no bytecode
_tracer = runpy.run_path(str(BENCHMARKS / "tracer.py"))
_workloads = runpy.run_path(str(BENCHMARKS / "workloads.py"))

TARGETS = sorted({t for ts in _tracer["LAYER_SPANS"].values() for t in ts}
                 | {f"autodiff.{n}" for n in _tracer["OP_PRIMITIVES"]})


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(".")
    owner = importlib.import_module(f"{_tracer['PACKAGE']}.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name", sorted(_workloads["WORKLOADS"]))
def test_traced_workload_calls_every_expected_target(name, tmp_path):
    workload = _workloads["WORKLOADS"][name](0, tmp_path)
    if name == "train":
        workload.cfg = replace(workload.cfg, epochs=1)
    tracer = _tracer["Tracer"]()
    try:
        tracer.install()
        try:
            workload.setup()
            workload.iterate(_workloads["Checker"]())
        finally:
            tracer.uninstall()
    finally:
        workload.close()     # Train patches tuning.train_step
    assert tracer.idle_targets(workload.idle) == []
