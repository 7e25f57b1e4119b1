"""Every function the benchmark's traced run wraps exists in the package.

``benchmarks/tracer.py`` names its targets by string, so a rename under
``src/`` would otherwise only surface in a ``--trace 1`` run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
_tracer = runpy.run_path(str(TRACER))   # compiles in memory; writes nothing

TARGETS = sorted({t for ts in _tracer["LAYER_SPANS"].values() for t in ts}
                 | {f"autodiff.{n}" for n in _tracer["OP_PRIMITIVES"]})


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(".")
    owner = importlib.import_module(f"{_tracer['PACKAGE']}.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
