"""promptlab benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload train|infer|segment --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program measured is always ``<checkout>/src``.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the environment manifest.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run plus the
tracing overhead (traced minus untraced).  See README.md in this
directory for what every metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from program import ROOT, SRC, ProgramMissing, load_program
from tracer import Tracer

SETUP_REPEATS = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import numpy; t = time.perf_counter(); import promptlab; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "segment"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """``import promptlab`` in a fresh interpreter (numpy already loaded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(workload) -> float:
    """One set-up: import time plus the workload's own set-up."""
    imported = import_seconds()
    start = perf_counter()
    workload.setup()
    return imported + perf_counter() - start


def measure(workload, checker, seconds: float) -> float:
    """Iterate for ``seconds`` of iteration time; return the median set-up.

    The set-ups are spread evenly over the run, so the set-up time sees the
    same spells of host speed as the iterations.  Each iteration starts from
    a collected heap, as a fresh ``promptlab`` process would, so the cyclic
    garbage of one iteration is not timed in the next.
    """
    workload.reset()
    setups = [timed_setup(workload)]
    busy = 0.0
    while busy < seconds:
        while busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(timed_setup(workload))
        gc.collect()
        start = perf_counter()
        workload.iterate(checker)
        busy += perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload))
    return statistics.median(setups)


def end_to_end(workload, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "images_per_s": statistics.median(workload.rates),
        "op_ms.p50": statistics.median(workload.op_ms),
        "op_ms.tail": float(np.percentile(workload.op_ms, workload.tail_pct)),
    }


UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "images_per_s": "images/s",
         "op_ms.p50": "ms", "op_ms.tail": "ms"}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def traced(workload, checker, seconds: float) -> dict:
    """Untraced then traced halves; per-layer metrics plus overhead."""
    plain = end_to_end(workload, measure(workload, checker, seconds / 2))

    tracer = Tracer()
    tracer.install()
    try:
        traced_setup = measure(workload, checker, seconds / 2)
    finally:
        tracer.uninstall()
    with_trace = end_to_end(workload, traced_setup)
    idle = tracer.idle_targets(workload.idle)
    if idle:
        raise RuntimeError("traced run: no calls recorded by "
                           + ", ".join(idle))
    steps = workload.units if workload.unit == "step" else 0
    images = workload.units if workload.unit == "image" else 0
    metrics = tracer.metrics(steps=steps, images=images)
    for name in UNITS:
        metrics[f"trace_overhead.{name}"] = with_trace[name] - plain[name]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{workload.name}-{workload.k}.json").write_text(
        json.dumps({"metrics": metrics, "untraced": plain,
                    "traced": with_trace, **tracer.summary()}, indent=1))
    return metrics


def manifest(args, workload) -> dict:
    from workloads import input_set
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "input_set": input_set(args.seed), "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "unit": workload.unit,
        "tail_percentile": workload.tail_pct,
        "samples": len(workload.op_ms), "iterations": len(workload.rates),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _source_digest() -> str:
    """Digest of the measured sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "promptlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from workloads import EXPECTED, TRAIN_EPOCHS, WORKLOADS, Checker, input_set

    expected = json.loads(EXPECTED.read_text())
    if expected["train_epochs"] != TRAIN_EPOCHS:
        print(f"error: {EXPECTED.name} was recorded with another epoch count",
              file=sys.stderr)
        return 2
    k = input_set(args.seed)
    workdir = ROOT / ".bench_out" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](k, workdir)
    checker = Checker(expected["sets"][args.workload][str(k)])
    try:
        if args.trace:
            metrics = traced(workload, checker, args.seconds)
            units = per_layer_units()
        else:
            metrics = end_to_end(workload,
                                 measure(workload, checker, args.seconds))
            units = UNITS
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"manifest": manifest(args, workload)}))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
