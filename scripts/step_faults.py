"""Minor page faults and CPU time per unit of one benchmark workload.

Usage: python3 scripts/step_faults.py <checkout> --workload W [--seed N]

Builds workload W of ``<checkout>/benchmarks/workloads.py`` (which it only
reads) on ``<checkout>/src``, runs one warm iteration, then 3 timed ones,
and prints per unit (a train step, or an image) the minor page faults and
the user and system CPU milliseconds of this process, from
``resource.getrusage`` around each timed iteration.  Every output is
checked against the checkout's ``benchmarks/expected.json`` as in
``benchmarks/run.py``.  The benchmark's trace times Python calls; faults
and system time are spent in the kernel, so only this shows them.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

TIMED = 3


def usage() -> tuple:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, 1e3 * ru.ru_utime, 1e3 * ru.ru_stime


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "segment"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "benchmarks"), str(root / "src")]
    from workloads import EXPECTED, WORKLOADS, Checker, input_set

    k = input_set(args.seed)
    expected = json.loads(EXPECTED.read_text())["sets"][args.workload][str(k)]
    checker = Checker(expected)
    workdir = Path(tempfile.mkdtemp(prefix="step_faults-"))
    workload = WORKLOADS[args.workload](k, workdir)
    try:
        workload.setup()
        workload.iterate(checker)
        units, before = workload.units, usage()
        for _ in range(TIMED):
            workload.iterate(checker)
        after = usage()
        units = workload.units - units
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    faults, user_ms, sys_ms = (b - a for a, b in zip(before, after))
    print(f"{args.workload} ({root}): {faults / units:.4g} minor faults, "
          f"{user_ms / units:.2f} user ms, {sys_ms / units:.2f} system ms "
          f"per {workload.unit} over {units} {workload.unit}s; "
          f"{checker.failed} of {checker.attempted} checks failed")
    return 1 if checker.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
