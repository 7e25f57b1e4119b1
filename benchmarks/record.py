"""Record the outputs every benchmark check compares against.

    python3 benchmarks/record.py

Runs one iteration of every workload on every input set and writes
``expected.json``.  Re-record only when a change to the program is meant
to change its outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from program import ROOT, load_program


def main() -> int:
    load_program()
    from workloads import EXPECTED, N_SETS, TRAIN_EPOCHS, WORKLOADS, Checker

    workdir = ROOT / ".bench_out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    sets = {}
    try:
        for name, cls in WORKLOADS.items():
            sets[name] = {}
            for k in range(N_SETS):
                workload = cls(k, workdir)
                try:
                    workload.setup()
                    checker = Checker()
                    workload.iterate(checker)
                finally:
                    workload.close()
                sets[name][str(k)] = checker.recorded
                print(f"recorded {name} input set {k}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per workload and input set keeps the file diffable
    body = ",\n".join(
        f' "{name}": {{\n'
        + ",\n".join(f'  "{k}": {json.dumps(rec)}' for k, rec in by_set.items())
        + "\n }" for name, by_set in sets.items())
    EXPECTED.write_text(
        f'{{"train_epochs": {TRAIN_EPOCHS}, "sets": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
