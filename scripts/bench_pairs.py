"""Run alternating parent/change pairs of the benchmark and summarize them.

Usage: python3 scripts/bench_pairs.py <parent-checkout> <change-checkout> \
           --workload W --pairs N --out BENCH_n.json

Pair i runs ``benchmarks/run.py --workload W --seed i --trace 0`` in each
checkout, one process at a time, for the ``run_seconds`` of the parent's
``BENCHMARK.json``: at an even seed the parent runs first, at an odd seed
the change.  Each run's manifest line and result line are kept unedited,
with its exit status and standard error.  The workload's pairs and its
summary replace any earlier ones in ``--out``, so one file collects every
workload.  Per end-to-end metric of ``BENCHMARK.json`` the summary gives
both medians, the parent's interquartile range (``numpy.percentile``,
linear), the number of pairs in which the change was strictly better, and
``worse_by``: the share by which the change's median is worse than the
parent's (negative when it is better).  Takes about 2 x N x run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ORDER = ("pairs alternate: at an even seed the parent runs first, at an odd "
         "seed the change first; each pair's 'first' names it. Seeds run in "
         "turn, one process at a time.")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process: its manifest and result lines, parsed."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        manifest, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        manifest = result = None
    return {"manifest": manifest, "result": result,
            "exit": proc.returncode, "stderr": proc.stderr}


def _value(run: dict, metric: str):
    result = run["result"]
    if result is None or metric not in result.get("metrics", {}):
        return None
    return result["metrics"][metric]["value"]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Pair count, failures, correctness and per-metric comparison."""
    runs = [pair[side] for pair in pairs for side in ("parent", "change")]
    out = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["result"]["failed"] for p in pairs
                             if p[side]["result"] is not None)
                   for side in ("parent", "change")},
        "correct": all(r["exit"] == 0 and r["result"] is not None
                       and r["result"]["correct"] for r in runs),
    }
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(_value(p["parent"], name), _value(p["change"], name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        q1, q3 = np.percentile(parent, [25, 75])
        p_med, c_med = statistics.median(parent), statistics.median(change)
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        worse = (p_med - c_med) if higher else (c_med - p_med)
        out[name] = {
            "parent_median": round(p_med, 4),
            "parent_iqr": round(float(q3 - q1), 4),
            "change_median": round(c_med, 4),
            "change_better_in": f"{wins}/{len(pairs)}",
            "worse_by": round(worse / p_med, 4),
        }
    return out


def host(manifest: dict) -> str:
    m = manifest["manifest"]
    return (f"{m['nproc']}-core {m['cpu']}, Python {m['python']}, numpy "
            f"{m['numpy']}, {m['blas']} ({m['blas_threads']} threads)")


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer", "segment"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    pairs = []
    for seed in range(args.pairs):
        first = "parent" if seed % 2 == 0 else "change"
        pair = {"workload": args.workload, "seed": seed, "first": first}
        for side in (first, "change" if first == "parent" else "parent"):
            pair[side] = run_side(getattr(args, side), args.workload, seed,
                                  seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: parent exit "
              f"{pair['parent']['exit']}, change exit "
              f"{pair['change']['exit']}", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    manifests = [p[s]["manifest"] for p in pairs for s in ("parent", "change")
                 if p[s]["manifest"] is not None]
    doc.update({
        "what": "benchmarks/run.py output for every parent/change pair: each "
                "run's manifest line and result line, unedited; each side "
                "is named by its manifests' git_sha and src_sha256",
        "command": f"python3 benchmarks/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "order": ORDER,
        "host": host(manifests[0]) if manifests else doc.get("host"),
        "iqr": "linear-interpolated quartiles (numpy.percentile) of the "
               "parent's runs",
    })
    doc.setdefault("summary", {})[args.workload] = summarize(
        pairs, bench["end_to_end"])
    doc["pairs"] = [p for p in doc.get("pairs", [])
                    if p["workload"] != args.workload] + pairs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
