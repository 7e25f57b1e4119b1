"""Fingerprint every CLI output of a checkout on the reference preset.

Usage: python3 scripts/fingerprint_outputs.py <checkout>

Runs ``promptlab train``, ``eval``, ``segment`` and ``ablate`` (once per
ablation axis) with ``<checkout>/src`` first on the import path, each in
a fresh temporary directory, and prints ``<command>/<file> <sha256>`` for
every file a run writes and for its stdout and stderr.  Two checkouts
produce the same CLI outputs byte for byte exactly when their
fingerprints diff clean.  Each ``checkpoint.bin`` a run writes is also
loaded back with the checkout's ``load_checkpoint`` in a fresh process,
printing ``<command>/checkpoint.loaded <sha256>`` over the loaded config
(as sorted JSON), ``state.to_bytes()`` and ``prompts.to_bytes()``: the
model a checkpoint restores, whatever its file format.  The ablation
configs are the ``config.ini`` snapshot of the ``train`` run with only
``ablate_axis`` changed, so every run uses the reference preset.  Takes a
few minutes on two cores.
"""

import configparser
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

AXES = ("depth", "length", "loss", "ensemble")

LOAD = """
import dataclasses, hashlib, json, sys
from promptlab.datagen import load_checkpoint
cfg, state, prompts = load_checkpoint(sys.argv[1])
digest = hashlib.sha256(json.dumps(dataclasses.asdict(cfg),
                                   sort_keys=True).encode())
digest.update(state.to_bytes())
digest.update(prompts.to_bytes())
print(digest.hexdigest())
"""


def run(src: Path, work: Path, label: str, argv: list) -> None:
    """One CLI run in ``work/<label>``; prints its fingerprint lines."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "promptlab.cli", *argv,
                           "--out", label], cwd=work, env=env,
                          capture_output=True)
    print(f"{label}/exit {proc.returncode}")
    for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        print(f"{label}/{name} {hashlib.sha256(data).hexdigest()}")
    for path in sorted((work / label).iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{label}/{path.name} {digest}")
    checkpoint = work / label / "checkpoint.bin"
    if checkpoint.is_file():
        proc = subprocess.run([sys.executable, "-c", LOAD, str(checkpoint)],
                              env=env, capture_output=True)
        loaded = proc.stdout.decode().strip() if proc.returncode == 0 else \
            f"failed (exit {proc.returncode})"
        print(f"{label}/checkpoint.loaded {loaded}")
    sys.stdout.flush()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve() / "src"
    if not (src / "promptlab" / "cli.py").is_file():
        print(f"no src/promptlab/cli.py under {argv[0]}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for command in ("train", "eval", "segment"):
            run(src, work, command, [command])
        for axis in AXES:
            snapshot = configparser.ConfigParser()
            snapshot.read(work / "train" / "config.ini")
            snapshot["run"]["ablate_axis"] = axis
            ini = work / f"ablate-{axis}.ini"
            with open(ini, "w") as fh:
                snapshot.write(fh)
            run(src, work, f"ablate-{axis}", ["ablate", "--config", str(ini)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
