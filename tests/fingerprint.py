"""The verdict fingerprint of the shipped runs: write or recompute it.

Run from the repository root to rewrite ``tests/fingerprint.json``:

    PYTHONPATH=src python tests/fingerprint.py

Each run goes through ``markov_holdout.cli.main`` in this process, with
``--threads 1`` for ``verify``: a row does not depend on the thread count.
A run's entry holds its exit code and every leaf of its artifacts, keyed by
path (``report.json/tails/12/verdict``).  JSON artifacts are read back as
written; CSV cells are parsed to float, bool, None or text; ``trajectory.csv``
is kept as its SHA-256 digest.  ``report.csv`` is left out because its rows
are ``report.json``'s tails, and ``manifest.json`` because it carries the
run's timestamp.  :func:`differences` compares floats to a relative 1e-12
with an absolute floor of 1e-15, which the last bits a BLAS kernel choice
moves stay inside, and every other leaf exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from markov_holdout.cli import main

ROOT = Path(__file__).resolve().parent.parent
FILE = Path(__file__).resolve().parent / "fingerprint.json"
REL_TOL = 1e-12
ABS_TOL = 1e-15
_SEED = ("--seed", "20260825")

# each run's CLI arguments, config paths relative to the repository root
RUNS = (
    ("verify", "benchmarks/workloads/verify-cond-s16.json", *_SEED),
    ("verify", "benchmarks/workloads/verify-marg-s16.json", *_SEED),
    ("verify", "benchmarks/workloads/verify-cond-s1024.json", *_SEED),
    ("verify", "configs/verify_two_state.json"),
    ("diagnose", "configs/two_state.json"),
    ("noise", "configs/order2_binary.json"),
    ("bounds", "configs/bounds_grid.json"),
    ("simulate", "configs/two_state.json", "--seed", "7"),
)
_SKIPPED = ("manifest.json", "report.csv")


def _leaves(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}/{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _leaves(item, f"{path}/{i}", out)
    else:
        out[path] = value


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return {"": None, "true": True, "false": False}.get(text, text)


def _artifact(path: Path):
    if path.name == "trajectory.csv":
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [{key: _cell(text) for key, text in row.items()}
                for row in csv.DictReader(fh)]


def run_entry(argv: tuple[str, ...]) -> dict:
    """Exit code and artifact leaves of one run of ``markov-holdout``."""
    command, config, *flags = argv
    if command == "verify":
        flags += ["--threads", "1"]
    with tempfile.TemporaryDirectory() as out:
        code = main([command, "--config", str(ROOT / config), "--out", out,
                     "--quiet", *flags])
        values = {}
        for path in sorted(Path(out).iterdir()):
            if path.name not in _SKIPPED:
                _leaves(_artifact(path), path.name, values)
    return {"exit_code": code, "values": values}


def compute() -> dict:
    return {" ".join(argv): run_entry(argv) for argv in RUNS}


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                or (math.isnan(a) and math.isnan(b)))
    return a == b


def differences(expected: dict, got: dict) -> list[str]:
    """One line per leaf, exit code or run that differs."""
    lines = [f"run {run}: {'missing' if run in expected else 'extra'}"
             for run in expected.keys() ^ got.keys()]
    for run in expected.keys() & got.keys():
        want, have = expected[run], got[run]
        if want["exit_code"] != have["exit_code"]:
            lines.append(f"{run}: exit code {want['exit_code']} -> "
                         f"{have['exit_code']}")
        for path in want["values"].keys() | have["values"].keys():
            a = want["values"].get(path, "<missing>")
            b = have["values"].get(path, "<missing>")
            if not _same(a, b):
                lines.append(f"{run}: {path} {a!r} -> {b!r}")
    return sorted(lines)


if __name__ == "__main__":
    FILE.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {FILE}", file=sys.stderr)
