#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``markov-holdout verify``.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-cond-s16 --seed 7 \
        --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

A run writes the workload's config (``benchmarks/workloads/<name>.json``)
with the given seed, then launches processes one at a time (closed loop)
until ``--seconds`` have passed:

* ``--trace 0``: a set-up probe (``setup_probe.py``), an untraced
  ``python -m markov_holdout.cli verify`` run and the reference loop
  (``reference_s``) in turn.  Reports the end-to-end metrics in
  ``END_TO_END`` as medians over the run; the raw ``wall_s`` and
  ``steps_per_s`` are printed and written to the results file too.
  The run and its children are pinned to one CPU per pool worker.
* ``--trace 1``: untraced and traced (``traced_cli.py``) CLI runs in
  turn, all with ``threads`` = 1, so that the spans of the replication loop
  are in the traced process.  Reports the per-layer metrics in ``PER_LAYER``.

Every CLI run is checked by ``check_report``; exit code 2, a crash or a
failed check counts the run as failed.  Exit code 1 (a verdict) is not a
failure.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A results file with the environment and
every sample is written to ``.bench_out/results/``.

``--workload all`` runs every workload and adds a table with each
workload's end-to-end metrics, failed_ratio and verdicts.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 20260825
# One BLAS thread keeps pool workers x BLAS threads <= nproc for every
# workload on a 2-core machine and keeps the dense diagnostics' cost
# independent of how busy the other core is.
BLAS_THREADS = 1
MIN_RUNS = 3
RUN_TIMEOUT_S = 100.0  # a 60 s run plus one hung child stays under 180 s
REL_TOL = 1e-12
ARTIFACTS = ("report.json", "report.csv")

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.parse_s": "s",
    "chains.markovize_s": "s",
    "chains.is_primitive_s": "s",
    "chains.stationary_s": "s",
    "chains.mixing_time_s": "s",
    "chains.pseudo_spectral_gap_s": "s",
    "chains.gap_k_stop": "count",
    "chains.dense_matmul_flops": "flop",
    "sampling.calls": "count",
    "sampling.steps": "count",
    "sampling.busy_s": "s",
    "sampling.steps_per_s": "1/s",
    "predictors.erm_fit_calls": "count",
    "predictors.erm_fit_s": "s",
    "predictors.state_losses_s": "s",
    "harness.run_replications_s": "s",
    "harness.replicate_self_s": "s",
    "harness.event_table_calls": "count",
    "harness.verify_bounds_s": "s",
    "harness.cells": "count",
    "harness.informative_ratio": "ratio",
    "harness.oracle_gap_s": "s",
    "harness.coupling_check_s": "s",
    "harness.noise_check_s": "s",
    "bounds.evaluate_calls": "count",
    "bounds.evaluate_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Printed with --trace 0 and kept in the results file, but not gated: on a
# shared host the run medians of the raw times spread past the largest
# bound allowed (see README.md).
RAW = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_raw_s": "s",
    "reference_s": "s",
}

VERDICTS = ("dominated", "vacuous-bound", "VIOLATION")

REF_STATES = 16
REF_STEPS = 200_000
REF_PASSES = 20  # about 1 s per call on the machine of the baseline
# setup_s is the set-up time on a host where one reference_s call takes
# this long: the probe's time over the reference loop's, times this.
REF_NOMINAL_S = 1.0


def load_workloads() -> dict[str, dict]:
    """Workload name -> CLI config without a seed."""
    return {p.stem: json.loads(p.read_text())
            for p in sorted((BENCH / "workloads").glob("*.json"))}


def simulated_steps(config: dict) -> int:
    """Chain states the replications draw: R*m (conditional), R*(n+m)."""
    per_rep = config["m"]
    if config["mode"] == "marginal":
        per_rep += config["n"]
    return config["replications"] * per_rep


def _reference_rows() -> list[list[float]]:
    """Cumulative rows of a fixed random 16-state kernel."""
    rng = random.Random(0)
    rows = []
    for _ in range(REF_STATES):
        weights = [rng.random() for _ in range(REF_STATES)]
        total = sum(weights)
        cum = list(itertools.accumulate(w / total for w in weights))
        cum[-1] = 1.0
        rows.append(cum)
    return rows


def reference_s(cpus: list[int]) -> float:
    """Time a fixed pure-Python Markov walk in this process on ``cpus``.

    The loop has the shape of the sampler's (a uniform draw, a bisect on
    the rows of a 16-state kernel and a store per step) but is the
    benchmark's own code, so no change to the program moves it.  Its time
    follows the speed the shared host gives these CPUs at the moment;
    ``wall_rel`` divides each CLI run by it and ``setup_s`` each set-up
    probe.  The passes are shared out
    over ``cpus``, one CPU at a time, and the process is left pinned to
    all of them.  It allocates next to nothing and imports no numpy: the
    children's ``ru_maxrss`` starts from this process's resident size.
    """
    rows = _reference_rows()
    out = [0] * REF_STEPS
    elapsed = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        for _ in range(REF_PASSES // len(cpus)):
            draw = random.Random(0).random
            state = 0
            for i in range(REF_STEPS):
                state = bisect_right(rows[state], draw())
                out[i] = state
        elapsed += time.perf_counter() - start
    os.sched_setaffinity(0, cpus)
    return elapsed


def workload_cpus(config: dict) -> list[int]:
    """The CPUs a workload's runs are pinned to: one per pool worker.

    The CLI runs and the reference loop then see the same CPUs, whose
    speeds on a shared host differ and change independently.
    """
    return sorted(os.sched_getaffinity(0))[:max(1, config["threads"])]


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MARKOV_HOLDOUT_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Sample:
    """One child process: exit code, launch-to-exit time, peak RSS."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(cmd: list[str], log_path: Path) -> Sample:
    """Run ``cmd`` in its own process group and wait for it.

    Peak RSS is the child's ``ru_maxrss`` from ``wait4``, which includes
    the pool workers it waited for.  A run over ``RUN_TIMEOUT_S`` is killed.
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers a crashed run may have left behind
    return Sample(code=proc.returncode, wall_s=wall,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  stderr=log_path.read_text()[-2000:])


# ---------------------------------------------------------------------------
# Correctness gate


def extract(report: dict) -> dict:
    """The quantities of report.json that the reference pins.

    ``chain`` does not depend on the seed.  ``at_seed`` is the simulation
    at one seed.  ``verdicts`` are recorded but not compared, because the
    verdict rule is expected to change.
    """
    tails = report["tails"]
    diag = report["diagnostics"]
    return {
        "chain": {"states": diag["states"], "t_mix": diag["t_mix"],
                  "gamma_ps": diag["gamma_ps"], "k_stop": diag["k_stop"],
                  "cells": [[t["event_id"], t["epsilon"]] for t in tails]},
        "at_seed": {
            "tails": [[t["count"], t["trials"]] for t in tails],
            "exact_risk_mean": [c["exact_risk_mean"]
                                for c in report["candidates"]],
            "empirical_risk_mean": [c["empirical_risk_mean"]
                                    for c in report["candidates"]],
            "k_hat_frequency": report["selection"]["k_hat_frequency"]},
        "verdicts": {"labels": [t["verdict"] for t in tails],
                     **report["verdict_summary"]},
    }


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between two JSON values; floats to REL_TOL relative."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in mismatches(got[k], want[k],
                                                    f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in mismatches(g, w, f"{path}[{i}]")]
    if (isinstance(want, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in ARTIFACTS if (out_dir / name).exists()}


def check_report(config: dict, seed: int, code: int, artifacts: dict,
                 reference: dict | None) -> list[str]:
    """Problems with one verify run's artifacts; empty when it is correct.

    Checks that hold at every seed: the config echo, per-cell counts and
    Wilson inputs, report.csv against report.json, the verdict summary
    against the cells and the exit code, and the seed-independent
    diagnostics against the reference.  At the reference's seed the
    simulated quantities must also equal the recorded ones.
    """
    missing = [n for n in ARTIFACTS if n not in artifacts]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        report = json.loads(artifacts["report.json"])
        rows = list(csv.DictReader(io.StringIO(
            artifacts["report.csv"].decode())))
        return _check_fields(config, seed, code, report, rows, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed artifact: {exc!r}"]


def _check_fields(config: dict, seed: int, code: int, report: dict,
                  rows: list[dict], reference: dict | None) -> list[str]:
    problems = []
    echo = report["config"]
    for key in ("n", "m", "replications", "mode", "orders", "threads"):
        if echo[key] != config[key]:
            problems.append(f"config echo {key}={echo[key]!r}, "
                            f"expected {config[key]!r}")
    if echo["seed"] != seed:
        problems.append(f"config echo seed={echo['seed']}, expected {seed}")
    r = config["replications"]
    tails = report["tails"]
    for t in tails:
        if not (t["trials"] == r and 0 <= t["count"] <= r
                and t["p_hat"] == t["count"] / r
                and t["verdict"] in VERDICTS):
            problems.append(f"bad cell {t['event_id']}@{t['epsilon']}: "
                            f"{t['count']}/{t['trials']} {t['verdict']}")
    csv_cells = [(row["event_id"], int(row["count"]), int(row["trials"]),
                  row["verdict"]) for row in rows]
    json_cells = [(t["event_id"], t["count"], t["trials"], t["verdict"])
                  for t in tails]
    if csv_cells != json_cells:
        problems.append("report.csv cells differ from report.json")
    summary = report["verdict_summary"]
    labels = [t["verdict"] for t in tails]
    if (summary["violations"] != labels.count("VIOLATION")
            or summary["vacuous"] != labels.count("vacuous-bound")):
        problems.append("verdict_summary does not match the cells")
    if summary["violations"] and summary["passed"]:
        problems.append("passed with violations")
    if code != (0 if summary["passed"] else 1):
        problems.append(f"exit code {code} with passed={summary['passed']}")
    # At any seed the validation means must lie near the exact risks: a
    # sampler that draws from the wrong law misses by far more than this
    # (about 8 standard errors, plus the bias of a fixed start state).
    t_mix, m = report["diagnostics"]["t_mix"], config["m"]
    tol = 6.0 * math.sqrt(t_mix / (r * m)) + 3.0 * t_mix / m
    for c in report["candidates"]:
        if abs(c["empirical_risk_mean"] - c["exact_risk_mean"]) > tol:
            problems.append(f"candidate {c['order']}: empirical risk "
                            f"{c['empirical_risk_mean']} not within "
                            f"{tol:.3g} of {c['exact_risk_mean']}")
    freq = report["selection"]["k_hat_frequency"]
    if (len(freq) != len(config["orders"])
            or abs(sum(freq) - 1.0) > 1e-9
            or any(abs(f * r - round(f * r)) > 1e-6 for f in freq)):
        problems.append(f"k_hat_frequency {freq} is not a distribution "
                        f"over {r} replications")
    if reference is not None:
        got = extract(report)
        problems += mismatches(got["chain"], reference["chain"], "chain")
        if seed == reference["seed"]:
            problems += mismatches(got["at_seed"], reference["at_seed"],
                                   "at_seed")
    return problems


def load_reference(name: str, config: dict) -> dict | None:
    """The recorded reference for a workload, or None if it has none."""
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is not None and ref["config"] != config:
        raise SystemExit(f"error: {REFERENCE} was recorded for another "
                         f"config of {name}; re-record it")
    return ref


# ---------------------------------------------------------------------------
# Traced runs


def layer_metrics(doc: dict, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (see traced_cli.py)."""
    spans = doc["spans"]
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    field_sum: dict[tuple[str, str], int] = defaultdict(int)
    flops = sum(2 * p["size"] ** 3 * p["products"] for p in doc["primitivity"])
    for s in spans:
        d = s["end"] - s["start"]
        name = s["name"]
        total[name] += d
        self_time[name] += d - child_time[s["id"]]
        calls[name] += 1
        for key in ("steps", "k_stop", "cells", "informative"):
            field_sum[name, key] += s.get(key, 0)
        if "products" in s:
            flops += 2 * s["size"] ** 3 * s["products"]
    sampling = [n for n in total if n.startswith("sampling.")]
    steps = sum(field_sum[n, "steps"] for n in sampling)
    busy = sum(total[n] for n in sampling)
    cells = field_sum["harness.verify_bounds", "cells"]
    return {
        "config.parse_s": total["config.experiment_from_dict"],
        "chains.markovize_s": total["chains.markovize"],
        "chains.is_primitive_s": total["chains.is_primitive"],
        "chains.stationary_s": total["chains.stationary_distribution"],
        "chains.mixing_time_s": total["chains.mixing_time"],
        "chains.pseudo_spectral_gap_s": total["chains.pseudo_spectral_gap"],
        "chains.gap_k_stop": field_sum["chains.pseudo_spectral_gap", "k_stop"],
        "chains.dense_matmul_flops": flops,
        "sampling.calls": sum(calls[n] for n in sampling),
        "sampling.steps": steps,
        "sampling.busy_s": busy,
        "sampling.steps_per_s": steps / busy if busy > 0 else 0.0,
        "predictors.erm_fit_calls": calls["predictors.erm_fit"],
        "predictors.erm_fit_s": total["predictors.erm_fit"],
        "predictors.state_losses_s": total["predictors.state_losses"],
        "harness.run_replications_s": total["harness.run_replications"],
        "harness.replicate_self_s": self_time["harness.run_replications"],
        "harness.event_table_calls": calls["harness.event_table"],
        "harness.verify_bounds_s": total["harness.verify_bounds"],
        "harness.cells": cells,
        "harness.informative_ratio": (
            field_sum["harness.verify_bounds", "informative"] / cells
            if cells else 0.0),
        "harness.oracle_gap_s": total["harness.oracle_gap_check"],
        "harness.coupling_check_s": total["harness.coupling_check"],
        "harness.noise_check_s": total["harness.noise_condition_check"],
        "bounds.evaluate_calls": calls["bounds.evaluate_bound"],
        "bounds.evaluate_s": total["bounds.evaluate_bound"],
        "cli.self_s": self_time["cli.main"],
        "cli.artifact_bytes": artifact_bytes,
        "bench.post_s": total["bench.post"],
    }


# ---------------------------------------------------------------------------
# One measured run


@dataclass
class Result:
    """What one benchmark run measured and how its runs fared."""

    workload: str
    seed: int
    trace: int
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)
    cpus: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    exit_codes: dict[int, int] = field(default_factory=dict)
    violations: list[int] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, kind: str, sample: Sample, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{kind} #{self.attempted}: "
                                 + "; ".join(problems[:5]))
        self.samples.append({"kind": kind, "code": sample.code,
                             "wall_s": sample.wall_s,
                             "peak_rss_mb": sample.peak_rss_mb,
                             "problems": problems})


class Runner:
    """Launches and checks the CLI runs of one workload at one seed."""

    def __init__(self, config: dict, seed: int, run_dir: Path,
                 reference: dict | None, result: Result):
        self.config = dict(config, seed=seed)
        self.seed = seed
        self.dir = run_dir
        self.reference = reference
        self.result = result
        self.first: dict[str, bytes] | None = None
        self.out = run_dir / "out"
        self.config_path = run_dir / "config.json"
        run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")

    def probe(self) -> Sample:
        sample = launch([sys.executable, str(BENCH / "setup_probe.py"),
                         str(self.config_path)], self.dir / "probe.log")
        problems = ([] if sample.code == 0 else
                    [f"setup probe exit {sample.code}: {sample.stderr}"])
        self.result.record("setup", sample, problems)
        return sample

    def verify(self, spans_path: Path | None = None) -> tuple[Sample, int]:
        """One checked CLI run, traced when ``spans_path`` is given.

        Returns the sample and the size of the artifacts in bytes.
        """
        for stale in self.out.glob("*"):
            stale.unlink()
        args = ["verify", "--config", str(self.config_path),
                "--out", str(self.out), "--quiet"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "markov_holdout.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(spans_path), *args]
        sample = launch(cmd, self.dir / "verify.log")
        if sample.code not in (0, 1):
            problems = [f"exit {sample.code}: {sample.stderr}"]
            artifacts = {}
        else:
            artifacts = read_artifacts(self.out)
            problems = check_report(self.config, self.seed, sample.code,
                                    artifacts, self.reference)
            if self.first is None and not problems:
                self.first = artifacts
            elif self.first is not None and artifacts != self.first:
                problems.append("artifacts differ from the first run "
                                "of this seed")
            if not problems:
                summary = json.loads(artifacts["report.json"])[
                    "verdict_summary"]
                self.result.violations.append(summary["violations"])
        codes = self.result.exit_codes
        codes[sample.code] = codes.get(sample.code, 0) + 1
        self.result.record("traced" if spans_path else "verify", sample,
                           problems)
        return sample, sum(len(b) for b in artifacts.values())


def _keep_going(deadline: float, iterations: list[float],
                minimum: int) -> bool:
    if len(iterations) < minimum:
        return True
    return time.perf_counter() + statistics.median(iterations) <= deadline


def measure(name: str, config: dict, seed: int, seconds: float, trace: int,
            reference: dict | None) -> Result:
    """Run one workload for ``seconds`` and return its metrics.

    This process and every child it starts are pinned to
    ``workload_cpus`` until the run ends.
    """
    if trace:
        config = dict(config, threads=1)
    cpus = workload_cpus(config)
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return _measure(name, config, seed, seconds, trace, reference, cpus)
    finally:
        os.sched_setaffinity(0, saved)


def _measure(name: str, config: dict, seed: int, seconds: float, trace: int,
             reference: dict | None, cpus: list[int]) -> Result:
    start = time.perf_counter()
    deadline = start + seconds
    result = Result(workload=name, seed=seed, trace=trace, cpus=cpus)
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    runner = Runner(config, seed, run_dir, reference, result)
    runner.probe()  # warm-up: byte-compiles the package, untimed
    iterations: list[float] = []
    if not trace:
        setups, setup_rel, walls, rel, rss = [], [], [], [], []
        refs = [reference_s(cpus)]
        while _keep_going(deadline, iterations, MIN_RUNS):
            t0 = time.perf_counter()
            # probes interleave with the runs so both see the same load
            setups.append(runner.probe().wall_s)
            setup_rel.append(setups[-1] / refs[-1])
            sample, _ = runner.verify()
            refs.append(reference_s(cpus))
            walls.append(sample.wall_s)
            # the reference loops just before and after bracket the run
            rel.append(sample.wall_s / ((refs[-2] + refs[-1]) / 2))
            rss.append(sample.peak_rss_mb)
            iterations.append(time.perf_counter() - t0)
        steps = simulated_steps(config)
        result.metrics = {
            "wall_rel": statistics.median(rel),
            "setup_s": REF_NOMINAL_S * statistics.median(setup_rel),
            "peak_rss_mb": statistics.median(rss),
        }
        result.raw = {
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(steps / w for w in walls),
            "setup_raw_s": statistics.median(setups),
            "reference_s": statistics.median(refs),
        }
        result.references = refs
        return result
    untraced, traced, layers = [], [], []
    spans_path = run_dir / "spans.json"
    while _keep_going(deadline, iterations, 1):
        t0 = time.perf_counter()
        untraced.append(runner.verify()[0].wall_s)
        spans_path.unlink(missing_ok=True)
        sample, artifact_bytes = runner.verify(spans_path)
        if spans_path.exists():
            lm = layer_metrics(json.loads(spans_path.read_text()),
                               artifact_bytes)
            layers.append(lm)
            traced.append(sample.wall_s - lm.pop("bench.post_s"))
        iterations.append(time.perf_counter() - t0)
    if not layers:  # every traced run failed and is counted already
        return result
    result.metrics = {key: statistics.median(lm[key] for lm in layers)
                      for key in layers[0]}
    result.metrics["trace.wall_s"] = statistics.median(traced)
    result.metrics["trace.overhead_s"] = (statistics.median(traced)
                                          - statistics.median(untraced))
    return result


# ---------------------------------------------------------------------------
# Environment and output


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(config: dict) -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    workers = config.get("threads", 1)
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "pool_workers": workers,
        "oversubscribed": workers * BLAS_THREADS > nproc,
        "git_commit": _git_commit(),
    }


def write_results(result: Result, config: dict, seconds: float) -> Path:
    path = OUT / "results" / (f"{result.workload}-seed{result.seed}"
                              f"-trace{result.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    units = PER_LAYER if result.trace else END_TO_END
    doc = {
        "workload": result.workload, "seed": result.seed,
        "trace": result.trace, "seconds": seconds, "config": config,
        "environment": environment(config),
        "pinned_cpus": result.cpus,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result.metrics.items()},
        "raw": {k: {"value": v, "unit": RAW[k]}
                for k, v in result.raw.items()},
        "attempted": result.attempted, "failed": result.failed,
        "failures": result.failures,
        "exit_codes": result.exit_codes,
        "violations_per_run": result.violations,
        "samples": result.samples,
        "reference_samples": result.references,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def verdict_line(result: Result) -> str:
    codes = ", ".join(f"exit {c}: {n}" for c, n in
                      sorted(result.exit_codes.items()))
    counts = sorted(set(result.violations))
    return f"verdicts: {codes}; VIOLATION cells per run: {counts}"


def result_json(result: Result) -> dict:
    units = PER_LAYER if result.trace else END_TO_END
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": result.metrics[k], "unit": u}
                        for k, u in units.items() if k in result.metrics}}


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "markov_holdout" / "cli.py").exists():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 and seconds > 0")
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        config = workloads[name]
        result = measure(name, config, args.seed, args.seconds, args.trace,
                         load_reference(name, config))
        path = write_results(result, config, args.seconds)
        results.append(result)
        print(f"== {name} seed={args.seed} trace={args.trace} "
              f"({result.attempted} runs, {result.failed} failed; {path})")
        for key, value in result.metrics.items():
            unit = (PER_LAYER if args.trace else END_TO_END)[key]
            print(f"  {key:<30} {value:.6g} {unit}")
        for key, value in result.raw.items():
            print(f"  {key:<30} {value:.6g} {RAW[key]} (not gated)")
        print("  " + verdict_line(result))
        for failure in result.failures:
            print(f"  FAILED {failure}")
    if len(results) == 1:
        out = result_json(results[0])
    else:
        columns = [] if args.trace else [*END_TO_END, *RAW]
        print(f"{'workload':<20} {'failed_ratio':>12}  "
              + "  ".join(f"{k:>12}" for k in columns))
        for r in results:
            values = {**r.metrics, **r.raw}
            cells = "  ".join(f"{values.get(k, math.nan):>12.5g}"
                              for k in columns)
            print(f"{r.workload:<20} {r.failed / r.attempted:>12.3g}  {cells}")
        out = {"correct": all(r.correct for r in results),
               "attempted": sum(r.attempted for r in results),
               "failed": sum(r.failed for r in results),
               "metrics": {f"{r.workload}.{k}": v
                           for r in results
                           for k, v in result_json(r)["metrics"].items()}}
        for r in results:
            out["metrics"][f"{r.workload}.failed_ratio"] = {
                "value": r.failed / r.attempted, "unit": "ratio"}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    # a terminated benchmark still kills and reaps the run it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
