"""Smoke-size self-test of the benchmark.

Run from the repository root: python3 -m pytest benchmarks -q

Uses verify-cond-s16 shrunk to n = m = 200, so each CLI run takes well
under a second, and writes into a temporary directory.
"""

import json

import pytest

import run

SMOKE = "verify-cond-s16"


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """Point the benchmark at a single small workload and a scratch dir."""
    config = dict(run.load_workloads()[SMOKE], n=200, m=200)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "load_workloads", lambda: {"smoke": config})
    return config


def declared(kind: str) -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_and_workloads_match_the_benchmark():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert set(run.load_workloads()) == {w["name"] for w in doc["workloads"]}
    assert set(json.loads(run.REFERENCE.read_text())) == set(
        run.load_workloads())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(smoke, capsys, trace):
    code = run.main(["--workload", "smoke", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    # the ungated raw times are printed too, each with its unit
    printed = {f[0]: f[1:3] for f in map(str.split, lines[:-1]) if f}
    for name, unit in ({} if trace else run.RAW).items():
        assert printed[name][1] == unit and float(printed[name][0]) > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        # every bound is vacuous at m = 200, and the overhead is a difference
        if name not in ("harness.informative_ratio", "trace.overhead_s"):
            assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in lines[:-1])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["sampling.steps"] == 1000 * 200 + 200
        assert metrics["harness.cells"] == 150
        assert metrics["harness.event_table_calls"] == 16
        assert metrics["bounds.evaluate_calls"] == 150


def test_gate_trips_on_tampered_artifact(smoke, tmp_path, monkeypatch):
    result = run.Result(workload="smoke", seed=5, trace=0)
    runner = run.Runner(smoke, 5, tmp_path / "gate", None, result)
    sample, _ = runner.verify()
    assert result.failed == 0, result.failures
    good = runner.first
    assert run.check_report(runner.config, 5, sample.code, good, None) == []

    report = json.loads(good["report.json"])
    report["tails"][0]["count"] += 1
    tampered = dict(good, **{"report.json": json.dumps(report).encode()})
    assert run.check_report(runner.config, 5, sample.code, tampered, None)

    csv_text = good["report.csv"].decode().splitlines()
    fields = csv_text[1].split(",")
    fields[4] = str(int(fields[4]) + 1)  # the count column
    csv_text[1] = ",".join(fields)
    tampered = dict(good, **{"report.csv": "\n".join(csv_text).encode()})
    assert run.check_report(runner.config, 5, sample.code, tampered, None)

    # a rerun whose bytes differ from the first run of the seed fails
    changed = dict(good, **{"report.json": good["report.json"] + b"\n"})
    monkeypatch.setattr(run, "read_artifacts", lambda out: changed)
    runner.verify()
    assert result.failed == 1
    assert "differ from the first run" in result.failures[-1]


def test_reference_gate_compares_to_relative_1e12():
    ref = json.loads(run.REFERENCE.read_text())[SMOKE]
    at_seed = json.loads(json.dumps(ref["at_seed"]))
    assert run.mismatches(at_seed, ref["at_seed"]) == []
    at_seed["exact_risk_mean"][0] *= 1 + 1e-13
    assert run.mismatches(at_seed, ref["at_seed"]) == []
    at_seed["exact_risk_mean"][0] *= 1 + 1e-10
    assert run.mismatches(at_seed, ref["at_seed"])
    at_seed = json.loads(json.dumps(ref["at_seed"]))
    at_seed["tails"][3][0] += 1
    assert run.mismatches(at_seed, ref["at_seed"])


def test_refuses_to_run_without_the_program(smoke, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "missing")
    assert run.main(["--workload", "smoke", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
