"""CLI behavior: subcommands, artifacts, exit codes, overrides, determinism.

All tests drive markov_holdout.cli.main(argv) in-process and write into
pytest temporary directories.
"""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from markov_holdout import event_table, run_replications
from markov_holdout.cli import main
from markov_holdout.config import experiment_from_dict

TWO_STATE = {"chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]]}}

VERIFY_BASE = {
    "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1},
    "orders": [0, 1],
    "loss": "misclassification",
    "n": 200,
    "m": 150,
    "replications": 150,
    "epsilon_grid": [0.1, 0.2, 0.4],
    "seed": 77,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def read_csv(out_dir, name):
    with open(out_dir / name, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_raw_kernel(tmp_path):
    cfg = write_config(tmp_path, TWO_STATE)
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "diagnostics.json")
    assert payload["states"] == 2
    assert payload["t_mix"] == 3
    assert payload["gamma_ps"] == pytest.approx(0.51, abs=1e-8)
    assert payload["stationary"] == pytest.approx([2 / 3, 1 / 3], abs=1e-10)
    assert payload["embedded"] is False
    assert payload["certificate"]["c"] == 2.0
    manifest = read_json(out, "manifest.json")
    assert manifest["command"] == "diagnose"
    assert "diagnostics.json" in manifest["outputs"]


def test_diagnose_embedded_chain(tmp_path):
    cfg = write_config(tmp_path, {
        "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1}})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "diagnostics.json")
    assert payload["embedded"] is True
    assert payload["states"] == 4
    assert payload["t_mix"] == 4
    assert payload["gamma_ps"] == pytest.approx(0.255, abs=1e-8)
    assert payload["symbol_marginal"] == pytest.approx([2 / 3, 1 / 3],
                                                       abs=1e-10)


def test_diagnose_higher_order_spec(tmp_path):
    cfg = write_config(tmp_path, {
        "chain": {"symbols": 2, "order": 2,
                  "conditional": [[0.9, 0.1], [0.7, 0.3],
                                  [0.4, 0.6], [0.2, 0.8]]}})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "diagnostics.json")
    assert payload["states"] == 8
    assert payload["t_mix"] == 6


def test_diagnose_rejects_bad_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, {"chain": {"kernel": [[0.9, 0.3],
                                                       [0.2, 0.8]]}})
    code = main(["diagnose", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "row 0" in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["diagnose", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["diagnose", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [
    ("simulate", {**TWO_STATE, "n": "ten"}),
    ("diagnose", {**TWO_STATE, "level": "abc"}),
    ("diagnose", {"chain": {"kernel": [[0.9, 0.1], [0.2]]}}),
    ("noise", {**TWO_STATE, "m_grid": ["x"]}),
    ("noise", {**TWO_STATE, "noise": {"kind": "mammen-tsybakov",
                                      "alpha": "x", "h": 0.5}}),
    ("noise", {**TWO_STATE, "noise": {"kind": "tabulated",
                                      "radii": [[0.1], 0.2],
                                      "values": [0.1, 0.2]}}),
    ("verify", {**VERIFY_BASE, "loss": {"table": [[0, 1], [1]]}}),
    ("diagnose", [TWO_STATE]),
    ("bounds", [{"bounds": ["hoeffding"]}]),
    ("verify", {**VERIFY_BASE, "orders": "01"}),
    ("verify", {**VERIFY_BASE, "orders": "10"}),
    ("noise", {**TWO_STATE, "m_grid": "15"}),
    ("noise", {**TWO_STATE, "noise_check_order": False}),
    ("verify", {**VERIFY_BASE, "oracle_checks": "false"}),
    ("verify", {**VERIFY_BASE, "noise_check_order": False}),
])
def test_malformed_config_values_exit_two(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# bounds


def test_bounds_single_value(tmp_path):
    cfg = write_config(tmp_path, {
        "bounds": ["hoeffding"],
        "params": {"m": 100, "epsilon": 0.5, "t_mix": 1}})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out, "bounds.csv")
    assert len(rows) == 1
    assert rows[0]["bound_id"] == "hoeffding"
    assert float(rows[0]["raw"]) == pytest.approx(0.45631126781144565,
                                                  rel=1e-12)
    assert rows[0]["vacuous"] == "false"


@pytest.mark.parametrize("requested", ["hoeffding", {"hoeffding": 1}, [],
                                       [["hoeffding"]]])
def test_bounds_requires_a_list_of_ids(tmp_path, capsys, requested):
    cfg = write_config(tmp_path, {
        "bounds": requested,
        "params": {"m": 100, "epsilon": 0.5, "t_mix": 1}})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 'bounds' must be a non-empty list of bound ids\n")


def test_bounds_delta_grid_must_be_a_list(tmp_path, capsys):
    # a bare number used to fail as "'float' object is not iterable"
    cfg = write_config(tmp_path, {
        "bounds": ["bernstein_radius"],
        "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                   "variance": 0.25, "n_candidates": 2},
        "delta_grid": 0.1})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 'delta_grid' must be a list of numbers\n")


def test_bounds_grid_row_counts(tmp_path):
    cfg = write_config(tmp_path, {
        "bounds": ["hoeffding", "bernstein_radius", "expectation_hoeffding"],
        "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                   "variance": 0.25, "n_candidates": 2},
        "epsilon_grid": [0.1, 0.2, 0.3],
        "delta_grid": [0.01, 0.05]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out, "bounds.csv")
    by_id = {}
    for row in rows:
        by_id.setdefault(row["bound_id"], []).append(row)
    assert len(by_id["hoeffding"]) == 3          # epsilon grid
    assert len(by_id["bernstein_radius"]) == 2   # delta grid
    assert len(by_id["expectation_hoeffding"]) == 1


def test_bounds_pulls_diagnostics_from_chain(tmp_path):
    # a chain in the config is embedded exactly as in experiments, so the
    # derived defaults are the composite chain's t_mix and gamma_ps
    cfg = write_config(tmp_path, {
        "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]]},
        "bounds": ["hoeffding"],
        "params": {"m": 500},
        "epsilon_grid": [0.2]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out, "bounds.csv")
    assert rows[0]["t_mix"] == "4"
    assert float(rows[0]["gamma_ps"]) == pytest.approx(0.255, abs=1e-8)


def test_bounds_shift_column(tmp_path):
    cfg = write_config(tmp_path, {
        "bounds": ["hoeffding_shifted"],
        "params": {"m": 100, "b": 10, "t_mix": 2},
        "epsilon_grid": [0.3]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out, "bounds.csv")
    assert rows[0]["shift"] == "1/10"
    assert float(rows[0]["raw"]) == pytest.approx(0.46906965974059917,
                                                  rel=1e-12)


def test_bounds_unknown_id(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": ["chernoff"], "params": {}})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert "unknown bound id" in capsys.readouterr().err


def test_bounds_missing_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": ["hoeffding"],
                                  "params": {"m": 100, "epsilon": 0.5}})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2


def test_bounds_epsilon_out_of_range_keeps_range_message(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": ["hoeffding"],
                                  "params": {"m": 100, "t_mix": 2},
                                  "epsilon_grid": [1.5]})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: epsilon must lie in [0, 1], got 1.5\n")


# ---------------------------------------------------------------------------
# simulate


def simulate_config(seed=None):
    payload = {
        "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1},
        "n": 40, "m": 20}
    if seed is not None:
        payload["seed"] = seed
    return payload


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path, simulate_config(seed=5))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    rows = read_csv(out, "trajectory.csv")
    assert len(rows) == 60
    assert rows[0]["t"] == "1"
    assert rows[39]["segment"] == "learning"
    assert rows[40]["segment"] == "validation"
    for row in rows:
        state = int(row["state"])
        assert int(row["y_lag0"]) == state // 2
        assert int(row["y_lag1"]) == state % 2


def test_simulate_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, simulate_config(seed=9))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b),
                 "--quiet"]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, simulate_config(seed=9))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out_a), "--quiet"])
    main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "10",
          "--quiet"])
    assert (out_a / "trajectory.csv").read_bytes() != \
        (out_b / "trajectory.csv").read_bytes()


def test_simulate_env_seed(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, simulate_config(seed=9))
    out_env, out_flag, out_plain = (tmp_path / d for d in ("e", "f", "p"))
    monkeypatch.setenv("MARKOV_HOLDOUT_SEED", "123")
    main(["simulate", "--config", cfg, "--out", str(out_env), "--quiet"])
    # flag wins over env
    main(["simulate", "--config", cfg, "--out", str(out_flag), "--seed",
          "123", "--quiet"])
    assert (out_env / "trajectory.csv").read_bytes() == \
        (out_flag / "trajectory.csv").read_bytes()
    monkeypatch.delenv("MARKOV_HOLDOUT_SEED")
    main(["simulate", "--config", cfg, "--out", str(out_plain), "--quiet"])
    assert (out_env / "trajectory.csv").read_bytes() != \
        (out_plain / "trajectory.csv").read_bytes()


def test_simulate_rejects_bad_env_seed(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, simulate_config())
    monkeypatch.setenv("MARKOV_HOLDOUT_SEED", "not-a-number")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert "MARKOV_HOLDOUT_SEED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_small_run_passes(tmp_path):
    cfg = write_config(tmp_path, VERIFY_BASE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    report = read_json(out, "report.json")
    assert report["verdict_summary"]["passed"] is True
    assert report["verdict_summary"]["violations"] == 0
    assert report["diagnostics"]["t_mix"] == 4
    assert report["diagnostics"]["gamma_ps"] == pytest.approx(0.255, abs=1e-8)
    assert report["diagnostics"]["bayes_risk"] == pytest.approx(2 / 15,
                                                                abs=1e-10)
    assert report["coupling"]["passed"] is True
    assert len(report["candidates"]) == 2
    rows = read_csv(out, "report.csv")
    # events x epsilon grid: 2 candidates x (abs_dev, over, under)
    # + selected/best + excess when noise present (absent here)
    n_events = len({r["event_id"] for r in rows})
    assert len(rows) == n_events * 3
    assert all(r["verdict"] in ("dominated", "vacuous-bound") for r in rows)


def test_verify_accepts_and_drops_delta(tmp_path):
    # no verify event form reads delta: the key is ignored like any other
    cfg = write_config(tmp_path, {**VERIFY_BASE, "delta": 0.1})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert "delta" not in read_json(out, "report.json")["config"]
    assert "delta" not in read_json(out, "manifest.json")["config"]


def test_verify_event_shifts_match_bounds_shift_column(tmp_path):
    # verify raises each event's threshold by the shift `bounds` prints for
    # the event's form at the same m, b and theta; an empty cell means 0
    exp = experiment_from_dict({**VERIFY_BASE, "gap_b": 12, "theta": 0.3,
                                "noise": {"kind": "mammen-tsybakov"}})
    run = run_replications(exp)
    events = event_table(run).values()
    cfg = write_config(tmp_path, {
        "bounds": sorted({e.bound_id for e in events}),
        "params": {"m": exp.m, "b": exp.gap_b, "theta": exp.theta,
                   "a": exp.a, "n_candidates": exp.n_candidates,
                   "t_mix": run.mixing.t_mix,
                   "gamma_ps": run.spectral.gamma_ps,
                   "tau_star": run.tau_star},
        "epsilon_grid": [0.1]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    printed = {r["bound_id"]: r["shift"] for r in read_csv(out, "bounds.csv")}
    assert len(printed) == 10
    assert sum(e.shift > 0.0 for e in events) == 3 * 2 + 1
    for spec in events:
        cell = printed[spec.bound_id]
        assert spec.shift == (float(Fraction(cell)) if cell else 0.0), \
            spec.event_id


def test_verify_reports_oracle_checks_and_noise(tmp_path):
    payload = dict(VERIFY_BASE)
    payload.update({
        "replications": 1000,
        "noise": {"kind": "mammen-tsybakov", "alpha": 1.0, "h": None},
        "noise_check_order": 1,
        "gap_b": 10,
    })
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    report = read_json(out, "report.json")
    kinds = {r["kind"] for r in report["oracle_checks"]}
    assert kinds == {"hoeffding", "bernstein", "noise"}
    assert all(r["passed"] for r in report["oracle_checks"])
    assert report["noise_condition"]["passed"] is True
    assert report["noise_condition"]["margin"] == pytest.approx(0.6)
    assert report["diagnostics"]["tau_star"] == pytest.approx(
        1.0 / (150 * 0.6), rel=1e-12)
    event_ids = {r["event_id"] for r in read_csv(out, "report.csv")}
    assert "excess_vs_best" in event_ids
    assert "gap_abs_dev[g0]" in event_ids


def test_verify_exit_one_on_forced_violation(tmp_path):
    payload = dict(VERIFY_BASE)
    payload["bound_scale"] = 1e-9
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 1
    report = read_json(out, "report.json")
    assert report["verdict_summary"]["passed"] is False
    assert report["verdict_summary"]["violations"] > 0


def test_verify_rejects_insufficient_replications(tmp_path, capsys):
    payload = dict(VERIFY_BASE)
    payload["replications"] = 50
    cfg = write_config(tmp_path, payload)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert "100 replications" in capsys.readouterr().err


def test_verify_byte_identical_reports(tmp_path):
    cfg = write_config(tmp_path, VERIFY_BASE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out_b),
                 "--quiet"]) == 0
    assert (out_a / "report.json").read_bytes() == \
        (out_b / "report.json").read_bytes()
    assert (out_a / "report.csv").read_bytes() == \
        (out_b / "report.csv").read_bytes()
    # manifests may differ only in their creation timestamp
    man_a = read_json(out_a, "manifest.json")
    man_b = read_json(out_b, "manifest.json")
    man_a.pop("created_utc")
    man_b.pop("created_utc")
    assert man_a == man_b


def test_verify_threads_flag_matches_serial(tmp_path):
    cfg = write_config(tmp_path, VERIFY_BASE)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out_b),
                 "--threads", "2", "--quiet"]) == 0
    report_a = read_json(out_a, "report.json")
    report_b = read_json(out_b, "report.json")
    assert report_a["tails"] == report_b["tails"]


@pytest.mark.parametrize("command, flag", [
    ("diagnose", "--seed"), ("diagnose", "--threads"),
    ("bounds", "--seed"), ("bounds", "--threads"),
    ("noise", "--seed"), ("noise", "--threads"),
    ("simulate", "--threads"),
])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, command, flag):
    cfg = write_config(tmp_path, TWO_STATE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "out"),
              flag, "1", "--quiet"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# noise


def test_noise_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "chain": {"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1},
        "m_grid": [100, 400],
        "noise_check_order": 1})
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "noise.json")
    assert payload["margin"] == pytest.approx(0.6, abs=1e-12)
    assert payload["zero_margin"] is False
    assert payload["noise"] == "MammenTsybakovNoise"
    taus = {row["m"]: row["tau_star"] for row in payload["tau_star"]}
    assert taus[100] == pytest.approx(1 / 60, rel=1e-12)
    assert taus[400] == pytest.approx(1 / 240, rel=1e-12)
    assert payload["condition_check"]["passed"] is True


def test_noise_zero_margin_chain(tmp_path):
    cfg = write_config(tmp_path, {
        "chain": {"kernel": [[0.5, 0.5], [0.5, 0.5]], "embedding_order": 1}})
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "noise.json")
    assert payload["zero_margin"] is True
    assert payload["tau_star"] is None


# ---------------------------------------------------------------------------
# shared surface


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2
