"""CLI behavior: subcommands, artifacts, exit codes, overrides, determinism.

All tests drive markov_holdout.cli.main(argv) in-process and write into
pytest temporary directories.
"""

import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import markov_holdout
import markov_holdout.cli as cli
from markov_holdout import (
    MammenTsybakovNoise,
    event_table,
    pseudo_spectral_gap,
    run_replications,
)
from markov_holdout.bounds import BOUND_FORMS, form_parameters
from markov_holdout.cli import main
from markov_holdout.config import (
    EPSILON_GRID_MAX_POINTS,
    build_chain,
    experiment_from_dict,
    experiment_to_dict,
    parse_epsilon_grid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


ORDER2 = json.loads((CONFIGS / "order2_binary.json").read_text())
VERIFY_TWO_STATE = json.loads(
    (CONFIGS / "verify_two_state.json").read_text())
# a margin so small that (m h)^-1, the fixed point at alpha = 1, overflows
TINY_H = {"kind": "mammen-tsybakov", "alpha": 1.0, "h": 5e-324}


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


def test_diagnose_accepts_solved_law_with_small_mass_states(tmp_path):
    # S = 81, smallest conditional 0.0127: a Q solved on all 81 states
    # failed the 1e-10 reversed-row rule at its small-mass states
    kernel = np.random.default_rng(9).dirichlet(np.ones(3), size=3)
    cfg = write_config(tmp_path, {"chain": {"kernel": kernel.tolist(),
                                            "embedding_order": 3}})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    chain = build_chain({"kernel": kernel.tolist(), "embedding_order": 3})
    dense = pseudo_spectral_gap(chain.kernel, chain.stationary)
    assert read_json(out, "diagnostics.json")["gamma_ps"] == pytest.approx(
        dense.gamma_ps, rel=0, abs=1e-12)


@pytest.mark.parametrize("chain", [
    {"kernel": [[0.999999999, 0.000000001, 0.0], [0.5, 0.0, 0.5],
                [0.5, 0.25, 0.25]]},
    {"kernel": [[0.999999999, 0.000000001], [0.5, 0.5]],
     "embedding_order": 1}], ids=["raw", "embedded"])
def test_diagnose_accepts_chains_with_stationary_mass_near_1e9(tmp_path,
                                                                chain):
    # a dense linear solve is accurate to about 1e-16 absolute, so at
    # states of mass about 1e-9 its Q failed the relative 1e-10
    # reversed-row rule (exit 2); the GTH solve is accurate relative to
    # each entry
    cfg = write_config(tmp_path, {"chain": chain})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "diagnostics.json")
    assert min(payload["stationary"]) < 1e-8
    if "embedding_order" in chain:
        # two-state base: Q(1) = K(0, 1) / (K(0, 1) + K(1, 0)) exactly
        a, b = Fraction(chain["kernel"][0][1]), Fraction(chain["kernel"][1][0])
        assert payload["symbol_marginal"][1] == pytest.approx(
            float(a / (a + b)), rel=1e-12, abs=0)


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


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",          # not UTF-8
    b"[" * 100_000,         # deeper than the JSON parser recurses
], ids=["not-utf8", "deep"])
def test_undecodable_config_exits_two(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main(["diagnose", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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
    ("diagnose", {"chain": {**TWO_STATE["chain"], "embedding_order": "x"}}),
    ("diagnose", {"chain": {**TWO_STATE["chain"], "embedding_order": None}}),
    ("diagnose", {"chain": {**TWO_STATE["chain"], "embedding_order": 1.7}}),
    ("diagnose", {"chain": {"symbols": 2, "order": 1.9,
                            "conditional": [[0.9, 0.1], [0.2, 0.8]]}}),
    # integer fields given a float, a bool or a string
    ("verify", {**VERIFY_BASE, "n": 200.7}),
    ("verify", {**VERIFY_BASE, "m": 150.9}),
    ("verify", {**VERIFY_BASE, "gap_b": True}),
    ("verify", {**VERIFY_BASE, "seed": 3.9}),
    ("verify", {**VERIFY_BASE, "threads": True}),
    ("verify", {**VERIFY_BASE, "replications": "150"}),
    ("verify", {**VERIFY_BASE, "coupling_b_max": 2.0}),
    ("simulate", {**TWO_STATE, "m": True}),
    ("simulate", {**TWO_STATE, "replication": 2.5}),
    ("simulate", {**TWO_STATE, "seed": "7"}),
    ("diagnose", {**TWO_STATE, "horizon": 5.9}),
    ("noise", {**TWO_STATE, "m_grid": [100.5]}),
    ("noise", {**TWO_STATE, "noise_check_order": 1.0}),
    # number fields given a bool, a string, NaN or Infinity
    ("verify", {**VERIFY_BASE, "epsilon_grid": [True, "0.2"]}),
    ("verify", {**VERIFY_BASE, "bound_scale": float("inf")}),
    ("verify", {**VERIFY_BASE, "theta": float("nan")}),
    ("diagnose", {**TWO_STATE, "level": "0.3"}),
    ("bounds", {"bounds": ["hoeffding"], "params": {"m": 100, "t_mix": True},
                "epsilon_grid": [0.5]}),
    ("bounds", {"bounds": ["bernstein_radius"],
                "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                           "variance": 0.25, "n_candidates": 2},
                "delta_grid": [True]}),
    ("noise", {**TWO_STATE, "noise": {"kind": "mammen-tsybakov",
                                      "alpha": True, "h": 0.5}}),
    ("noise", {**TWO_STATE, "noise": {"kind": "mammen-tsybakov",
                                      "h": "0.5"}}),
    # string entries in a kernel, conditional rows and a loss table
    ("diagnose", {"chain": {"kernel": [[0.9, "0.1"], [0.2, 0.8]]}}),
    ("diagnose", {"chain": {"symbols": 2, "order": 1, "conditional": {
        "0": [0.9, "0.1"], "1": [0.2, 0.8]}}}),
    ("verify", {**VERIFY_BASE, "loss": {"table": [[0, "1"], [1, 0]]}}),
    ("verify", {**VERIFY_BASE, "loss": {"table": [[0, 1], [1, 0]],
                                        "name": 5}}),
    # params given as a list of pairs
    ("bounds", {"bounds": ["hoeffding"],
                "params": [["m", 100], ["epsilon", 0.5], ["t_mix", 1]]}),
    # an epsilon grid that stops at Infinity
    ("verify", {**VERIFY_BASE, "epsilon_grid": {
        "start": 0.1, "stop": float("inf"), "step": 0.1}}),
    ("bounds", {"bounds": ["hoeffding"], "params": {"m": 100, "t_mix": 1},
                "epsilon_grid": {"start": 0.1, "stop": float("inf"),
                                 "step": 0.1}}),
    # bound forms that overflow, divide by zero or evaluate to NaN
    ("bounds", {"bounds": ["bernstein_raw"],
                "params": {"m": 100, "gamma_ps": 0.5, "variance": 0.25},
                "epsilon_grid": [1e308]}),
    ("bounds", {"bounds": ["bernstein_radius"],
                "params": {"m": 100, "gamma_ps": 5e-324, "variance": 0.25},
                "delta_grid": [0.05]}),
    ("bounds", {"bounds": ["bernstein_raw"],
                "params": {"m": 100, "gamma_ps": 5e-324, "variance": 0},
                "epsilon_grid": [0.1]}),
    # empty grid lists, as the {start, stop, step} form that expands to
    # nothing is
    ("bounds", {"bounds": ["hoeffding"], "params": {"m": 100, "t_mix": 1},
                "epsilon_grid": []}),
    ("bounds", {"bounds": ["bernstein_radius"],
                "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                           "variance": 0.25, "n_candidates": 2},
                "delta_grid": []}),
    ("verify", {**VERIFY_BASE, "epsilon_grid": []}),
    # a loss table for three symbols on a binary chain, rejected before the
    # diagnostics run; and an empty m grid
    ("verify", {**VERIFY_BASE, "loss": {"table": [[0, 1, 1], [1, 0, 1],
                                                  [1, 1, 0]]}}),
    ("verify", {**VERIFY_BASE, "train_loss": {"table": [[0, 1, 1], [1, 0, 1],
                                                        [1, 1, 0]]}}),
    ("noise", {**TWO_STATE, "m_grid": []}),
    # a negative profile horizon
    ("diagnose", {**TWO_STATE, "horizon": -5}),
    # verify values outside their ranges, of an unknown kind or of the
    # wrong shape
    ("verify", {k: v for k, v in VERIFY_BASE.items() if k != "n"}),
    ("verify", {**VERIFY_BASE, "n": 0}),
    ("verify", {**VERIFY_BASE, "m": 0}),
    ("verify", {**VERIFY_BASE, "threads": 0}),
    ("verify", {**VERIFY_BASE, "bound_scale": 0}),
    ("verify", {**VERIFY_BASE, "coupling_b_max": -1}),
    ("verify", {**VERIFY_BASE, "loss": 3}),
    ("verify", {**VERIFY_BASE, "noise": {"kind": "nope"}}),
    ("verify", {**VERIFY_BASE, "epsilon_grid": {
        "start": 0.1, "stop": 0.5, "step": 0}}),
    ("verify", {**VERIFY_BASE, "noise": {"kind": "tabulated",
                                         "radii": [0.0, 0.5],
                                         "values": [0.0, -0.1]}}),
    ("verify", {**VERIFY_BASE, "noise": {"kind": "tabulated",
                                         "radii": [0.0, 0.5, 1.0],
                                         "values": [0.0, 0.1]}}),
    ("verify", {**VERIFY_BASE, "chain": {
        "kernel": [[0.9, 0.1, 0.0], [0.2, 0.7, 0.1]], "embedding_order": 1}}),
    # chains: a symbol outside the alphabet in a context, a missing middle
    # context, one symbol, order 0
    ("diagnose", {"chain": {"symbols": 2, "order": 2, "conditional": {
        "0,0": [0.9, 0.1], "0,2": [0.7, 0.3], "1,0": [0.4, 0.6],
        "1,1": [0.2, 0.8]}}}),
    ("diagnose", {"chain": {"symbols": 2, "order": 2, "conditional": {
        "0,0": [0.9, 0.1], "0,1": [0.7, 0.3], "1,1": [0.2, 0.8]}}}),
    ("diagnose", {"chain": {"symbols": 1, "order": 1,
                            "conditional": [[1.0]]}}),
    ("diagnose", {"chain": {"symbols": 2, "order": 0,
                            "conditional": [[0.5, 0.5]]}}),
    ("diagnose", {**TWO_STATE, "level": 1.5}),
    # bounds: a noise margin with no chain to take it from, and an
    # epsilon-swept form with no epsilon
    ("bounds", {"bounds": ["noise"],
                "params": {"m": 100, "t_mix": 1, "gamma_ps": 0.5,
                           "n_candidates": 2, "theta": 0.5},
                "epsilon_grid": [0.1],
                "noise": {"kind": "mammen-tsybakov", "h": None}}),
    ("bounds", {"bounds": ["hoeffding"], "params": {"m": 100, "t_mix": 1}}),
    # a context of one symbol on an order-2 chain
    ("diagnose", {"chain": {"symbols": 2, "order": 2, "conditional": {
        "0": [0.9, 0.1], "0,1": [0.7, 0.3], "1,0": [0.4, 0.6],
        "1,1": [0.2, 0.8]}}}),
    # no candidate orders, and a {start, stop, step} grid that expands to
    # nothing
    ("verify", {**VERIFY_BASE, "orders": []}),
    ("verify", {**VERIFY_BASE, "epsilon_grid": {
        "start": 0.5, "stop": 0.1, "step": 0.1}}),
    # a noise fixed point that overflows a double
    ("noise", {**ORDER2, "noise": TINY_H}),
    ("verify", {**VERIFY_TWO_STATE, "noise": TINY_H}),
    ("bounds", {"bounds": ["noise"],
                "params": {"m": 100, "t_mix": 1, "gamma_ps": 0.5,
                           "n_candidates": 2, "theta": 0.5},
                "epsilon_grid": [0.1], "noise": TINY_H}),
])
def test_malformed_config_values_exit_two(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "manifest.json").exists()


RADIUS = {"bounds": ["bernstein_radius"],
          "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                     "variance": 0.25, "n_candidates": 2}}


@pytest.mark.parametrize("command, payload, line", [
    ("verify", {**VERIFY_BASE, "orders": []},
     "'orders' must be a non-empty list of integers"),
    ("verify", {**VERIFY_BASE, "epsilon_grid": []},
     "'epsilon_grid' must be a non-empty list of numbers"),
    ("bounds", {**RADIUS, "epsilon_grid": []},
     "'epsilon_grid' must be a non-empty list of numbers"),
    ("bounds", {**RADIUS, "delta_grid": []},
     "'delta_grid' must be a non-empty list of numbers"),
    ("noise", {**TWO_STATE, "m_grid": []},
     "'m_grid' must be a non-empty list of integers"),
    # the grid that expands to nothing keeps its own text
    ("verify", {**VERIFY_BASE, "epsilon_grid": {
        "start": 0.5, "stop": 0.1, "step": 0.1}}, "epsilon grid is empty"),
])
def test_empty_lists_are_rejected_by_their_kind(tmp_path, capsys, command,
                                                payload, line):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


OVER = {"bounds": ["bernstein_over"], "epsilon_grid": [0.5],
        "params": {"m": 100, "a": 0.5, "gamma_ps": 0.5, "t_mix": 2}}


@pytest.mark.parametrize("verify, bounds, line", [
    ({"epsilon_grid": [1.5]}, {"epsilon_grid": [1.5]},
     "epsilon must lie in [0, 1], got 1.5"),
    ({"a": 1.0}, {"params": {**OVER["params"], "a": 1.0}},
     "a must lie in (0, 1), got 1.0"),
])
def test_verify_and_bounds_reject_a_bound_setting_alike(tmp_path, capsys,
                                                        verify, bounds, line):
    # verify checks its bound settings by the rules the bound forms use
    errs = []
    for command, payload in (("verify", {**VERIFY_BASE, **verify}),
                             ("bounds", {**OVER, **bounds})):
        cfg = write_config(tmp_path, payload, f"{command}.json")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command), "--quiet"]) == 2
        errs.append(capsys.readouterr().err)
    assert errs == [f"error: {line}\n"] * 2


@pytest.mark.parametrize("grid", [
    {"start": -1e308, "stop": 1e308, "step": 0.1},   # stop - start overflows
    {"start": 0.1, "stop": 0.5, "step": 1e-300},     # 4e299 points
])
def test_epsilon_grid_point_count_is_capped(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {"bounds": ["hoeffding"],
                                  "params": {"m": 100, "t_mix": 1},
                                  "epsilon_grid": grid})
    start = time.perf_counter()
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    # the cap itself is reachable
    at_cap = {"start": 0.0, "stop": 0.9999, "step": 1e-4}
    assert (len(parse_epsilon_grid({"epsilon_grid": at_cap}))
            == EPSILON_GRID_MAX_POINTS)


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
        "error: 'delta_grid' must be a non-empty list of numbers\n")


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


# id -> (parameter names, swept grid).  The names are the form's `bounds`
# config keys, so renaming a bound function's parameter must fail here
BOUND_FORM_TABLE = {
    "hoeffding_gap": (("m", "b", "epsilon", "t_mix"), "epsilon"),
    "hoeffding_shifted": (("m", "b", "epsilon", "t_mix"), "epsilon"),
    "hoeffding": (("m", "epsilon", "t_mix"), "epsilon"),
    "selection_hoeffding": (("n_candidates", "m", "epsilon", "t_mix"),
                            "epsilon"),
    "bernstein_raw": (("m", "epsilon", "gamma_ps", "variance",
                       "centering_bound"), "epsilon"),
    "bernstein_radius": (("m", "delta", "gamma_ps", "variance",
                          "centering_bound"), "delta"),
    "bernstein_gap_over": (("m", "b", "epsilon", "a", "gamma_ps", "t_mix"),
                           "epsilon"),
    "bernstein_gap_under": (("m", "b", "epsilon", "a", "gamma_ps", "t_mix"),
                            "epsilon"),
    "bernstein_over": (("m", "epsilon", "a", "gamma_ps", "t_mix"), "epsilon"),
    "bernstein_under": (("m", "epsilon", "a", "gamma_ps", "t_mix"),
                        "epsilon"),
    "expectation_hoeffding": (("n_candidates", "m", "t_mix"), None),
    "oracle_gap_hoeffding": (("n_candidates", "m", "t_mix"), None),
    "expectation_bernstein_over": (("n_candidates", "m", "a", "t_mix",
                                    "gamma_ps"), None),
    "expectation_bernstein_under": (("n_candidates", "m", "a", "t_mix",
                                     "gamma_ps"), None),
    "noise_gap": (("n_candidates", "m", "b", "epsilon", "theta", "gamma_ps",
                   "t_mix", "tau_star"), "epsilon"),
    "noise": (("n_candidates", "m", "epsilon", "theta", "gamma_ps", "t_mix",
               "tau_star"), "epsilon"),
}


def test_bound_forms_parameters_and_grids_are_pinned(tmp_path):
    assert list(BOUND_FORMS) == list(BOUND_FORM_TABLE)
    for bound_id, (names, _) in BOUND_FORM_TABLE.items():
        assert form_parameters(bound_id) == names, bound_id
    with open(CONFIGS / "bounds_grid.json") as fh:
        cfg = json.load(fh)
    assert sorted(cfg["bounds"]) == sorted(BOUND_FORM_TABLE)   # all 16
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(CONFIGS / "bounds_grid.json"),
                 "--out", str(out), "--quiet"]) == 0
    grids = {"epsilon": list(parse_epsilon_grid(cfg)),
             "delta": cfg["delta_grid"]}
    rows = read_csv(out, "bounds.csv")
    for bound_id, (names, grid) in BOUND_FORM_TABLE.items():
        swept = [row for row in rows if row["bound_id"] == bound_id]
        if grid is None:
            assert len(swept) == 1, bound_id
        else:
            assert ([float(row[grid]) for row in swept]
                    == grids[grid]), bound_id


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


def test_bounds_noise_gap_shift_is_finite_for_b_below_m(tmp_path):
    # 2b overflows a double here, the shift (1 + theta) 2b/m does not
    cfg = write_config(tmp_path, {
        "bounds": ["noise_gap"],
        "params": {"m": 1e308, "b": 9e307, "theta": 0.5, "n_candidates": 2,
                   "gamma_ps": 0.5, "t_mix": 2, "tau_star": 0.1},
        "epsilon_grid": [0.1]})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert read_csv(out, "bounds.csv")[0]["shift"] == "2.7000000000000002"


def test_bounds_grid_writes_vacuous_as_true_or_false(tmp_path):
    # the forms that take the chain's gamma_ps wrote True before it was a
    # Python float
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(CONFIGS / "bounds_grid.json"),
                 "--out", str(out), "--quiet"]) == 0
    cells = [row["vacuous"] for row in read_csv(out, "bounds.csv")]
    assert cells and set(cells) <= {"true", "false"}


def test_bounds_tau_star_from_noise_model_and_m(tmp_path):
    # the shipped grid config names a noise model and m but no tau_star:
    # the noise forms take tau_star(m) of that model
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(CONFIGS / "bounds_grid.json"),
                 "--out", str(out), "--quiet"]) == 0
    rows = read_csv(out, "bounds.csv")
    tau = MammenTsybakovNoise(alpha=1.0, h=0.6).tau_star(1000)
    noise_rows = [r for r in rows if r["bound_id"] in ("noise", "noise_gap")]
    assert len(noise_rows) == 20
    assert all(float(r["tau_star"]) == tau for r in noise_rows)
    assert all(r["tau_star"] == "" for r in rows if r not in noise_rows)


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


def test_bounds_rejection_names_the_params_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": ["bernstein_radius"],
                                  "params": {"m": 100, "gamma_ps": 0.5,
                                             "variance": 0.25,
                                             "centering_bound": 2}})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: centering_bound must lie in (0, 1], got 2.0\n")


def test_bounds_without_an_epsilon_names_the_keys_to_set(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": ["hoeffding"],
                                  "params": {"m": 100, "t_mix": 1}})
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: bound 'hoeffding' needs params.epsilon or epsilon_grid\n")


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


def test_simulate_manifest_echoes_the_seed_it_drew_with(tmp_path):
    # the echoed config, run again without the flag, draws the same states
    cfg = write_config(tmp_path, simulate_config(seed=9))
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed",
                 "7", "--quiet"]) == 0
    echo = read_json(out, "manifest.json")["config"]
    assert echo["seed"] == 7
    assert main(["simulate", "--config",
                 write_config(tmp_path, echo, name="echo.json"),
                 "--out", str(rerun), "--quiet"]) == 0
    assert (out / "trajectory.csv").read_bytes() == \
        (rerun / "trajectory.csv").read_bytes()


def test_simulate_env_seed(tmp_path, monkeypatch):
    # no environment variable sets the seed: only --seed replaces the
    # config's
    cfg = write_config(tmp_path, simulate_config(seed=9))
    plain = tmp_path / "plain"
    assert main(["simulate", "--config", cfg, "--out", str(plain),
                 "--quiet"]) == 0
    for value in ("123", "not-a-number"):
        monkeypatch.setenv("MARKOV_HOLDOUT_SEED", value)
        out = tmp_path / value
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        assert (out / "trajectory.csv").read_bytes() == \
            (plain / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------------------
# verify


# verify's optional keys at their defaults, and each at another value
VERIFY_DEFAULTS = {"mode": "conditional", "gap_b": 0, "a": 0.5, "theta": 0.5,
                   "seed": 0, "bound_scale": 1.0, "threads": 1,
                   "coupling_b_max": 20, "noise_check_order": None,
                   "oracle_checks": True}
VERIFY_OTHERS = {"mode": "marginal", "gap_b": 3, "a": 0.25, "theta": 0.75,
                 "seed": 11, "bound_scale": 0.5, "threads": 2,
                 "coupling_b_max": 5, "noise_check_order": 1,
                 "oracle_checks": False}


def test_verify_echoes_the_defaults_of_its_optional_keys():
    base = {k: v for k, v in VERIFY_BASE.items() if k not in VERIFY_DEFAULTS}
    echo = experiment_to_dict(experiment_from_dict(base))
    # JSON text, so that 1 and 1.0 or 0 and false differ
    assert (json.dumps({k: echo[k] for k in VERIFY_DEFAULTS}, sort_keys=True)
            == json.dumps(VERIFY_DEFAULTS, sort_keys=True))


def test_verify_echo_of_every_optional_key_parses_back():
    echo = experiment_to_dict(experiment_from_dict({**VERIFY_BASE,
                                                    **VERIFY_OTHERS}))
    assert {k: echo[k] for k in VERIFY_OTHERS} == VERIFY_OTHERS
    reread = json.loads(json.dumps(echo))
    assert experiment_to_dict(experiment_from_dict(reread)) == echo


def test_verify_echoes_its_train_loss(tmp_path):
    train_loss = {"name": "asymmetric", "table": [[0.0, 1.0], [0.5, 0.0]]}
    cfg = write_config(tmp_path, {**VERIFY_BASE, "train_loss": train_loss})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    echo = read_json(out, "report.json")["config"]
    assert echo["train_loss"] == train_loss
    assert read_json(out, "manifest.json")["config"] == echo
    assert experiment_to_dict(experiment_from_dict(echo)) == echo


def test_verify_manifest_echoes_the_flags_it_ran_with(tmp_path):
    cfg = write_config(tmp_path, VERIFY_BASE)
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "5",
                 "--threads", "2", "--quiet"]) == 0
    echo = read_json(out, "manifest.json")["config"]
    assert (echo["seed"], echo["threads"]) == (5, 2)
    assert read_json(out, "report.json")["config"] == echo
    assert main(["verify", "--config",
                 write_config(tmp_path, echo, name="echo.json"),
                 "--out", str(rerun), "--quiet"]) == 0
    for name in ("report.json", "report.csv"):
        assert (out / name).read_bytes() == (rerun / name).read_bytes()


@pytest.mark.parametrize("command, payload, flag", [
    ("simulate", {**TWO_STATE, "seed": "7"}, ["--seed", "3"]),
    ("verify", {**VERIFY_BASE, "threads": True}, ["--threads", "2"]),
], ids=["simulate-seed", "verify-threads"])
def test_flag_does_not_hide_a_malformed_config_value(tmp_path, capsys,
                                                      command, payload, flag):
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 *flag, "--quiet"])
    assert code == 2
    key = flag[0][2:]
    assert capsys.readouterr().err == f"error: {key!r} must be an integer\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


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


def test_diagnose_and_verify_report_the_same_diagnostics(tmp_path):
    # both commands take the embedded chain's diagnostics from one path
    chain = json.loads((CONFIGS / "order2_binary.json").read_text())["chain"]
    diag_out, verify_out = tmp_path / "diag", tmp_path / "verify"
    assert main(["diagnose", "--config", str(CONFIGS / "order2_binary.json"),
                 "--out", str(diag_out), "--quiet"]) == 0
    cfg = write_config(tmp_path, {**VERIFY_BASE, "chain": chain,
                                  "orders": [0, 2], "replications": 100})
    assert main(["verify", "--config", cfg, "--out", str(verify_out),
                 "--quiet"]) in (0, 1)
    diag = read_json(diag_out, "diagnostics.json")
    verify = read_json(verify_out, "report.json")["diagnostics"]
    for key in ("gammas", "gamma_ps", "argmax_k", "k_stop", "t_mix"):
        assert verify[key] == diag[key], key
    # verify stops the profile at t_mix, diagnose runs on to its horizon
    assert len(diag["d_values"]) == 51
    assert verify["d_values"] == diag["d_values"][:len(verify["d_values"])]


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


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("noise, alpha", [
    ({"kind": "mammen-tsybakov", "alpha": 0.5, "h": 0.6}, 0.5),
    ({"kind": "tabulated", "radii": [0.0, 1e-6, 1.0],
      "values": [0.0, 0.01, 0.1]}, None),
])
def test_verify_checks_the_configured_noise_model(tmp_path, noise, alpha):
    # verify used to check the default alpha = 1 modulus whatever the config
    # said, and a tabulated modulus wrote "alpha": NaN into noise.json
    payload = {**VERIFY_BASE, "noise": noise, "noise_check_order": 1}
    cfg = write_config(tmp_path, payload)
    verify_out, noise_out = tmp_path / "verify", tmp_path / "noise"
    assert main(["verify", "--config", cfg, "--out", str(verify_out),
                 "--quiet"]) in (0, 1)
    assert main(["noise", "--config", cfg, "--out", str(noise_out),
                 "--quiet"]) in (0, 1)
    reported = strict_json(verify_out / "report.json")["noise_condition"]
    assert reported["alpha"] == alpha
    assert reported == strict_json(noise_out / "noise.json")["condition_check"]


def test_verify_echoes_integer_valued_numbers_as_floats(tmp_path):
    cfg = write_config(tmp_path, {**VERIFY_BASE, "bound_scale": 1})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    echo = read_json(out, "report.json")["config"]
    assert type(echo["bound_scale"]) is float and echo["bound_scale"] == 1.0
    assert (out / "report.json").read_text().count('"bound_scale": 1.0') == 1


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


@pytest.mark.parametrize("chain, order, message", [
    ({"kernel": [[0.9, 0.1], [0.2, 0.8]], "embedding_order": 1}, 3,
     "error: order must lie in [0, 1]"),
    ({"kernel": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
      "embedding_order": 1}, 1,
     "error: margin is defined for binary chains only"),
    ({"kernel": [[0.5, 0.5], [0.5, 0.5]], "embedding_order": 1}, 1,
     "is numerically zero"),
], ids=["order-range", "binary-only", "zero-margin"])
def test_verify_rejects_noise_check_before_replicating(tmp_path, capsys,
                                                        monkeypatch, chain,
                                                        order, message):
    def never(config):
        raise AssertionError("replications ran before the noise check")

    monkeypatch.setattr("markov_holdout.cli.run_replications", never)
    cfg = write_config(tmp_path, {**VERIFY_BASE, "chain": chain,
                                  "noise_check_order": order})
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert message in capsys.readouterr().err


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


def test_noise_check_survives_stationary_law_past_one(tmp_path):
    # the tuple law of this chain sums to 1 + 1 ulp, so a table that
    # disagrees with the Bayes predictor everywhere has D = 1 + 1 ulp and
    # D(1 - D) < 0; the square root raised a math domain error
    cfg = write_config(tmp_path, {
        "chain": {"symbols": 2, "order": 1, "embedding_order": 1,
                  "conditional": [[0.7692440247430239, 0.23075597525697616],
                                  [0.7167588402855686, 0.2832411597144315]]},
        "noise_check_order": 1})
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    check = read_json(out, "noise.json")["condition_check"]
    assert check["n_tables"] == 4
    assert check["passed"] is True


def test_noise_zero_margin_chain(tmp_path):
    cfg = write_config(tmp_path, {
        "chain": {"kernel": [[0.5, 0.5], [0.5, 0.5]], "embedding_order": 1}})
    out = tmp_path / "out"
    assert main(["noise", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = read_json(out, "noise.json")
    assert payload["zero_margin"] is True
    assert payload["tau_star"] is None


def test_noise_on_a_non_binary_chain(tmp_path, capsys):
    # the margin and its noise model are binary-only: a 3-state chain
    # reports none of them, and the exhaustive check refuses to run
    three = {"chain": {"kernel": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                  [0.1, 0.2, 0.7]]}}
    out = tmp_path / "out"
    assert main(["noise", "--config", write_config(tmp_path, three),
                 "--out", str(out), "--quiet"]) == 0
    payload = read_json(out, "noise.json")
    for key in ("margin", "zero_margin", "noise", "tau_star"):
        assert payload[key] is None
    cfg = write_config(tmp_path, {**three, "noise_check_order": 1},
                       name="check.json")
    assert main(["noise", "--config", cfg, "--out", str(tmp_path / "check"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# shared surface


@pytest.mark.parametrize("command, payload, outputs", [
    ("diagnose", TWO_STATE, ["diagnostics.json"]),
    ("bounds", {"bounds": ["hoeffding", "bernstein_radius"],
                "params": {"m": 1000, "t_mix": 3, "gamma_ps": 0.51,
                           "variance": 0.25},
                "epsilon_grid": [0.1, 0.2]}, ["bounds.csv"]),
    ("simulate", {**TWO_STATE, "n": 5, "m": 5}, ["trajectory.csv"]),
    ("verify", VERIFY_BASE, ["report.csv", "report.json"]),
    ("noise", {"chain": VERIFY_BASE["chain"], "m_grid": [100]},
     ["noise.json"]),
], ids=["diagnose", "bounds", "simulate", "verify", "noise"])
def test_manifest_names_command_outputs_and_config(tmp_path, command,
                                                    payload, outputs):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    manifest = read_json(out, "manifest.json")
    assert manifest["command"] == command
    assert manifest["config_path"] == cfg
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == written == outputs
    # verify echoes its config with every default filled in
    echo = (experiment_to_dict(experiment_from_dict(payload))
            if command == "verify" else payload)
    assert manifest["config"] == json.loads(json.dumps(echo))


# subcommand -> (arguments, the stage lines it prints to stderr)
STAGE_LINES = {
    "diagnose": (["--config", str(CONFIGS / "two_state.json")],
                 ["[diagnose] states=2 t_mix=3 gamma_ps=0.51"]),
    "bounds": (["--config", str(CONFIGS / "bounds_grid.json")],
               ["[bounds] evaluated 117 rows over 16 forms"]),
    "simulate": (["--config", str(CONFIGS / "two_state.json"), "--seed", "7"],
                 ["[simulate] drew 1000 states (n=500, m=500) seed=(7, 0)"]),
    "verify": (["--config", str(CONFIGS / "verify_two_state.json")], [
        "[verify] mode=conditional R=2000 n=500 m=500 candidates=[0, 1]",
        "[verify] t_mix=4 gamma_ps=0.255 bayes_risk=0.133333",
        "[verify] 90 estimates: 0 violations, 76 vacuous",
        "[verify] oracle hoeffding: mean 0 + 3se vs rhs 0.986209 -> ok",
        "[verify] oracle bernstein: mean 0 + 3se vs rhs 29.6702 -> ok",
        "[verify] oracle noise: mean 0 + 3se vs rhs 159.666 -> ok",
        "[verify] coupling over b<=20: ok",
        "[verify] noise condition at order 1 over 4 tables: ok",
        "[verify] PASS"]),
    "noise": (["--config", str(CONFIGS / "order2_binary.json")],
              ["[noise] margin=0.2"]),
}


@pytest.mark.parametrize("command", list(STAGE_LINES))
def test_stage_lines_are_pinned(tmp_path, capsys, command):
    args, lines = STAGE_LINES[command]
    assert main([command, *args, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "".join(f"{line}\n" for line in lines)
    assert main([command, *args, "--out", str(tmp_path / "quiet"),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_quiet_applies_to_its_own_call_only(tmp_path, capsys):
    # test_stage_lines_are_pinned runs a loud call before a quiet one; here
    # a quiet call comes first and must not silence the next
    args, lines = STAGE_LINES["diagnose"]
    for quiet in (True, False):
        assert main(["diagnose", *args, "--out", str(tmp_path / str(quiet)),
                     *["--quiet"] * quiet]) == 0
        assert capsys.readouterr().err == ("" if quiet else f"{lines[0]}\n")


def test_a_run_leaves_other_loggers_alone(tmp_path):
    # stage lines are printed, not logged: a run configures no logging, so
    # another library's INFO record still goes nowhere
    code = ("import logging, sys\n"
            "from markov_holdout.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "logging.getLogger('elsewhere').info('not a stage line')\n"
            "sys.exit(code)\n")
    args, lines = STAGE_LINES["diagnose"]
    src = str(Path(markov_holdout.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, "diagnose", *args,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0
    assert out.stderr == f"{lines[0]}\n"


@pytest.mark.parametrize("setting", ["a", "theta"])
def test_overflowing_oracle_right_side_exits_two_in_one_line(tmp_path,
                                                             setting):
    # a real process: numpy warnings reach its stderr, where pytest would
    # turn them into exceptions in-process
    cfg = write_config(tmp_path, {**VERIFY_TWO_STATE, "n": 50, "m": 50,
                                  "replications": 1000, setting: 5e-324})
    src = str(Path(markov_holdout.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "markov_holdout.cli",
                          "verify", "--config", cfg,
                          "--out", str(tmp_path / "out"), "--quiet"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("error: oracle ")
    assert len(out.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "report.json").exists()


def test_tabulated_noise_whose_ratio_overflows_exits_two_in_one_line(
        tmp_path):
    # omega(r)/sqrt(r) overflows a double at r = 5e-324.  A real process: a
    # numpy warning reaches its stderr, where pytest would turn it into an
    # exception in-process
    cfg = write_config(tmp_path, {**ORDER2, "noise": {
        "kind": "tabulated", "radii": [0, 5e-324], "values": [0, 1e308]}})
    src = str(Path(markov_holdout.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "markov_holdout.cli",
                          "noise", "--config", cfg,
                          "--out", str(tmp_path / "out")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr == ("error: omega(x)/sqrt(x) is not finite at radius "
                          "5e-324\n")
    assert not (tmp_path / "out" / "noise.json").exists()


@pytest.mark.parametrize("out, block", [
    ("out", lambda out: out.write_text("")),
    ("file/out", lambda out: out.parent.write_text("")),
    ("out", lambda out: (out / "diagnostics.json").mkdir(parents=True)),
], ids=["out-is-a-file", "out-under-a-file", "artifact-is-a-directory"])
def test_unwritable_output_exits_two(tmp_path, capsys, out, block):
    out = tmp_path / out
    block(out)
    code = main(["diagnose", "--config", str(CONFIGS / "two_state.json"),
                 "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(out) in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, payload", [
    ("simulate", {**TWO_STATE, "n": 2 ** 62}),
    ("verify", {**VERIFY_BASE, "n": 2 ** 62, "mode": "conditional"}),
    ("verify", {**VERIFY_BASE, "n": 2 ** 62, "mode": "marginal"}),
], ids=["simulate", "verify-conditional", "verify-marginal"])
def test_a_length_no_array_can_hold_exits_two(tmp_path, capsys, command,
                                              payload):
    # (n + m) * 8 bytes pass the largest size numpy can index, so the run
    # is rejected before anything is drawn or allocated
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "do not fit in one int64 array" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("Unable to allocate 7.28 TiB"),
     "error: Unable to allocate 7.28 TiB\n"),
], ids=["bare", "with-message"])
def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch, exc, line):
    # a length numpy can index may still not be granted; the allocation is
    # stood in for here, since a real one may be granted lazily and filled
    def run_replications(config):
        raise exc
    monkeypatch.setattr(cli, "run_replications", run_replications)
    cfg = write_config(tmp_path, VERIFY_BASE)
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("name, make", [
    ("missing.json", lambda path: None),
    ("dir.json", lambda path: path.mkdir()),
], ids=["missing", "directory"])
def test_unreadable_config_exits_two_naming_it(tmp_path, capsys, name, make):
    path = tmp_path / name
    make(path)
    code = main(["diagnose", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(path) in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2
