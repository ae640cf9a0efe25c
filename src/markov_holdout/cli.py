"""Command-line interface.

Subcommands: diagnose, bounds, simulate, verify, noise.  Each takes a JSON
config (--config) and returns its artifacts; main writes them into --out
and prints one line per stage to stderr.  Exit codes: 0 all checks passed,
1 some verified claim failed (a tail VIOLATION or a failed domination
check), 2 the configuration or chain was rejected, or --out or an artifact
could not be created or written.

Outputs carry no timestamps except manifest.json, so reruns with the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .chains import (
    MarkovizedChain,
    MixingProfile,
    SpectralDiagnostics,
    TransitionKernel,
    mixing_time,
    pseudo_spectral_gap,
    stationary_distribution,
)
from .config import (
    build_chain,
    experiment_from_dict,
    experiment_to_dict,
    parse_epsilon_grid,
    parse_noise,
    read,
)
from .errors import BinaryOnlyError, ConfigError, HoldoutError
from .harness import (
    ORACLE_MIN_REPLICATIONS,
    coupling_check,
    noise_condition_check,
    oracle_gap_check,
    run_replications,
    verify_bounds,
)
from .sampling import SeedSpec, sample_stationary_trajectory


def _json_default(value):
    # arrays and numpy scalars; np.float64 is a float and never reaches here
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _load_config(path: str) -> dict:
    try:
        # RFC 8259: JSON exchanged between systems is UTF-8
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _mixing_fields(profile: MixingProfile,
                   spectral: SpectralDiagnostics) -> dict:
    # the mixing and spectral keys shared by diagnostics.json and report.json
    return {
        "d_values": profile.d_values,
        "t_mix": profile.t_mix,
        "epsilon_level": profile.epsilon_level,
        "certificate": {"c": profile.certificate_c,
                        "rho": profile.certificate_rho},
        "gamma_ps": spectral.gamma_ps,
        "argmax_k": spectral.argmax_k,
        "gammas": spectral.gammas,
        "k_stop": spectral.k_stop,
    }


def _diagnostics_payload(kernel: TransitionKernel | MarkovizedChain,
                         q: np.ndarray, level: float, horizon: int) -> dict:
    profile = mixing_time(kernel, level=level, q=q, horizon=horizon)
    spectral = pseudo_spectral_gap(kernel, q)
    return {"states": kernel.size, "stationary": q,
            **_mixing_fields(profile, spectral)}


def _margin(chain: MarkovizedChain) -> float | None:
    # the chain's margin, None for a chain that has none (not binary)
    try:
        return bnd.margin(chain)
    except BinaryOnlyError:
        return None


def cmd_diagnose(cfg: dict, say) -> tuple[int, dict, dict]:
    chain_obj = read(cfg, "chain", "object")
    level = read(cfg, "level", "number", 0.25)
    horizon = read(cfg, "horizon", "int", 50)
    if "kernel" in chain_obj and "embedding_order" not in chain_obj:
        kernel = TransitionKernel(read(chain_obj, "kernel", "array"))
        payload = _diagnostics_payload(
            kernel, stationary_distribution(kernel), level, horizon)
        payload["embedded"] = False
    else:
        chain = build_chain(chain_obj)
        payload = _diagnostics_payload(chain, chain.stationary, level,
                                       horizon)
        payload["embedded"] = True
        payload["embedding_order"] = chain.embedding_order
        payload["symbol_marginal"] = chain.symbol_marginal()
    say(f"[diagnose] states={payload['states']} t_mix={payload['t_mix']} "
        f"gamma_ps={payload['gamma_ps']:.6g}")
    return 0, {"diagnostics.json": payload}, cfg


_BOUNDS_COLUMNS = ("bound_id", "m", "b", "epsilon", "delta", "a", "theta",
                   "n_candidates", "t_mix", "gamma_ps", "variance",
                   "centering_bound", "tau_star", "shift", "raw", "clamped",
                   "vacuous")


def cmd_bounds(cfg: dict, say) -> tuple[int, dict, dict]:
    requested = cfg.get("bounds")
    if (not isinstance(requested, list) or not requested
            or not all(isinstance(b, str) for b in requested)):
        raise ConfigError("'bounds' must be a non-empty list of bound ids")
    params = read(cfg, "params", "object", {})
    # null means unset
    params = {k: v for k in params
              if (v := read(params, k, "number", null=True)) is not None}
    chain = None
    if "chain" in cfg:
        chain = build_chain(read(cfg, "chain", "object"))
        profile = mixing_time(chain, q=chain.stationary)
        spectral = pseudo_spectral_gap(chain, chain.stationary)
        params.setdefault("t_mix", profile.t_mix)
        params.setdefault("gamma_ps", spectral.gamma_ps)
    noise = parse_noise(cfg, chain)
    delta_grid = read(cfg, "delta_grid", "numbers",
                      (params.get("delta", 0.05),))
    grids = {"epsilon": (parse_epsilon_grid(cfg) if "epsilon_grid" in cfg
                         else (params.get("epsilon"),)),
             "delta": delta_grid}
    if noise is not None and params.get("m") is not None:
        params.setdefault("tau_star", noise.tau_star(params["m"]))
    rows = []
    for bound_id in requested:
        names = bnd.form_parameters(bound_id)
        name = next((k for k in grids if k in names), None)
        for value in grids.get(name, (None,)):
            if name is not None and value is None:
                raise ConfigError(f"bound {bound_id!r} needs "
                                  f"params.{name} or {name}_grid")
            p = params if name is None else {**params, name: value}
            rep = bnd.evaluate_bound(bound_id, p)
            # m, b, t_mix and gamma_ps are echoed even for forms that do not
            # take them; the other parameter columns show inputs
            row = {**rep.inputs, "bound_id": bound_id,
                   "m": p.get("m"), "b": p.get("b"),
                   "t_mix": p.get("t_mix"), "gamma_ps": p.get("gamma_ps"),
                   "shift": bnd.event_shift(bound_id, p),
                   "raw": rep.raw,
                   "clamped": rep.clamped, "vacuous": rep.vacuous}
            rows.append([row.get(col) for col in _BOUNDS_COLUMNS])
    say(f"[bounds] evaluated {len(rows)} rows over {len(requested)} forms")
    return 0, {"bounds.csv": (_BOUNDS_COLUMNS, rows)}, cfg


def cmd_simulate(cfg: dict, say) -> tuple[int, dict, dict]:
    chain = build_chain(read(cfg, "chain", "object"))
    n = read(cfg, "n", "int", 1)
    m = read(cfg, "m", "int", 0)
    seed = read(cfg, "seed", "int", 0)
    replication = read(cfg, "replication", "int", 0)
    states = sample_stationary_trajectory(chain, n, m,
                                          SeedSpec(seed, replication))
    say(f"[simulate] drew {len(states)} states (n={n}, m={m}) "
        f"seed=({seed}, {replication})")
    p = chain.embedding_order
    header = ["t", "state", "segment"] + [f"y_lag{i}" for i in range(p + 1)]
    rows = []
    for t, state in enumerate(states, start=1):
        symbols = chain.decode(int(state))
        rows.append([t, int(state),
                     "learning" if t <= n else "validation", *symbols])
    return 0, {"trajectory.csv": (header, rows)}, cfg


_REPORT_COLUMNS = ("event_id", "bound_id", "epsilon", "threshold", "count",
                   "trials", "p_hat", "wilson_upper", "bound_raw", "bound",
                   "vacuous", "verdict")


def cmd_verify(cfg: dict, say) -> tuple[int, dict, dict]:
    exp = experiment_from_dict(cfg)
    echo = experiment_to_dict(exp)
    say(f"[verify] mode={exp.mode} R={exp.replications} n={exp.n} "
        f"m={exp.m} candidates={list(exp.orders)}")
    run = run_replications(exp)
    say(f"[verify] t_mix={run.mixing.t_mix} "
        f"gamma_ps={run.spectral.gamma_ps:.6g} "
        f"bayes_risk={run.bayes_risk:.6g}")
    verification = verify_bounds(run)
    say(f"[verify] {len(verification.estimates)} estimates: "
        f"{verification.violations} violations, "
        f"{verification.vacuous} vacuous")

    oracle_reports = []
    if exp.run_oracle_checks and exp.replications >= ORACLE_MIN_REPLICATIONS:
        kinds = ["hoeffding", "bernstein"] + (
            ["noise"] if exp.noise is not None else [])
        for kind in kinds:
            rep = oracle_gap_check(run, kind)
            oracle_reports.append(rep)
            say(f"[verify] oracle {kind}: mean {rep.mean_gap:.6g} + 3se vs "
                f"rhs {rep.rhs:.6g} -> {'ok' if rep.passed else 'FAIL'}")

    coupling = coupling_check(exp.chain, run.bayes, exp.loss,
                              exp.coupling_b_max, profile=run.mixing)
    say(f"[verify] coupling over b<={exp.coupling_b_max}: "
        f"{'ok' if coupling.passed else 'FAIL'}")

    noise_report = None
    if exp.noise_check_order is not None:
        noise_report = noise_condition_check(exp.chain, exp.noise_check_order,
                                             noise=exp.noise)
        say(f"[verify] noise condition at order {noise_report.order} over "
            f"{noise_report.n_tables} tables: "
            f"{'ok' if noise_report.passed else 'FAIL'}")

    all_passed = (verification.passed
                  and all(r.passed for r in oracle_reports)
                  and coupling.passed
                  and (noise_report is None or noise_report.passed))

    report = {
        "config": echo,
        "diagnostics": {
            "states": exp.chain.n_states,
            **_mixing_fields(run.mixing, run.spectral),
            "bayes_risk": run.bayes_risk,
            "tau_star": run.tau_star,
            "margin": _margin(exp.chain),
        },
        "candidates": [
            {"order": q,
             "exact_risk_mean": float(run.exact[:, i].mean()),
             "empirical_risk_mean": float(run.empirical[:, i].mean()),
             "selected_frequency": float(run.selection_frequency()[i])}
            for i, q in enumerate(exp.orders)],
        "selection": {
            "tie_break": "lowest index",
            "k_hat_frequency": run.selection_frequency(),
            "k_tilde_mode": int(np.bincount(run.k_tilde).argmax()),
        },
        # the records' own field dicts, not copies: every field is a scalar,
        # a tuple of scalars or a dict of scalars, and writing only reads them
        "tails": [vars(e) for e in verification.estimates],
        "oracle_checks": [vars(r) for r in oracle_reports],
        "coupling": vars(coupling),
        "noise_condition": None if noise_report is None else vars(noise_report),
        "verdict_summary": {
            "violations": verification.violations,
            "vacuous": verification.vacuous,
            "dominated": verification.dominated,
            "passed": all_passed,
        },
    }
    say(f"[verify] {'PASS' if all_passed else 'FAIL'}")
    rows = [[getattr(e, c) for c in _REPORT_COLUMNS]
            for e in verification.estimates]
    return (0 if all_passed else 1,
            {"report.json": report, "report.csv": (_REPORT_COLUMNS, rows)},
            echo)


def cmd_noise(cfg: dict, say) -> tuple[int, dict, dict]:
    chain = build_chain(read(cfg, "chain", "object"))
    h = _margin(chain)
    zero_margin = None if h is None else h <= bnd.ZERO_MARGIN_TOL
    noise = parse_noise(cfg, chain)
    if noise is None and h is not None and not zero_margin:
        noise = bnd.MammenTsybakovNoise(alpha=1.0, h=h)
    m_grid = read(cfg, "m_grid", "ints", (100, 1000, 10000))
    tau_table = None
    if noise is not None:
        tau_table = [{"m": m, "tau_star": noise.tau_star(m)} for m in m_grid]
    check = None
    order = read(cfg, "noise_check_order", "int", None, null=True)
    if order is not None:
        check = vars(noise_condition_check(chain, order, noise=noise))
    payload = {"margin": h, "zero_margin": zero_margin,
               "noise": None if noise is None else type(noise).__name__,
               "tau_star": tau_table, "condition_check": check}
    say(f"[noise] margin={'n/a' if h is None else format(h, '.6g')}")
    return (0 if check is None or check["passed"] else 1,
            {"noise.json": payload}, cfg)


_SEED_FLAG = ("--seed", "override the master seed")
# subcommand -> (function, help line, extra integer flags as (flag, help)).
# Each function takes (cfg, say): the parsed config, into which main has
# written every given flag under the key of the same name, and the function
# that prints one stage line.  It returns (exit code, {file name: content},
# echo): main writes each .json content as JSON and each .csv content, a
# (header, rows) pair, as CSV, then writes the config echo to manifest.json.
_COMMANDS = {
    "diagnose": (cmd_diagnose,
                 "stationary law, mixing profile, spectral gap", ()),
    "bounds": (cmd_bounds, "evaluate closed-form bounds over a grid", ()),
    "simulate": (cmd_simulate, "draw one seeded trajectory to CSV",
                 (_SEED_FLAG,)),
    "verify": (cmd_verify, "replicate, estimate tails, check domination",
               (_SEED_FLAG,
                ("--threads", "override the worker process count "
                              "(replications, either mode)"))),
    "noise": (cmd_noise, "margin, fixed points, noise-condition check", ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="markov-holdout",
        description="Hold-out selection on ergodic chains: exact diagnostics, "
                    "closed-form bounds, Monte Carlo verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        for flag, flag_help in flags:
            p.add_argument(flag, type=int, default=None, help=flag_help)
        p.add_argument("--quiet", action="store_true",
                       help="suppress stage logging")
    args = parser.parse_args(argv)

    def say(line: str) -> None:
        if not args.quiet:
            print(line, file=sys.stderr)

    try:
        cfg = _load_config(args.config)
        # a given flag replaces the config key of its name; a malformed
        # config value is still an error
        for key in ("seed", "threads"):
            if (flag := getattr(args, key, None)) is not None:
                read(cfg, key, "int", None)
                cfg[key] = flag
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        code, artifacts, echo = _COMMANDS[args.command][0](cfg, say)
        for name, content in artifacts.items():
            if name.endswith(".json"):
                _write_json(out_dir / name, content)
            else:
                _write_csv(out_dir / name, *content)
        _write_json(out_dir / "manifest.json", {
            "command": args.command,
            "config_path": args.config,
            "config": echo,
            "outputs": sorted(artifacts),
            "package_version": __version__,
            "created_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
        })
    except (HoldoutError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
