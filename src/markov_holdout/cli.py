"""Command-line interface.

Subcommands: diagnose, bounds, simulate, verify, noise.  Each takes a JSON
config (--config), writes machine-readable artifacts into --out, and logs
one line per stage to stderr.  Exit codes: 0 all checks passed, 1 some
verified claim failed (a tail VIOLATION or a failed domination check),
2 the configuration or chain was rejected.

Outputs carry no timestamps except manifest.json, so reruns with the same
config are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .chains import (
    MixingProfile,
    SpectralDiagnostics,
    TransitionKernel,
    mixing_time,
    pseudo_spectral_gap,
    stationary_distribution,
)
from .config import (
    ENV_SEED,
    _field,
    _float_array,
    _int_list,
    _optional_int,
    _resolve_env_int,
    build_chain,
    experiment_from_dict,
    experiment_to_dict,
    parse_epsilon_grid,
    parse_noise,
)
from .errors import BinaryOnlyError, ConfigError, HoldoutError
from .harness import (
    coupling_check,
    noise_condition_check,
    oracle_gap_check,
    run_replications,
    verify_bounds,
)
from .sampling import SeedSpec, sample_stationary_trajectory

log = logging.getLogger("markov_holdout")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
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


def _write_manifest(out_dir: Path, command: str, config_path: str,
                    config_echo, outputs) -> None:
    manifest = {
        "command": command,
        "config_path": str(config_path),
        "config": config_echo,
        "outputs": sorted(str(p.name) for p in outputs),
        "package_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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


def _diagnostics_payload(kernel: TransitionKernel, q: np.ndarray,
                         level: float, horizon: int) -> dict:
    profile = mixing_time(kernel, level=level, q=q, horizon=horizon)
    spectral = pseudo_spectral_gap(kernel, q)
    return {"states": kernel.size, "stationary": q,
            **_mixing_fields(profile, spectral)}


def cmd_diagnose(cfg: dict, out_dir: Path, config_path: str) -> int:
    chain_obj = cfg.get("chain")
    if chain_obj is None:
        raise ConfigError("config needs a 'chain'")
    level = _field(cfg, "level", 0.25, float)
    horizon = _field(cfg, "horizon", 50, int)
    if (isinstance(chain_obj, dict) and "kernel" in chain_obj
            and "embedding_order" not in chain_obj):
        kernel = TransitionKernel(_field(
            chain_obj, "kernel", None, _float_array))
        payload = _diagnostics_payload(
            kernel, stationary_distribution(kernel), level, horizon)
        payload["embedded"] = False
    else:
        chain = build_chain(chain_obj)
        payload = _diagnostics_payload(chain.kernel, chain.stationary,
                                       level, horizon)
        payload["embedded"] = True
        payload["embedding_order"] = chain.embedding_order
        payload["symbol_marginal"] = chain.symbol_marginal()
    log.info("[diagnose] states=%d t_mix=%d gamma_ps=%.6g",
             payload["states"], payload["t_mix"], payload["gamma_ps"])
    out = out_dir / "diagnostics.json"
    _write_json(out, payload)
    _write_manifest(out_dir, "diagnose", config_path, cfg, [out])
    return 0


_BOUNDS_COLUMNS = ("bound_id", "m", "b", "epsilon", "delta", "a", "theta",
                   "n_candidates", "t_mix", "gamma_ps", "variance",
                   "centering_bound", "tau_star", "shift", "raw", "clamped",
                   "vacuous")


def cmd_bounds(cfg: dict, out_dir: Path, config_path: str) -> int:
    requested = cfg.get("bounds")
    if (not isinstance(requested, list) or not requested
            or not all(isinstance(b, str) for b in requested)):
        raise ConfigError("'bounds' must be a non-empty list of bound ids")
    params = _field(cfg, "params", {}, dict)
    chain = None
    if "chain" in cfg:
        chain = build_chain(cfg["chain"])
        profile = mixing_time(chain.kernel, q=chain.stationary)
        spectral = pseudo_spectral_gap(chain.kernel, chain.stationary)
        params.setdefault("t_mix", profile.t_mix)
        params.setdefault("gamma_ps", spectral.gamma_ps)
    noise = parse_noise(cfg.get("noise"), chain)
    if not isinstance(cfg.get("delta_grid", []), list):
        raise ConfigError("'delta_grid' must be a list of numbers")
    rows = []
    try:
        if noise is not None and "m" in params:
            params.setdefault("tau_star", noise.tau_star(int(params["m"])))
        eps_grid = (parse_epsilon_grid(cfg["epsilon_grid"])
                    if "epsilon_grid" in cfg else (params.get("epsilon"),))
        delta_grid = (tuple(float(v) for v in cfg["delta_grid"])
                      if "delta_grid" in cfg else (params.get("delta", 0.05),))
        for bound_id in requested:
            if bound_id not in bnd.BOUND_FORMS:
                raise ConfigError(f"unknown bound id {bound_id!r}")
            grid_param, shift = bnd.BOUND_FORMS[bound_id][2:]
            if grid_param == "epsilon":
                grid = [("epsilon", e) for e in eps_grid]
            elif grid_param == "delta":
                grid = [("delta", d) for d in delta_grid]
            else:
                grid = [(None, None)]
            for name, value in grid:
                p = dict(params)
                if name is not None:
                    if value is None:
                        raise ConfigError(
                            f"bound {bound_id!r} needs a {name} grid")
                    p[name] = value
                rep = bnd.evaluate_bound(bound_id, p)
                # m, b, t_mix and gamma_ps are echoed even for forms that
                # do not take them; the other parameter columns show inputs
                row = {**rep.inputs, "bound_id": bound_id,
                       "m": p.get("m"), "b": p.get("b"),
                       "t_mix": p.get("t_mix"), "gamma_ps": p.get("gamma_ps"),
                       "shift": None if shift is None else shift(p),
                       "raw": rep.raw,
                       "clamped": rep.clamped, "vacuous": rep.vacuous}
                rows.append([row.get(col) for col in _BOUNDS_COLUMNS])
    except HoldoutError:  # RangeError is also a ValueError: keep its message
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad bound parameters: {exc}") from exc
    log.info("[bounds] evaluated %d rows over %d forms", len(rows),
             len(requested))
    out = out_dir / "bounds.csv"
    _write_csv(out, _BOUNDS_COLUMNS, rows)
    _write_manifest(out_dir, "bounds", config_path, cfg, [out])
    return 0


def cmd_simulate(cfg: dict, out_dir: Path, config_path: str,
                 seed_override: int | None) -> int:
    chain = build_chain(cfg["chain"]) if "chain" in cfg else None
    if chain is None:
        raise ConfigError("config needs a 'chain'")
    n = _field(cfg, "n", 1, int)
    m = _field(cfg, "m", 0, int)
    # same precedence as verify: --seed flag > env > config > default
    seed = _resolve_env_int(ENV_SEED, _field(cfg, "seed", 0, int))
    if seed_override is not None:
        seed = seed_override
    replication = _field(cfg, "replication", 0, int)
    traj = sample_stationary_trajectory(chain, n, m, SeedSpec(seed, replication))
    log.info("[simulate] drew %d states (n=%d, m=%d) seed=(%d, %d)",
             len(traj.states), n, m, seed, replication)
    p = chain.embedding_order
    header = ["t", "state", "segment"] + [f"y_lag{i}" for i in range(p + 1)]
    rows = []
    for t, state in enumerate(traj.states, start=1):
        symbols = chain.decode(int(state))
        rows.append([t, int(state),
                     "learning" if t <= n else "validation", *symbols])
    out = out_dir / "trajectory.csv"
    _write_csv(out, header, rows)
    _write_manifest(out_dir, "simulate", config_path, cfg, [out])
    return 0


_REPORT_COLUMNS = ("event_id", "bound_id", "epsilon", "threshold", "count",
                   "trials", "p_hat", "wilson_upper", "bound_raw", "bound",
                   "vacuous", "verdict")


def cmd_verify(cfg: dict, out_dir: Path, config_path: str,
               seed_override: int | None, threads_override: int | None) -> int:
    exp = experiment_from_dict(cfg, seed_override, threads_override)
    echo = experiment_to_dict(exp)
    log.info("[verify] mode=%s R=%d n=%d m=%d candidates=%s", exp.mode,
             exp.replications, exp.n, exp.m, list(exp.orders))
    run = run_replications(exp)
    log.info("[verify] t_mix=%d gamma_ps=%.6g bayes_risk=%.6g",
             run.mixing.t_mix, run.spectral.gamma_ps, run.bayes_risk)
    verification = verify_bounds(run)
    log.info("[verify] %d estimates: %d violations, %d vacuous",
             len(verification.estimates), verification.violations,
             verification.vacuous)

    oracle_reports = []
    if exp.run_oracle_checks and exp.replications >= 1000:
        kinds = ["hoeffding", "bernstein"] + (
            ["noise"] if exp.noise is not None else [])
        for kind in kinds:
            rep = oracle_gap_check(run, kind)
            oracle_reports.append(rep)
            log.info("[verify] oracle %s: mean %.6g + 3se vs rhs %.6g -> %s",
                     kind, rep.mean_gap, rep.rhs,
                     "ok" if rep.passed else "FAIL")

    coupling = coupling_check(exp.chain, run.bayes, exp.loss,
                              exp.coupling_b_max, profile=run.mixing)
    log.info("[verify] coupling over b<=%d: %s", exp.coupling_b_max,
             "ok" if coupling.passed else "FAIL")

    noise_report = None
    if exp.noise_check_order is not None:
        noise_report = noise_condition_check(exp.chain, exp.noise_check_order)
        log.info("[verify] noise condition at order %d over %d tables: %s",
                 noise_report.order, noise_report.n_tables,
                 "ok" if noise_report.passed else "FAIL")

    chain_margin = bnd.margin(exp.chain) if exp.chain.symbols == 2 else None

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
            "margin": chain_margin,
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
        "tails": [asdict(e) for e in verification.estimates],
        "oracle_checks": [asdict(r) for r in oracle_reports],
        "coupling": asdict(coupling),
        "noise_condition": None if noise_report is None else asdict(noise_report),
        "verdict_summary": {
            "violations": verification.violations,
            "vacuous": verification.vacuous,
            "dominated": (len(verification.estimates)
                          - verification.violations - verification.vacuous),
            "passed": all_passed,
        },
    }
    report_json = out_dir / "report.json"
    _write_json(report_json, report)
    report_csv = out_dir / "report.csv"
    _write_csv(report_csv, _REPORT_COLUMNS,
               [[e.event_id, e.bound_id, e.epsilon, e.threshold, e.count,
                 e.trials, e.p_hat, e.wilson_upper, e.bound_raw, e.bound,
                 e.vacuous, e.verdict] for e in verification.estimates])
    _write_manifest(out_dir, "verify", config_path, echo,
                    [report_json, report_csv])
    log.info("[verify] %s", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


def cmd_noise(cfg: dict, out_dir: Path, config_path: str) -> int:
    if "chain" not in cfg:
        raise ConfigError("config needs a 'chain'")
    chain = build_chain(cfg["chain"])
    try:
        h = bnd.margin(chain)
        zero_margin = h <= 1e-12
    except BinaryOnlyError:
        h = None
        zero_margin = None
    noise = parse_noise(cfg.get("noise"), chain)
    if noise is None and h is not None and not zero_margin:
        noise = bnd.MammenTsybakovNoise(alpha=1.0, h=h)
    m_grid = _int_list(cfg.get("m_grid", [100, 1000, 10000]), "m_grid")
    tau_table = None
    if noise is not None:
        tau_table = [{"m": m, "tau_star": noise.tau_star(m)} for m in m_grid]
    check = None
    order = _optional_int(cfg.get("noise_check_order"), "noise_check_order")
    if order is not None:
        check = asdict(noise_condition_check(chain, order, noise=noise))
    payload = {"margin": h, "zero_margin": zero_margin,
               "noise": None if noise is None else type(noise).__name__,
               "tau_star": tau_table, "condition_check": check}
    log.info("[noise] margin=%s", f"{h:.6g}" if h is not None else "n/a")
    out = out_dir / "noise.json"
    _write_json(out, payload)
    _write_manifest(out_dir, "noise", config_path, cfg, [out])
    return 0 if check is None or check["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="markov-holdout",
        description="Hold-out selection on ergodic chains: exact diagnostics, "
                    "closed-form bounds, Monte Carlo verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("diagnose", "stationary law, mixing profile, spectral gap"),
            ("bounds", "evaluate closed-form bounds over a grid"),
            ("simulate", "draw one seeded trajectory to CSV"),
            ("verify", "replicate, estimate tails, check domination"),
            ("noise", "margin, fixed points, noise-condition check")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        if name in ("simulate", "verify"):
            p.add_argument("--seed", type=int, default=None,
                           help="override the master seed")
        if name == "verify":
            p.add_argument("--threads", type=int, default=None,
                           help="override the worker process count "
                                "(replications, either mode)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress stage logging")
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    try:
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "diagnose":
            return cmd_diagnose(cfg, out_dir, args.config)
        if args.command == "bounds":
            return cmd_bounds(cfg, out_dir, args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, args.config, args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.config, args.seed,
                              args.threads)
        if args.command == "noise":
            return cmd_noise(cfg, out_dir, args.config)
        raise ConfigError(f"unknown command {args.command!r}")
    except HoldoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
