"""Config-file parsing shared by the CLI subcommands.

Configs are plain JSON.  A chain is either a first-order kernel

    {"kernel": [[0.9, 0.1], [0.2, 0.8]]}

or a higher-order conditional law, with contexts written most-recent-first
as comma-separated symbols ("0,1" means the previous symbol was 0 and the
one before it 1):

    {"symbols": 2, "order": 2, "conditional": {"0,0": [0.9, 0.1], ...}}

Either form takes an optional "embedding_order" (default: the base order)
controlling how many past symbols the composite states carry.

Seed and thread count resolve in precedence order: CLI flag, then the
environment (MARKOV_HOLDOUT_SEED / MARKOV_HOLDOUT_THREADS), then the
config file, then defaults.
"""

from __future__ import annotations

import os

import numpy as np

from .bounds import MammenTsybakovNoise, TabulatedNoise, margin
from .chains import HigherOrderChainSpec, MarkovizedChain, markovize
from .errors import ConfigError, HoldoutError
from .harness import ExperimentConfig
from .predictors import LossSpec

ENV_SEED = "MARKOV_HOLDOUT_SEED"
ENV_THREADS = "MARKOV_HOLDOUT_THREADS"


def _field(obj: dict, key: str, default, convert):
    """``convert(obj.get(key, default))``; a value it rejects is a ConfigError."""
    try:
        return convert(obj.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _int_list(value, key: str) -> tuple[int, ...]:
    # a JSON string is iterable too: "01" must not read as [0, 1]
    if not isinstance(value, list) or any(type(q) is not int for q in value):
        raise ConfigError(f"{key!r} must be a list of integers")
    return tuple(value)


def _optional_int(value, key: str) -> int | None:
    # type(), not isinstance: JSON false must not read as 0
    if value is not None and type(value) is not int:
        raise ConfigError(f"{key!r} must be an integer or null")
    return value


def _context_index(key: str, symbols: int, order: int) -> int:
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != order:
        raise ConfigError(
            f"context {key!r} must list exactly {order} symbols")
    index = 0
    for p in parts:
        v = int(p)
        if not 0 <= v < symbols:
            raise ConfigError(f"context {key!r} has symbol {v} outside "
                              f"[0, {symbols})")
        index = index * symbols + v
    return index


def parse_base_chain(obj: dict) -> tuple[HigherOrderChainSpec, int]:
    """Chain dict -> (base spec, embedding order)."""
    if not isinstance(obj, dict):
        raise ConfigError("chain must be a JSON object")
    try:
        if "kernel" in obj:
            base = HigherOrderChainSpec.from_kernel(obj["kernel"])
        else:
            symbols = int(obj["symbols"])
            order = int(obj["order"])
            cond = obj["conditional"]
            if isinstance(cond, dict):
                rows = np.zeros((symbols ** order, symbols))
                filled = np.zeros(symbols ** order, dtype=bool)
                for key, row in cond.items():
                    idx = _context_index(key, symbols, order)
                    rows[idx] = row
                    filled[idx] = True
                if not filled.all():
                    missing = int(np.nonzero(~filled)[0][0])
                    raise ConfigError(
                        f"conditional is missing context index {missing}")
                cond = rows
            base = HigherOrderChainSpec(symbols=symbols, order=order,
                                        conditional=np.asarray(cond, dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad chain spec: {exc}") from exc
    embedding = int(obj.get("embedding_order", base.order))
    return base, embedding


def build_chain(obj: dict) -> MarkovizedChain:
    base, embedding = parse_base_chain(obj)
    return markovize(base, embedding)


def parse_loss(obj, symbols: int) -> LossSpec:
    if obj is None or obj == "misclassification":
        return LossSpec.misclassification(symbols)
    if isinstance(obj, dict) and "table" in obj:
        return LossSpec(table=_field(obj, "table", None, _float_array),
                        name=str(obj.get("name", "loss")))
    raise ConfigError(f"cannot parse loss spec {obj!r}")


def parse_noise(obj, chain: MarkovizedChain | None):
    if obj is None:
        return None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("noise spec must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "mammen-tsybakov":
        if obj.get("h") is not None:
            h = _field(obj, "h", None, float)
        elif chain is None:
            raise ConfigError("noise h omitted and no chain to take a "
                              "margin from")
        else:
            h = margin(chain)
        return MammenTsybakovNoise(alpha=_field(obj, "alpha", 1.0, float), h=h)
    if kind == "tabulated":
        missing = [k for k in ("radii", "values") if k not in obj]
        if missing:
            raise ConfigError(f"tabulated noise needs {missing[0]!r}")
        return TabulatedNoise(radii=_field(obj, "radii", None, _float_array),
                              values=_field(obj, "values", None, _float_array))
    raise ConfigError(f"unknown noise kind {kind!r}")


def parse_epsilon_grid(obj) -> tuple[float, ...]:
    if isinstance(obj, (list, tuple)):
        return tuple(float(v) for v in obj)
    if isinstance(obj, dict):
        try:
            start = float(obj["start"])
            stop = float(obj["stop"])
            step = float(obj["step"])
        except KeyError as exc:
            raise ConfigError(f"epsilon grid needs {exc}") from exc
        if step <= 0:
            raise ConfigError("epsilon grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        grid = tuple(round(start + i * step, 12) for i in range(count)
                     if start + i * step <= stop + 1e-12)
        if not grid:
            raise ConfigError("epsilon grid is empty")
        return grid
    raise ConfigError(f"cannot parse epsilon grid {obj!r}")


def _resolve_env_int(name: str, current):
    raw = os.environ.get(name)
    if raw is None:
        return current
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}={raw!r} is not an integer") from exc


def experiment_from_dict(d: dict, seed_override: int | None = None,
                         threads_override: int | None = None) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    try:
        chain = build_chain(d["chain"])
    except KeyError as exc:
        raise ConfigError("config needs a 'chain'") from exc
    loss = parse_loss(d.get("loss"), chain.symbols)
    train = d.get("train_loss")
    train_loss = parse_loss(train, chain.symbols) if train is not None else None
    noise = parse_noise(d.get("noise"), chain)
    seed = d.get("seed", 0)
    seed = _resolve_env_int(ENV_SEED, seed)
    if seed_override is not None:
        seed = seed_override
    oracle_checks = d.get("oracle_checks", True)
    if type(oracle_checks) is not bool:
        raise ConfigError("'oracle_checks' must be true or false")
    threads = d.get("threads", 1)
    threads = _resolve_env_int(ENV_THREADS, threads)
    if threads_override is not None:
        threads = threads_override
    try:
        return ExperimentConfig(
            chain=chain,
            orders=_int_list(d["orders"], "orders"),
            loss=loss,
            train_loss=train_loss,
            n=int(d["n"]),
            m=int(d["m"]),
            replications=int(d["replications"]),
            epsilon_grid=parse_epsilon_grid(d["epsilon_grid"]),
            mode=str(d.get("mode", "conditional")),
            gap_b=int(d.get("gap_b", 0)),
            a=float(d.get("a", 0.5)),
            theta=float(d.get("theta", 0.5)),
            noise=noise,
            master_seed=int(seed),
            bound_scale=float(d.get("bound_scale", 1.0)),
            threads=int(threads),
            coupling_b_max=int(d.get("coupling_b_max", 20)),
            noise_check_order=_optional_int(d.get("noise_check_order"),
                                            "noise_check_order"),
            run_oracle_checks=oracle_checks,
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, HoldoutError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def chain_to_dict(chain: MarkovizedChain) -> dict:
    return {
        "symbols": chain.base.symbols,
        "order": chain.base.order,
        "conditional": [list(map(float, row)) for row in chain.base.conditional],
        "embedding_order": chain.embedding_order,
    }


def loss_to_dict(loss: LossSpec) -> dict:
    return {"name": loss.name,
            "table": [list(map(float, row)) for row in loss.table]}


def noise_to_dict(noise) -> dict | None:
    if noise is None:
        return None
    if isinstance(noise, MammenTsybakovNoise):
        return {"kind": "mammen-tsybakov", "alpha": noise.alpha, "h": noise.h}
    if isinstance(noise, TabulatedNoise):
        return {"kind": "tabulated", "radii": list(map(float, noise.radii)),
                "values": list(map(float, noise.values))}
    raise ConfigError(f"cannot serialize noise model {noise!r}")


def experiment_to_dict(config: ExperimentConfig) -> dict:
    """Echo that re-parses (via experiment_from_dict) to an equivalent config."""
    return {
        "chain": chain_to_dict(config.chain),
        "orders": list(config.orders),
        "loss": loss_to_dict(config.loss),
        "train_loss": (None if config.train_loss is None
                       else loss_to_dict(config.train_loss)),
        "n": config.n,
        "m": config.m,
        "replications": config.replications,
        "epsilon_grid": list(config.epsilon_grid),
        "mode": config.mode,
        "gap_b": config.gap_b,
        "a": config.a,
        "theta": config.theta,
        "noise": noise_to_dict(config.noise),
        "seed": config.master_seed,
        "bound_scale": config.bound_scale,
        "threads": config.threads,
        "coupling_b_max": config.coupling_b_max,
        "noise_check_order": config.noise_check_order,
        "oracle_checks": config.run_oracle_checks,
    }
