"""Config-file parsing shared by the CLI subcommands.

Configs are plain JSON.  A chain is either a first-order kernel

    {"kernel": [[0.9, 0.1], [0.2, 0.8]]}

or a higher-order conditional law, with contexts written most-recent-first
as comma-separated symbols ("0,1" means the previous symbol was 0 and the
one before it 1):

    {"symbols": 2, "order": 2, "conditional": {"0,0": [0.9, 0.1], ...}}

Either form takes an optional "embedding_order" (default: the base order)
controlling how many past symbols the composite states carry.

Every config field is read by :func:`read` as one JSON kind, without
coercion: an integer is a JSON integer (not true/false, not 2.0); a number
is a finite JSON integer or float (not true/false, NaN or Infinity) and
reads as a float; a bool, string or object is exactly that; a list of
integers or of numbers is non-empty and holds only such items; an array is
a list of numbers or of equal-length such lists.  JSON null is accepted
only where a field documents it.  Anything else is a one-line ConfigError
naming the key.

The CLI writes a given --seed or --threads flag into the config under the
key of the same name before any parser here reads it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .bounds import MammenTsybakovNoise, TabulatedNoise, margin, nonzero_margin
from .chains import HigherOrderChainSpec, MarkovizedChain, markovize
from .errors import ConfigError
from .harness import ExperimentConfig
from .predictors import LossSpec

REQUIRED = object()
# most points a {start, stop, step} epsilon grid may expand to
EPSILON_GRID_MAX_POINTS = 10_000


def _finite(value) -> bool:
    # type(), not isinstance: JSON true must not read as 1
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _nested(value) -> bool:
    return isinstance(value, list) and all(
        _finite(v) or _nested(v) for v in value)


# kind -> (accepts the JSON value, converts it, what the error says)
_KINDS = {
    "int": (lambda v: type(v) is int, None, "an integer"),
    "number": (_finite, float, "a finite number"),
    "bool": (lambda v: type(v) is bool, None, "true or false"),
    "str": (lambda v: type(v) is str, None, "a string"),
    "object": (lambda v: isinstance(v, dict), None, "an object"),
    "ints": (lambda v: isinstance(v, list) and len(v) > 0
             and all(type(q) is int for q in v), tuple,
             "a non-empty list of integers"),
    "numbers": (lambda v: isinstance(v, list) and len(v) > 0
                and all(map(_finite, v)),
                lambda v: tuple(map(float, v)), "a non-empty list of numbers"),
    # np.array rejects ragged lists with a ValueError
    "array": (_nested, lambda v: np.array(v, dtype=float),
              "an array of numbers"),
}


def read(obj: dict, key: str, kind: str, default=REQUIRED,
         null: bool = False):
    """``obj[key]`` checked as one JSON kind of the module docstring.

    A missing key gives ``default`` (a ConfigError when there is none);
    JSON null reads as None only when ``null`` is set.
    """
    if key not in obj:
        if default is REQUIRED:
            raise ConfigError(f"missing {key!r}")
        return default
    value = obj[key]
    if null and value is None:
        return None
    accepts, convert, what = _KINDS[kind]
    if accepts(value):
        try:
            return value if convert is None else convert(value)
        except ValueError:
            pass
    raise ConfigError(f"{key!r} must be {what}{' or null' * null}")


def _context_index(key: str, symbols: int, order: int) -> int:
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != order or not all(p.isdecimal() for p in parts):
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
    """Chain object -> (base spec, embedding order)."""
    if "kernel" in obj:
        base = HigherOrderChainSpec.from_kernel(read(obj, "kernel", "array"))
    else:
        symbols = read(obj, "symbols", "int")
        order = read(obj, "order", "int")
        if isinstance(obj.get("conditional"), dict):
            rows = {_context_index(key, symbols, order): row
                    for key, row in obj["conditional"].items()}
            # a gap is a missing context; too few rows fail the shape check
            gaps = [i for i in range(len(rows)) if i not in rows]
            if gaps:
                raise ConfigError(
                    f"conditional is missing context index {gaps[0]}")
            obj = {**obj, "conditional": [rows[i] for i in range(len(rows))]}
        base = HigherOrderChainSpec(
            symbols=symbols, order=order,
            conditional=read(obj, "conditional", "array"))
    return base, read(obj, "embedding_order", "int", base.order)


def build_chain(obj: dict) -> MarkovizedChain:
    base, embedding = parse_base_chain(obj)
    return markovize(base, embedding)


def parse_loss(d: dict, key: str, symbols: int) -> LossSpec:
    spec = d.get(key)
    if spec is None or spec == "misclassification":
        return LossSpec.misclassification(symbols)
    if not isinstance(spec, dict):
        raise ConfigError(
            f"{key!r} must be \"misclassification\" or an object")
    return LossSpec(table=read(spec, "table", "array"),
                    name=read(spec, "name", "str", "loss"))


def parse_noise(d: dict, chain: MarkovizedChain | None):
    spec = read(d, "noise", "object", None, null=True)
    if spec is None:
        return None
    kind = read(spec, "kind", "str")
    if kind == "mammen-tsybakov":
        h = read(spec, "h", "number", None, null=True)
        if h is None:
            if chain is None:
                raise ConfigError("noise h omitted and no chain to take a "
                                  "margin from")
            h = nonzero_margin(margin(chain))
        return MammenTsybakovNoise(alpha=read(spec, "alpha", "number", 1.0),
                                   h=h)
    if kind == "tabulated":
        return TabulatedNoise(radii=read(spec, "radii", "array"),
                              values=read(spec, "values", "array"))
    raise ConfigError(f"unknown noise kind {kind!r}")


def parse_epsilon_grid(d: dict) -> tuple[float, ...]:
    """``d["epsilon_grid"]``: a list, or {"start", "stop", "step"}."""
    spec = d.get("epsilon_grid")
    if isinstance(spec, dict):
        start, stop, step = (read(spec, k, "number")
                             for k in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError("epsilon grid step must be positive")
        steps = (stop - start) / step  # inf when stop - start overflows
        if (not math.isfinite(steps)
                or round(steps) + 1 > EPSILON_GRID_MAX_POINTS):
            raise ConfigError("epsilon grid start/stop/step gives more than "
                              f"{EPSILON_GRID_MAX_POINTS} points")
        count = round(steps) + 1
        grid = tuple(round(start + i * step, 12) for i in range(count)
                     if start + i * step <= stop + 1e-12)
    else:
        grid = read(d, "epsilon_grid", "numbers")
    if not grid:
        raise ConfigError("epsilon grid is empty")
    return grid


# verify's optional keys: config key -> (ExperimentConfig field, kind).  A key
# the config leaves out takes the field's default
_OPTIONAL = {
    "mode": ("mode", "str"),
    "gap_b": ("gap_b", "int"),
    "a": ("a", "number"),
    "theta": ("theta", "number"),
    "seed": ("master_seed", "int"),
    "bound_scale": ("bound_scale", "number"),
    "threads": ("threads", "int"),
    "coupling_b_max": ("coupling_b_max", "int"),
    "noise_check_order": ("noise_check_order", "int"),  # or null
    "oracle_checks": ("run_oracle_checks", "bool"),
}


def experiment_from_dict(d: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    chain = build_chain(read(d, "chain", "object"))
    return ExperimentConfig(
        chain=chain,
        orders=read(d, "orders", "ints"),
        loss=parse_loss(d, "loss", chain.symbols),
        train_loss=(None if d.get("train_loss") is None
                    else parse_loss(d, "train_loss", chain.symbols)),
        n=read(d, "n", "int"),
        m=read(d, "m", "int"),
        replications=read(d, "replications", "int"),
        epsilon_grid=parse_epsilon_grid(d),
        noise=parse_noise(d, chain),
        **{field: read(d, key, kind, null=key == "noise_check_order")
           for key, (field, kind) in _OPTIONAL.items() if key in d},
    )


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
        "noise": noise_to_dict(config.noise),
        **{key: getattr(config, field)
           for key, (field, _) in _OPTIONAL.items()},
    }
