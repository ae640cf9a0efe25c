"""Run the markov-holdout CLI with spans around the calls into each layer.

Usage: python traced_cli.py SPANS_JSON CLI_ARGS...

The program is not modified: each wrapped function is replaced, for this
process only, at the module attribute through which its caller looks it
up (``harness.sample_conditional_continuation``, ``cli.run_replications``,
...).  Every span records its name, start, end, the id of the enclosing
span, and counts taken from the call's arguments or result.  Spans stay in
memory and are written to SPANS_JSON after the CLI returns.  The process
exits with the CLI's exit code.

Work done in worker processes (``threads`` > 1) is not visible here; the
benchmark therefore traces with ``threads`` = 1.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from markov_holdout import bounds, chains, cli, config, harness


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` with a wrapper that records a span.

        ``counts(args, kwargs, result)`` returns extra fields for the span.
        """
        func = getattr(module, attr)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)


def primitivity_squarings(matrix: np.ndarray) -> int:
    """Dense products ``chains.is_primitive`` performs on ``matrix``.

    Mirrors its loop: square the positivity pattern until it is all
    positive or the exponent passes the Wielandt bound (S-1)^2 + 1.
    """
    s = matrix.shape[0]
    if s == 1:
        return 0
    c = (matrix > 0.0).astype(float)
    bound = (s - 1) ** 2 + 1
    exponent = 1
    squarings = 0
    while not np.all(c > 0.0) and exponent < bound:
        c = ((c @ c) > 0.0).astype(float)
        exponent *= 2
        squarings += 1
    return squarings


def install(tracer: Tracer, primitive_inputs: list) -> None:
    """Wrap the public calls into config, chains, sampling, predictors,
    harness, bounds and cli at the places the verify path looks them up."""
    def states_drawn(args, kwargs, result):
        states = getattr(result, "states", result)
        return {"steps": len(states)}

    def capture_primitive(args, kwargs, result):
        primitive_inputs.append(args[0])
        return {}

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "experiment_from_dict", "config.experiment_from_dict")
    w(config, "markovize", "chains.markovize")
    w(chains, "is_primitive", "chains.is_primitive", capture_primitive)
    w(chains, "stationary_distribution", "chains.stationary_distribution")
    w(harness, "mixing_time", "chains.mixing_time",
      lambda a, k, r: {"size": int(a[0].size), "products": r.t_mix})
    w(harness, "pseudo_spectral_gap", "chains.pseudo_spectral_gap",
      lambda a, k, r: {"size": int(a[0].size), "k_stop": r.k_stop,
                       "products": 3 * r.k_stop})
    w(harness, "sample_conditional_continuation",
      "sampling.sample_conditional_continuation", states_drawn)
    w(harness, "sample_stationary_trajectory",
      "sampling.sample_stationary_trajectory", states_drawn)
    w(cli, "sample_stationary_trajectory",
      "sampling.sample_stationary_trajectory", states_drawn)
    w(harness, "erm_fit", "predictors.erm_fit")
    w(harness, "state_losses", "predictors.state_losses")
    w(harness, "bayes_predictor", "predictors.bayes_predictor")
    w(harness, "exact_risk", "predictors.exact_risk")
    w(cli, "run_replications", "harness.run_replications")
    w(cli, "verify_bounds", "harness.verify_bounds",
      lambda a, k, r: {"cells": len(r.estimates),
                       "informative": len(r.estimates) - r.vacuous})
    w(harness, "event_table", "harness.event_table")
    w(cli, "oracle_gap_check", "harness.oracle_gap_check")
    w(cli, "coupling_check", "harness.coupling_check",
      lambda a, k, r: {"size": int(a[0].n_states),
                       "products": len(r.entries) - 1})
    w(cli, "noise_condition_check", "harness.noise_condition_check")
    w(bounds, "evaluate_bound", "bounds.evaluate_bound")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    primitive_inputs: list = []
    install(tracer, primitive_inputs)
    code = cli.main(cli_args)
    # Counting the primitivity products repeats that work, so it runs after
    # the CLI and inside its own span, which the benchmark subtracts.
    post_start = time.perf_counter()
    squarings = [{"size": int(m.shape[0]),
                  "products": primitivity_squarings(m)}
                 for m in primitive_inputs]
    post = {"id": len(tracer.spans), "name": "bench.post", "parent": None,
            "start": post_start, "end": time.perf_counter()}
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans + [post],
                   "primitivity": squarings}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
