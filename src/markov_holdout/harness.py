"""Monte Carlo verification harness.

Runs seeded replications of the hold-out protocol on a known chain, where
every population quantity (exact risks, Bayes risk, diagnostics) is
computable in closed form, estimates tail probabilities of the deviation
events, and checks that each closed-form bound dominates its estimated
tail.  Domination is judged against the upper end of a Wilson 99% score
interval, so a pass is a statistical statement with explicit coverage.

Verdicts per (event, epsilon): "dominated", "vacuous-bound" (the bound is
>= 1 and claims nothing), or "VIOLATION".
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .chains import (
    MarkovizedChain,
    MixingProfile,
    SpectralDiagnostics,
    _power_rows,
    mixing_certificate,
    mixing_time,
    pseudo_spectral_gap,
)
from .errors import (
    NumericalFailureError,
    RangeError,
    UnknownEventError,
)
from .predictors import (
    LossSpec,
    PredictorTable,
    _check_loss_symbols,
    bayes_predictor,
    disagreement_variance,
    erm_fit,
    erm_losses,
    exact_risk,
    holdout_select,
    oracle_select,
    state_losses,
)
from .sampling import (
    _MAX_STATES,
    SeedSpec,
    rows_per_block,
    sample_conditional_continuation,
    sample_stationary_trajectory,
)

# two-sided 99% normal quantile used by the Wilson score interval
WILSON_Z_99 = 2.5758293035489004
# fewest replications at which an oracle-gap check's mean is read as stable
ORACLE_MIN_REPLICATIONS = 1000
# the bound parameters a config sets, checked by their rules in bounds
_BOUND_RULES = tuple((name, rule) for name, rule in bnd._DOMAINS.items()
                     if name in ("m", "epsilon", "a", "theta"))


def wilson_upper(count: int, trials: int) -> float:
    """Upper end of the Wilson 99% score interval for a binomial proportion.

    At count = 0 this is z^2 / (trials + z^2), which is what makes "the
    event never fired" still carry quantified evidence.
    """
    if trials < 1:
        raise RangeError("need at least one trial")
    if not 0 <= count <= trials:
        raise RangeError(f"count {count} outside [0, {trials}]")
    p_hat = count / trials
    z = WILSON_Z_99
    z2 = z * z
    center = p_hat + z2 / (2.0 * trials)
    radius = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                           + z2 / (4.0 * trials * trials))
    return min(1.0, (center + radius) / (1.0 + z2 / trials))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one verification run depends on.

    ``mode`` is "conditional" (one learning draw with seed (master, 0),
    candidates frozen, validation continuations re-drawn with seeds
    (master, r)) or "marginal" (everything re-drawn per replication).
    ``bound_scale`` multiplies every bound before verdicts; it exists as a
    negative-control hook so a corrupted bound provably fails the gate.
    """

    chain: MarkovizedChain
    orders: tuple[int, ...]
    loss: LossSpec
    n: int
    m: int
    replications: int
    epsilon_grid: tuple[float, ...]
    train_loss: LossSpec | None = None
    mode: str = "conditional"
    gap_b: int = 0
    a: float = 0.5
    theta: float = 0.5
    noise: object | None = None
    master_seed: int = 0
    bound_scale: float = 1.0
    threads: int = 1
    coupling_b_max: int = 20
    noise_check_order: int | None = None
    run_oracle_checks: bool = True

    def __post_init__(self):
        p = self.chain.embedding_order
        if len(self.orders) < 1:
            raise RangeError("need at least one candidate order")
        if any(not 0 <= q <= p for q in self.orders):
            raise RangeError(f"candidate orders must lie in [0, {p}]")
        if len(set(self.orders)) != len(self.orders):
            raise RangeError("candidate orders must be distinct")
        if self.n < 1:
            raise RangeError("learning length n must be >= 1")
        if len(self.epsilon_grid) < 1:
            raise RangeError("epsilon grid must be non-empty")
        for epsilon in self.epsilon_grid:
            bnd._check_domains({"m": self.m, "epsilon": epsilon, "a": self.a,
                                "theta": self.theta}, _BOUND_RULES)
        if self.n + self.m > _MAX_STATES:
            raise RangeError(f"n + m = {self.n + self.m} states do not fit "
                             "in one int64 array")
        if self.replications < 100:
            raise RangeError("need at least 100 replications")
        if self.mode not in ("conditional", "marginal"):
            raise RangeError(f"unknown mode {self.mode!r}")
        if not 0 <= self.gap_b < self.m:
            raise RangeError("need 0 <= gap_b < m")
        if self.bound_scale <= 0.0:
            raise RangeError("bound_scale must be positive")
        if self.threads < 1:
            raise RangeError("threads must be >= 1")
        if self.coupling_b_max < 0:
            raise RangeError("coupling_b_max must be >= 0")
        _check_loss_symbols(self.chain, self.loss, self.effective_train_loss)
        if self.noise_check_order is not None:
            _noise_check_margin(self.chain, self.noise_check_order)

    @property
    def effective_train_loss(self) -> LossSpec:
        return self.train_loss if self.train_loss is not None else self.loss

    @property
    def n_candidates(self) -> int:
        return len(self.orders)


@dataclass
class RunResult:
    """Arrays of shape (R, N) across replications and candidates."""

    config: ExperimentConfig
    empirical: np.ndarray
    gap_empirical: np.ndarray | None
    exact: np.ndarray
    k_hat: np.ndarray
    k_tilde: np.ndarray
    bayes: PredictorTable
    bayes_risk: float
    mixing: MixingProfile
    spectral: SpectralDiagnostics
    tau_star: float | None
    candidates: list[PredictorTable] | None = None

    @property
    def replications(self) -> int:
        return self.empirical.shape[0]

    @property
    def exact_hat(self) -> np.ndarray:
        rows = np.arange(self.replications)
        return self.exact[rows, self.k_hat]

    @property
    def exact_tilde(self) -> np.ndarray:
        rows = np.arange(self.replications)
        return self.exact[rows, self.k_tilde]

    def selection_frequency(self) -> np.ndarray:
        return np.bincount(self.k_hat,
                           minlength=self.config.n_candidates) / self.replications


def _replication_rows(args):
    """k_hat, k_tilde, empirical, gapped (None when gap_b = 0), exact rows.

    Each replication only draws and counts.  The replications are drawn in
    groups of as many as one block of the chain's walk holds
    (:func:`rows_per_block`), one sampler call per group, and each group is
    counted with one ``bincount`` of its states plus ``codes``, which adds
    to each position the offset of its row and segment, a multiple of S.
    The segments are the learning part (marginal mode only), the first
    ``gap_b`` validation states and the rest; each segment with states has
    one block of S counts, and one of length 0 (the burn-in at gap_b = 0)
    has none.  So the gapped counts are the last block of a row, and the
    full validation counts are that block when gap_b = 0, or the sum of
    the last two blocks.  A state outside [0, S) moves into another block
    or past the last, so every row's block totals must equal the segment
    lengths (NumericalFailureError).  The fits and the selections
    then run once for the whole chunk: :func:`erm_losses` on the stacked
    learning counts, :func:`holdout_select` on the validation counts and
    :func:`oracle_select` on the stationary law.
    ``loss_matrix`` holds the frozen candidates' per-state losses in
    conditional mode, where each validation segment continues from
    ``x_last``.  It is None in marginal mode, where each replication draws
    its own learning series and the candidates are refitted on it.
    """
    config, loss_matrix, x_last, indices = args
    chain, n, m, gap_b = config.chain, config.n, config.m, config.gap_b
    marginal = loss_matrix is None
    lengths = np.array([length for length in ([n] if marginal else [])
                        + [gap_b, m - gap_b] if length > 0])
    code = np.repeat(np.arange(len(lengths)) * chain.n_states, lengths)
    width = len(lengths) * chain.n_states
    group = rows_per_block(chain, len(code))
    codes = (code + width * np.arange(group)[:, None]).reshape(-1)
    counts = np.empty((len(indices), width), dtype=np.int64)
    for lo in range(0, len(indices), group):
        seeds = [SeedSpec(config.master_seed, int(r))
                 for r in indices[lo:lo + group]]
        if marginal:
            states = sample_stationary_trajectory(chain, n, m, seeds)
        else:
            states = sample_conditional_continuation(chain, x_last, m, seeds)
        bins = len(seeds) * width
        counts[lo:lo + len(seeds)] = np.bincount(
            states + codes[:len(states)], minlength=bins)[:bins].reshape(
                -1, width)
    counts = counts.reshape(len(indices), len(lengths), chain.n_states)
    if (counts.sum(axis=2) != lengths).any():
        raise NumericalFailureError(
            "sampled states outside [0, S): segment visit totals "
            f"differ from the segment lengths {lengths.tolist()}")
    if marginal:
        losses = erm_losses(chain, config.orders, counts[:, 0],
                            config.effective_train_loss, config.loss)
    else:
        losses = np.broadcast_to(loss_matrix,
                                 (len(indices),) + loss_matrix.shape)
    valid = counts[:, -1] if gap_b == 0 else counts[:, -2] + counts[:, -1]
    k_hat, emp = holdout_select(losses, valid)
    gap = holdout_select(losses, counts[:, -1])[1] if gap_b > 0 else None
    k_tilde, exact = oracle_select(losses, chain.stationary)
    return k_hat, k_tilde, emp, gap, exact


def run_replications(config: ExperimentConfig) -> RunResult:
    """Execute all replications and package exact/empirical risk arrays.

    Replication r draws with seed (master_seed, r), r = 1..R, so results do
    not depend on thread count or completion order.  In conditional mode
    the candidates are fitted once on the learning draw with seed
    (master_seed, 0).  Both modes run on the workers chosen below and
    select by the rule of :func:`holdout_select` and through
    :func:`oracle_select`.
    """
    chain = config.chain
    mixing = mixing_time(chain, q=chain.stationary)
    spectral = pseudo_spectral_gap(chain, chain.stationary)
    if spectral.gamma_ps < 1.0 / (2.0 * mixing.t_mix) - 1e-12:
        raise NumericalFailureError(
            f"gamma_ps {spectral.gamma_ps} below 1/(2 t_mix) "
            f"with t_mix {mixing.t_mix}; diagnostics are inconsistent")
    tau_star = config.noise.tau_star(config.m) if config.noise is not None else None
    bayes = bayes_predictor(chain, config.loss)
    bayes_risk = exact_risk(bayes, chain, config.loss)

    candidates = loss_matrix = x_last = None
    if config.mode == "conditional":
        learn = sample_stationary_trajectory(
            chain, config.n, 0, SeedSpec(config.master_seed, 0))
        counts = np.bincount(learn, minlength=chain.n_states)
        candidates = [erm_fit(chain, q, counts, config.effective_train_loss)
                      for q in config.orders]
        loss_matrix = np.stack([state_losses(g, chain, config.loss)
                                for g in candidates])
        x_last = int(learn[-1])
    # one worker count decides the pool, the chunks and the in-process
    # path: a worker past the CPUs or the replications would only wait, and
    # 4 chunks per worker even out the workers' finishing times
    workers = min(config.threads, config.replications, os.cpu_count() or 1)
    indices = np.arange(1, config.replications + 1)
    jobs = [(config, loss_matrix, x_last, chunk) for chunk in
            np.array_split(indices, min(config.replications, 4 * workers))]
    if workers == 1:
        parts = [_replication_rows(job) for job in jobs]
    else:
        # imported here so an in-process run skips multiprocessing's imports
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_replication_rows, jobs))
    k_hat, k_tilde, empirical, gap_emp, exact = (
        None if col[0] is None else np.concatenate(col) for col in zip(*parts))
    return RunResult(config=config, empirical=empirical,
                     gap_empirical=gap_emp, exact=exact,
                     k_hat=k_hat, k_tilde=k_tilde, bayes=bayes,
                     bayes_risk=bayes_risk, mixing=mixing, spectral=spectral,
                     tau_star=tau_star, candidates=candidates)


# ---------------------------------------------------------------------------
# Deviation events


@dataclass(frozen=True)
class EventSpec:
    """One deviation event: per-replication statistic compared to eps + shift."""

    event_id: str
    bound_id: str
    stats: np.ndarray
    shift: float = 0.0


def event_table(run: RunResult) -> dict[str, EventSpec]:
    """All events this run can check, keyed by event id.

    Per-candidate events use the no-union-bound tails (meaningful because
    conditional mode freezes the candidates; in marginal mode they hold for
    the data-dependent candidate sequence, which is strictly harder, so
    domination there is evidence, not a theorem check).  Selected-index
    events carry the union-bound tails; the excess event carries the
    noise-condition tail.
    """
    cfg = run.config
    params = _bound_params(run)
    rows = np.arange(run.replications)
    events: dict[str, EventSpec] = {}

    def add(event_id, bound_id, stats):
        events[event_id] = EventSpec(
            event_id=event_id, bound_id=bound_id,
            stats=np.asarray(stats, dtype=float),
            shift=float(bnd.event_shift(bound_id, params) or 0.0))

    for k in range(cfg.n_candidates):
        abs_dev = np.abs(run.empirical[:, k] - run.exact[:, k])
        over = run.empirical[:, k] / (1.0 + cfg.a) - run.exact[:, k]
        under = run.exact[:, k] - run.empirical[:, k] / (1.0 - cfg.a)
        add(f"abs_dev[g{k}]", "hoeffding", abs_dev)
        add(f"scaled_over[g{k}]", "bernstein_over", over)
        add(f"scaled_under[g{k}]", "bernstein_under", under)
        if cfg.gap_b > 0:
            add(f"gap_abs_dev[g{k}]", "hoeffding_gap",
                np.abs(run.gap_empirical[:, k] - run.exact[:, k]))
            add(f"shifted_abs_dev[g{k}]", "hoeffding_shifted", abs_dev)
            add(f"gap_scaled_over[g{k}]", "bernstein_gap_over", over)
            add(f"gap_scaled_under[g{k}]", "bernstein_gap_under", under)

    emp_hat = run.empirical[rows, run.k_hat]
    emp_tilde = run.empirical[rows, run.k_tilde]
    add("over_dev_selected", "selection_hoeffding", run.exact_hat - emp_hat)
    add("under_dev_best", "selection_hoeffding", emp_tilde - run.exact_tilde)

    if run.tau_star is not None:
        excess_stat = ((run.exact_hat - run.bayes_risk)
                       - (1.0 + cfg.theta) * (run.exact_tilde - run.bayes_risk))
        add("excess_vs_best", "noise", excess_stat)
        if cfg.gap_b > 0:
            add("excess_vs_best_gap", "noise_gap", excess_stat)
    return events


@dataclass(frozen=True)
class TailEstimate:
    """One (event, epsilon) cell: estimated tail, scaled bound and verdict."""

    event_id: str
    epsilon: float
    threshold: float
    count: int
    trials: int
    p_hat: float
    wilson_upper: float
    bound_id: str
    bound_raw: float
    bound: float
    vacuous: bool
    verdict: str


def _bound_params(run: RunResult) -> dict:
    cfg = run.config
    return {
        "m": cfg.m, "b": cfg.gap_b, "t_mix": run.mixing.t_mix,
        "gamma_ps": run.spectral.gamma_ps, "a": cfg.a, "theta": cfg.theta,
        "n_candidates": cfg.n_candidates, "tau_star": run.tau_star,
    }


def tail_probability(run: RunResult, event_id: str) -> list[TailEstimate]:
    """Judge one event's cells over the run's epsilon grid.

    Each cell counts the replications whose statistic exceeds epsilon plus
    the event's shift, takes the Wilson 99% upper limit of that frequency
    and compares it with the bound times ``bound_scale``.  A scaled bound
    >= 1 claims nothing and is "vacuous-bound"; below 1 the cell is a
    "VIOLATION" when the Wilson upper limit exceeds it, else "dominated".
    """
    events = event_table(run)
    if event_id not in events:
        raise UnknownEventError(f"unknown event {event_id!r}")
    spec = events[event_id]
    params = _bound_params(run)
    scale = run.config.bound_scale
    trials = run.replications
    out = []
    for eps in map(float, run.config.epsilon_grid):
        threshold = eps + spec.shift
        count = int(np.sum(spec.stats > threshold))
        upper = wilson_upper(count, trials)
        raw = bnd.evaluate_bound(spec.bound_id, {**params, "epsilon": eps}).raw
        scaled = raw * scale
        if scaled >= 1.0:
            verdict = "vacuous-bound"
        elif upper > scaled:
            verdict = "VIOLATION"
        else:
            verdict = "dominated"
        out.append(TailEstimate(
            event_id=event_id, epsilon=eps, threshold=float(threshold),
            count=count, trials=trials, p_hat=count / trials,
            wilson_upper=upper, bound_id=spec.bound_id, bound_raw=raw,
            bound=min(scaled, 1.0), vacuous=scaled >= 1.0, verdict=verdict))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """All judged cells and their verdict counts; passes iff no VIOLATION."""

    estimates: tuple[TailEstimate, ...]
    violations: int
    vacuous: int
    dominated: int
    passed: bool


def verify_bounds(run: RunResult) -> VerificationReport:
    """Collect the cells of every event in :func:`event_table` and count
    their verdicts."""
    estimates = tuple(est for event_id in event_table(run)
                      for est in tail_probability(run, event_id))
    verdicts = [est.verdict for est in estimates]
    violations = verdicts.count("VIOLATION")
    return VerificationReport(estimates=estimates, violations=violations,
                              vacuous=verdicts.count("vacuous-bound"),
                              dominated=verdicts.count("dominated"),
                              passed=violations == 0)


# ---------------------------------------------------------------------------
# Expectation-level checks


@dataclass(frozen=True)
class OracleGapReport:
    """Mean of one check's per-replication statistic against its right side."""

    kind: str
    mean_gap: float
    std_error: float
    rhs: float
    passed: bool
    details: dict = field(default_factory=dict)


def _gap_to_best(run: RunResult) -> np.ndarray:
    return run.exact_hat - run.exact_tilde


# kind -> (report.json list its result goes in, label in stage lines and
# errors, per-replication statistic, right-side form, details beyond the
# best and Bayes risks, where a function is a form), in report order.  Each
# form is bound by name from the run's bound parameters, ``risk_best`` (the
# mean best-candidate risk), ``risk_bayes`` and ``excess_best`` (their gap,
# floored at 0).  "hoeffding" and "bernstein" bound E[risk(selected) -
# risk(best)]; "noise" bounds E[risk(selected) - bayes] against the
# leniency-weighted best excess; "expectation_hoeffding" bounds the expected
# largest deviation of a candidate's hold-out risk from its exact risk
CHECKS = {
    "hoeffding": ("oracle_checks", "oracle hoeffding", _gap_to_best,
                  bnd.oracle_gap_hoeffding, {}),
    "bernstein": ("oracle_checks", "oracle bernstein", _gap_to_best,
                  bnd.oracle_gap_bernstein,
                  {"excess_rhs_as_printed": bnd.oracle_excess_bernstein,
                   "not_strictly_oracle": True}),
    "noise": ("oracle_checks", "oracle noise",
              lambda run: run.exact_hat - run.bayes_risk, bnd.nc_oracle_rhs,
              {"excess_best": lambda risk_best, risk_bayes:
               risk_best - risk_bayes}),
    "expectation_hoeffding": (
        "expectation_checks", "expectation hoeffding",
        lambda run: np.abs(run.empirical - run.exact).max(axis=1),
        bnd.expectation_bound_hoeffding,
        {"statistic": "max_k |empirical_k - exact_k|"}),
}


def planned_checks(config: ExperimentConfig) -> tuple[str, ...]:
    """The kinds of :data:`CHECKS` a verify run of ``config`` makes.

    None unless the config asks for the checks and has at least
    ``ORACLE_MIN_REPLICATIONS``; "noise" only with a noise model.
    """
    if (not config.run_oracle_checks
            or config.replications < ORACLE_MIN_REPLICATIONS):
        return ()
    return tuple(kind for kind in CHECKS
                 if kind != "noise" or config.noise is not None)


def oracle_gap_check(run: RunResult, kind: str) -> OracleGapReport:
    """Check mean statistic + 3 SE <= right side for one row of :data:`CHECKS`.

    Needs R >= ``ORACLE_MIN_REPLICATIONS`` for a stable mean.  Unlike a tail
    bound, an infinite right side or detail form is an error.  Each refusal
    names the check by its label; an unknown kind lists the known ones.
    """
    if kind not in CHECKS:
        raise UnknownEventError(f"unknown check kind {kind!r}; known kinds: "
                                + ", ".join(CHECKS))
    _, label, statistic, form, extra = CHECKS[kind]
    if run.replications < ORACLE_MIN_REPLICATIONS:
        raise RangeError(f"{label} check needs >= {ORACLE_MIN_REPLICATIONS} "
                         f"replications, got {run.replications}")
    if kind == "noise" and run.tau_star is None:
        raise RangeError(f"{label} check needs a noise model")
    risk_best = float(run.exact_tilde.mean())
    params = {**_bound_params(run), "risk_best": risk_best,
              "risk_bayes": run.bayes_risk,
              "excess_best": max(risk_best - run.bayes_risk, 0.0)}
    label += " right side"

    def evaluate(func) -> float:
        value = bnd._evaluate(func, params, label)[1]
        if math.isinf(value):
            raise NumericalFailureError(f"{label} is {value}")
        return value

    rhs = evaluate(form)
    details = {"risk_best": risk_best, "bayes_risk": run.bayes_risk,
               **{name: evaluate(v) if callable(v) else v
                  for name, v in extra.items()}}
    stats = statistic(run)
    mean_gap = float(stats.mean())
    std_error = float(stats.std(ddof=1) / math.sqrt(len(stats)))
    return OracleGapReport(kind=kind, mean_gap=mean_gap, std_error=std_error,
                           rhs=float(rhs),
                           passed=mean_gap + 3.0 * std_error <= rhs,
                           details=details)


@dataclass(frozen=True)
class CouplingReport:
    """Exact conditional-vs-stationary risk gaps against the mixing certificate."""

    entries: tuple[tuple[int, float, float], ...]  # (b, max deviation, bound)
    t_mix: int
    passed: bool


def coupling_check(chain: MarkovizedChain, predictor: PredictorTable,
                   loss: LossSpec, b_max: int = 20,
                   profile: MixingProfile | None = None) -> CouplingReport:
    """Verify max_x |risk after b+1 steps from x - stationary risk| <= C * 2^(-b/t_mix).

    Both sides exact: the left from the rows of K^(b+1) that
    :func:`_power_rows` yields, which are all its distinct rows, the right
    :func:`~markov_holdout.chains.mixing_certificate` at t = b with the
    profile's t_mix.
    """
    if b_max < 0:
        raise RangeError("b_max must be >= 0")
    if profile is None:
        profile = mixing_time(chain, q=chain.stationary)
    t_mix = profile.t_mix
    ell = state_losses(predictor, chain, loss)
    stationary_risk = float(chain.stationary @ ell)
    entries = []
    for b, (rows, _) in zip(range(b_max + 1),
                            _power_rows(chain, chain.stationary)):
        deviation = float(np.abs(rows @ ell - stationary_risk).max())
        bound = mixing_certificate(b, t_mix)
        entries.append((b, deviation, bound))
    passed = not any(deviation > bound + 1e-12
                     for _, deviation, bound in entries)
    return CouplingReport(entries=tuple(entries), t_mix=t_mix, passed=passed)


@dataclass(frozen=True)
class NoiseCheckReport:
    """Exhaustive verification of the variance-modulus noise condition."""

    order: int
    margin: float
    alpha: float | None  # None for a model without an alpha
    n_tables: int
    worst_slack: float
    passed: bool


def _noise_check_margin(chain: MarkovizedChain, order_q: int) -> float:
    """The chain's margin, once the exhaustive check at order_q can run."""
    h = bnd.margin(chain)
    if not 0 <= order_q <= min(chain.embedding_order, 3):
        raise RangeError(
            f"order must lie in [0, {min(chain.embedding_order, 3)}] "
            "(enumeration grows doubly exponentially)")
    return bnd.nonzero_margin(h)


def noise_condition_check(chain: MarkovizedChain, order_q: int,
                          noise=None) -> NoiseCheckReport:
    """Check sqrt(Var(disagreement)) <= omega(excess risk) for every table.

    Enumerates all binary memory-q predictors (2^(2^q) of them), computes
    both sides exactly under the stationary law, and reports the worst
    slack, which passes at <= 1e-12.  Default modulus: polynomial with
    alpha = 1 and h = the chain's conditional margin.
    """
    h = _noise_check_margin(chain, order_q)
    model = noise if noise is not None else bnd.MammenTsybakovNoise(1.0, h)
    loss = LossSpec.misclassification(2)
    g_star = bayes_predictor(chain, loss)
    risk_star = exact_risk(g_star, chain, loss)
    worst = -math.inf
    for values in itertools.product((0, 1), repeat=2 ** order_q):
        g = PredictorTable(order=order_q, symbols=2, table=np.array(values))
        excess = max(exact_risk(g, chain, loss) - risk_star, 0.0)
        lhs = math.sqrt(disagreement_variance(g, g_star, chain))
        slack = lhs - model.omega(excess)
        worst = max(worst, slack)
    return NoiseCheckReport(order=order_q, margin=h,
                            alpha=getattr(model, "alpha", None),
                            n_tables=2 ** 2 ** order_q, worst_slack=worst,
                            passed=worst <= 1e-12)
