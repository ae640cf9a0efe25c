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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bnd
from .chains import (
    LN2,
    MarkovizedChain,
    MixingProfile,
    SpectralDiagnostics,
    mixing_time,
    pseudo_spectral_gap,
)
from .errors import (
    BinaryOnlyError,
    NumericalFailureError,
    RangeError,
    UnknownEventError,
    ZeroMarginError,
)
from .predictors import (
    LossSpec,
    PredictorTable,
    bayes_predictor,
    disagreement_variance,
    erm_fit,
    exact_risk,
    holdout_select,
    oracle_select,
    state_losses,
)
from .sampling import (
    SeedSpec,
    sample_conditional_continuation,
    sample_stationary_trajectory,
)

# two-sided 99% normal quantile used by the Wilson score interval
WILSON_Z_99 = 2.5758293035489004


def wilson_upper(count: int, trials: int, z: float = WILSON_Z_99) -> float:
    """Upper end of the Wilson score interval for a binomial proportion.

    At count = 0 this is z^2 / (trials + z^2), which is what makes "the
    event never fired" still carry quantified evidence.
    """
    if trials < 1:
        raise RangeError("need at least one trial")
    if not 0 <= count <= trials:
        raise RangeError(f"count {count} outside [0, {trials}]")
    p_hat = count / trials
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
        if self.m < 1:
            raise RangeError("validation length m must be >= 1")
        if self.replications < 100:
            raise RangeError("need at least 100 replications")
        if self.mode not in ("conditional", "marginal"):
            raise RangeError(f"unknown mode {self.mode!r}")
        if not 0 <= self.gap_b < self.m:
            raise RangeError("need 0 <= gap_b < m")
        if len(self.epsilon_grid) < 1:
            raise RangeError("epsilon grid must be non-empty")
        if any(not 0.0 <= e <= 1.0 for e in self.epsilon_grid):
            raise RangeError("epsilon grid values must lie in [0, 1]")
        if not 0.0 < self.a < 1.0:
            raise RangeError("a must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise RangeError("theta must lie in (0, 1)")
        if self.bound_scale <= 0.0:
            raise RangeError("bound_scale must be positive")
        if self.threads < 1:
            raise RangeError("threads must be >= 1")
        if self.coupling_b_max < 0:
            raise RangeError("coupling_b_max must be >= 0")

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


def _fit_candidates(config: ExperimentConfig, learning: np.ndarray):
    """ERM fits of every candidate order and their (N, S) per-state losses."""
    chain = config.chain
    candidates = [erm_fit(chain, q, learning, config.effective_train_loss)
                  for q in config.orders]
    return candidates, np.stack([state_losses(g, chain, config.loss)
                                 for g in candidates])


def _replication_rows(args):
    """k_hat, k_tilde, empirical, gapped (None when gap_b = 0), exact rows.

    Each replication selects through :func:`holdout_select` on its
    validation segment and :func:`oracle_select` on the stationary law.
    ``loss_matrix`` holds the frozen candidates' per-state losses in
    conditional mode, where each validation segment continues from
    ``x_last``.  It is None in marginal mode, where each replication draws
    its own learning series and refits the candidates on it.
    """
    config, loss_matrix, x_last, indices = args
    chain, gap_b = config.chain, config.gap_b
    k_hat, k_tilde = np.empty((2, len(indices)), dtype=np.intp)
    emp = np.empty((len(indices), config.n_candidates))
    gap = np.empty_like(emp) if gap_b > 0 else None
    exact = np.empty_like(emp)
    for i, r in enumerate(indices):
        seed = SeedSpec(config.master_seed, int(r))
        if loss_matrix is None:
            traj = sample_stationary_trajectory(chain, config.n, config.m, seed)
            losses = _fit_candidates(config, traj.learning)[1]
            seg = traj.validation
        else:
            losses = loss_matrix
            seg = sample_conditional_continuation(chain, x_last, config.m, seed)
        k_hat[i], emp[i] = holdout_select(losses, seg)
        if gap is not None:
            gap[i] = holdout_select(losses, seg, gap_b)[1]
        k_tilde[i], exact[i] = oracle_select(losses, chain.stationary)
    return k_hat, k_tilde, emp, gap, exact


def run_replications(config: ExperimentConfig) -> RunResult:
    """Execute all replications and package exact/empirical risk arrays.

    Replication r draws with seed (master_seed, r), r = 1..R, so results do
    not depend on thread count or completion order.  In conditional mode
    the candidates are fitted once on the learning draw with seed
    (master_seed, 0); ``threads`` worker processes serve both modes and
    select through :func:`holdout_select` and :func:`oracle_select`.
    """
    chain = config.chain
    mixing = mixing_time(chain.kernel, q=chain.stationary)
    spectral = pseudo_spectral_gap(chain.kernel, chain.stationary)
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
        candidates, loss_matrix = _fit_candidates(config, learn.learning)
        x_last = int(learn.states[-1])
    indices = np.arange(1, config.replications + 1)
    n_chunks = min(config.replications, config.threads * 4)
    jobs = [(config, loss_matrix, x_last, chunk)
            for chunk in np.array_split(indices, n_chunks)]
    if config.threads == 1:
        parts = [_replication_rows(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
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
        shift = bnd.BOUND_FORMS[bound_id][3]
        events[event_id] = EventSpec(
            event_id=event_id, bound_id=bound_id,
            stats=np.asarray(stats, dtype=float),
            shift=0.0 if shift is None else float(shift(params)))

    for k in range(cfg.n_candidates):
        dev = run.empirical[:, k] - run.exact[:, k]
        add(f"abs_dev[g{k}]", "hoeffding", np.abs(dev))
        add(f"scaled_over[g{k}]", "bernstein_over",
            run.empirical[:, k] / (1.0 + cfg.a) - run.exact[:, k])
        add(f"scaled_under[g{k}]", "bernstein_under",
            run.exact[:, k] - run.empirical[:, k] / (1.0 - cfg.a))
        if cfg.gap_b > 0:
            gap_dev = run.gap_empirical[:, k] - run.exact[:, k]
            add(f"gap_abs_dev[g{k}]", "hoeffding_gap", np.abs(gap_dev))
            add(f"shifted_abs_dev[g{k}]", "hoeffding_shifted", np.abs(dev))
            add(f"gap_scaled_over[g{k}]", "bernstein_gap_over",
                run.empirical[:, k] / (1.0 + cfg.a) - run.exact[:, k])
            add(f"gap_scaled_under[g{k}]", "bernstein_gap_under",
                run.exact[:, k] - run.empirical[:, k] / (1.0 - cfg.a))

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
    """Estimated tail of one event at one epsilon, with its bound verdict."""

    event_id: str
    epsilon: float
    threshold: float
    count: int
    trials: int
    p_hat: float
    wilson_upper: float
    bound_id: str | None = None
    bound_raw: float | None = None
    bound: float | None = None
    vacuous: bool | None = None
    verdict: str | None = None


def tail_probability(run: RunResult, event_id: str,
                     epsilon_grid=None) -> list[TailEstimate]:
    """Event frequencies over the epsilon grid with Wilson 99% uppers."""
    events = event_table(run)
    if event_id not in events:
        raise UnknownEventError(f"unknown event {event_id!r}")
    spec = events[event_id]
    grid = run.config.epsilon_grid if epsilon_grid is None else tuple(epsilon_grid)
    out = []
    trials = run.replications
    for eps in grid:
        threshold = eps + spec.shift
        count = int(np.sum(spec.stats > threshold))
        out.append(TailEstimate(
            event_id=event_id, epsilon=float(eps), threshold=float(threshold),
            count=count, trials=trials, p_hat=count / trials,
            wilson_upper=wilson_upper(count, trials)))
    return out


@dataclass(frozen=True)
class VerificationReport:
    """All tail estimates with verdicts; passes iff no VIOLATION."""

    estimates: tuple[TailEstimate, ...]
    violations: int
    vacuous: int
    passed: bool


def _bound_params(run: RunResult) -> dict:
    cfg = run.config
    return {
        "m": cfg.m, "b": cfg.gap_b, "t_mix": run.mixing.t_mix,
        "gamma_ps": run.spectral.gamma_ps, "a": cfg.a, "theta": cfg.theta,
        "n_candidates": cfg.n_candidates, "tau_star": run.tau_star,
    }


def verify_bounds(run: RunResult) -> VerificationReport:
    """Compare every event's estimated tail with its scaled bound.

    A VIOLATION requires the Wilson upper limit to exceed a bound that is
    actually informative (scaled value < 1); bounds >= 1 are counted as
    vacuous and claim nothing.
    """
    params = _bound_params(run)
    scale = run.config.bound_scale
    estimates = []
    violations = 0
    vacuous_count = 0
    for event_id, spec in event_table(run).items():
        for est in tail_probability(run, event_id):
            rep = bnd.evaluate_bound(spec.bound_id,
                                     {**params, "epsilon": est.epsilon})
            scaled = rep.raw * scale
            if scaled >= 1.0:
                verdict = "vacuous-bound"
                vacuous_count += 1
            elif est.wilson_upper > scaled:
                verdict = "VIOLATION"
                violations += 1
            else:
                verdict = "dominated"
            estimates.append(replace(
                est, bound_id=spec.bound_id, bound_raw=rep.raw,
                bound=min(scaled, 1.0), vacuous=scaled >= 1.0,
                verdict=verdict))
    return VerificationReport(estimates=tuple(estimates),
                              violations=violations, vacuous=vacuous_count,
                              passed=violations == 0)


# ---------------------------------------------------------------------------
# Expectation-level checks


@dataclass(frozen=True)
class OracleGapReport:
    """Mean selected-vs-best gap against its closed-form ceiling."""

    kind: str
    mean_gap: float
    std_error: float
    rhs: float
    passed: bool
    details: dict = field(default_factory=dict)


def oracle_gap_check(run: RunResult, kind: str) -> OracleGapReport:
    """Check mean gap + 3 SE <= closed-form RHS for one bound family.

    Kinds: "hoeffding" and "bernstein" bound E[risk(selected) - risk(best)];
    "noise" bounds E[risk(selected) - bayes] against the leniency-weighted
    best excess.  Requires R >= 1000 so the mean is stable.
    """
    if run.replications < 1000:
        raise RangeError("oracle gap checks need >= 1000 replications")
    cfg = run.config
    params = _bound_params(run)
    risk_best = float(run.exact_tilde.mean())
    if kind in ("hoeffding", "bernstein"):
        gaps = run.exact_hat - run.exact_tilde
    elif kind == "noise":
        if run.tau_star is None:
            raise RangeError("noise oracle check needs a noise model")
        gaps = run.exact_hat - run.bayes_risk
    else:
        raise UnknownEventError(f"unknown oracle check kind {kind!r}")
    mean_gap = float(gaps.mean())
    std_error = float(gaps.std(ddof=1) / math.sqrt(len(gaps)))
    details: dict = {"risk_best": risk_best, "bayes_risk": run.bayes_risk}
    if kind == "hoeffding":
        rhs = bnd.oracle_gap_hoeffding(cfg.n_candidates, cfg.m,
                                       run.mixing.t_mix)
    elif kind == "bernstein":
        rhs = bnd.oracle_gap_bernstein(cfg.n_candidates, cfg.m, cfg.a,
                                       run.mixing.t_mix,
                                       run.spectral.gamma_ps, risk_best)
        details["excess_rhs_as_printed"] = bnd.oracle_excess_bernstein(
            cfg.n_candidates, cfg.m, cfg.a, run.mixing.t_mix,
            run.spectral.gamma_ps, risk_best, run.bayes_risk)
        details["not_strictly_oracle"] = True
    else:
        excess_best = risk_best - run.bayes_risk
        rhs = bnd.nc_oracle_rhs(cfg.n_candidates, cfg.m, cfg.theta,
                                run.spectral.gamma_ps, run.mixing.t_mix,
                                run.tau_star, max(excess_best, 0.0))
        details["excess_best"] = excess_best
    passed = mean_gap + 3.0 * std_error <= rhs
    return OracleGapReport(kind=kind, mean_gap=mean_gap,
                           std_error=std_error, rhs=float(rhs),
                           passed=passed, details=details)


@dataclass(frozen=True)
class CouplingReport:
    """Exact conditional-vs-stationary risk gaps against the mixing certificate."""

    entries: tuple[tuple[int, float, float], ...]  # (b, max deviation, bound)
    t_mix: int
    passed: bool


def coupling_check(chain: MarkovizedChain, predictor: PredictorTable,
                   loss: LossSpec, b_max: int = 20,
                   profile: MixingProfile | None = None) -> CouplingReport:
    """Verify max_x |risk after b+1 steps from x - stationary risk| <= 2 * 2^(-b/t_mix).

    Both sides exact: the left from the risk vectors K^(b+1) ell, advanced
    one kernel-vector product per b, the right from the mixing certificate.
    """
    if b_max < 0:
        raise RangeError("b_max must be >= 0")
    if profile is None:
        profile = mixing_time(chain.kernel, q=chain.stationary)
    t_mix = profile.t_mix
    ell = state_losses(predictor, chain, loss)
    stationary_risk = float(chain.stationary @ ell)
    risk = chain.kernel.matrix @ ell
    entries = []
    ok = True
    for b in range(b_max + 1):
        deviation = float(np.abs(risk - stationary_risk).max())
        bound = 2.0 * math.exp(-b * LN2 / t_mix)
        entries.append((b, deviation, bound))
        if deviation > bound + 1e-12:
            ok = False
        if b < b_max:
            risk = chain.kernel.matrix @ risk
    return CouplingReport(entries=tuple(entries), t_mix=t_mix, passed=ok)


@dataclass(frozen=True)
class NoiseCheckReport:
    """Exhaustive verification of the variance-modulus noise condition."""

    order: int
    margin: float
    alpha: float
    n_tables: int
    worst_slack: float
    passed: bool


def noise_condition_check(chain: MarkovizedChain, order_q: int,
                          noise=None) -> NoiseCheckReport:
    """Check sqrt(Var(disagreement)) <= omega(excess risk) for every table.

    Enumerates all binary memory-q predictors (2^(2^q) of them), computes
    both sides exactly under the stationary law, and reports the worst
    slack, which passes at <= 1e-12.  Default modulus: polynomial with
    alpha = 1 and h = the chain's conditional margin.
    """
    if chain.symbols != 2:
        raise BinaryOnlyError("exhaustive noise check is binary-only")
    if not 0 <= order_q <= min(chain.embedding_order, 3):
        raise RangeError(
            f"order must lie in [0, {min(chain.embedding_order, 3)}] "
            "(enumeration grows doubly exponentially)")
    h = bnd.margin(chain)
    if h <= 1e-12:
        raise ZeroMarginError(f"margin {h!r} is numerically zero")
    model = noise if noise is not None else bnd.MammenTsybakovNoise(1.0, h)
    alpha = getattr(model, "alpha", float("nan"))
    loss = LossSpec.misclassification(2)
    g_star = bayes_predictor(chain, loss)
    risk_star = exact_risk(g_star, chain, loss)
    worst = -math.inf
    n_tables = 0
    for values in itertools.product((0, 1), repeat=2 ** order_q):
        g = PredictorTable(order=order_q, symbols=2, table=np.array(values))
        excess = max(exact_risk(g, chain, loss) - risk_star, 0.0)
        lhs = math.sqrt(disagreement_variance(g, g_star, chain))
        slack = lhs - model.omega(excess)
        worst = max(worst, slack)
        n_tables += 1
    return NoiseCheckReport(order=order_q, margin=h, alpha=float(alpha),
                            n_tables=n_tables, worst_slack=worst,
                            passed=worst <= 1e-12)
