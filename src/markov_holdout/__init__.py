"""Hold-out model selection on finite-state uniformly ergodic Markov chains.

Exact chain diagnostics (stationary law, mixing profile, pseudo-spectral
gap, higher-order embedding), seeded trajectory simulation, finite-memory
predictors with exact and empirical risks, closed-form concentration /
oracle bound evaluators, and a Monte Carlo harness that verifies each bound
dominates its estimated tail probability.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    MammenTsybakovNoise,
    TabulatedNoise,
    bernstein_deviation_radius,
    bernstein_gap_tail,
    bernstein_tail,
    bernstein_tail_raw,
    evaluate_bound,
    expectation_bound_bernstein,
    expectation_bound_hoeffding,
    gap_event_shift,
    hoeffding_gap_tail,
    hoeffding_tail,
    margin,
    mt_oracle_rhs,
    nc_event_shift,
    nc_gap_tail,
    nc_oracle_rhs,
    nc_tail,
    oracle_excess_bernstein,
    oracle_gap_bernstein,
    oracle_gap_hoeffding,
    selection_hoeffding_tail,
)
from .chains import (
    HigherOrderChainSpec,
    MarkovizedChain,
    MixingProfile,
    SpectralDiagnostics,
    TransitionKernel,
    markovize,
    mixing_certificate,
    mixing_time,
    pseudo_spectral_gap,
    stationary_distribution,
    time_reversal,
    total_variation,
)
from .errors import (
    BinaryOnlyError,
    ConfigError,
    DimensionMismatchError,
    DivisionGuardError,
    EigensolverFailureError,
    EmptySegmentError,
    HoldoutError,
    HorizonExceededError,
    KeyMismatchError,
    NonPrimitiveError,
    NoSolutionError,
    NumericalFailureError,
    RangeError,
    SizeOverflowError,
    UnknownEventError,
    ZeroMarginError,
    ZeroStationaryMassError,
)
from .harness import (
    CouplingReport,
    ExperimentConfig,
    NoiseCheckReport,
    OracleGapReport,
    RunResult,
    TailEstimate,
    VerificationReport,
    coupling_check,
    event_table,
    noise_condition_check,
    oracle_gap_check,
    run_replications,
    tail_probability,
    verify_bounds,
    wilson_upper,
)
from .predictors import (
    LossSpec,
    PredictorTable,
    bayes_predictor,
    conditional_risk,
    disagreement_variance,
    erm_fit,
    erm_losses,
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
