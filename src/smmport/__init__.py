"""Conditional portfolio policies from first and second moment functions.

The covariance-based allocation inv(Sigma) mu and the second-moment
allocation inv(A) mu, A = Sigma + mu mu', are parallel; the latter is
down-levered by 1 / (1 + mu' inv(Sigma) mu) and solves the unconditional
Sharpe, mean-variance, and approximate-Kelly problems when moments are
conditional on observed features. This package provides the moment
types and identities, discrete-market solvers, hedging constraints with
their Pythagorean squared-Hansen decomposition, basis-portfolio and
pseudo-asset optimization, a Monte Carlo study of the linear conditional
expectation model, and a nonparametric leverage audit.
"""

from .errors import (
    DegenerateMarket,
    DimensionMismatch,
    DomainError,
    InvalidSubset,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularBasis,
    SingularConstraintSystem,
    SmmError,
)
from .hedging import (
    HedgeConstraint,
    HedgeSolution,
    constraints_from_dict,
    flatten_pseudo_assets,
    hedging_example_c1,
    inner_product,
    optimize_basis,
    solve_hedge,
)
from .lcem import (
    LcemComparison,
    LcemModel,
    McConfig,
    McEstimate,
    compare_policies,
    estimate_q,
    lcem_conditional_weights,
)
from .leverage import (
    LeverageCurve,
    LeverageSample,
    kernel_regress,
    leverage_curve,
    silverman_bandwidth,
)
from .market import (
    DiscreteMarket,
    Policy,
    evaluate,
    markowitz_policy,
    merge_states,
    q_of,
    smm_policy,
)
from .moments import (
    Kelly,
    MeanVariance,
    MomentPair,
    Objective,
    PerfSummary,
    SharpeBudget,
    conditional_q,
    conditional_sharpe_sq,
    itas,
    markowitz_direction,
    optimal_objective_value,
    scaling_constant,
    smm_direction,
    tas,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateMarket",
    "DimensionMismatch",
    "DiscreteMarket",
    "DomainError",
    "HedgeConstraint",
    "HedgeSolution",
    "InvalidSubset",
    "Kelly",
    "LcemComparison",
    "LcemModel",
    "LeverageCurve",
    "LeverageSample",
    "McConfig",
    "McEstimate",
    "MeanVariance",
    "MomentPair",
    "NotPositiveDefinite",
    "Objective",
    "PerfSummary",
    "Policy",
    "ShapeMismatch",
    "SharpeBudget",
    "SingularBasis",
    "SingularConstraintSystem",
    "SmmError",
    "compare_policies",
    "conditional_q",
    "conditional_sharpe_sq",
    "constraints_from_dict",
    "estimate_q",
    "evaluate",
    "flatten_pseudo_assets",
    "hedging_example_c1",
    "inner_product",
    "itas",
    "kernel_regress",
    "lcem_conditional_weights",
    "leverage_curve",
    "markowitz_direction",
    "markowitz_policy",
    "merge_states",
    "optimal_objective_value",
    "optimize_basis",
    "q_of",
    "scaling_constant",
    "silverman_bandwidth",
    "smm_direction",
    "smm_policy",
    "solve_hedge",
    "tas",
]
