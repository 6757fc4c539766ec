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

Each public name is imported from its submodule on first use, so
``import smmport`` loads no submodule and a CLI call loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in export order.
_SUBMODULE = {
    "DegenerateMarket": "errors",
    "DimensionMismatch": "errors",
    "DiscreteMarket": "market",
    "DomainError": "errors",
    "HedgeConstraint": "hedging",
    "HedgeSolution": "hedging",
    "InvalidSubset": "errors",
    "Kelly": "moments",
    "LcemComparison": "lcem",
    "LcemModel": "lcem",
    "LeverageCurve": "leverage",
    "LeverageSample": "leverage",
    "McConfig": "lcem",
    "McEstimate": "lcem",
    "MeanVariance": "moments",
    "MomentPair": "moments",
    "NotPositiveDefinite": "errors",
    "Objective": "moments",
    "PerfSummary": "moments",
    "Policy": "market",
    "ShapeMismatch": "errors",
    "SharpeBudget": "moments",
    "SingularBasis": "errors",
    "SingularConstraintSystem": "errors",
    "SmmError": "errors",
    "compare_policies": "lcem",
    "conditional_q": "moments",
    "conditional_sharpe_sq": "moments",
    "constraints_from_dict": "hedging",
    "estimate_q": "lcem",
    "evaluate": "market",
    "flatten_pseudo_assets": "hedging",
    "hedging_example_c1": "hedging",
    "inner_product": "hedging",
    "itas": "moments",
    "kernel_regress": "leverage",
    "lcem_conditional_weights": "lcem",
    "leverage_curve": "leverage",
    "markowitz_direction": "moments",
    "markowitz_policy": "market",
    "merge_states": "market",
    "optimal_objective_value": "moments",
    "optimize_basis": "hedging",
    "q_of": "market",
    "scaling_constant": "moments",
    "silverman_bandwidth": "leverage",
    "smm_direction": "moments",
    "smm_policy": "market",
    "solve_hedge": "hedging",
    "tas": "moments",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and cache the value (PEP 562)."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
