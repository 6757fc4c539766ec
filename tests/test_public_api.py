"""The names ``smmport`` exports, each loaded from its submodule on first use."""

import importlib

import pytest

import smmport

# Each exported name, in the order of __all__, and the submodule that defines it.
PUBLIC = [
    ("DegenerateMarket", "errors"), ("DimensionMismatch", "errors"),
    ("DiscreteMarket", "market"), ("DomainError", "errors"), ("HedgeConstraint", "hedging"),
    ("HedgeSolution", "hedging"), ("InvalidSubset", "errors"), ("Kelly", "moments"),
    ("LcemComparison", "lcem"), ("LcemModel", "lcem"), ("LeverageCurve", "leverage"),
    ("LeverageSample", "leverage"), ("McConfig", "lcem"), ("McEstimate", "lcem"),
    ("MeanVariance", "moments"), ("MomentPair", "moments"),
    ("NotPositiveDefinite", "errors"), ("Objective", "moments"), ("PerfSummary", "moments"),
    ("Policy", "market"), ("ShapeMismatch", "errors"), ("SharpeBudget", "moments"),
    ("SingularBasis", "errors"), ("SingularConstraintSystem", "errors"),
    ("SmmError", "errors"), ("compare_policies", "lcem"), ("conditional_q", "moments"),
    ("conditional_sharpe_sq", "moments"), ("constraints_from_dict", "hedging"),
    ("estimate_q", "lcem"), ("evaluate", "market"), ("flatten_pseudo_assets", "hedging"),
    ("hedging_example_c1", "hedging"), ("inner_product", "hedging"), ("itas", "moments"),
    ("kernel_regress", "leverage"), ("lcem_conditional_weights", "lcem"),
    ("leverage_curve", "leverage"), ("markowitz_direction", "moments"),
    ("markowitz_policy", "market"), ("merge_states", "market"),
    ("optimal_objective_value", "moments"), ("optimize_basis", "hedging"),
    ("q_of", "market"), ("scaling_constant", "moments"),
    ("silverman_bandwidth", "leverage"), ("smm_direction", "moments"),
    ("smm_policy", "market"), ("solve_hedge", "hedging"), ("tas", "moments"),
]
PUBLIC_NAMES = [name for name, _ in PUBLIC]


def test_all_is_unchanged():
    assert smmport.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 50


@pytest.mark.parametrize("name, submodule", PUBLIC)
def test_name_is_its_submodules_object(name, submodule):
    value = getattr(smmport, name)
    assert value is getattr(importlib.import_module(f"smmport.{submodule}"), name)
    # cached on first use: the next access does not come back through __getattr__
    assert vars(smmport)[name] is value


def test_star_import_binds_every_name():
    namespace = {}
    exec("from smmport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(smmport, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(smmport))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        smmport.nope
    assert not hasattr(smmport, "nope")


def test_version():
    assert smmport.__version__ == "0.1.0"
