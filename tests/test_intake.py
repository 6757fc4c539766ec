"""How outside arrays enter the library.

Every public entry point that takes arrays works on its own float64
copies: the caller's arrays stay writeable and unchanged, and nothing the
library returns or keeps shares memory with them. Non-finite or
mis-shaped input raises an error that names the argument.
"""

import numpy as np
import pytest

from smmport import (
    DimensionMismatch,
    DiscreteMarket,
    DomainError,
    LcemModel,
    LeverageSample,
    MeanVariance,
    MomentPair,
    PerfSummary,
    Policy,
    SharpeBudget,
    evaluate,
    kernel_regress,
    lcem_conditional_weights,
    leverage_curve,
    silverman_bandwidth,
)
from smmport.moments import _floats
from conftest import random_spd


def _model_arrays(rng):
    return [rng.standard_normal((2, 3)), random_spd(rng, 2),
            rng.standard_normal(3), random_spd(rng, 3)]


def _leverage_sample(rng):
    x = rng.uniform(0.5, 2.5, 50)
    return [x, rng.standard_normal(50) * x], LeverageSample.from_observations


def _lcem_model(rng):
    return _model_arrays(rng), LcemModel


def _kernel_regress(rng):
    xs = rng.uniform(0.0, 1.0, 40)
    arrays = [xs, np.sin(xs), np.linspace(0.1, 0.9, 9)]
    return arrays, lambda xs, ys, grid: kernel_regress(xs, ys, grid, bandwidth=0.2)


def _leverage_curve_grid(rng):
    sample = LeverageSample.from_observations(rng.uniform(0.5, 2.5, 50).tolist(),
                                              rng.standard_normal(50).tolist())
    return [np.linspace(0.8, 2.2, 15)], lambda grid: leverage_curve(sample, grid=grid)


def _lcem_conditional_weights(rng):
    model = LcemModel(*_model_arrays(rng))
    return [rng.standard_normal(3)], lambda f: lcem_conditional_weights(model, f)


def _from_arrays(rng):
    probs = np.full(3, 1.0 / 3.0)
    mu = 0.3 * rng.standard_normal((3, 2))
    mats = np.stack([random_spd(rng, 2) for _ in range(3)])
    return [probs, mu, mats, np.array([False, True, False])], DiscreteMarket.from_arrays


def _moment_pair(rng):
    return [0.3 * rng.standard_normal(2), random_spd(rng, 2)], MomentPair.from_covariance


def _policy(rng):
    return [rng.standard_normal((4, 2))], Policy


ENTRY_POINTS = {
    "LeverageSample.from_observations": _leverage_sample,
    "LcemModel": _lcem_model,
    "kernel_regress": _kernel_regress,
    "leverage_curve(grid=...)": _leverage_curve_grid,
    "lcem_conditional_weights": _lcem_conditional_weights,
    # controls: these copied their inputs already
    "DiscreteMarket.from_arrays": _from_arrays,
    "MomentPair": _moment_pair,
    "Policy": _policy,
}


def _kept_arrays(result):
    """The arrays a result is or holds in its slots or fields."""
    if isinstance(result, np.ndarray):
        return [result]
    names = getattr(type(result), "__slots__", None) or vars(result)
    values = [getattr(result, name, None) for name in names]
    return [v for v in values if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("make", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_caller_arrays_are_copied_never_locked(make):
    arrays, call = make(np.random.default_rng(11))
    before = [a.copy() for a in arrays]
    kept = _kept_arrays(call(*arrays))
    assert kept
    for arg, old in zip(arrays, before):
        assert arg.flags.writeable
        assert arg.dtype == old.dtype and arg.tobytes() == old.tobytes()
        for stored in kept:
            assert not np.shares_memory(arg, stored)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["xs", "ys", "grid"])
def test_kernel_regress_rejects_non_finite(where, bad):
    args = {"xs": [1.0, 2.0, 3.0], "ys": [0.5, 0.1, 0.2], "grid": [1.5, 2.0, 2.5]}
    args[where][1] = bad
    with pytest.raises(DomainError, match=f"^{where} has non-finite entries$"):
        kernel_regress(args["xs"], args["ys"], args["grid"], bandwidth=0.5)


def test_kernel_regress_rejects_matrix_grid():
    with pytest.raises(DomainError, match="^grid must be a nonempty 1-d vector$"):
        kernel_regress([1.0, 2.0], [0.5, 0.1], [[1.5, 2.0]], bandwidth=0.5)


def test_leverage_curve_rejects_infinite_grid_point():
    sample = LeverageSample.from_observations([1.0, 1.5, 2.0], [0.1, -0.2, 0.3])
    with pytest.raises(DomainError, match="^grid has non-finite entries$"):
        leverage_curve(sample, grid=[1.0, 2.0, np.inf], bandwidth=0.5)


def test_non_finite_is_reported_before_shape():
    # B is a vector, not a matrix, and also holds a NaN
    with pytest.raises(DomainError, match="^B has non-finite entries$"):
        LcemModel(B=[0.1, np.nan], sigma=np.eye(2), feature_mean=[0.0],
                  feature_cov=np.eye(1))
    with pytest.raises(DomainError, match="^B must be a nonempty 2-d matrix$"):
        LcemModel(B=[0.1, 0.2], sigma=np.eye(2), feature_mean=[0.0],
                  feature_cov=np.eye(1))


def test_lcem_model_checks_feature_shapes():
    with pytest.raises(DomainError, match="^feature_mean must have length 2$"):
        LcemModel(B=np.eye(2), sigma=np.eye(2), feature_mean=[0.0],
                  feature_cov=np.eye(2))
    with pytest.raises(DomainError, match=r"^feature_cov must be 2x2, got \(3, 3\)$"):
        LcemModel(B=np.eye(2), sigma=np.eye(2), feature_mean=[0.0, 0.0],
                  feature_cov=np.eye(3))
    with pytest.raises(DomainError, match="^f must be a nonempty 1-d vector$"):
        lcem_conditional_weights(LcemModel(np.eye(2), np.eye(2), [0.0, 0.0], np.eye(2)),
                                 [[0.1, 0.2]])


@pytest.mark.parametrize("weights", [np.ones((3, 2)), np.ones((2, 3))],
                         ids=["states", "assets"])
def test_evaluate_rejects_wrong_policy_shape(two_state_market, weights):
    with pytest.raises(DimensionMismatch, match="^policy is "):
        evaluate(two_state_market, Policy(weights))


@pytest.mark.parametrize("bad", [
    {"a": 1}, "x", int("1" + "0" * 400), [int("1" + "0" * 400), 1.0],
    [[1.0], [1.0, 2.0]], [[{"a": 1}]], object(),
], ids=["mapping", "string", "big-int", "big-int-entry", "ragged", "nested-mapping",
        "object"])
def test_floats_gives_none_for_what_numpy_cannot_read(bad):
    assert _floats(bad) is None


@pytest.mark.parametrize("x", [np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(3, 2).T,
                               np.arange(4, dtype=np.int64), [[1, 2], [3, 4]], 5.0],
                         ids=["c-order", "f-order", "int", "list", "scalar"])
def test_floats_is_a_new_c_contiguous_float64_array(x):
    a = _floats(x)
    assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
    np.testing.assert_array_equal(a, np.array(x, dtype=np.float64))
    assert not (isinstance(x, np.ndarray) and np.shares_memory(a, x))


@pytest.mark.parametrize("text", [
    "1", b"1", ["1.0", "1e0"], [1.0, "1"], [[1.0], ["1"]], [2**70, "1"], [True, b"1"],
    np.array(["1"]), np.array([b"1"]), np.array([1.0, "1"], dtype=object),
], ids=["str", "bytes", "strs", "float-and-str", "nested", "big-int-and-str",
        "bool-and-bytes", "str-array", "bytes-array", "object-array"])
def test_floats_gives_none_for_numeric_text(text):
    assert _floats(text) is None


def test_floats_gives_none_for_complex_arrays():
    assert _floats(np.array([1.0 + 0.0j])) is None


@pytest.mark.parametrize("x", [[1, 2], [True, False], [2**70, 1], [[True, 2**70], [1.5, 3]],
                               np.array([1, 2**64 - 1], dtype=np.uint64)],
                         ids=["ints", "bools", "big-int", "mixed", "uint64"])
def test_floats_reads_ints_and_bools(x):
    rows = x.tolist() if isinstance(x, np.ndarray) else x
    expected = [[float(v) for v in r] if isinstance(r, list) else float(r) for r in rows]
    np.testing.assert_array_equal(_floats(x), expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_silverman_bandwidth_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="^xs has non-finite entries$"):
        silverman_bandwidth([1.0, bad, 2.0])


@pytest.mark.parametrize("xs", [[1.0], [-3.5]])
def test_silverman_bandwidth_needs_two_samples(xs):
    # np.std of one sample is nan after two RuntimeWarnings
    with pytest.raises(DomainError, match="^need at least two samples$"):
        silverman_bandwidth(xs)


@pytest.mark.parametrize("prob", [None, "half", [0.5], {"p": 0.5}, 10**400, "0.5", True],
                         ids=["none", "text", "list", "mapping", "huge-int", "numeric-text",
                              "bool"])
def test_market_names_the_state_of_a_non_numeric_probability(prob):
    pair = MomentPair.from_covariance([0.1], [[1.0]])
    with pytest.raises(DomainError, match="^state 1: probability must be a number$"):
        DiscreteMarket([(0.5, pair), (prob, pair)])


@pytest.mark.parametrize("c", ["2", np.nan, np.inf, None, [2.0]],
                         ids=["numeric-text", "nan", "inf", "none", "list"])
def test_policy_scaled_names_a_bad_factor(c):
    with pytest.raises(DomainError, match="^c must be finite$"):
        Policy([[1.0, 2.0], [3.0, 4.0]]).scaled(c)


def test_policy_scaled_names_the_factor_that_overflows_the_weights():
    with pytest.raises(DomainError, match="^c = 1e\\+300 makes the weights overflow$"):
        Policy([[1.0, 1e10]]).scaled(1e300)
    assert Policy([[1.0, -2.0]]).scaled(np.float32(0.5)).weights.tolist() == [[0.5, -1.0]]


@pytest.mark.parametrize("field", ["mean", "second_moment", "rfr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, "1.0", None], ids=["nan", "inf", "text", "none"])
def test_perf_summary_names_a_bad_moment(field, bad):
    # min and max drop a NaN mean: hansen read -1.0 for mean=nan
    values = {"mean": 0.5, "second_moment": 1.0, "rfr": 0.0, field: bad}
    with pytest.raises(DomainError, match=f"^{field} must be finite$"):
        PerfSummary(**values)


def test_moment_pair_rejects_a_mapping():
    with pytest.raises(DomainError, match="^mu must be a nonempty 1-d vector$"):
        MomentPair({"a": 1}, sigma=[[1.0]])
    with pytest.raises(DomainError, match="^sigma must be 1x1, got a value not readable"):
        MomentPair([0.1], sigma={"a": 1})


@pytest.mark.parametrize("bad", [5, None, np.array(5.0)], ids=["number", "null", "0-d"])
def test_policy_rejects_a_non_sequence(bad):
    with pytest.raises(DomainError, match="^weights: needs one vector per state$"):
        Policy(bad)


def test_policy_reads_a_generator_once():
    # rows are listed before the bulk conversion, so a valid generator
    # takes the fast path instead of being consumed and found empty
    policy = Policy(np.full(2, float(i)) for i in range(3))
    np.testing.assert_array_equal(policy.weights, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])


NOT_NUMBERS = [None, "x", "1", [1.0], {"a": 1}, 10**400]
NOT_NUMBER_IDS = ["none", "text", "numeric-text", "list", "mapping", "huge-int"]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_objective_parameters_name_a_non_number(bad):
    with pytest.raises(DomainError, match="^risk_budget must be finite and positive$"):
        SharpeBudget(bad)
    with pytest.raises(DomainError, match="^risk_free must be finite and nonnegative$"):
        SharpeBudget(risk_free=bad)
    with pytest.raises(DomainError, match="^risk_param must be finite and positive$"):
        MeanVariance(bad)


def test_objective_parameters_are_kept_as_floats():
    objective = SharpeBudget(np.float32(2.0), np.array(0.5))
    assert (type(objective.risk_budget), type(objective.risk_free)) == (float, float)
    assert objective == SharpeBudget(2.0, 0.5) and MeanVariance(3).risk_param == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, *NOT_NUMBERS],
                         ids=["nan", "inf", "-inf", *NOT_NUMBER_IDS])
def test_scalar_arguments_name_a_non_finite_value(two_state_market, bad):
    policy = Policy(np.ones((2, 2)))
    with pytest.raises(DomainError, match="^rfr must be finite$"):
        evaluate(two_state_market, policy, rfr=bad)
    model = LcemModel(*_model_arrays(np.random.default_rng(3)))
    with pytest.raises(DomainError, match="^scale must be finite$"):
        lcem_conditional_weights(model, np.ones(3), scale=bad)
    with pytest.raises(DomainError, match="^bandwidth must be finite and positive$"):
        kernel_regress([1.0, 2.0], [0.5, 0.1], [1.5], bandwidth=bad)
