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
    MomentPair,
    Policy,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_silverman_bandwidth_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="^xs has non-finite entries$"):
        silverman_bandwidth([1.0, bad, 2.0])


@pytest.mark.parametrize("xs", [[1.0], [-3.5]])
def test_silverman_bandwidth_needs_two_samples(xs):
    # np.std of one sample is nan after two RuntimeWarnings
    with pytest.raises(DomainError, match="^need at least two samples$"):
        silverman_bandwidth(xs)


@pytest.mark.parametrize("prob", [None, "half", [0.5], {"p": 0.5}, 10**400],
                         ids=["none", "text", "list", "mapping", "huge-int"])
def test_market_names_the_state_of_a_non_numeric_probability(prob):
    pair = MomentPair.from_covariance([0.1], [[1.0]])
    with pytest.raises(DomainError, match="^state 1: probability must be a number$"):
        DiscreteMarket([(0.5, pair), (prob, pair)])


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
