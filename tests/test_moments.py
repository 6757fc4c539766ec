import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from smmport import (
    DegenerateMarket,
    DomainError,
    Kelly,
    MeanVariance,
    MomentPair,
    NotPositiveDefinite,
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
from smmport.moments import PIVOT_RTOL, _back_solve, _chol_solve, _tri_solve
from conftest import random_moment_pair, random_spd

STATE_1 = MomentPair.from_covariance([1.0, 1.0], np.eye(2))
STATE_2 = MomentPair.from_covariance([2.0, 2.0], 2.0 * np.eye(2))


def test_smm_direction_known_values():
    np.testing.assert_allclose(smm_direction(STATE_1), [1 / 3, 1 / 3], rtol=1e-12)
    np.testing.assert_allclose(smm_direction(STATE_2), [1 / 5, 1 / 5], rtol=1e-12)


def test_smm_direction_zero_mean():
    pair = MomentPair.from_covariance([0.0, 0.0, 0.0], np.eye(3))
    np.testing.assert_array_equal(smm_direction(pair), np.zeros(3))


def test_smm_direction_solves_second_moment_system():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pair = random_moment_pair(rng, int(rng.integers(1, 9)))
        w = smm_direction(pair)
        resid = np.linalg.norm(pair.second_moment @ w - pair.mu)
        assert resid <= 1e-10 * max(np.linalg.norm(pair.mu), 1e-30)


def test_markowitz_direction_known_values():
    np.testing.assert_allclose(markowitz_direction(STATE_1), [1.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(markowitz_direction(STATE_2), [1.0, 1.0], rtol=1e-12)
    zero = MomentPair.from_covariance([0.0], [[2.0]])
    np.testing.assert_array_equal(markowitz_direction(zero), [0.0])


def test_rank_one_update_identity_random():
    # inv(A) mu must equal inv(Sigma) mu / (1 + mu' inv(Sigma) mu), with the
    # right side computed through an explicit dense inverse.
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        pair = random_moment_pair(rng, n)
        sigma_inv_mu = np.linalg.inv(pair.sigma) @ pair.mu
        expected = sigma_inv_mu / (1.0 + pair.mu @ sigma_inv_mu)
        got = smm_direction(pair)
        scale = 1.0 + np.max(np.abs(sigma_inv_mu))
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale


def test_down_levering_ratio():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pair = random_moment_pair(rng, int(rng.integers(1, 6)))
        if np.allclose(pair.mu, 0.0):
            continue
        mp = markowitz_direction(pair)
        smm = smm_direction(pair)
        ratio = 1.0 / (1.0 + conditional_sharpe_sq(pair))
        np.testing.assert_allclose(smm, ratio * mp, rtol=1e-9, atol=1e-13)
        assert 0.0 < ratio < 1.0


def test_conditional_q_known_values():
    assert conditional_q(STATE_1) == pytest.approx(2 / 3, abs=1e-12)
    assert conditional_q(STATE_2) == pytest.approx(4 / 5, abs=1e-12)
    zero = MomentPair.from_covariance([0.0, 0.0], np.eye(2))
    assert conditional_q(zero) == 0.0


def test_conditional_q_range_and_itas_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pair = random_moment_pair(rng, int(rng.integers(1, 7)))
        q = conditional_q(pair)
        assert 0.0 <= q < 1.0
        zeta = math.sqrt(conditional_sharpe_sq(pair))
        assert q == pytest.approx(itas(zeta) ** 2, abs=1e-10)


def test_tas_345_triangle():
    assert tas(3 / 5) == pytest.approx(3 / 4, abs=1e-15)
    assert tas(0.0) == 0.0
    assert itas(0.0) == 0.0


def test_tas_domain():
    for h in (1.0, -1.0, 1.5, math.inf):
        with pytest.raises(DomainError):
            tas(h)


def test_tas_itas_round_trip():
    for h in np.linspace(-0.99, 0.99, 100):
        assert itas(tas(h)) == pytest.approx(h, abs=1e-12)


def test_tas_itas_odd_and_monotone():
    hs = np.linspace(-0.95, 0.95, 41)
    vals = [tas(h) for h in hs]
    assert all(tas(-h) == -tas(h) for h in hs)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ss = np.linspace(-20, 20, 41)
    ivals = [itas(s) for s in ss]
    assert all(itas(-s) == -itas(s) for s in ss)
    assert all(b > a for a, b in zip(ivals, ivals[1:]))
    assert abs(itas(1e308)) < 1.0 and itas(1e308) == pytest.approx(1.0, abs=1e-12)


def test_second_moment_cache():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pair = random_moment_pair(rng, 4)
        a = pair.sigma + np.outer(pair.mu, pair.mu)
        err = np.max(np.abs(pair.second_moment - a))
        assert err <= 1e-12 * (1.0 + np.max(np.abs(a)))
        assert np.all(np.linalg.eigvalsh(pair.second_moment) > 0)


def test_construct_from_second_moment():
    a = STATE_1.second_moment
    pair = MomentPair.from_second_moment([1.0, 1.0], a)
    np.testing.assert_allclose(pair.sigma, np.eye(2), atol=1e-14)
    assert pair.supplied == "second_moment"
    assert STATE_1.supplied == "sigma"


def test_construct_requires_exactly_one_matrix():
    with pytest.raises(DomainError):
        MomentPair([1.0], sigma=[[1.0]], second_moment=[[2.0]])
    with pytest.raises(DomainError):
        MomentPair([1.0])


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefinite):
        MomentPair.from_covariance([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])
    # second moment smaller than mu mu' implies an indefinite covariance
    with pytest.raises(NotPositiveDefinite):
        MomentPair.from_second_moment([2.0], [[1.0]])
    # near-singular pivot below 1e-10 relative tolerance
    with pytest.raises(NotPositiveDefinite):
        MomentPair.from_covariance([1.0, 1.0], [[1.0, 0.0], [0.0, 1e-12]])


def test_asymmetry_warns_and_symmetrizes():
    skew = np.array([[1.0, 0.1], [0.3, 1.0]])
    with pytest.warns(UserWarning):
        pair = MomentPair.from_covariance([0.0, 0.0], skew)
    np.testing.assert_allclose(pair.sigma, [[1.0, 0.2], [0.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MomentPair.from_covariance([0.0, 0.0], np.eye(2))


def test_moment_pair_repr():
    assert repr(STATE_1) == "MomentPair(n=2, supplied='sigma')"


def test_immutability():
    with pytest.raises(ValueError):
        STATE_1.mu[0] = 9.0
    with pytest.raises(ValueError):
        STATE_1.second_moment[0, 0] = 9.0


def test_scaling_constant_values():
    q = 11 / 15
    c = scaling_constant(q, SharpeBudget(risk_budget=1.0))
    assert c == pytest.approx(15 / (2 * math.sqrt(11)), rel=1e-13)
    assert scaling_constant(0.37, Kelly()) == 1.0
    assert scaling_constant(0.5, MeanVariance(risk_param=2.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("objective, name", [
    (SharpeBudget(risk_budget=1e308), "risk_budget"),
    (MeanVariance(risk_param=1e308), "risk_param"),
])
def test_scaling_constant_overflow_names_parameter(objective, name):
    with pytest.raises(DomainError, match=f"^{name} 1e\\+308 makes the policy scale overflow$"):
        scaling_constant(0.8, objective)


def test_scaling_constant_degenerate_and_domain():
    with pytest.raises(DegenerateMarket):
        scaling_constant(0.0, SharpeBudget())
    assert scaling_constant(0.0, Kelly()) == 1.0
    for bad_q in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            scaling_constant(bad_q, Kelly())


@pytest.mark.parametrize("helper, name", [
    (lambda v: scaling_constant(v, Kelly()), "q"),
    (lambda v: optimal_objective_value(v, Kelly()), "q"),
    (tas, "hansen"),
    (itas, "sharpe"),
], ids=["scaling_constant", "optimal_objective_value", "tas", "itas"])
@pytest.mark.parametrize("bad", ["x", "0.5", None, [0.5], math.inf, -math.inf, math.nan])
def test_scalar_helpers_name_a_bad_scalar(helper, name, bad):
    # text, None, a vector and a non-finite value each raise one named
    # error, never a bare ValueError or TypeError, a NaN or a parsed string
    with pytest.raises(DomainError, match=f"^{name} must be finite$"):
        helper(bad)


@pytest.mark.parametrize("solve", [scaling_constant, optimal_objective_value])
def test_unknown_objective_rejected(solve):
    with pytest.raises(DomainError, match="^unknown objective 'sharpe'$"):
        solve(0.5, "sharpe")


def test_objective_validation():
    with pytest.raises(DomainError):
        SharpeBudget(risk_budget=0.0)
    with pytest.raises(DomainError):
        SharpeBudget(risk_free=-0.1)
    with pytest.raises(DomainError):
        MeanVariance(risk_param=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_objective_parameters_must_be_finite(bad):
    with pytest.raises(DomainError, match="^risk_budget must be finite and positive$"):
        SharpeBudget(risk_budget=bad)
    with pytest.raises(DomainError, match="^risk_free must be finite and nonnegative$"):
        SharpeBudget(risk_free=bad)
    with pytest.raises(DomainError, match="^risk_param must be finite and positive$"):
        MeanVariance(risk_param=bad)


def test_optimal_objective_values():
    q = 11 / 15
    assert optimal_objective_value(q, SharpeBudget(risk_budget=1.0)) == pytest.approx(
        math.sqrt(11 / 4), abs=1e-12
    )
    assert optimal_objective_value(q, Kelly()) == pytest.approx(11 / 30, abs=1e-15)
    assert optimal_objective_value(0.0, Kelly()) == 0.0
    assert optimal_objective_value(0.0, SharpeBudget(risk_budget=2.0, risk_free=0.1)) == -0.05
    lam = 3.0
    assert optimal_objective_value(0.4, MeanVariance(lam)) == pytest.approx(
        (lam / 4) * 0.4 / 0.6, rel=1e-14
    )


def test_optimal_objective_value_rejects_q_of_one():
    with pytest.raises(DomainError, match=r"q must lie in \[0, 1\), got 1\.0"):
        optimal_objective_value(1.0, Kelly())


def test_sharpe_objective_increasing_in_q():
    qs = np.linspace(0.0, 0.99, 60)
    vals = [optimal_objective_value(q, SharpeBudget()) for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_perf_summary_identities():
    s = PerfSummary(mean=3.0, second_moment=13.0)
    assert s.variance == pytest.approx(4.0)
    assert s.risk == pytest.approx(2.0)
    assert s.sharpe == pytest.approx(1.5)
    assert s.hansen == pytest.approx(3.0 / math.sqrt(13.0))
    assert abs(s.hansen) <= 1.0
    assert not s.zero_risk


def test_perf_summary_zero_risk():
    flat = PerfSummary(mean=0.0, second_moment=0.0)
    assert flat.zero_risk and flat.sharpe == 0.0 and flat.hansen == 0.0
    riskless = PerfSummary(mean=0.05, second_moment=0.0025)
    assert riskless.zero_risk
    assert math.isnan(riskless.sharpe)
    off = PerfSummary(mean=0.05, second_moment=0.0025, rfr=0.05)
    assert off.sharpe == 0.0


def test_perf_summary_variance_of_huge_mean():
    # mean * mean passes the float maximum, so it exceeds the second moment
    assert PerfSummary(mean=1e200, second_moment=1e300).variance == 0.0
    assert PerfSummary(mean=1.4e154, second_moment=1e308).variance == 0.0


def test_perf_summary_variance_is_correctly_rounded():
    # the moments of the mean-variance golden summary; the C library's
    # pow(mean, 2) can be one ulp off the correctly rounded square
    mean, second = 1.3750000000000004, 2.5781250000000013
    square = float(Fraction(mean) ** 2)
    summary = PerfSummary(mean=mean, second_moment=second)
    assert summary.variance == second - square == 0.6875


def test_perf_summary_rfr():
    s = PerfSummary(mean=3.0, second_moment=13.0, rfr=1.0)
    assert s.sharpe == pytest.approx(1.0)


def _exact_substitution(lower, b, transpose):
    """L y = b (or L' y = b) for one matrix and one column, by substitution
    in exact rational arithmetic on the float inputs."""
    n = len(b)
    t = [[Fraction(lower[j][i] if transpose else lower[i][j]) for j in range(n)]
         for i in range(n)]
    y = [Fraction(0)] * n
    for i in (reversed(range(n)) if transpose else range(n)):
        done = range(i + 1, n) if transpose else range(i)
        y[i] = (Fraction(b[i]) - sum(t[i][j] * y[j] for j in done)) / t[i][i]
    return y


def _forward_error(computed, exact) -> float:
    """max |computed - exact| / max |exact|, rounded once to float."""
    err = max(abs(Fraction(c) - e) for c, e in zip(computed, exact))
    return float(err / max(abs(e) for e in exact))


def _factor(rng, n, near_singular):
    """A validated Cholesky factor; with ``near_singular``, of a matrix
    whose smallest squared pivot is 1.001 * PIVOT_RTOL of its largest
    diagonal entry, just inside the guard."""
    lower = np.tril(rng.standard_normal((n, n)))
    np.fill_diagonal(lower, np.exp(rng.uniform(-2.0, 2.0, n)))
    if near_singular:
        sq = lower[-1, :-1] @ lower[-1, :-1]
        top = max(np.max(np.einsum("ij,ij->i", lower[:-1], lower[:-1]), initial=0.0), sq)
        lower[-1, -1] = math.sqrt(1.001 * PIVOT_RTOL * top / (1.0 - 1.001 * PIVOT_RTOL))
    chol = MomentPair(np.zeros(n), sigma=lower @ lower.T).chol_sigma
    ratio = np.min(np.diag(chol) ** 2) / np.max(np.diag(lower @ lower.T))
    assert not near_singular or ratio < 1.01 * PIVOT_RTOL
    return chol


@pytest.mark.parametrize("b_shape", ["n", "n,k", "S,n", "S,n,1", "S,n,k"])
@pytest.mark.parametrize("n, near_singular", [
    (1, False), (2, False), (5, False), (2, True), (5, True),
], ids=["n=1", "n=2", "n=5", "n=2 at the guard", "n=5 at the guard"])
def test_substitution_against_exact_arithmetic(b_shape, n, near_singular):
    # forward error of a triangular solve is at most about n eps cond(L)
    # (Higham, Accuracy and Stability of Numerical Algorithms, 8.2); the
    # Cholesky solve chains two of them
    rng = np.random.default_rng([n, len(b_shape), near_singular])
    dims = {"S": 4, "n": n, "k": 3, "1": 1}
    b = rng.standard_normal([dims[d] for d in b_shape.split(",")])
    lowers = np.stack([_factor(rng, n, near_singular) for _ in range(4)])
    if not b_shape.startswith("S"):
        lowers = lowers[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = {"forward": _tri_solve(lowers, b), "back": _back_solve(lowers, b),
                   "cholesky": _chol_solve(lowers, b)}
    eps = np.finfo(np.float64).eps
    vector = b.ndim == lowers.ndim - 1
    columns = b[..., None] if vector else b
    for name, y in results.items():
        assert y.shape == b.shape
        y = y[..., None] if vector else y
        for lower, bs, ys in zip(lowers.reshape(-1, n, n), columns.reshape(-1, n, columns.shape[-1]),
                                 y.reshape(-1, n, columns.shape[-1])):
            cond = np.linalg.cond(lower, np.inf)
            cond_t = np.linalg.cond(lower.T, np.inf)
            bound = {"forward": cond, "back": cond_t, "cholesky": cond * cond_t}[name]
            for col, computed in zip(bs.T.tolist(), ys.T.tolist()):
                if name == "cholesky":
                    col = _exact_substitution(lower.tolist(), col, False)
                exact = _exact_substitution(lower.tolist(), col, name != "forward")
                err = _forward_error(computed, exact)
                assert err <= 4 * n * eps * bound, (name, err, bound)
