"""Forward error where q nears 1, against 50-digit mpmath, and the policy
scales over random markets.

A market carries q and, from the other side of Sherman-Morrison, its
1 - q = sum_s p_s / (1 + zeta_s^2), a sum of positive terms; every policy
scale and optimal objective value comes from that pair, and ``evaluate``
sums its variance from nonnegative terms. So neither is formed by a
subtraction that cancels as q nears 1. The one-asset, two-state markets
below have conditional Sharpe zeta in both states; at zeta = 1e8 every
conditional q rounds to 1.0, and every objective must still solve.
"""

import json
import math

import numpy as np
import pytest

from smmport import (
    DiscreteMarket,
    HedgeConstraint,
    Kelly,
    MeanVariance,
    NotPositiveDefinite,
    PerfSummary,
    SharpeBudget,
    evaluate,
    hedging_example_c1,
    markowitz_policy,
    merge_states,
    optimize_basis,
    q_of,
    smm_policy,
    solve_hedge,
)
from smmport.cli import main
from smmport.hedging import CONDITION_LIMIT
from smmport.moments import PIVOT_RTOL
from conftest import random_market

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(float).eps)
RTOL = 1e-14
ZETAS = [1e2, 1e4, 1e6, 1e7, 1e8]
OBJECTIVES = {
    "sharpe": (SharpeBudget(risk_budget=2.0, risk_free=0.01),
               ["--risk-budget", "2", "--risk-free", "0.01"]),
    "mean-variance": (MeanVariance(risk_param=3.0), ["--risk-param", "3"]),
    "kelly": (Kelly(), []),
}


def zeta_states(zeta):
    return [{"prob": 0.5, "mu": [1.0], "sigma": [[1.0 / zeta / zeta]]},
            {"prob": 0.5, "mu": [0.5], "sigma": [[0.25 / zeta / zeta]]}]


# the raw constraint removes the second state, whose probability is 2**-43:
# q_g is the first state's p q_1, and 1 - q_g = p (1 - q_1) + 2**-43 ~ 1.1e-13
HEDGED_STATES = [{"prob": 1.0 - 2.0 ** -43, "mu": [1.0], "sigma": [[1e-16]]},
                 {"prob": 2.0 ** -43, "mu": [1.0], "sigma": [[1.0]]}]
HEDGED_CONSTRAINTS = {"constraints": [{"kind": "raw", "g": [[0.0], [1.0]]}]}


def rel(got, want):
    return abs(mpmath.mpf(got) - want) / abs(want)


def exact_moments(states, weights):
    """mpmath mean and variance of the float ``weights`` on one-asset
    ``states`` (probabilities summing to exactly 1), the pair (q, 1 - q)
    and each state's direction inv(A_s) mu_s."""
    with mpmath.workdps(50):
        p, mu, sigma = ([mpmath.mpf(np.ravel(s[key])[0]) for s in states]
                         for key in ("prob", "mu", "sigma"))
        a = [s + m * m for s, m in zip(sigma, mu)]
        w = [mpmath.mpf(x[0]) for x in weights]
        mean = sum(pi * mi * wi for pi, mi, wi in zip(p, mu, w))
        second = sum(pi * ai * wi * wi for pi, ai, wi in zip(p, a, w))
        q = sum(pi * mi * mi / ai for pi, mi, ai in zip(p, mu, a))
        one_minus_q = sum(pi * si / ai for pi, si, ai in zip(p, sigma, a))
        return mean, second - mean * mean, q, one_minus_q, [m / x for m, x in zip(mu, a)]


def exact_optimum(q, one_minus_q, objective):
    """The optimal scale and value of the unit second-moment policy."""
    with mpmath.workdps(50):
        if isinstance(objective, SharpeBudget):
            return (objective.risk_budget / mpmath.sqrt(q * one_minus_q),
                    mpmath.sqrt(q / one_minus_q)
                    - mpmath.mpf(objective.risk_free) / objective.risk_budget)
        if isinstance(objective, MeanVariance):
            return (objective.risk_param / (2 * one_minus_q),
                    objective.risk_param * q / (4 * one_minus_q))
        return mpmath.mpf(1), q / 2


def solve(capsys, tmp_path, states, name, constraints=None):
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"states": states}))
    argv = ["solve-discrete", "--market", str(path), "--objective", name, *OBJECTIVES[name][1]]
    if constraints is not None:
        cpath = tmp_path / "constraints.json"
        cpath.write_text(json.dumps(constraints))
        argv += ["--constraints", str(cpath)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "NaN" not in out and "Infinity" not in out
    return json.loads(out)


@pytest.mark.parametrize("zeta", ZETAS)
def test_market_carries_one_minus_q(zeta):
    market = DiscreteMarket.from_dict({"states": zeta_states(zeta)})
    _, _, q, one_minus_q, _ = exact_moments(zeta_states(zeta), [[0.0], [0.0]])
    assert rel(market._one_minus_q, one_minus_q) <= RTOL
    assert rel(q_of(market), q) <= RTOL


@pytest.mark.parametrize("name", list(OBJECTIVES))
@pytest.mark.parametrize("zeta", ZETAS)
def test_scale_value_and_summary_against_mpmath(capsys, tmp_path, zeta, name):
    states = zeta_states(zeta)
    out = solve(capsys, tmp_path, states, name)
    objective = OBJECTIVES[name][0]
    mean, variance, q, one_minus_q, directions = exact_moments(states, out["policy"])
    scale, value = exact_optimum(q, one_minus_q, objective)
    assert rel(out["optimal_objective"], value) <= RTOL
    for got, direction in zip(out["policy"], directions):
        assert rel(got[0], scale * direction) <= RTOL
    summary = out["summary"]
    assert rel(summary["variance"], variance) <= RTOL
    assert rel(summary["sharpe"], (mean - summary["rfr"]) / mpmath.sqrt(variance)) <= RTOL
    if name == "kelly":
        market = DiscreteMarket.from_dict({"states": states})
        assert np.array(out["policy"], dtype=float).tobytes() == market.smm_directions.tobytes()


@pytest.mark.parametrize("name", list(OBJECTIVES))
@pytest.mark.parametrize("zeta", ZETAS)
def test_markowitz_policy_against_mpmath(zeta, name):
    # conditional Sharpe zeta and zeta / 2: the unit covariance policy's
    # variance has a spread of the state means as well as the within-state risk
    states = [{"prob": 0.25, "mu": [1.0], "sigma": [[1.0 / zeta / zeta]]},
              {"prob": 0.75, "mu": [0.5], "sigma": [[1.0 / zeta / zeta]]}]
    objective = OBJECTIVES[name][0]
    got = markowitz_policy(DiscreteMarket.from_dict({"states": states}), objective).weights
    with mpmath.workdps(50):
        p, mu, sigma = ([mpmath.mpf(np.ravel(s[key])[0]) for s in states]
                        for key in ("prob", "mu", "sigma"))
        z2 = [m * m / s for m, s in zip(mu, sigma)]
        mean = sum(pi * zi for pi, zi in zip(p, z2))
        second = sum(pi * zi * (1 + zi) for pi, zi in zip(p, z2))
        variance = second - mean * mean
        if isinstance(objective, SharpeBudget):
            scale = objective.risk_budget / mpmath.sqrt(variance)
        elif isinstance(objective, MeanVariance):
            scale = objective.risk_param * mean / (2 * variance)
        else:
            scale = mean / second
        for w, m, s in zip(got, mu, sigma):
            assert rel(w[0], scale * m / s) <= RTOL


@pytest.mark.parametrize("zeta", ZETAS)
def test_hedging_example_c1_against_mpmath(zeta):
    # the numerator w'mu (1 - q) takes the market's carried 1 - q
    states, target = zeta_states(zeta), [[1.0], [-0.3]]
    market = DiscreteMarket.from_dict({"states": states})
    mean, variance, q, one_minus_q, _ = exact_moments(states, target)
    with mpmath.workdps(50):
        second = variance + mean * mean
        want = -mean * one_minus_q / (second - 2 * mean * mean + mean * mean * q)
    assert rel(hedging_example_c1(market, target), want) <= 1e-15


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_hedged_market_with_q_g_near_one(capsys, tmp_path, name):
    out = solve(capsys, tmp_path, HEDGED_STATES, name, HEDGED_CONSTRAINTS)
    objective = OBJECTIVES[name][0]
    p1, p2 = (mpmath.mpf(s["prob"]) for s in HEDGED_STATES)
    with mpmath.workdps(50):
        a1 = mpmath.mpf(1e-16) + 1
        q_g, one_minus_q_g = p1 / a1, p1 * mpmath.mpf(1e-16) / a1 + p2
    assert 0.0 < 1.0 - out["q_g"] < 1e-12
    assert rel(out["q_g"], q_g) <= RTOL
    assert rel(out["spanned_q"], p2 / 2) <= RTOL
    scale, value = exact_optimum(q_g, one_minus_q_g, objective)
    assert rel(out["optimal_objective"], value) <= RTOL
    assert rel(out["policy"][0][0], scale / a1) <= RTOL
    mean, variance, _, _, _ = exact_moments(HEDGED_STATES, out["policy"])
    summary = out["summary"]
    assert rel(summary["variance"], variance) <= RTOL
    assert rel(summary["sharpe"], (mean - summary["rfr"]) / mpmath.sqrt(variance)) <= RTOL


@pytest.mark.parametrize("name", list(OBJECTIVES))
@pytest.mark.parametrize("zeta", ZETAS + [1e9])
def test_basis_of_the_smm_directions_is_the_smm_policy(zeta, name):
    # the basis spans x = inv(A) mu, so its policy is the optimum: scaled
    # from the basis' q and the market's 1 - q plus the part of x outside
    # the basis, not from 1 - q formed by subtraction
    market = DiscreteMarket.from_dict({"states": zeta_states(zeta)})
    objective = OBJECTIVES[name][0]
    coeff, _ = optimize_basis(market, [market.smm_directions], objective)
    want = smm_policy(market, objective).weights
    np.testing.assert_allclose(coeff[0] * market.smm_directions, want, rtol=4 * EPS, atol=0)


def equal_mean_states(zeta):
    """Three states; merging the first two, of equal mean, spreads no mean,
    so the merged covariance is the members' risk alone and 1 - q = 1.75 /
    zeta^2 to leading order."""
    return [{"prob": 0.25, "mu": [1.0], "sigma": [[1.0 / zeta / zeta]]},
            {"prob": 0.25, "mu": [1.0], "sigma": [[4.0 / zeta / zeta]]},
            {"prob": 0.5, "mu": [0.5], "sigma": [[0.25 / zeta / zeta]]}]


@pytest.mark.parametrize("zeta", [1e6, 1e7, 1e8, 1e9])
def test_merged_market_carries_one_minus_q(capsys, tmp_path, zeta):
    states = equal_mean_states(zeta)
    market = DiscreteMarket.from_dict({"states": states})
    merged, _ = merge_states(market, [0, 1])
    with mpmath.workdps(50):
        p, mu, sigma = ([mpmath.mpf(np.ravel(s[key])[0]) for s in states]
                        for key in ("prob", "mu", "sigma"))
        p_m = p[0] + p[1]
        sigma_m = (p[0] * sigma[0] + p[1] * sigma[1]) / p_m
        one_minus_q = (p_m * sigma_m / (sigma_m + mu[0] ** 2)
                       + p[2] * sigma[2] / (sigma[2] + mu[2] ** 2))
    assert rel(merged._one_minus_q, one_minus_q) <= 1e-15
    assert merged._one_minus_q >= market._one_minus_q

    path = tmp_path / "market.json"
    path.write_text(json.dumps({"states": states}))
    rc = main(["merge-states", "--market", str(path), "--subset", "0,1"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["delta_q"] <= 0.0

    # written by the covariance it carries, the merged market reads back
    # with the same Sigma and 1 - q and solves again; written by its second
    # moment, it would derive Sigma as A - mu mu', which cancels at 1e9
    written = json.loads(out)["merged_market"]
    assert "sigma" in written["states"][0]
    again = DiscreteMarket.from_dict(written)
    assert again.sigma.tobytes() == merged.sigma.tobytes()
    assert again._one_minus_q == merged._one_minus_q
    path.write_text(json.dumps(written))
    for name in OBJECTIVES:
        rc = main(["solve-discrete", "--market", str(path), "--objective", name])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, ""), name
        assert "NaN" not in out and "Infinity" not in out, name


# --- random markets ------------------------------------------------------

# Reference ladders that form 1 - q, or the variance, by subtraction: the
# scales and values must match them within that subtraction's error.


def reference_scaling_constant(q, objective):
    if isinstance(objective, SharpeBudget):
        return objective.risk_budget / math.sqrt(q * (1.0 - q))
    if isinstance(objective, MeanVariance):
        return objective.risk_param / (2.0 * (1.0 - q))
    return 1.0


def reference_optimal_objective_value(q, objective):
    if isinstance(objective, SharpeBudget):
        return math.sqrt(q / (1.0 - q)) - objective.risk_free / objective.risk_budget
    if isinstance(objective, MeanVariance):
        return (objective.risk_param / 4.0) * q / (1.0 - q)
    return q / 2.0


def reference_markowitz_scale(summary, objective):
    if isinstance(objective, SharpeBudget):
        return objective.risk_budget / summary.risk
    if isinstance(objective, MeanVariance):
        return objective.risk_param * (summary.mean / (2.0 * summary.variance))
    return summary.mean / summary.second_moment


def random_exact_market(draw, st):
    """A market whose probabilities sum to exactly 1 and whose states, given
    by covariance or by second moment at random, are the same pair either
    way: every entry is a short dyadic number, so Sigma + mu mu' is exact."""
    n, s = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, 63), min_size=s - 1, max_size=s - 1)))
    probs = np.diff([0, *cuts, 64]) / 64.0
    lower, mu = np.zeros((s, n, n)), np.zeros((s, n))
    for state in range(s):
        for i in range(n):
            lower[state, i, :i] = [draw(st.integers(-8, 8)) / 8.0 for _ in range(i)]
            lower[state, i, i] = draw(st.integers(8, 16)) / 8.0
        exponent = draw(st.integers(0, 12))
        mu[state] = [np.ldexp(draw(st.integers(-1024, 1024)), -exponent) for _ in range(n)]
    sigma = lower @ np.swapaxes(lower, 1, 2)
    given = np.array([draw(st.booleans()) for _ in range(s)])
    mats = np.where(given[:, None, None], sigma + mu[:, :, None] * mu[:, None, :], sigma)
    return DiscreteMarket.from_arrays(probs, mu, mats, given)


def test_policy_scales_over_random_markets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from smmport.moments import _optimum
    objectives = [SharpeBudget(risk_budget=1.5, risk_free=0.02), MeanVariance(2.0), Kelly()]

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        market = random_exact_market(data.draw, st)
        q = q_of(market)
        zeta = np.sqrt(market.conditional_sharpe_sq)
        hypothesis.assume(q > 0.0 and zeta.max() <= 1e3)
        budget = objectives[0]
        excess = budget.risk_free / budget.risk_budget
        smm = evaluate(market, smm_policy(market, budget), rfr=budget.risk_free)
        value = _optimum(q, market._one_minus_q, budget)[1]
        assert abs(smm.risk - budget.risk_budget) <= RTOL * budget.risk_budget
        # both are sqrt(q / (1 - q)) less r_f / R
        assert abs(smm.sharpe - value) <= RTOL * (value + 2 * excess)
        # down-levering: the covariance policy's Sharpe is at most the
        # second-moment policy's (equal up to rounding on one state)
        mp = evaluate(market, markowitz_policy(market, budget), rfr=budget.risk_free)
        assert mp.sharpe <= smm.sharpe + 8 * EPS * (abs(smm.sharpe) + excess)

        # the references' own error is their subtraction's, eps / (1 - q)
        tol = 4 * EPS / (1.0 - q)
        z = market.conditional_sharpe_sq
        mean = math.fsum(market.probs * z)
        unit = PerfSummary(mean, math.fsum(market.probs * z * (1.0 + z)))
        mp_tol = 4 * EPS * unit.second_moment / unit.variance
        for objective, shift in zip(objectives, (excess, 0.0, 0.0)):
            got = smm_policy(market, objective).weights
            want = reference_scaling_constant(q, objective) * market.smm_directions
            np.testing.assert_allclose(got, want, rtol=tol + 2 * EPS, atol=0)
            got_value = _optimum(q, market._one_minus_q, objective)[1]
            want_value = reference_optimal_objective_value(q, objective)
            assert abs(got_value - want_value) <= tol * (want_value + shift)
            got = markowitz_policy(market, objective).weights
            want = reference_markowitz_scale(unit, objective) * market.markowitz_directions
            np.testing.assert_allclose(got, want, rtol=mp_tol + 8 * EPS, atol=0)

    check()


@pytest.mark.parametrize("seed", range(12))
def test_spanned_q_near_the_condition_limit(seed):
    """Two nearly parallel constraints make cond(M) 3e10 to 8e10, a few
    decades below CONDITION_LIMIT. spanned_q = b' inv(M) b must stay within
    4 J eps |c|'|M||c| of 50-digit mpmath on the same float inputs, the
    allowance the split check grants it; these seeds reach at most 0.04 of
    it, and at most 6.5e-8 relative."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, n_assets=3, n_states=50)
    g1 = market.mu + rng.standard_normal(market.mu.shape)
    g = np.stack([g1, g1 + 1e-5 * rng.standard_normal(market.mu.shape)], axis=-1)
    _, sol = solve_hedge(market, [HedgeConstraint.raw(g[..., j], market) for j in range(2)],
                         Kelly())
    assert 3e10 < np.linalg.cond(sol.m_mat) < CONDITION_LIMIT
    with mpmath.workdps(50):
        m, b = mpmath.zeros(2, 2), mpmath.zeros(2, 1)
        for p, a, mu, gs in zip(market.probs, market.second_moment, market.mu, g):
            a = mpmath.matrix(a.tolist())
            x_mu = mpmath.lu_solve(a, mpmath.matrix(mu.tolist()))
            x_g = [mpmath.lu_solve(a, mpmath.matrix(col)) for col in gs.T.tolist()]
            for i in range(2):
                b[i] -= p * sum(u * v for u, v in zip(gs[:, i], x_mu))
                for j in range(2):
                    m[i, j] += p * sum(u * v for u, v in zip(gs[:, i], x_g[j]))
        spanned_q = (b.T * mpmath.lu_solve(m, b))[0]
    c = np.abs(sol.multipliers)
    allowance = 4.0 * c.size * EPS * float(c @ np.abs(sol.m_mat) @ c)
    assert abs(mpmath.mpf(sol.spanned_q) - spanned_q) <= allowance


def pivot_states(rng, ratio, n_states=4, n_assets=3):
    """States whose sigma's last squared Cholesky pivot is ``ratio`` *
    PIVOT_RTOL of its largest diagonal entry: the pivot markets of
    tests/test_stacked_market.py, made dense, with means, and every state at
    the guard, so that the digits lost there show in q and 1 - q. Each
    sigma is exactly symmetric, so the market reads it unchanged."""
    states = []
    for _ in range(n_states):
        lower = np.tril(rng.standard_normal((n_assets, n_assets)))
        np.fill_diagonal(lower, np.exp(rng.uniform(-1.0, 1.0, n_assets)))
        sq = lower[-1, :-1] @ lower[-1, :-1]
        top = max(np.max(np.einsum("ij,ij->i", lower[:-1], lower[:-1])), sq)
        lower[-1, -1] = math.sqrt(ratio * PIVOT_RTOL * top / (1.0 - ratio * PIVOT_RTOL))
        sigma = lower @ lower.T
        states.append({"prob": 1.0 / n_states, "mu": (0.3 * rng.standard_normal(n_assets)).tolist(),
                       "sigma": (np.triu(sigma) + np.triu(sigma, 1).T).tolist()})
    return states


@pytest.mark.parametrize("seed", range(8))
def test_q_and_directions_at_the_pivot_guard(seed):
    """Just below PIVOT_RTOL the market is rejected; just above it, q and
    the SMM directions (normwise) must stay within 3 eps cond(A) of 50-digit
    mpmath on the same float inputs, and the carried 1 - q within
    3 eps cond(Sigma), with cond(Sigma) 1e10 to 6e11. These seeds reach at
    most 0.08 of a bound on any of OpenBLAS's kernels: q keeps 12 to 15
    digits, the directions 11 to 14, and 1 - q only 5.6 to 7.6."""
    below = pivot_states(np.random.default_rng(seed), 0.999)
    with pytest.raises(NotPositiveDefinite, match="^state 0: sigma is numerically singular"):
        DiscreteMarket.from_dict({"states": below})
    states = pivot_states(np.random.default_rng(seed), 1.001)
    market = DiscreteMarket.from_dict({"states": states})
    with mpmath.workdps(50):
        q = one_minus_q = worst = 0
        for p, state, x in zip(market.probs, states, market.smm_directions):
            mu, sigma = mpmath.matrix(state["mu"]), mpmath.matrix(state["sigma"])
            x_exact = mpmath.lu_solve(sigma + mu * mu.T, mu)
            zeta_sq = (mu.T * mpmath.lu_solve(sigma, mu))[0]
            q += mpmath.mpf(p) * (mu.T * x_exact)[0]
            one_minus_q += mpmath.mpf(p) / (1 + zeta_sq)
            worst = max(worst, mpmath.norm(mpmath.matrix(x.tolist()) - x_exact)
                        / mpmath.norm(x_exact))
    bound = 3 * EPS * np.linalg.cond(market.second_moment).max()
    assert rel(q_of(market), q) <= bound and worst <= bound
    assert rel(market._one_minus_q, one_minus_q) <= 3 * EPS * np.linalg.cond(market.sigma).max()
