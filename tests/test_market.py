import math

import numpy as np
import pytest

from smmport import (
    DegenerateMarket,
    DimensionMismatch,
    DiscreteMarket,
    DomainError,
    InvalidSubset,
    Kelly,
    MeanVariance,
    MomentPair,
    NotPositiveDefinite,
    Policy,
    SharpeBudget,
    SmmError,
    conditional_sharpe_sq,
    evaluate,
    markowitz_direction,
    markowitz_policy,
    merge_states,
    q_of,
    smm_direction,
    smm_policy,
)
from smmport.cli import main
from smmport.moments import _lock
from conftest import random_market, random_moment_pair, random_spd


def ones_policy(market, value=1.0):
    return Policy([np.full(market.n_assets, value) for _ in range(market.n_states)])


def test_evaluate_ones_policy(two_state_market):
    s = evaluate(two_state_market, ones_policy(two_state_market))
    assert s.mean == pytest.approx(3.0, abs=1e-14)
    assert s.variance == pytest.approx(4.0, abs=1e-13)
    assert s.risk == pytest.approx(2.0, abs=1e-13)
    assert s.sharpe == pytest.approx(1.5, abs=1e-13)


def test_evaluate_zero_policy(two_state_market):
    s = evaluate(two_state_market, ones_policy(two_state_market, 0.0))
    assert s.mean == 0.0 and s.second_moment == 0.0
    assert s.variance == 0.0 and s.risk == 0.0 and s.sharpe == 0.0


def test_evaluate_unscaled_smm_policy(two_state_market):
    # hand-summed expectations of the two-state market
    policy = Policy([[1 / 3, 1 / 3], [1 / 5, 1 / 5]])
    s = evaluate(two_state_market, policy)
    assert s.mean == pytest.approx(11 / 15, abs=1e-14)
    assert s.second_moment == pytest.approx(11 / 15, abs=1e-14)
    assert s.sharpe == pytest.approx(math.sqrt(11) / 2, abs=1e-12)


def test_evaluate_dimension_mismatch(two_state_market):
    with pytest.raises(DimensionMismatch):
        evaluate(two_state_market, Policy([[1.0, 2.0]]))
    with pytest.raises(DimensionMismatch):
        evaluate(two_state_market, Policy([[1.0], [2.0]]))


def test_zero_risk_flag(two_state_market):
    s = evaluate(two_state_market, ones_policy(two_state_market, 0.0), rfr=0.01)
    assert s.zero_risk
    assert math.isnan(s.sharpe)


def test_market_validation():
    pair = random_moment_pair(np.random.default_rng(0), 2)
    with pytest.raises(DomainError):
        DiscreteMarket([])
    with pytest.raises(DomainError):
        DiscreteMarket([(0.5, pair), (0.6, pair)])
    with pytest.raises(DomainError):
        DiscreteMarket([(0.0, pair), (1.0, pair)])
    with pytest.raises(DomainError, match="sum to"):
        DiscreteMarket([(0.5, pair), (0.5 + 1e-9, pair)])
    with pytest.raises(DimensionMismatch):
        DiscreteMarket(
            [(0.5, pair), (0.5, random_moment_pair(np.random.default_rng(1), 3))]
        )


def test_uniform_market_many_states_accepted():
    # a naive running sum of 10**5 copies of 1e-5 misses 1 by ~2e-12
    pair = random_moment_pair(np.random.default_rng(2), 2)
    n_states = 10**5
    market = DiscreteMarket([(1.0 / n_states, pair)] * n_states)
    assert market.n_states == n_states


def test_q_of_known_value(two_state_market):
    assert q_of(two_state_market) == pytest.approx(11 / 15, abs=1e-12)


def test_q_of_zero_mean_state():
    market = DiscreteMarket(
        [(1.0, MomentPair.from_covariance([0.0, 0.0], np.eye(2)))]
    )
    assert q_of(market) == 0.0


def test_q_of_dual_formulas_agree():
    # the direct second-moment sum against the complement form computed here
    rng = np.random.default_rng(7)
    for _ in range(100):
        market = random_market(rng)
        alt = 1.0 - sum(
            p / (1.0 + conditional_sharpe_sq(m)) for p, m in market.states
        )
        assert abs(q_of(market) - alt) <= 1e-10


def test_q_of_is_kept_per_market():
    rng = np.random.default_rng(8)
    market = random_market(rng, n_assets=3, n_states=40)
    q = q_of(market)
    assert q_of(market).hex() == q.hex()
    # later calls return the kept value without summing again
    before = market.conditional_sharpe_sq
    market.conditional_sharpe_sq = _lock(before * (1.0 + 1e-3))
    assert q_of(market).hex() == q.hex()
    market.conditional_sharpe_sq = before
    # a merged market is a new market with its own q, as if built afresh
    merged, delta_q = merge_states(market, [0, 3, 7])
    mats = np.where(merged.second_supplied[:, None, None], merged.second_moment, merged.sigma)
    fresh = DiscreteMarket.from_arrays(merged.probs, merged.mu, mats, merged.second_supplied)
    assert q_of(merged).hex() == q_of(fresh).hex()
    # delta_q is summed over the merged states alone, so it agrees with
    # the difference of the two q only within their rounding
    q_before, q_after = q_of(market), q_of(merged)
    assert abs(delta_q - (q_after - q_before)) <= 4 * np.finfo(float).eps * q_before
    assert delta_q < 0.0


def test_market_whose_q_formulas_disagree_is_never_built(monkeypatch, capsys,
                                                         two_state_market_path):
    market = random_market(np.random.default_rng(9), n_assets=3, n_states=40)
    mats = np.where(market.second_supplied[:, None, None], market.second_moment, market.sigma)
    # below zero, every pair of q formulas disagrees
    monkeypatch.setattr("smmport.market.Q_CONSISTENCY_TOL", -1.0)
    for build in (
        lambda: DiscreteMarket.from_dict(market.to_dict()),
        lambda: DiscreteMarket.from_arrays(market.probs, market.mu, mats,
                                           market.second_supplied),
        lambda: DiscreteMarket(market.states),
        lambda: merge_states(market, [0, 3, 7]),
    ):
        with pytest.raises(SmmError, match="q formulas disagree"):
            build()
    assert main(["solve-discrete", "--market", two_state_market_path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: internal: q formulas disagree (")


def test_smm_policy_risk_saturation(two_state_market):
    policy = smm_policy(two_state_market, SharpeBudget(risk_budget=1.0))
    scale = 15 / (2 * math.sqrt(11))
    np.testing.assert_allclose(policy.weights[0], scale * np.array([1 / 3, 1 / 3]), rtol=1e-12)
    np.testing.assert_allclose(policy.weights[1], scale * np.array([1 / 5, 1 / 5]), rtol=1e-12)
    s = evaluate(two_state_market, policy)
    assert s.risk == pytest.approx(1.0, rel=1e-8)
    assert s.sharpe == pytest.approx(math.sqrt(11 / 4), abs=1e-10)


def test_smm_policy_risk_saturation_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        market = random_market(rng)
        budget = float(rng.uniform(0.5, 3.0))
        policy = smm_policy(market, SharpeBudget(risk_budget=budget))
        assert evaluate(market, policy).risk == pytest.approx(budget, rel=1e-8)


def test_smm_policy_kelly_unscaled(two_state_market):
    policy = smm_policy(two_state_market, Kelly())
    np.testing.assert_allclose(policy.weights[0], [1 / 3, 1 / 3], rtol=1e-12)
    np.testing.assert_allclose(policy.weights[1], [1 / 5, 1 / 5], rtol=1e-12)


def test_single_state_market_collapses():
    pair = random_moment_pair(np.random.default_rng(9), 3)
    market = DiscreteMarket([(1.0, pair)])
    policy = smm_policy(market, Kelly())
    np.testing.assert_allclose(policy.weights[0], smm_direction(pair), rtol=1e-12)


def test_smm_policy_degenerate():
    market = DiscreteMarket(
        [(1.0, MomentPair.from_covariance([0.0], [[1.0]]))]
    )
    with pytest.raises(DegenerateMarket):
        smm_policy(market, SharpeBudget())
    # Kelly is fine: the zero policy
    np.testing.assert_array_equal(smm_policy(market, Kelly()).weights[0], [0.0])


def _one_state(mu: float) -> DiscreteMarket:
    return DiscreteMarket([(1.0, MomentPair.from_covariance([mu], [[1.0]]))])


@pytest.mark.parametrize("solve, mu, objective, name", [
    # q = 0.8: the scales are 1e308 / 0.4
    (smm_policy, 2.0, SharpeBudget(risk_budget=1e308), "risk_budget"),
    (smm_policy, 2.0, MeanVariance(risk_param=1e308), "risk_param"),
    # the unit covariance policy has risk 0.1
    (markowitz_policy, 0.1, SharpeBudget(risk_budget=1e308), "risk_budget"),
], ids=["smm sharpe", "smm mean-variance", "markowitz sharpe"])
def test_policy_scale_overflow_names_parameter(solve, mu, objective, name):
    with pytest.raises(DomainError, match=f"^{name} 1e\\+308 makes the policy scale overflow$"):
        solve(_one_state(mu), objective)


@pytest.mark.parametrize("mu, sigma, message", [
    # inv(Sigma) mu is 1e350
    (1e150, 1e-200, "^weights: state 0: non-finite entries$"),
    # inv(Sigma) mu is 1e200, but zeta^2 (1 + zeta^2) is 1e600
    (1e100, 1e-100, "^the policy's second moment overflows: its weights are too large$"),
], ids=["direction", "second-moment"])
def test_markowitz_policy_names_overflow(mu, sigma, message):
    market = DiscreteMarket([(0.5, MomentPair.from_covariance([mu], [[sigma]])),
                             (0.5, MomentPair.from_covariance([1.0], [[1.0]]))])
    for objective in (SharpeBudget(), MeanVariance(risk_param=1.0), Kelly()):
        with pytest.raises(DomainError, match=message):
            markowitz_policy(market, objective)


def test_markowitz_mean_variance_scale_has_no_intermediate_overflow():
    # risk_param * mean alone would overflow; the scale is 1e308 * 4 / 8
    policy = markowitz_policy(_one_state(2.0), MeanVariance(risk_param=1e308))
    assert policy.weights[0, 0] == pytest.approx(1e308, rel=1e-15)


@pytest.mark.parametrize("objective", [
    SharpeBudget(risk_budget=1e200), MeanVariance(risk_param=5e307),
], ids=["sharpe", "mean-variance"])
def test_evaluate_rejects_overflowing_second_moment(two_state_market, objective):
    # the policy scale is finite, but its square times q is not
    policy = smm_policy(two_state_market, objective)
    with pytest.raises(DomainError, match="^the policy's second moment overflows"):
        evaluate(two_state_market, policy)


def test_overflowing_conditional_sharpe_builds_without_warning():
    # mu' inv(Sigma) mu is 1e500 in the first state: its term of 1 - q is
    # 0, and the build warns nothing (a RuntimeWarning fails this suite)
    big = MomentPair.from_covariance([1e150], [[1e-200]])
    market = DiscreteMarket([(0.5, big), (0.5, MomentPair.from_covariance([1.0], [[1.0]]))])
    assert market.conditional_sharpe_sq[0] == math.inf
    assert (q_of(market), market._one_minus_q) == (0.75, 0.25)
    for objective in (SharpeBudget(), MeanVariance(risk_param=1.0), Kelly()):
        with pytest.raises(DegenerateMarket, match=r"^signal too strong: 1 - q is 0\.0$"):
            smm_policy(DiscreteMarket([(1.0, big)]), objective)


def test_markowitz_policy_known_values(two_state_market):
    policy = markowitz_policy(two_state_market, SharpeBudget(risk_budget=1.0))
    np.testing.assert_allclose(policy.weights[0], [0.5, 0.5], rtol=1e-12)
    np.testing.assert_allclose(policy.weights[1], [0.5, 0.5], rtol=1e-12)
    s = evaluate(two_state_market, policy)
    assert s.risk == pytest.approx(1.0, rel=1e-8)
    assert s.sharpe == pytest.approx(1.5, abs=1e-12)


def test_sharpe_boost_vs_markowitz(two_state_market):
    sharpe_smm = evaluate(two_state_market, smm_policy(two_state_market, Kelly())).sharpe
    sharpe_mp = evaluate(
        two_state_market, markowitz_policy(two_state_market, SharpeBudget())
    ).sharpe
    assert sharpe_smm - sharpe_mp == pytest.approx(math.sqrt(11) / 2 - 1.5, abs=1e-12)
    assert sharpe_smm / sharpe_mp - 1.0 == pytest.approx(0.1055, abs=5e-4)


def test_markowitz_equals_smm_when_states_identical():
    pair = random_moment_pair(np.random.default_rng(10), 3)
    market = DiscreteMarket([(0.5, pair), (0.5, pair)])
    a = markowitz_policy(market, SharpeBudget()).as_matrix()
    b = smm_policy(market, SharpeBudget()).as_matrix()
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_markowitz_policy_scale_is_family_optimal():
    # for Kelly and mean-variance the single scale must beat nearby scales
    rng = np.random.default_rng(11)
    market = random_market(rng, n_assets=3, n_states=4)

    def kelly_value(policy):
        s = evaluate(market, policy)
        return s.mean - 0.5 * s.second_moment

    base = markowitz_policy(market, Kelly())
    for bump in (0.9, 1.1):
        assert kelly_value(base) >= kelly_value(base.scaled(bump)) - 1e-12

    lam = 1.7

    def mv_value(policy):
        s = evaluate(market, policy)
        return s.mean - s.variance / lam

    base = markowitz_policy(market, MeanVariance(lam))
    for bump in (0.9, 1.1):
        assert mv_value(base) >= mv_value(base.scaled(bump)) - 1e-12


def test_homogeneity():
    rng = np.random.default_rng(12)
    market = random_market(rng, n_assets=3, n_states=3)
    policy = Policy([rng.standard_normal(3) for _ in range(3)])
    base = evaluate(market, policy)
    for c in (-2.0, 0.5, 3.0):
        scaled = evaluate(market, policy.scaled(c))
        assert scaled.mean == pytest.approx(c * base.mean, rel=1e-12, abs=1e-14)
        assert scaled.second_moment == pytest.approx(
            c * c * base.second_moment, rel=1e-12
        )
        assert scaled.risk == pytest.approx(abs(c) * base.risk, rel=1e-10)


def test_q_equals_hansen_sq_of_kelly_policy():
    rng = np.random.default_rng(13)
    for _ in range(30):
        market = random_market(rng)
        h = evaluate(market, smm_policy(market, Kelly())).hansen
        assert h * h == pytest.approx(q_of(market), abs=1e-10)


def test_optimality_against_random_policies():
    rng = np.random.default_rng(14)
    for _ in range(40):
        market = random_market(rng, n_assets=int(rng.integers(1, 5)),
                               n_states=int(rng.integers(1, 6)))
        budget = 1.0
        best = evaluate(market, smm_policy(market, SharpeBudget(risk_budget=budget)))
        for _ in range(20):
            raw = Policy([rng.standard_normal(market.n_assets)
                          for _ in range(market.n_states)])
            risk = evaluate(market, raw).risk
            if risk == 0.0:
                continue
            contender = evaluate(market, raw.scaled(budget / risk))
            assert best.sharpe >= contender.sharpe - 1e-9


def test_smm_dominates_markowitz_everywhere():
    rng = np.random.default_rng(15)
    for _ in range(50):
        market = random_market(rng)
        if q_of(market) == 0.0:
            continue
        sharpe_smm = evaluate(market, smm_policy(market, Kelly())).sharpe
        sharpe_mp = evaluate(market, markowitz_policy(market, SharpeBudget())).sharpe
        assert sharpe_smm >= sharpe_mp - 1e-12


def test_smm_equals_markowitz_iff_constant_conditional_sharpe():
    rng = np.random.default_rng(16)
    # equal conditional squared Sharpe across states: the policies tie
    sigma = random_spd(rng, 2)
    mu = rng.standard_normal(2) * 0.4
    market = DiscreteMarket([
        (0.5, MomentPair.from_covariance(mu, sigma)),
        (0.5, MomentPair.from_covariance(-mu, sigma)),
    ])
    a = evaluate(market, smm_policy(market, Kelly())).sharpe
    b = evaluate(market, markowitz_policy(market, SharpeBudget())).sharpe
    assert a == pytest.approx(b, abs=1e-12)


def test_merge_states_known_values(two_state_market):
    merged, delta_q = merge_states(two_state_market, [0, 1])
    assert merged.n_states == 1
    prob, pair = merged.states[0]
    assert prob == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(pair.mu, [1.5, 1.5], rtol=1e-14)
    np.testing.assert_allclose(
        pair.second_moment, [[4.0, 2.5], [2.5, 4.0]], rtol=1e-14
    )
    # covariance recovered as A - mu mu'
    np.testing.assert_allclose(
        pair.sigma, np.array([[4.0, 2.5], [2.5, 4.0]]) - 2.25, rtol=1e-13
    )
    assert q_of(merged) == pytest.approx(9 / 13, abs=1e-12)
    assert delta_q == pytest.approx(9 / 13 - 11 / 15, abs=1e-12)


def test_merge_identical_states_keeps_q():
    pair = random_moment_pair(np.random.default_rng(17), 2)
    market = DiscreteMarket([(0.25, pair), (0.25, pair), (0.5, pair)])
    _, delta_q = merge_states(market, [0, 1])
    assert delta_q == pytest.approx(0.0, abs=1e-13)


def test_merge_opposing_means_zero_contribution():
    # mu_1 = -gamma mu_2 makes the merged state worthless
    rng = np.random.default_rng(18)
    p1, p2 = 0.3, 0.6
    gamma = p2 / p1
    mu2 = np.array([0.4, -0.2])
    pair2 = MomentPair.from_covariance(mu2, random_spd(rng, 2))
    pair1 = MomentPair.from_covariance(-gamma * mu2, random_spd(rng, 2))
    spectator = random_moment_pair(rng, 2)
    market = DiscreteMarket([(p1, pair1), (p2, pair2), (0.1, spectator)])
    merged, delta_q = merge_states(market, [0, 1])
    prob, pair = merged.states[0]
    assert prob == pytest.approx(0.9)
    np.testing.assert_allclose(pair.mu, np.zeros(2), atol=1e-15)
    from smmport import conditional_q

    assert conditional_q(pair) == pytest.approx(0.0, abs=1e-15)
    expected_drop = -(
        p1 * conditional_q(pair1) + p2 * conditional_q(pair2)
    )
    assert delta_q == pytest.approx(expected_drop, abs=1e-12)


def test_merge_never_increases_q():
    rng = np.random.default_rng(19)
    for _ in range(60):
        market = random_market(rng, n_states=int(rng.integers(2, 6)))
        size = int(rng.integers(2, market.n_states + 1))
        subset = rng.choice(market.n_states, size=size, replace=False)
        _, delta_q = merge_states(market, subset)
        assert delta_q <= 1e-12


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_merge_nearly_equal_states_delta_q_against_mpmath(eps):
    # states 0 and 1 share sigma and their means differ by eps, so delta_q
    # is about eps^2: far below the rounding of q over all 1,000 states
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    s, n = 1000, 3
    probs = rng.uniform(0.2, 1.0, s)
    probs /= probs.sum()
    mu = 0.5 * rng.standard_normal((s, n))
    g = rng.standard_normal((s, n, n))
    sigma = g @ np.swapaxes(g, 1, 2) / n + 0.8 * np.eye(n)
    sigma[1] = sigma[0]
    mu[1] = mu[0] + eps * rng.standard_normal(n)
    market = DiscreteMarket.from_arrays(probs, mu, sigma, np.zeros(s, dtype=bool))
    _, delta_q = merge_states(market, [0, 1])
    with mpmath.workdps(50):
        p = [mpmath.mpf(float(v)) for v in market.probs[:2]]
        m = [mpmath.matrix(market.mu[i].tolist()) for i in range(2)]
        a = [mpmath.matrix(market.second_moment[i].tolist()) for i in range(2)]
        p_m = p[0] + p[1]
        m_m = (p[0] * m[0] + p[1] * m[1]) / p_m
        a_m = (p[0] * a[0] + p[1] * a[1]) / p_m
        exact = p_m * (m_m.T * mpmath.lu_solve(a_m, m_m))[0] - sum(
            p[i] * (m[i].T * mpmath.lu_solve(a[i], m[i]))[0] for i in range(2)
        )
        # x_s - x_m is of size eps: the rounding of x grows by 1 / eps
        assert abs(delta_q - exact) <= 100 * np.finfo(float).eps / eps * abs(exact)


@pytest.mark.parametrize("objective, message", [
    (SharpeBudget(risk_budget=1.0), "zero risk"),
    (MeanVariance(risk_param=1.0), "zero variance"),
    (Kelly(), "zero second moment"),
])
def test_markowitz_policy_zero_mean_market_is_degenerate(objective, message):
    market = DiscreteMarket([(1.0, MomentPair.from_covariance([0.0, 0.0], np.eye(2)))])
    with pytest.raises(DegenerateMarket, match=message):
        markowitz_policy(market, objective)


def test_market_states_must_be_moment_pairs():
    with pytest.raises(DomainError, match="^state 0: moments must be a MomentPair$"):
        DiscreteMarket([(1.0, "x")])


def test_market_and_policy_repr(two_state_market):
    assert repr(two_state_market) == "DiscreteMarket(n_states=2, n_assets=2)"
    policy = smm_policy(two_state_market, Kelly())
    assert policy.n_states == 2 and repr(policy) == "Policy(n_states=2)"


def test_markowitz_policy_unknown_objective(two_state_market):
    with pytest.raises(DomainError, match="^unknown objective 'sharpe'$"):
        markowitz_policy(two_state_market, "sharpe")


def test_policy_needs_a_state():
    with pytest.raises(DomainError, match="weights: needs at least one state"):
        Policy([])


def test_merge_subset_validation(two_state_market):
    with pytest.raises(InvalidSubset):
        merge_states(two_state_market, [0])
    with pytest.raises(InvalidSubset):
        merge_states(two_state_market, [0, 0])
    with pytest.raises(InvalidSubset):
        merge_states(two_state_market, [0, 2])


def test_merge_preserves_untouched_states():
    rng = np.random.default_rng(20)
    market = random_market(rng, n_assets=2, n_states=4)
    merged, _ = merge_states(market, [1, 3])
    assert merged.n_states == 3
    np.testing.assert_array_equal(merged.states[0][1].mu, market.states[0][1].mu)
    np.testing.assert_array_equal(merged.states[2][1].mu, market.states[2][1].mu)
    assert merged.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_market_dict_round_trip(two_state_market):
    clone = DiscreteMarket.from_dict(two_state_market.to_dict())
    assert q_of(clone) == q_of(two_state_market)
    # second-moment parameterization survives the round trip
    given = DiscreteMarket([(1.0, MomentPair.from_second_moment([1.0], [[4.0]]))])
    again = DiscreteMarket.from_dict(given.to_dict())
    assert again.states[0][1].supplied == "second_moment"
    np.testing.assert_array_equal(again.second_moment, given.second_moment)
    # a merged state is written by the covariance it carries
    merged, _ = merge_states(two_state_market, [0, 1])
    again = DiscreteMarket.from_dict(merged.to_dict())
    assert again.states[0][1].supplied == "sigma"
    np.testing.assert_array_equal(again.sigma, merged.sigma)


def test_market_from_dict_errors():
    with pytest.raises(DomainError):
        DiscreteMarket.from_dict({"states": []})
    with pytest.raises(DomainError):
        DiscreteMarket.from_dict({})
    with pytest.raises(DomainError):
        DiscreteMarket.from_dict({"states": [{"prob": 1.0, "mu": [0.0]}]})
    bad = {
        "states": [
            {"prob": 0.5, "mu": [1.0], "sigma": [[1.0]]},
            {"prob": 0.5, "mu": [1.0], "sigma": [[-1.0]]},
        ]
    }
    with pytest.raises(NotPositiveDefinite, match="state 1"):
        DiscreteMarket.from_dict(bad)
