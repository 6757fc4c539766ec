import math

import numpy as np
import pytest
from scipy.optimize import minimize

from smmport import (
    DomainError,
    HedgeConstraint,
    Kelly,
    MomentPair,
    Policy,
    ShapeMismatch,
    SharpeBudget,
    SingularBasis,
    SingularConstraintSystem,
    SmmError,
    constraints_from_dict,
    evaluate,
    flatten_pseudo_assets,
    hedging_example_c1,
    inner_product,
    optimize_basis,
    q_of,
    smm_direction,
    smm_policy,
    solve_hedge,
)
from smmport import DiscreteMarket, hedging
from smmport.hedging import CONDITION_LIMIT
from smmport.market import Q_CONSISTENCY_TOL
from smmport.moments import _fsum_symmetric, _products, _solve
from conftest import random_market


def random_constraints(rng, market, count):
    return [
        HedgeConstraint.raw(
            [rng.standard_normal(market.n_assets) for _ in range(market.n_states)],
            market,
        )
        for _ in range(count)
    ]


def brute_force_best_mean(market, constraints, start):
    """Independent oracle: maximize the unconditional mean over stacked
    per-state weights subject to unit second moment and orthogonality,
    via SLSQP. The optimal mean equals the constrained Hansen ratio."""
    s_count, n = market.n_states, market.n_assets
    probs = [p for p, _ in market.states]
    mus = [m.mu for _, m in market.states]
    seconds = [m.second_moment for _, m in market.states]

    def unstack(u):
        return u.reshape(s_count, n)

    def mean(u):
        w = unstack(u)
        return sum(p * (mu @ ws) for p, mu, ws in zip(probs, mus, w))

    def second(u):
        w = unstack(u)
        return sum(p * (ws @ a @ ws) for p, a, ws in zip(probs, seconds, w))

    cons = [{"type": "eq", "fun": lambda u: second(u) - 1.0}]
    for con in constraints:
        cons.append(
            {
                "type": "eq",
                "fun": lambda u, g=con.g: sum(
                    p * (gs @ ws) for p, gs, ws in zip(probs, g, unstack(u))
                ),
            }
        )
    res = minimize(
        lambda u: -mean(u), start, method="SLSQP", constraints=cons,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return -res.fun


def test_inner_product_known_value(two_state_market):
    mus = [m.mu for _, m in two_state_market.states]
    assert inner_product(mus, mus, two_state_market) == pytest.approx(5.0, abs=1e-14)
    zeros = [np.zeros(2), np.zeros(2)]
    assert inner_product(mus, zeros, two_state_market) == 0.0


def test_inner_product_bilinear():
    rng = np.random.default_rng(21)
    market = random_market(rng, n_assets=3, n_states=4)
    x = [rng.standard_normal(3) for _ in range(4)]
    y = [rng.standard_normal(3) for _ in range(4)]
    z = [rng.standard_normal(3) for _ in range(4)]
    a, b = 1.7, -0.4
    combo = [a * xi + b * yi for xi, yi in zip(x, y)]
    lhs = inner_product(combo, z, market)
    rhs = a * inner_product(x, z, market) + b * inner_product(y, z, market)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)
    assert inner_product(x, y, market) == pytest.approx(
        inner_product(y, x, market), rel=1e-14
    )
    assert inner_product(x, x, market) >= 0.0


def test_solve_hedge_no_constraints(two_state_market):
    objective = SharpeBudget(risk_budget=1.0)
    policy, sol = solve_hedge(two_state_market, [], objective)
    expected = smm_policy(two_state_market, objective)
    np.testing.assert_allclose(policy.as_matrix(), expected.as_matrix(), rtol=1e-13)
    assert sol.q_g == q_of(two_state_market)
    assert sol.spanned_q == 0.0
    assert sol.multipliers.size == 0


def test_solve_hedge_mu_constraint_annihilates(two_state_market):
    # hedging against the mean function itself forces the zero policy
    mus = [m.mu for _, m in two_state_market.states]
    con = HedgeConstraint.raw(mus, two_state_market)
    policy, sol = solve_hedge(two_state_market, [con], Kelly())
    q = q_of(two_state_market)
    assert sol.b_vec[0] == pytest.approx(-q, abs=1e-12)
    assert sol.m_mat[0, 0] == pytest.approx(q, abs=1e-12)
    assert sol.multipliers[0] == pytest.approx(-1.0, abs=1e-12)
    assert sol.q_g == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(policy.as_matrix())) <= 1e-12


def test_zero_covariance_hedge_fixed_target(two_state_market):
    target = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    con = HedgeConstraint.zero_covariance(two_state_market, target)
    objective = SharpeBudget(risk_budget=1.0)
    policy, sol = solve_hedge(two_state_market, [con], objective)

    # single-constraint closed form via explicit dense inverses
    q = q_of(two_state_market)
    num = 0.0
    den = 0.0
    for (p, m), g in zip(two_state_market.states, con.g):
        a_inv = np.linalg.inv(m.second_moment)
        num += p * (m.mu @ a_inv @ g)
        den += p * (g @ a_inv @ g)
    expected_q_g = q - num**2 / den
    assert sol.q_g == pytest.approx(expected_q_g, abs=1e-12)
    assert sol.q_g + sol.spanned_q == pytest.approx(q, abs=1e-12)

    # orthogonality and the zero-covariance property it encodes
    assert abs(inner_product(policy, con.g, two_state_market)) <= 1e-9
    summary = evaluate(two_state_market, policy)
    target_returns_cov = inner_product(
        policy, [m.second_moment @ t for (_, m), t in
                 zip(two_state_market.states, target)], two_state_market
    ) - summary.mean * inner_product(
        target, [m.mu for _, m in two_state_market.states], two_state_market
    )
    assert abs(target_returns_cov) <= 1e-9

    assert summary.risk == pytest.approx(1.0, rel=1e-8)
    assert summary.sharpe == pytest.approx(
        math.sqrt(sol.q_g / (1.0 - sol.q_g)), rel=1e-8
    )

    # independent numerical optimizer reaches the same constrained optimum
    start = np.full(4, 0.1)
    best_mean = brute_force_best_mean(two_state_market, [con], start)
    assert best_mean == pytest.approx(math.sqrt(sol.q_g), abs=1e-6)


def test_hedging_example_c1_matches_linear_system():
    rng = np.random.default_rng(22)
    for _ in range(25):
        market = random_market(rng, n_assets=int(rng.integers(1, 4)),
                               n_states=int(rng.integers(1, 5)))
        target = [rng.standard_normal(market.n_assets)
                  for _ in range(market.n_states)]
        con = HedgeConstraint.zero_covariance(market, target)
        try:
            _, sol = solve_hedge(market, [con], Kelly())
        except SingularConstraintSystem:
            continue
        c1 = hedging_example_c1(market, target)
        assert c1 == pytest.approx(sol.multipliers[0], rel=1e-10, abs=1e-10)


def test_hedging_example_c1_zero_target(two_state_market):
    with pytest.raises(SingularConstraintSystem):
        hedging_example_c1(two_state_market, [np.zeros(2), np.zeros(2)])
    zero_g = HedgeConstraint.raw([np.zeros(2), np.zeros(2)], two_state_market)
    with pytest.raises(SingularConstraintSystem):
        solve_hedge(two_state_market, [zero_g], Kelly())


def test_hedge_target_parallel_to_mean_kills_q():
    # target w with A_s w_s proportional to mu_s makes g parallel to mu
    rng = np.random.default_rng(23)
    market = random_market(rng, n_assets=2, n_states=3)
    target = [0.7 * smm_direction(m) for _, m in market.states]
    con = HedgeConstraint.zero_covariance(market, target)
    policy, sol = solve_hedge(market, [con], Kelly())
    assert sol.q_g == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(policy.as_matrix())) <= 1e-10


def test_pythagorean_decomposition_random():
    rng = np.random.default_rng(24)
    for _ in range(40):
        market = random_market(rng, n_assets=int(rng.integers(2, 5)),
                               n_states=int(rng.integers(2, 6)))
        n_con = int(rng.integers(1, 3))
        constraints = random_constraints(rng, market, n_con)
        try:
            policy, sol = solve_hedge(market, constraints, Kelly())
        except SingularConstraintSystem:
            continue
        assert sol.q_g + sol.spanned_q == pytest.approx(q_of(market), abs=1e-10)
        m_inv_b = np.linalg.solve(sol.m_mat, sol.b_vec)
        assert sol.spanned_q == pytest.approx(sol.b_vec @ m_inv_b, abs=1e-12)
        for con in constraints:
            assert abs(inner_product(policy, con.g, market)) <= 1e-9


def test_adding_constraints_never_helps():
    rng = np.random.default_rng(25)
    for _ in range(20):
        market = random_market(rng, n_assets=3, n_states=4)
        constraints = random_constraints(rng, market, 3)
        q_values = []
        for j in range(4):
            try:
                _, sol = solve_hedge(market, constraints[:j], Kelly())
            except SingularConstraintSystem:
                break
            q_values.append(sol.q_g)
        for a, b in zip(q_values, q_values[1:]):
            assert b <= a + 1e-12


def test_optimize_basis_full_span_recovers_optimum():
    rng = np.random.default_rng(26)
    market = random_market(rng, n_assets=2, n_states=3)
    basis = []
    for s in range(market.n_states):
        for i in range(market.n_assets):
            vecs = [np.zeros(market.n_assets) for _ in range(market.n_states)]
            vecs[s][i] = 1.0
            basis.append(vecs)
    coeff, summary = optimize_basis(market, basis, Kelly())
    q = q_of(market)
    assert summary.hansen**2 == pytest.approx(q, abs=1e-10)
    assert summary.mean == pytest.approx(q, abs=1e-10)


def test_optimize_basis_contains_optimal_direction():
    rng = np.random.default_rng(27)
    for _ in range(15):
        market = random_market(rng, n_assets=int(rng.integers(1, 4)),
                               n_states=int(rng.integers(1, 5)))
        q = q_of(market)
        if q == 0.0 or market.n_states * market.n_assets < 2:
            continue
        optimal = [smm_direction(m) for _, m in market.states]
        noise = [rng.standard_normal(market.n_assets)
                 for _ in range(market.n_states)]
        coeff, summary = optimize_basis(market, [optimal, noise], Kelly())
        assert summary.hansen**2 == pytest.approx(q, abs=1e-10)
    # the single-function case
    market = random_market(np.random.default_rng(28), n_assets=2, n_states=2)
    _, summary = optimize_basis(
        market, [[smm_direction(m) for _, m in market.states]], Kelly()
    )
    assert summary.hansen**2 == pytest.approx(q_of(market), abs=1e-10)


def test_optimize_basis_over_hedge_span_gives_spanned_q():
    rng = np.random.default_rng(29)
    for _ in range(15):
        market = random_market(rng, n_assets=3, n_states=3)
        constraints = random_constraints(rng, market, 2)
        try:
            _, sol = solve_hedge(market, constraints, Kelly())
        except SingularConstraintSystem:
            continue
        basis = []
        for con in constraints:
            basis.append([
                np.linalg.solve(m.second_moment, g)
                for (_, m), g in zip(market.states, con.g)
            ])
        _, summary = optimize_basis(market, basis, Kelly())
        assert summary.hansen**2 == pytest.approx(sol.spanned_q, abs=1e-10)


def test_optimize_basis_risk_saturation():
    rng = np.random.default_rng(30)
    market = random_market(rng, n_assets=2, n_states=3)
    basis = [[rng.standard_normal(2) for _ in range(3)] for _ in range(2)]
    _, summary = optimize_basis(market, basis, SharpeBudget(risk_budget=1.5))
    assert summary.risk == pytest.approx(1.5, rel=1e-8)


def test_optimize_basis_singular():
    rng = np.random.default_rng(31)
    market = random_market(rng, n_assets=2, n_states=2)
    f = [rng.standard_normal(2) for _ in range(2)]
    with pytest.raises(SingularBasis):
        optimize_basis(market, [f, [2.0 * v for v in f]], Kelly())
    with pytest.raises(DomainError):
        optimize_basis(market, [], Kelly())


def test_non_finite_per_state_vectors_rejected(two_state_market):
    good = [[1.0, 0.0], [0.0, 1.0]]
    bad = [[1.0, 0.0], [0.0, math.nan]]
    with pytest.raises(DomainError, match="y: state 1: non-finite"):
        inner_product(good, bad, two_state_market)
    with pytest.raises(DomainError, match="basis 1: state 1: non-finite"):
        optimize_basis(two_state_market, [good, bad], Kelly())
    with pytest.raises(DomainError, match="target: state 1: non-finite"):
        HedgeConstraint.zero_covariance(two_state_market, bad)


# per-state products of these overflow to +inf in one state and -inf in
# the other, which an exact sum cannot add
OVERFLOW_MARKET = {"states": [
    {"prob": 0.5, "mu": [0.1, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    {"prob": 0.5, "mu": [0.0, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
]}
HUGE = [[1e200, 0.0], [1e200, 0.0]]
HUGE_MIXED = [[1e200, 0.0], [-1e200, 0.0]]


def test_solve_hedge_names_an_overflowing_constraint():
    market = DiscreteMarket.from_dict(OVERFLOW_MARKET)
    small = [[1.0, 0.0], [0.0, 1.0]]
    for gs, j in (([HUGE, HUGE_MIXED], 0), ([small, HUGE_MIXED], 1)):
        cons = [HedgeConstraint.raw(g, market) for g in gs]
        with pytest.raises(DomainError, match=f"^constraint {j} overflows: "):
            solve_hedge(market, cons, Kelly())


def test_optimize_basis_names_an_overflowing_element():
    market = DiscreteMarket.from_dict(OVERFLOW_MARKET)
    with pytest.raises(DomainError, match="^basis 0 overflows: "):
        optimize_basis(market, [HUGE, HUGE_MIXED], Kelly())
    with pytest.raises(DomainError, match="^basis 1 overflows: "):
        optimize_basis(market, [[[1.0, 0.0], [0.0, 1.0]], HUGE_MIXED], Kelly())


def test_zero_covariance_names_an_overflowing_target():
    # sigma near 1e200 lets mu reach 1e100 without a singular pivot; the
    # first target overflows <target, mu>, the second only A w
    market = DiscreteMarket.from_dict({"states": [
        {"prob": 0.5, "mu": [1e100, 0.0], "sigma": [[1e200, 0.0], [0.0, 1e200]]},
        {"prob": 0.5, "mu": [0.0, 1e100], "sigma": [[1e200, 0.0], [0.0, 1e200]]},
    ]})
    for target in ([[1e300, 0.0], [0.0, -1e300]], [[1e150, 0.0], [0.0, 1.0]]):
        with pytest.raises(DomainError, match="^target overflows: "):
            HedgeConstraint.zero_covariance(market, target)


def test_inner_product_rejects_an_overflowing_product():
    market = DiscreteMarket.from_dict(OVERFLOW_MARKET)
    with pytest.raises(DomainError, match="^x times y overflows$"):
        inner_product(HUGE, HUGE_MIXED, market)


def test_flatten_shapes_and_values():
    single = flatten_pseudo_assets([[2.0], [3.0]], [[5.0], [7.0]])
    np.testing.assert_array_equal(single, [[10.0], [21.0]])
    row = flatten_pseudo_assets([[1.0, 2.0]], [[3.0, 4.0]])
    np.testing.assert_array_equal(row, [[3.0, 4.0, 6.0, 8.0]])
    with pytest.raises(ShapeMismatch):
        flatten_pseudo_assets(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(DomainError, match="^returns must be a nonempty 2-d matrix$"):
        flatten_pseudo_assets(np.ones(3), np.ones(3))


def test_flatten_rejects_an_overflowing_product():
    with pytest.raises(DomainError, match="^returns times features overflows$"):
        flatten_pseudo_assets([[1e200], [1.0]], [[1e200], [1.0]])


def test_flatten_matches_basis_optimizer_on_empirical_market():
    # discrete feature values let the sample moments match the grouped
    # per-state moments exactly, so the pseudo-asset route and the
    # basis-function route must coincide
    rng = np.random.default_rng(32)
    n_assets, n_feat, t_count = 3, 2, 50
    feature_values = [np.array([1.0, 0.5]), np.array([-0.5, 1.5]),
                      np.array([2.0, -1.0]), np.array([0.5, 0.5])]
    b_true = rng.standard_normal((n_assets, n_feat)) * 0.3
    labels = rng.integers(0, len(feature_values), t_count)
    feats = np.array([feature_values[i] for i in labels])
    rets = feats @ b_true.T + rng.standard_normal((t_count, n_assets))

    # route 1: classical solve on the flattened pseudo-assets
    flat = flatten_pseudo_assets(rets, feats)
    mu_hat = flat.mean(axis=0)
    second_hat = flat.T @ flat / t_count
    pseudo = MomentPair.from_second_moment(mu_hat, second_hat)
    beta_flat = smm_direction(pseudo)

    # route 2: empirical market over the distinct feature states with the
    # basis w_ij(f) = e_i (e_j' f)
    states = []
    for v_idx, value in enumerate(feature_values):
        pick = labels == v_idx
        share = pick.mean()
        if share == 0:
            continue
        sub = rets[pick]
        states.append((
            share,
            MomentPair.from_second_moment(sub.mean(axis=0), sub.T @ sub / pick.sum()),
        ))
    market = DiscreteMarket(states)
    kept_values = [feature_values[i] for i in range(len(feature_values))
                   if (labels == i).any()]
    basis = []
    for i in range(n_assets):
        for j in range(n_feat):
            basis.append([value[j] * np.eye(n_assets)[i] for value in kept_values])
    beta_basis, summary = optimize_basis(market, basis, Kelly())

    np.testing.assert_allclose(beta_basis, beta_flat, rtol=1e-9, atol=1e-12)
    pseudo_hansen_sq = mu_hat @ beta_flat
    assert summary.hansen**2 == pytest.approx(pseudo_hansen_sq, abs=1e-10)


def test_constraints_from_dict(two_state_market):
    data = {
        "constraints": [
            {"kind": "raw", "g": [[1.0, 0.0], [0.0, 1.0]]},
            {"kind": "zero_covariance", "target": [[1.0, 0.0], [1.0, 0.0]]},
        ]
    }
    cons = constraints_from_dict(data, two_state_market)
    assert [c.kind for c in cons] == ["raw", "zero_covariance"]
    direct = HedgeConstraint.zero_covariance(
        two_state_market, [[1.0, 0.0], [1.0, 0.0]]
    )
    np.testing.assert_allclose(
        np.vstack(cons[1].g), np.vstack(direct.g), rtol=1e-14
    )
    with pytest.raises(DomainError):
        constraints_from_dict({"constraints": [{"kind": "nope"}]}, two_state_market)
    with pytest.raises(DomainError):
        constraints_from_dict({}, two_state_market)
    with pytest.raises(DomainError):
        constraints_from_dict(
            {"constraints": [{"kind": "raw"}]}, two_state_market
        )


def test_constraint_without_kind(two_state_market):
    data = {"constraints": [{"g": [[1.0, 0.0], [0.0, 1.0]]}]}
    with pytest.raises(DomainError, match='^constraint 0: needs a "kind"$'):
        constraints_from_dict(data, two_state_market)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_q_g_near_spanned_mean_matches_high_precision(eps):
    """One raw constraint g = mu + eps N(0, 1), so q_g is about eps^2: q_g
    is the sum of the unit policy's nonnegative second-moment terms, not
    q - spanned_q, which loses every digit as eps shrinks."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    market = random_market(rng, n_assets=3, n_states=50)
    g = market.mu + eps * rng.standard_normal(market.mu.shape)
    _, sol = solve_hedge(market, [HedgeConstraint.raw(g, market)], Kelly())

    with mp.workdps(50):
        q = m = b = mp.mpf(0)
        for p, a, mu, gs in zip(market.probs, market.second_moment, market.mu, g):
            a = mp.matrix(a.tolist())
            x_mu = mp.lu_solve(a, mp.matrix(mu.tolist()))
            x_g = mp.lu_solve(a, mp.matrix(gs.tolist()))
            q += p * sum(u * v for u, v in zip(mu, x_mu))
            m += p * sum(u * v for u, v in zip(gs, x_g))
            b -= p * sum(u * v for u, v in zip(gs, x_mu))
        q_g = q - b * b / m
        assert abs(sol.q_g - q_g) / q_g < 1e-8
        assert sol.spanned_q == pytest.approx(float(b * b / m), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_ill_conditioned_constraints_are_not_rejected(seed):
    """Two nearly parallel constraints make cond(M) about 5e10, below
    CONDITION_LIMIT. b' inv(M) b then carries up to about 2e-9 of rounding,
    past Q_CONSISTENCY_TOL alone in six of these ten seeds; the split
    check allows for it, so each solves as before."""
    rng = np.random.default_rng(seed)
    market = random_market(rng, n_assets=3, n_states=50)
    g1 = market.mu + rng.standard_normal(market.mu.shape)
    g2 = g1 + 1e-5 * rng.standard_normal(market.mu.shape)
    constraints = [HedgeConstraint.raw(g, market) for g in (g1, g2)]
    _, sol = solve_hedge(market, constraints, Kelly())
    assert 1e9 < np.linalg.cond(sol.m_mat) < CONDITION_LIMIT
    assert 0.0 < sol.q_g < q_of(market)


def test_q_g_is_the_unit_policy_second_moment_bit_for_bit():
    """q_g is the second moment of the unit policy inv(A)(mu + G c), summed
    as evaluate sums it: the same bits on random markets."""
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(40):
        market = random_market(rng, n_assets=int(rng.integers(1, 5)),
                               n_states=int(rng.integers(2, 30)))
        constraints = random_constraints(rng, market, int(rng.integers(1, 3)))
        try:
            _, sol = solve_hedge(market, constraints, Kelly())
        except SingularConstraintSystem:
            continue
        g = np.stack([con.g for con in constraints], axis=-1)
        unit = market.smm_directions + _solve(market.chol_second, g)[0] @ sol.multipliers
        assert sol.q_g == evaluate(market, Policy(unit)).second_moment
        checked += 1
    assert checked >= 30


def test_q_g_overflow_is_the_second_moment_error(monkeypatch):
    # multipliers of 1e200 give finite unit weights whose second moment
    # passes the float maximum
    rng = np.random.default_rng(12)
    market = random_market(rng, n_assets=3, n_states=5)
    constraints = random_constraints(rng, market, 1)
    cholesky = np.linalg.cholesky
    # M's factor times 1e-100 makes the multipliers inv(M) b times 1e200
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda m: cholesky(m) * 1e-100 if m.ndim == 2 else cholesky(m))
    with pytest.raises(DomainError, match="^the policy's second moment overflows: "
                                          "its weights are too large$"):
        solve_hedge(market, constraints, Kelly())


def test_wrong_multipliers_fail_the_split_check(monkeypatch):
    """A multiplier solve off by 1e-6 relative moves spanned_q to first
    order and q_g only to second, so the split no longer adds up to q."""
    rng = np.random.default_rng(11)
    market = random_market(rng, n_assets=3, n_states=50)
    constraints = [HedgeConstraint.raw(market.mu + rng.standard_normal(market.mu.shape),
                                       market)]
    _, sol = solve_hedge(market, constraints, Kelly())
    assert abs(sol.q_g + sol.spanned_q - q_of(market)) <= Q_CONSISTENCY_TOL
    assert sol.spanned_q > 1e-3
    cholesky = np.linalg.cholesky
    # the factor of M scaled by 1/sqrt(1 + 1e-6) scales the multipliers by 1 + 1e-6
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: cholesky(m) / math.sqrt(1.0 + 1e-6)
                        if m.ndim == 2 else cholesky(m))
    with pytest.raises(SmmError, match="q_g \\+ spanned_q"):
        solve_hedge(market, constraints, Kelly())


@pytest.mark.parametrize("s, n, k", [(1, 1, 1), (7, 3, 2), (300, 4, 3), (40, 5, 6)])
def test_gram_stacks_are_symmetric_and_match_state_first_einsum(monkeypatch, s, n, k):
    """The basis Gram stack that optimize_basis sums is exactly symmetric,
    which _fsum_symmetric relies on; each per-state product of the stacks
    it and solve_hedge form matches einsum over the state-first stacks to
    4 eps of the sum of absolute products."""
    rng = np.random.default_rng(100 * s + 10 * n + k)
    market = random_market(rng, n_assets=n, n_states=s)
    basis = [rng.standard_normal((s, n)) for _ in range(k)]
    seen = []
    monkeypatch.setattr(hedging, "_fsum_symmetric",
                        lambda terms: seen.append(terms) or _fsum_symmetric(terms))
    optimize_basis(market, basis, Kelly())
    (terms,) = seen
    assert np.array_equal(terms, np.swapaxes(terms, 1, 2))

    f = np.stack(basis, axis=-1)
    y = _products(market.chol_second, f)
    g = rng.standard_normal((s, n, 2))
    for a, b in [(market.chol_second, f), (y, y), (g, _solve(market.chol_second, g)[0])]:
        want = np.einsum("sni,snj->sij", a, b)
        bound = 4 * np.finfo(float).eps * np.einsum("sni,snj->sij", abs(a), abs(b))
        assert np.all(abs(_products(a, b) - want) <= bound)
