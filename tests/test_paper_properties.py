"""The paper's results as properties over random markets.

Each market draws its states' conditional Sharpe ratios zeta around a
drawn scale, up to 1e8 with one asset. With more assets the pivot test
on A = Sigma + mu mu' bounds zeta for an isotropic Sigma near 1e5, so
those markets stop at 1e4. Each property carries the rounding bound its
computation allows.

- Bases: the optimum over a basis, q_basis, is at most q. It equals q
  when the basis contains the optimal directions x = inv(A) mu. Its split
  q_basis + sum_s p_s ||L_s'(x_s - F_s theta)||^2 = q holds within the
  bound that ``optimize_basis`` checks.
- Coarsening: merging states never lowers the carried 1 - q.
- Order: q, the carried 1 - q and every policy's summary are exact sums
  over states, so permuting the states keeps their bits.
- Sherman-Morrison per state: inv(Sigma) mu = (1 + zeta^2) inv(A) mu and
  mu' inv(A) mu = zeta^2 / (1 + zeta^2), within the rounding that the
  condition of A and Sigma allows.
- Down-levering: the covariance policy's Sharpe ratio is at most the
  second-moment policy's, and equal to it when zeta is one across states.
- Unconditional optimality: no policy has a squared Hansen ratio above q
  or a Sharpe ratio above sqrt(q / (1 - q)); the second-moment policy
  attains both.
- Constraints: a hedge splits q into q_g + b' inv(M) b, and the hedged
  policy is orthogonal to every constraint, within the rounding of the
  products that form it.
- LCEM conditional weights: the model's Sherman-Morrison scaling of
  inv(Sigma) B f is the second-moment direction of the pair (B f, Sigma),
  two factorizations apart.
"""

import numpy as np
import pytest

from smmport import (
    DiscreteMarket,
    HedgeConstraint,
    Kelly,
    LcemModel,
    MeanVariance,
    MomentPair,
    NotPositiveDefinite,
    Policy,
    SharpeBudget,
    SingularBasis,
    SingularConstraintSystem,
    evaluate,
    inner_product,
    lcem_conditional_weights,
    markowitz_policy,
    merge_states,
    optimize_basis,
    q_of,
    smm_direction,
    smm_policy,
    solve_hedge,
)
from smmport.market import Q_CONSISTENCY_TOL
from conftest import random_spd

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = float(np.finfo(float).eps)
OBJECTIVES = (SharpeBudget(risk_budget=1.5, risk_free=0.02), MeanVariance(2.0), Kelly())
SETTINGS = hypothesis.settings(max_examples=300, deadline=None, database=None)


def random_market(draw, one_zeta=False):
    """A market of 1-5 states on 1-3 assets given by covariance, with each
    state's zeta near 10**u for a drawn u, sometimes all with one mean, and
    its random generator. With ``one_zeta`` every state is the first one's
    mean and covariance scaled by c_s and c_s**2, so all share its zeta."""
    n = draw(st.integers(1, 3), label="assets")
    s = draw(st.integers(1, 5), label="states")
    log_zeta = draw(st.floats(-1.0, 8.0 if n == 1 else 4.0), label="log10 zeta")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    probs = rng.uniform(0.2, 1.0, s)
    probs /= probs.sum()
    scale = 10.0 ** (log_zeta - rng.uniform(0.0, 1.0, s))
    sigma = np.stack([random_spd(rng, n) for _ in range(s)]) / (scale * scale)[:, None, None]
    mu = rng.standard_normal((s, n))
    if draw(st.booleans(), label="one mean"):
        # states that differ in risk alone: merging them loses almost no q
        mu[:] = mu[0]
    if one_zeta:
        c = rng.uniform(0.5, 2.0, s)
        mu, sigma = c[:, None] * mu[0], (c * c)[:, None, None] * sigma[0]
    try:
        market = DiscreteMarket.from_arrays(probs, mu, sigma, np.zeros(s, dtype=bool))
    except NotPositiveDefinite:
        hypothesis.reject()
    return market, rng


def random_basis(draw, market, rng):
    """One to three random basis functions, at most one per state and
    asset, and whether one of them was replaced by x = inv(A) mu."""
    k = draw(st.integers(1, min(3, market.n_states * market.n_assets)), label="basis size")
    basis = list(rng.standard_normal((k, market.n_states, market.n_assets)))
    spans_x = draw(st.booleans(), label="contains x")
    if spans_x:
        basis[draw(st.integers(0, k - 1), label="x at")] = market.smm_directions
    return np.stack(basis, axis=-1), spans_x


def gram_of(market, f):
    y = np.einsum("sji,sjk->sik", market.chol_second, f)
    return np.einsum("s,sik,sil->kl", market.probs, y, y)


def test_basis_optimum_splits_q():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, rng = random_market(data.draw)
        f, spans_x = random_basis(data.draw, market, rng)
        try:
            theta, unit = optimize_basis(market, list(np.moveaxis(f, -1, 0)), Kelly())
        except SingularBasis:
            hypothesis.reject()
        # under Kelly the basis policy is the unit policy F theta, whose
        # mean and second moment are both q_basis
        q, q_basis = q_of(market), unit.second_moment
        residual = evaluate(market, Policy(market.smm_directions - f @ theta)).second_moment
        # the rounding optimize_basis allows theta's solve, as for a hedge
        c = np.abs(theta)
        slack = 4.0 * c.size * EPS * float(c @ np.abs(gram_of(market, f)) @ c)
        assert q_basis <= q + slack + 4.0 * EPS * q
        assert abs(q_basis + residual - q) <= Q_CONSISTENCY_TOL + slack
        if spans_x:
            assert abs(q - q_basis) <= slack + 4.0 * EPS * q
            assert residual <= Q_CONSISTENCY_TOL + slack

    check()


def test_basis_containing_x_gives_the_optimal_policy():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, rng = random_market(data.draw)
        f, _ = random_basis(data.draw, market, rng)
        f[..., 0] = market.smm_directions
        basis = list(np.moveaxis(f, -1, 0))
        # theta's error grows with the Gram matrix's condition; at most
        # 6.8 eps cond was seen on 10,000 random markets of this kind
        tol = 16.0 * EPS * np.linalg.cond(gram_of(market, f))
        for objective in OBJECTIVES:
            try:
                coeff, _ = optimize_basis(market, basis, objective)
            except SingularBasis:
                hypothesis.reject()
            want = smm_policy(market, objective).weights
            assert np.max(np.abs(f @ coeff - want)) <= tol * np.max(np.abs(want))

    check()


def test_merging_never_lowers_one_minus_q():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, _ = random_market(data.draw)
        hypothesis.assume(market.n_states > 1)
        subset = data.draw(st.lists(st.integers(0, market.n_states - 1), min_size=2,
                                    unique=True), label="subset")
        merged, delta_q = merge_states(market, subset)
        # equal only where the merged states have one inv(A) mu; each
        # carried 1 - q is a correctly rounded sum
        assert merged._one_minus_q >= market._one_minus_q * (1.0 - 2.0 * EPS)
        assert delta_q <= 0.0

    check()


def test_permuting_states_keeps_every_bit():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, _ = random_market(data.draw)
        order = np.array(data.draw(st.permutations(range(market.n_states)), label="order"))
        permuted = DiscreteMarket.from_arrays(market.probs[order], market.mu[order],
                                              market.sigma[order], market.second_supplied[order])
        assert q_of(permuted) == q_of(market)
        assert permuted._one_minus_q == market._one_minus_q
        for objective in OBJECTIVES:
            assert (evaluate(permuted, smm_policy(permuted, objective)).to_dict()
                    == evaluate(market, smm_policy(market, objective)).to_dict())

    check()


def test_sherman_morrison_per_state():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, _ = random_market(data.draw)
        zeta_sq = market.conditional_sharpe_sq
        # each solve is backward stable: its error grows with the condition
        # of its matrix; at most 1.4 eps (cond A + cond Sigma) was seen for
        # either identity on 3,000 random markets of this kind
        tol = 8.0 * EPS * (np.linalg.cond(market.second_moment) + np.linalg.cond(market.sigma))
        x_mk, x_smm = market.markowitz_directions, market.smm_directions
        err = np.max(np.abs(x_mk - (1.0 + zeta_sq)[:, None] * x_smm), axis=1)
        assert (err <= tol * np.max(np.abs(x_mk), axis=1)).all()
        want = zeta_sq / (1.0 + zeta_sq)
        assert (np.abs(market.conditional_q - want) <= tol * want).all()

    check()


def test_down_levering_never_loses_sharpe():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        one_zeta = data.draw(st.booleans(), label="one zeta")
        market, _ = random_market(data.draw, one_zeta=one_zeta)
        # the Sharpe ratio is scale-free, so any objective's policy serves
        smm = evaluate(market, smm_policy(market, Kelly())).sharpe
        mk = evaluate(market, markowitz_policy(market, Kelly())).sharpe
        # at most 2.7 eps apart where zeta is one, on 3,000 random markets
        assert mk <= smm * (1.0 + 8.0 * EPS)
        if one_zeta:
            assert abs(mk - smm) <= 8.0 * EPS * smm

    check()


def random_policy(draw, market, rng):
    """Per-state weights: random, a per-state rescaling of the optimal
    directions x = inv(A) mu, or x perturbed by a relative 1e-6."""
    kind = draw(st.sampled_from(["random", "rescaled x", "near x"]), label="policy")
    x = market.smm_directions
    if kind == "random":
        return rng.standard_normal(x.shape)
    if kind == "rescaled x":
        return rng.uniform(0.2, 2.0, market.n_states)[:, None] * x
    return x * (1.0 + 1e-6 * rng.standard_normal(x.shape))


def test_no_policy_beats_the_unconditional_optimum():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, rng = random_market(data.draw)
        q = q_of(market)
        best_sharpe = np.sqrt(q / market._one_minus_q)
        # each summary is exact sums of rounded per-state terms: at most
        # 3.3 eps over q and 2.0 eps over the best Sharpe ratio, and the
        # optimal policy within 5.0 and 2.8 eps of them, were seen on
        # 3,000 random markets of this kind
        other = evaluate(market, Policy(random_policy(data.draw, market, rng)))
        assert other.hansen ** 2 <= q * (1.0 + 8.0 * EPS)
        assert other.sharpe <= best_sharpe * (1.0 + 8.0 * EPS)
        for objective in OBJECTIVES:
            smm = evaluate(market, smm_policy(market, objective))
            assert abs(smm.hansen ** 2 - q) <= 16.0 * EPS * q
            assert abs(smm.sharpe - best_sharpe) <= 8.0 * EPS * best_sharpe
            mk = evaluate(market, markowitz_policy(market, objective))
            assert mk.sharpe <= smm.sharpe * (1.0 + 8.0 * EPS)

    check()


def test_hedge_splits_q_and_is_orthogonal_to_its_constraints():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        market, rng = random_market(data.draw)
        j = data.draw(st.integers(1, 3), label="constraints")
        hypothesis.assume(j < market.n_states * market.n_assets)
        g = rng.standard_normal((j,) + market.mu.shape)
        try:
            policy, sol = solve_hedge(market, [HedgeConstraint.raw(gk, market) for gk in g],
                                      Kelly())
        except SingularConstraintSystem:
            hypothesis.reject()
        m = np.abs(sol.multipliers)
        # the slack the split check allows spanned_q's solve
        slack = 4.0 * j * EPS * float(m @ np.abs(sol.m_mat) @ m)
        assert abs(sol.q_g + sol.spanned_q - q_of(market)) <= Q_CONSISTENCY_TOL + slack
        # under Kelly the policy is x + X m with X_k = inv(A) g_k. Its product
        # with g_k is the multiplier system's residual plus sum_k m_k times
        # the asymmetry of M before symmetrization, which is the solves'
        # error: n eps ||A_s|| ||X_js|| ||X_ks|| per state. Add the rounding
        # of x + X m and of each product; at most 0.68 of this bound was
        # seen on 5,000 random markets of this kind
        p, a, n = market.probs, market.second_moment, market.n_assets
        x = np.linalg.solve(a[None], g[..., None])[..., 0]
        norm_x = np.linalg.norm(x, axis=2)
        spread = p * np.linalg.norm(a, 2, axis=(1, 2)) * norm_x
        size = np.abs(market.smm_directions) + np.einsum("k,ksi->si", m, np.abs(x))
        for k in range(j):
            bound = EPS * (n * float(m @ (spread * norm_x[k]).sum(axis=1))
                           + float(np.sum(p * (size * np.abs(g[k])).sum(axis=1)))
                           + abs(sol.b_vec[k]) + float(np.abs(sol.m_mat[k]) @ m))
            assert abs(inner_product(policy, g[k], market)) <= 4.0 * bound

    check()


def test_lcem_conditional_weights_are_the_smm_direction():
    @SETTINGS
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4), label="assets")
        k = data.draw(st.integers(1, 4), label="features")
        log_cond = data.draw(st.floats(0.0, 4.0), label="log10 cond(Sigma)")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = (q * np.logspace(0.0, log_cond, n)) @ q.T
        model = LcemModel(rng.standard_normal((n, k)), (sigma + sigma.T) / 2.0,
                          np.zeros(k), np.eye(k))
        f = rng.standard_normal(k)
        scale = rng.uniform(0.1, 3.0)
        got = lcem_conditional_weights(model, f, scale)
        pair = MomentPair(model.B @ f, sigma=model.sigma)
        want = scale * smm_direction(pair)
        # two backward-stable solves, through the factors of Sigma and of
        # A: their gap grows with both conditions, as per state above
        tol = 8.0 * EPS * (np.linalg.cond(pair.sigma) + np.linalg.cond(pair.second_moment))
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(got)

    check()
