"""The stacked-array market core against a per-state oracle.

The oracle below loops over states and inverts every matrix with
``np.linalg.inv``; it shares no code with the batched Cholesky solves
and fsum reductions of ``smmport.market`` and ``smmport.hedging``.
"""

import warnings

import numpy as np
import pytest

from smmport import (
    DimensionMismatch,
    DiscreteMarket,
    DomainError,
    HedgeConstraint,
    InvalidSubset,
    Kelly,
    MomentPair,
    NotPositiveDefinite,
    Policy,
    SharpeBudget,
    evaluate,
    markowitz_policy,
    merge_states,
    optimize_basis,
    q_of,
    smm_policy,
    solve_hedge,
)
from smmport.moments import PIVOT_RTOL
from conftest import random_spd

RTOL = 1e-12
SIZES = [(s, n) for s in (1, 2, 7, 500) for n in range(1, 6)]


def random_market_dict(rng, n_states, n_assets):
    """Market JSON with states alternating at random between the two
    parameterizations."""
    probs = rng.uniform(0.2, 1.0, n_states)
    probs /= probs.sum()
    states = []
    for p in probs:
        mu = 0.5 * rng.standard_normal(n_assets)
        sigma = random_spd(rng, n_assets)
        state = {"prob": float(p), "mu": mu.tolist()}
        if rng.random() < 0.5:
            state["second_moment"] = (sigma + np.outer(mu, mu)).tolist()
        else:
            state["sigma"] = sigma.tolist()
        states.append(state)
    return {"states": states}


class Oracle:
    """Per-state loops and explicit inverses."""

    def __init__(self, data):
        self.p, self.mu, self.a, self.sigma = [], [], [], []
        for st in data["states"]:
            mu = np.array(st["mu"])
            if "second_moment" in st:
                a = np.array(st["second_moment"])
                sigma = a - np.outer(mu, mu)
            else:
                sigma = np.array(st["sigma"])
                a = sigma + np.outer(mu, mu)
            self.p.append(st["prob"])
            self.mu.append(mu)
            self.a.append(a)
            self.sigma.append(sigma)
        self.a_inv = [np.linalg.inv(a) for a in self.a]
        self.sigma_inv = [np.linalg.inv(s) for s in self.sigma]

    def states(self):
        return zip(self.p, self.mu, self.a, self.a_inv)

    def q(self):
        return sum(p * mu @ ai @ mu for p, mu, _, ai in self.states())

    def smm_directions(self):
        return np.array([ai @ mu for _, mu, _, ai in self.states()])

    def markowitz_directions(self):
        return np.array([si @ mu for si, mu in zip(self.sigma_inv, self.mu)])

    def moments(self, w):
        mean = sum(p * mu @ ws for p, mu, ws in zip(self.p, self.mu, w))
        second = sum(p * ws @ a @ ws for p, a, ws in zip(self.p, self.a, w))
        return mean, second

    def hedge(self, g):
        """M, b and multipliers for constraints g of shape (J, S, n)."""
        m_mat = sum(
            p * np.array([[gi[s] @ ai @ gj[s] for gj in g] for gi in g])
            for s, (p, _, _, ai) in enumerate(self.states())
        )
        b_vec = -sum(
            p * np.array([gi[s] @ ai @ mu for gi in g])
            for s, (p, mu, _, ai) in enumerate(self.states())
        )
        return m_mat, b_vec, np.linalg.inv(m_mat) @ b_vec

    def basis_coeff(self, f):
        """Kelly coefficients over basis functions f of shape (K, S, n)."""
        mu_t = sum(
            p * np.array([fk[s] @ mu for fk in f])
            for s, (p, mu, _, _) in enumerate(self.states())
        )
        gram = sum(
            p * np.array([[fk[s] @ a @ fl[s] for fl in f] for fk in f])
            for s, (p, _, a, _) in enumerate(self.states())
        )
        return np.linalg.inv(gram) @ mu_t


def assert_close(got, want, scale=None):
    """rtol 1e-12, plus an atol of 1e-12 times ``scale`` (the magnitude
    of the terms a value is summed from) where it cancels toward 0."""
    want = np.asarray(want, dtype=float)
    atol = RTOL * (np.max(np.abs(want)) if scale is None else scale)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=atol)


@pytest.mark.parametrize("n_states,n_assets", SIZES)
def test_market_ops_match_oracle(n_states, n_assets):
    rng = np.random.default_rng(1000 * n_states + n_assets)
    data = random_market_dict(rng, n_states, n_assets)
    market = DiscreteMarket.from_dict(data)
    oracle = Oracle(data)

    q = q_of(market)
    assert_close(q, oracle.q())
    assert_close(smm_policy(market, Kelly()).weights, oracle.smm_directions())
    scale = 1.0 / np.sqrt(q * (1.0 - q))
    assert_close(smm_policy(market, SharpeBudget()).weights,
                 scale * oracle.smm_directions())

    unit = oracle.markowitz_directions()
    mean, second = oracle.moments(unit)
    assert_close(markowitz_policy(market, Kelly()).weights, mean / second * unit)

    w = rng.standard_normal((n_states, n_assets))
    got = evaluate(market, Policy(w))
    mean, second = oracle.moments(w)
    terms = sum(p * np.abs(mu) @ np.abs(ws) for p, mu, ws in zip(oracle.p, oracle.mu, w))
    assert_close(got.mean, mean, scale=terms)
    assert_close(got.second_moment, second)


@pytest.mark.parametrize("n_states,n_assets", SIZES)
def test_hedge_and_basis_match_oracle(n_states, n_assets):
    rng = np.random.default_rng(2000 * n_states + n_assets)
    data = random_market_dict(rng, n_states, n_assets)
    market = DiscreteMarket.from_dict(data)
    oracle = Oracle(data)

    n_con = min(2, n_states * n_assets)
    g = rng.standard_normal((n_con, n_states, n_assets))
    _, sol = solve_hedge(market, [HedgeConstraint.raw(gj, market) for gj in g], Kelly())
    m_mat, b_vec, multipliers = oracle.hedge(g)
    assert_close(sol.m_mat, m_mat)
    assert_close(sol.b_vec, b_vec, scale=np.max(np.abs(m_mat)))
    assert_close(sol.multipliers, multipliers)
    q = oracle.q()
    assert_close(sol.q_g, q - b_vec @ multipliers, scale=q)

    f = rng.standard_normal((2, n_states, n_assets))
    if n_states * n_assets >= 2:
        coeff, _ = optimize_basis(market, list(f), Kelly())
        assert_close(coeff, oracle.basis_coeff(f))


@pytest.mark.parametrize("n_states,n_assets", [s for s in SIZES if s[0] > 1])
def test_merge_delta_q_matches_oracle(n_states, n_assets):
    rng = np.random.default_rng(3000 * n_states + n_assets)
    data = random_market_dict(rng, n_states, n_assets)
    market = DiscreteMarket.from_dict(data)
    oracle = Oracle(data)
    subset = rng.choice(n_states, size=max(2, n_states // 3), replace=False)

    p = np.array(oracle.p)[subset]
    p_m = p.sum()
    mu_m = sum(pi * oracle.mu[i] for pi, i in zip(p, subset)) / p_m
    a_m = sum(pi * oracle.a[i] for pi, i in zip(p, subset)) / p_m
    dropped = sum(pi * oracle.mu[i] @ oracle.a_inv[i] @ oracle.mu[i]
                  for pi, i in zip(p, subset))
    want = p_m * mu_m @ np.linalg.inv(a_m) @ mu_m - dropped

    merged, delta_q = merge_states(market, subset)
    assert merged.n_states == n_states - len(subset) + 1
    # delta_q is q(merged) - q(market), so it carries the rounding of q
    assert_close(delta_q, want, scale=oracle.q())


@pytest.mark.parametrize("n_assets", range(1, 6))
def test_reductions_do_not_depend_on_state_order(n_assets):
    rng = np.random.default_rng(4000 + n_assets)
    data = random_market_dict(rng, 500, n_assets)
    w = rng.standard_normal((500, n_assets))
    market = DiscreteMarket.from_dict(data)
    base_q = q_of(market)
    base = evaluate(market, Policy(w))
    for _ in range(5):
        perm = rng.permutation(500)
        shuffled = DiscreteMarket.from_dict({"states": [data["states"][i] for i in perm]})
        assert q_of(shuffled) == base_q
        got = evaluate(shuffled, Policy(w[perm]))
        assert got.mean == base.mean
        assert got.second_moment == base.second_moment


def test_states_view_matches_per_state_validation():
    rng = np.random.default_rng(5)
    data = random_market_dict(rng, 7, 3)
    market = DiscreteMarket.from_dict(data)
    for (p, pair), st in zip(market.states, data["states"]):
        if "second_moment" in st:
            ref = MomentPair.from_second_moment(st["mu"], st["second_moment"])
        else:
            ref = MomentPair.from_covariance(st["mu"], st["sigma"])
        assert p == st["prob"]
        assert pair.supplied == ref.supplied
        for name in ("mu", "sigma", "second_moment"):
            np.testing.assert_array_equal(getattr(pair, name), getattr(ref, name))
        for name in ("chol_sigma", "chol_second"):
            np.testing.assert_allclose(getattr(pair, name), getattr(ref, name), rtol=1e-15)
    assert DiscreteMarket.from_dict(market.to_dict()).to_dict() == market.to_dict()


def test_market_from_pairs_keeps_their_factors():
    rng = np.random.default_rng(6)
    pairs = [MomentPair.from_covariance(rng.standard_normal(3), random_spd(rng, 3))
             for _ in range(4)]
    market = DiscreteMarket([(0.25, m) for m in pairs])
    for i, m in enumerate(pairs):
        np.testing.assert_array_equal(market.chol_second[i], m.chol_second)
        np.testing.assert_array_equal(market.chol_sigma[i], m.chol_sigma)
    assert market.moments == tuple(pairs)
    with pytest.raises(ValueError):
        market.mu[0, 0] = 1.0


def test_first_bad_state_is_named_across_checks():
    # state 1 is not positive definite, state 3 has a NaN mean: the
    # per-state order blames state 1, although a batched finiteness
    # check would meet state 3 first
    states = [{"prob": 0.25, "mu": [0.1, 0.2], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
              for _ in range(4)]
    states[1]["sigma"] = [[1.0, 2.0], [2.0, 1.0]]
    states[3]["mu"] = [float("nan"), 0.0]
    with pytest.raises(NotPositiveDefinite, match="state 1:"):
        DiscreteMarket.from_dict({"states": states})


def _diag_market(n_states, bad, ratio):
    states = [{"prob": 1.0 / n_states, "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
              for _ in range(n_states)]
    states[bad]["sigma"] = [[1.0, 0.0], [0.0, ratio * PIVOT_RTOL]]
    return {"states": states}


def test_pivot_below_tolerance_names_its_state():
    with pytest.raises(NotPositiveDefinite, match="state 617:.*pivot"):
        DiscreteMarket.from_dict(_diag_market(1000, 617, 0.999))
    # just above the tolerance the same market is valid
    assert DiscreteMarket.from_dict(_diag_market(1000, 617, 1.001)).n_states == 1000


def _non_pd_second_moment(state):
    del state["sigma"]
    state["second_moment"] = [[1.0, 2.0], [2.0, 1.0]]


# Each way a single state of a market can be bad, with the error it raises.
BAD_STATE = {
    "missing mu": (DomainError, lambda s: s.pop("mu")),
    "missing matrix": (DomainError, lambda s: s.pop("sigma")),
    "null prob": (DomainError, lambda s: s.update(prob=None)),
    "short mu": (DimensionMismatch, lambda s: s.update(mu=[0.1])),
    "non-square matrix": (DomainError, lambda s: s.update(sigma=[[1.0, 0.0]])),
    "nan mu": (DomainError, lambda s: s.update(mu=[0.1, float("nan")])),
    "nan matrix": (DomainError, lambda s: s.update(sigma=[[float("nan"), 0.0], [0.0, 1.0]])),
    "non-pd sigma": (NotPositiveDefinite, lambda s: s.update(sigma=[[1.0, 2.0], [2.0, 1.0]])),
    "non-pd second_moment": (NotPositiveDefinite, _non_pd_second_moment),
    "pivot below tolerance": (
        NotPositiveDefinite, lambda s: s.update(sigma=[[1.0, 0.0], [0.0, 0.999 * PIVOT_RTOL]])),
}


@pytest.mark.parametrize("kind", list(BAD_STATE))
def test_first_bad_state_is_named_for_every_check(kind):
    # state 17 fails `kind` and state 41 fails each other check in turn:
    # the error is always `kind`'s, and it names state 17
    error, spoil = BAD_STATE[kind]
    for later in BAD_STATE:
        if later == kind:
            continue
        states = [{"prob": 0.02, "mu": [0.1, 0.2], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
                  for _ in range(50)]
        spoil(states[17])
        BAD_STATE[later][1](states[41])
        with pytest.raises(error, match="^state 17: ") as caught:
            DiscreteMarket.from_dict({"states": states})
        assert type(caught.value) is error


def test_asymmetric_state_warns_once():
    states = [{"prob": 0.5, "mu": [0.1, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
              {"prob": 0.5, "mu": [0.0, 0.1], "second_moment": [[1.0, 0.1], [0.3, 1.0]]}]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        market = DiscreteMarket.from_dict({"states": states})
    assert [w.category for w in caught] == [UserWarning]
    assert "state 1: second_moment" in str(caught[0].message)
    np.testing.assert_array_equal(market.second_moment[1], [[1.0, 0.2], [0.2, 1.0]])


def test_ragged_policy_names_state():
    with pytest.raises(DimensionMismatch, match="state 2"):
        Policy([[1.0, 2.0], [3.0, 4.0], [5.0]])
    with pytest.raises(DimensionMismatch, match="state 0"):
        Policy([1.0, 2.0])


@pytest.mark.parametrize("subset", [[0, 1.9], [0, True], [np.bool_(False), 1], [0, "1"]])
def test_merge_rejects_non_integer_indices(two_state_market, subset):
    with pytest.raises(InvalidSubset, match="not an integer"):
        merge_states(two_state_market, subset)


def test_merge_accepts_numpy_integers():
    rng = np.random.default_rng(7)
    market = DiscreteMarket.from_dict(random_market_dict(rng, 6, 2))
    subset = rng.choice(6, size=3, replace=False)
    assert isinstance(subset[0], np.integer)
    merged, delta_q = merge_states(market, subset)
    assert merged.n_states == 4 and delta_q <= 1e-12
    same, again = merge_states(market, [int(i) for i in subset])
    assert again == delta_q
    np.testing.assert_array_equal(same.mu, merged.mu)
