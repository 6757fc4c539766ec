"""The stacked-array market core against a per-state oracle.

The oracle below loops over states and inverts every matrix with
``np.linalg.inv``; it shares no code with the batched Cholesky solves
and fsum reductions of ``smmport.market`` and ``smmport.hedging``.
"""

import json
import math
import pathlib
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
    conditional_q,
    conditional_sharpe_sq,
    evaluate,
    markowitz_direction,
    markowitz_policy,
    merge_states,
    optimize_basis,
    q_of,
    smm_direction,
    smm_policy,
    solve_hedge,
)
import smmport.market
import smmport.moments
from smmport.moments import PIVOT_RTOL
from conftest import random_spd

RTOL = 1e-12
SIZES = [(s, n) for s in (1, 2, 7, 500) for n in range(1, 6)]
STACKS = ("probs", "mu", "sigma", "second_moment", "chol_sigma", "chol_second",
          "second_supplied", "smm_directions", "markowitz_directions",
          "conditional_q", "conditional_sharpe_sq")


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


def _counting_parse(monkeypatch, fail_size=None):
    """Record the length of every ``market._parse`` call; with ``fail_size``,
    a call on exactly that many states fails."""
    calls = []
    parse = smmport.market._parse

    def counted(raw):
        calls.append(len(raw))
        if len(raw) == fail_size:
            raise DomainError("whole-market failure")
        return parse(raw)

    monkeypatch.setattr(smmport.market, "_parse", counted)
    return calls


def test_bad_last_state_of_a_large_market_is_found_by_bisection(monkeypatch):
    n_states = 20_000
    states = [{"prob": 1.0 / n_states, "mu": [0.1, 0.2], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
              for _ in range(n_states)]
    states[-1]["sigma"] = [[1.0, 2.0], [2.0, 1.0]]
    calls = _counting_parse(monkeypatch)
    with pytest.raises(NotPositiveDefinite, match="^state 19999: "):
        DiscreteMarket.from_dict({"states": states})
    assert len(calls) <= math.ceil(math.log2(n_states)) + 2


def test_probability_error_is_raised_without_bisection(monkeypatch):
    # every state passes its checks; only the sum of probabilities fails
    n_states = 1000
    states = [{"prob": 1.00005 / n_states, "mu": [0.1, 0.2],
               "sigma": [[1.0, 0.0], [0.0, 1.0]]} for _ in range(n_states)]
    calls = _counting_parse(monkeypatch)
    with pytest.raises(DomainError, match="^state probabilities sum to 1.0000[0-9]*, not 1$"):
        DiscreteMarket.from_dict({"states": states})
    assert calls == [n_states]


def test_run_of_narrow_states_names_the_first():
    # states 4.. agree with each other but not with state 0; each probe
    # includes state 0, so a range of them alone still fails
    states = [{"prob": 0.125, "mu": [0.1, 0.2], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
              for _ in range(8)]
    for state in states[4:]:
        state.update(mu=[0.1], sigma=[[1.0]])
    with pytest.raises(DimensionMismatch, match="^state 4: "):
        DiscreteMarket.from_dict({"states": states})


def test_failure_of_no_single_state_is_raised_unchanged(monkeypatch):
    states = [{"prob": 0.25, "mu": [0.1], "sigma": [[1.0]]} for _ in range(4)]
    _counting_parse(monkeypatch, fail_size=4)
    with pytest.raises(DomainError, match="^whole-market failure$"):
        DiscreteMarket.from_dict({"states": states})


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


@pytest.mark.parametrize(
    "subset", [[0, 1.9], [0, True], [np.bool_(False), 1], [0, "1"], [0, None], [object(), 1]]
)
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


def market_arrays(data):
    """The ``from_arrays`` inputs of a market dict."""
    states = data["states"]
    given = np.array(["second_moment" in st for st in states])
    mats = [st["second_moment"] if g else st["sigma"] for st, g in zip(states, given)]
    return (np.array([st["prob"] for st in states]), np.array([st["mu"] for st in states]),
            np.array(mats), given)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("as_lists", [False, True], ids=["arrays", "lists"])
@pytest.mark.parametrize("n_states", [1, 7, 500])
def test_from_arrays_matches_from_dict_bitwise(n_states, as_lists):
    rng = np.random.default_rng(6000 + n_states)
    data = random_market_dict(rng, n_states, int(rng.integers(1, 6)))
    arrays = market_arrays(data)
    if as_lists:
        arrays = [a.tolist() for a in arrays]
    got = DiscreteMarket.from_arrays(*arrays)
    want = DiscreteMarket.from_dict(data)
    for name in STACKS:
        assert_same_bits(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("n_states", [2, 7, 500])
def test_merge_keeps_other_rows_and_merges_the_mixture(n_states):
    rng = np.random.default_rng(7000 + n_states)
    n_assets = 3
    market = DiscreteMarket.from_dict(random_market_dict(rng, n_states, n_assets))
    subset = sorted(rng.choice(n_states, size=max(2, n_states // 4), replace=False).tolist())
    merged, _ = merge_states(market, subset)

    # the new market's rows come from these rows of the old one, in order;
    # row k is the merged state
    kept = [i for i in range(n_states) if i not in subset[1:]]
    k = kept.index(subset[0])
    others = [j for j in range(len(kept)) if j != k]
    for name in STACKS:
        assert_same_bits(getattr(merged, name)[others],
                         getattr(market, name)[[kept[j] for j in others]])

    p_m, by_second, by_sigma = merged_pairs(market, subset)
    # given by the covariance it carries, so to_dict writes that one
    assert merged.probs[k] == p_m and not merged.second_supplied[k]
    # the A side as the mixture's second moment; the Sigma side formed on
    # its own, never as A - mu mu'
    for name in ("mu", "second_moment", "chol_second"):
        assert_same_bits(getattr(merged, name)[k], getattr(by_second, name))
    for name in ("sigma", "chol_sigma"):
        assert_same_bits(getattr(merged, name)[k], getattr(by_sigma, name))
    for name, want in merged_solves(by_second, by_sigma).items():
        assert_same_bits(getattr(merged, name)[k], want)


def merged_pairs(market, subset):
    """Oracle for the merged state, every sum by ``math.fsum``: p_m, the
    pair given by the mixture's second moment A_m, and the pair given by
    its covariance, the members' risk plus the spread of their means,
    sum_s [p_s Sigma_s + e_s e_s'] / p_m with e_s = sqrt(p_s)(mu_s - mu_m)."""
    idx = sorted(set(subset))
    p = market.probs[idx]
    n = market.n_assets
    p_m = 1.0 if len(idx) == market.n_states else math.fsum(p.tolist())
    mu_m = np.array([math.fsum((p * market.mu[idx, a]).tolist()) for a in range(n)]) / p_m
    a_m = np.array([[math.fsum((p * market.second_moment[idx, a, b]).tolist())
                     for b in range(n)] for a in range(n)]) / p_m
    e = np.sqrt(p)[:, None] * (market.mu[idx] - mu_m)
    sigma_m = np.array([[math.fsum([*(p * market.sigma[idx, a, b]).tolist(),
                                    *(e[:, a] * e[:, b]).tolist()])
                         for b in range(n)] for a in range(n)]) / p_m
    return (p_m, MomentPair.from_second_moment(mu_m, a_m),
            MomentPair.from_covariance(mu_m, sigma_m))


def merged_solves(by_second, by_sigma):
    """The merged state's solved row, each side solved from its own pair."""
    return {"smm_directions": smm_direction(by_second),
            "conditional_q": np.float64(conditional_q(by_second)),
            "markowitz_directions": markowitz_direction(by_sigma),
            "conditional_sharpe_sq": np.float64(conditional_sharpe_sq(by_sigma))}


def two_state_golden_market():
    path = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs/two_state_market.json"
    return DiscreteMarket.from_dict(json.loads(path.read_text())), [0, 1]


def large_market():
    rng = np.random.default_rng(2000)
    market = DiscreteMarket.from_dict(random_market_dict(rng, 2000, 4))
    return market, sorted(rng.choice(2000, size=500, replace=False).tolist())


@pytest.mark.parametrize("case", [two_state_golden_market, large_market])
def test_merge_solves_only_the_merged_state(monkeypatch, case):
    market, subset = case()
    solved = []
    solve = smmport.market._solve

    def recording(lower, mu):
        solved.append(len(lower))
        return solve(lower, mu)

    monkeypatch.setattr(smmport.market, "_solve", recording)
    merged, _ = merge_states(market, subset)
    monkeypatch.undo()
    assert solved == [1, 1]
    # the kept states' solved rows are what solving every state gives
    given = {name: np.array(getattr(merged, name)) for name in STACKS[:7]}
    fresh = smmport.market.DiscreteMarket._from_stacks(given, np.zeros(merged.n_states))
    for name in STACKS:
        assert_same_bits(getattr(merged, name), getattr(fresh, name))
    assert (merged._q, merged._one_minus_q) == (fresh._q, fresh._one_minus_q)


# Each way the four inputs of from_arrays can disagree in shape, with the
# error it raises.
BAD_SHAPE = {
    "short probs": (DimensionMismatch, lambda p, m, a, g: (p[:-1], m, a, g)),
    "2-d probs": (DimensionMismatch, lambda p, m, a, g: (p[None], m, a, g)),
    "short second_supplied": (DimensionMismatch, lambda p, m, a, g: (p, m, a, g[:-1])),
    "int second_supplied": (DimensionMismatch, lambda p, m, a, g: (p, m, a, g.astype(int))),
    "no states": (DimensionMismatch, lambda p, m, a, g: (p[:0], m[:0], a[:0], g[:0])),
    "short mu": (DimensionMismatch, lambda p, m, a, g: (p, m[:-1], a, g)),
    "1-d mu": (DimensionMismatch, lambda p, m, a, g: (p, m[:, 0], a, g)),
    "ragged mu": (DimensionMismatch, lambda p, m, a, g: (p, [*m[:-1], m[-1, :1]], a, g)),
    "short mats": (DomainError, lambda p, m, a, g: (p, m, a[:-1], g)),
    "non-square mats": (DomainError, lambda p, m, a, g: (p, m, a[:, :, :1], g)),
    "2-d mats": (DomainError, lambda p, m, a, g: (p, m, a[0], g)),
}


@pytest.mark.parametrize("kind", list(BAD_SHAPE))
def test_from_arrays_names_shape_errors(kind):
    rng = np.random.default_rng(8)
    error, spoil = BAD_SHAPE[kind]
    arrays = spoil(*market_arrays(random_market_dict(rng, 4, 2)))
    with pytest.raises(error) as caught:
        DiscreteMarket.from_arrays(*arrays)
    assert type(caught.value) is error


def test_from_arrays_checks_states_before_probabilities():
    probs, mu, mats, given = market_arrays(random_market_dict(np.random.default_rng(9), 4, 2))
    probs[2] = 0.0
    mats[3] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(NotPositiveDefinite):
        DiscreteMarket.from_arrays(probs, mu, mats, given)
    mats[3] = np.eye(2)
    with pytest.raises(DomainError, match="^state 2: probability"):
        DiscreteMarket.from_arrays(probs, mu, mats, given)


def test_from_arrays_copies_its_inputs():
    arrays = market_arrays(random_market_dict(np.random.default_rng(10), 5, 3))
    before = [a.copy() for a in arrays]
    market = DiscreteMarket.from_arrays(*arrays)
    for arg, kept in zip(arrays, before):
        assert arg.flags.writeable
        assert_same_bits(arg, kept)
        for name in STACKS:
            assert not np.shares_memory(arg, getattr(market, name))
            assert not getattr(market, name).flags.writeable
    arrays[1][0] += 1.0
    assert_same_bits(market.mu[0], before[1][0])


@pytest.mark.parametrize("s, n", SIZES)
def test_fsum_symmetric_matches_full_sum(s, n):
    """Summing one triangle of exactly symmetric stacks and mirroring it
    gives the bits of the full sum; magnitudes span many decades so that
    the sums round."""
    rng = np.random.default_rng(1000 * s + n)
    half = rng.standard_normal((s, n, n)) * 10.0 ** rng.integers(-30, 30, (s, n, n))
    terms = half + np.swapaxes(half, 1, 2)
    got = smmport.moments._fsum_symmetric(terms)
    assert np.array_equal(got, got.T)
    assert got.tobytes() == smmport.moments._fsum(terms).tobytes()


# --- markets built from checked stacks -----------------------------------

# sigma[0, 1] = 2**-1073 is stored halved, as 2**-1074; halving it again
# would round it to 0
TINY = math.ldexp(1.0, -1073)
SUBNORMAL_SIGMA = [[1.0, TINY], [0.0, 1.0]]


def test_market_of_pairs_keeps_each_pairs_bits():
    pair = MomentPair([0.1, 0.2], sigma=SUBNORMAL_SIGMA)
    assert pair.sigma[0, 1] == pair.sigma[1, 0] == math.ldexp(1.0, -1074)
    market = DiscreteMarket([(1.0, pair)])
    for name in ("mu", "sigma", "second_moment", "chol_sigma", "chol_second"):
        assert_same_bits(getattr(market, name)[0], getattr(pair, name))
    assert market.states[0][1] is pair


def test_merge_keeps_the_bits_of_the_states_it_keeps():
    market = DiscreteMarket.from_arrays(
        [0.5, 0.25, 0.25], [[0.1, 0.2], [0.0, 0.1], [0.1, 0.0]],
        [SUBNORMAL_SIGMA, np.eye(2), np.eye(2)], [False, False, False])
    assert market.sigma[0, 0, 1] == math.ldexp(1.0, -1074)
    merged, _ = merge_states(market, [1, 2])
    for name in STACKS:
        assert_same_bits(getattr(merged, name)[0], getattr(market, name)[0])


@pytest.mark.parametrize("n_states", [1, 7, 500])
def test_market_of_its_own_states_has_its_bits(n_states):
    rng = np.random.default_rng(8000 + n_states)
    market = DiscreteMarket.from_dict(random_market_dict(rng, n_states, 3))
    again = DiscreteMarket(market.states)
    for name in STACKS:
        assert_same_bits(getattr(again, name), getattr(market, name))
    assert q_of(again).hex() == q_of(market).hex()


def rebuilt_merge(market, subset):
    """The merged market rebuilt by ``from_arrays`` from the merged arrays:
    every state checked again, the merged state's moments by ``math.fsum``
    and given by its second moment, so its covariance is A_m - mu_m mu_m'."""
    idx = sorted(set(subset))
    p_m, by_second, _ = merged_pairs(market, subset)
    given = market.second_supplied
    mats = np.where(given[:, None, None], market.second_moment, market.sigma)
    arrays = [np.delete(a, idx[1:], axis=0) for a in (market.probs, market.mu, mats, given)]
    for a, merged in zip(arrays, (p_m, by_second.mu, by_second.second_moment, True)):
        a[idx[0]] = merged
    return DiscreteMarket.from_arrays(*arrays)


def test_merge_equals_the_market_rebuilt_from_merged_arrays():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        s = data.draw(st.integers(2, 12), label="states")
        n = data.draw(st.integers(1, 4), label="assets")
        seed = data.draw(st.integers(0, 0xFFFF_FFFF), label="seed")
        market = DiscreteMarket.from_dict(random_market_dict(np.random.default_rng(seed), s, n))
        subset = data.draw(st.one_of(
            st.permutations(range(s)),
            st.just([s - 1, 0, s - 1]),
            st.lists(st.integers(0, s - 1), min_size=2, max_size=2 * s),
        ).filter(lambda sub: len(set(sub)) > 1), label="subset")
        merged, delta_q = merge_states(market, subset)
        want = rebuilt_merge(market, subset)
        # the merged row's Sigma side is the oracle's covariance pair, not
        # the rebuilt A_m - mu_m mu_m', and the row is given by it; every
        # other row and stack is the rebuilt market's
        _, by_second, by_sigma = merged_pairs(market, subset)
        sigma_side = {"sigma": by_sigma.sigma, "chol_sigma": by_sigma.chol_sigma,
                      "second_supplied": False, **merged_solves(by_second, by_sigma)}
        k = min(subset)
        for name in STACKS:
            rows = np.array(getattr(want, name))
            if name in sigma_side:
                rows[k] = sigma_side[name]
            assert_same_bits(getattr(merged, name), rows)
        assert q_of(merged).hex() == q_of(want).hex()
        assert delta_q.hex() == residual_delta_q(market, subset, by_second, by_sigma).hex()

    check()


def residual_delta_q(market, subset, by_second, by_sigma):
    """delta_q by its residual formula, one state at a time in Python
    floats, every sum over assets in index order: x_m and 1 - c_m =
    1 / (1 + zeta_m^2) from the merged pairs, r_s = (mu_s - mu_m)(1 - c_m)
    - mu_s (mu_s - mu_m)' x_m - (Sigma_s - Sigma_m) x_m, y_s = inv(L_s) r_s
    by forward substitution, and -sum_s p_s ||y_s||^2 by math.fsum."""
    x_m = smm_direction(by_second).tolist()
    one_minus_c = 1.0 / (1.0 + conditional_sharpe_sq(by_sigma))
    mu_m, sigma_m = by_second.mu.tolist(), by_sigma.sigma.tolist()
    n = len(x_m)
    terms = []
    for s in sorted(set(subset)):
        mu, sigma = market.mu[s].tolist(), market.sigma[s].tolist()
        lower = market.chol_second[s].tolist()
        d = [a - b for a, b in zip(mu, mu_m)]
        t = d[0] * x_m[0]
        for j in range(1, n):
            t += d[j] * x_m[j]
        y = []
        for i in range(n):
            dx = (sigma[0][i] - sigma_m[0][i]) * x_m[0]
            for j in range(1, n):
                dx += (sigma[j][i] - sigma_m[j][i]) * x_m[j]
            r = (d[i] * one_minus_c - mu[i] * t) - dx
            for j in range(i):
                r -= lower[i][j] * y[j]
            y.append(r / lower[i][i])
        norm = y[0] * y[0]
        for i in range(1, n):
            norm += y[i] * y[i]
        terms.append(float(market.probs[s]) * norm)
    return -math.fsum(terms)


def test_merged_state_failing_the_pivot_test_raises_as_a_rebuild_does():
    # each state's sigma has pivot ratio 2 (1 - r) = 1.5 PIVOT_RTOL. The means
    # (1, 1) +/- (0.5, -0.5) differ along (1, 1), so the merged sigma gains
    # [[1, 1], [1, 1]], which halves its ratio; each state's A also gains a
    # part along (1, -1), which keeps it well clear of the tolerance
    r = 1.0 - 0.75 * PIVOT_RTOL
    sigma = [[1.0, r], [r, 1.0]]
    market = DiscreteMarket.from_arrays([0.5, 0.5], [[1.5, 0.5], [-0.5, -1.5]],
                                        [sigma, sigma], [False, False])
    with pytest.raises(NotPositiveDefinite) as want:
        rebuilt_merge(market, [0, 1])
    with pytest.raises(NotPositiveDefinite) as got:
        merge_states(market, [0, 1])
    assert str(got.value) == str(want.value) == (
        "sigma is numerically singular (pivot below tolerance)")


# --- factor layout -------------------------------------------------------


def markets_by_constructor():
    data = random_market_dict(np.random.default_rng(31), 9, 3)
    market = DiscreteMarket.from_dict(data)
    return {
        "from_dict": market,
        "from_arrays": DiscreteMarket.from_arrays(*market_arrays(data)),
        "states": DiscreteMarket(market.states),
        "merge_states": merge_states(market, [6, 1, 4])[0],
    }


@pytest.mark.parametrize("name", ["chol_sigma", "chol_second"])
@pytest.mark.parametrize("how", ["from_dict", "from_arrays", "states", "merge_states"])
def test_factors_are_stored_state_last_and_read_uncopied(monkeypatch, how, name):
    market = markets_by_constructor()[how]
    chol = getattr(market, name)
    s, n = market.n_states, market.n_assets
    assert chol.shape == (s, n, n) and not chol.flags.writeable
    assert np.moveaxis(chol, 0, -1).flags.c_contiguous
    with pytest.raises(ValueError):
        chol[0, 0, 0] = 1.0
    assert np.shares_memory(smmport.moments._state_last(chol), chol)
    # every row the substitutions and products read is the market's own
    read = []

    def spy(inner):
        return lambda a, *args, **kwargs: read.append(a) or inner(a, *args, **kwargs)

    for helper in ("_forward", "_backward", "_dot"):
        monkeypatch.setattr(smmport.moments, helper, spy(getattr(smmport.moments, helper)))
    smmport.moments._solve(chol, market.mu)
    assert len(read) == 3 and all(np.shares_memory(a, chol) for a in read[::2])
    read.clear()
    smmport.moments._products(chol, market.smm_directions)
    assert len(read) == 1 and np.shares_memory(read[0], chol)


# --- per-state products --------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_products_of_a_state_keep_their_bits_in_any_stack(seed):
    """Each state's a_s' b_s, for every pair of shapes _products takes, has
    the same bits alone as in a stack of up to 60 states; a Gram stack of
    a with itself is exactly symmetric."""
    rng = np.random.default_rng([33, seed])
    s, n = int(rng.integers(2, 61)), int(rng.integers(1, 8))
    m, l = (int(k) for k in rng.integers(1, 4, size=2))
    vec, mat = rng.standard_normal((s, n)), rng.standard_normal((s, n, m))
    pairs = [(vec, rng.standard_normal((s, n))), (mat, vec),
             (vec, rng.standard_normal((s, n, l))), (mat, rng.standard_normal((s, n, l))),
             (mat, mat)]
    for a, b in pairs:
        stacked = smmport.moments._products(a, b)
        for k in range(s):
            assert_same_bits(smmport.moments._products(a[k:k + 1], b[k:k + 1])[0], stacked[k])
    gram = smmport.moments._products(mat, mat)
    assert np.array_equal(gram, np.swapaxes(gram, 1, 2))
