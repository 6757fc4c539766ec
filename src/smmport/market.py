"""Discrete-feature markets and policy evaluation.

A market is a finite set of states, each carrying a probability and a
:class:`MomentPair`. A policy assigns an asset-weight vector to every
state. Unconditional moments of a policy are probability-weighted sums
of the conditional ones, accumulated in fixed state order so results are
bit-stable.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateMarket,
    DimensionMismatch,
    DomainError,
    InvalidSubset,
    NotPositiveDefinite,
    SmmError,
)
from .moments import (
    Kelly,
    MeanVariance,
    MomentPair,
    Objective,
    PerfSummary,
    SharpeBudget,
    _lock,
    conditional_q,
    conditional_sharpe_sq,
    scaling_constant,
    smm_direction,
    markowitz_direction,
)

PROB_SUM_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)

# Maximum tolerated disagreement between the two q formulas.
Q_CONSISTENCY_TOL = 1e-10


class DiscreteMarket:
    """Finite feature distribution: states of (probability, MomentPair)."""

    __slots__ = ("states", "n_assets")

    def __init__(self, states: Iterable[tuple[float, MomentPair]]):
        states = tuple((float(p), m) for p, m in states)
        if not states:
            raise DomainError("market needs at least one state")
        for i, (p, m) in enumerate(states):
            if not isinstance(m, MomentPair):
                raise DomainError(f"state {i}: moments must be a MomentPair")
            if not 0.0 < p <= 1.0 + PROB_SUM_TOL:
                raise DomainError(f"state {i}: probability {p} outside (0, 1]")
        # fsum rounds once; the S * eps allowance covers probabilities
        # normalized by a naively accumulated total.
        total = math.fsum(p for p, _ in states)
        if abs(total - 1.0) > max(PROB_SUM_TOL, len(states) * _EPS):
            raise DomainError(f"state probabilities sum to {total!r}, not 1")
        n = states[0][1].n
        for i, (_, m) in enumerate(states):
            if m.n != n:
                raise DimensionMismatch(
                    f"state {i} has {m.n} assets, expected {n}"
                )
        self.states = states
        self.n_assets = n

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for p, _ in self.states])

    @property
    def moments(self) -> tuple[MomentPair, ...]:
        return tuple(m for _, m in self.states)

    def __repr__(self) -> str:
        return f"DiscreteMarket(n_states={self.n_states}, n_assets={self.n_assets})"

    def to_dict(self) -> dict:
        """JSON-ready form. Each state is emitted in the parameterization
        it was constructed from."""
        out = []
        for p, m in self.states:
            state: dict = {"prob": p, "mu": m.mu.tolist()}
            if m.supplied == "second_moment":
                state["second_moment"] = m.second_moment.tolist()
            else:
                state["sigma"] = m.sigma.tolist()
            out.append(state)
        return {"states": out}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMarket":
        """Parse ``{"states": [{"prob", "mu", "sigma"|"second_moment"}, ...]}``.

        Numerical failures are re-raised naming the offending state.
        """
        if not isinstance(data, dict) or "states" not in data:
            raise DomainError('market JSON must be an object with a "states" list')
        raw = data["states"]
        if not isinstance(raw, list) or not raw:
            raise DomainError('"states" must be a nonempty list')
        states = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "prob" not in entry or "mu" not in entry:
                raise DomainError(f'state {i}: needs "prob" and "mu"')
            try:
                if "second_moment" in entry:
                    pair = MomentPair.from_second_moment(
                        entry["mu"], entry["second_moment"]
                    )
                elif "sigma" in entry:
                    pair = MomentPair.from_covariance(entry["mu"], entry["sigma"])
                else:
                    raise DomainError('needs "sigma" or "second_moment"')
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(f"state {i}: {exc}") from None
            except DomainError as exc:
                raise DomainError(f"state {i}: {exc}") from None
            states.append((entry["prob"], pair))
        return cls(states)


class Policy:
    """Per-state asset weight vectors."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[np.ndarray]):
        vecs = []
        for i, w in enumerate(weights):
            v = np.ascontiguousarray(w, dtype=np.float64)
            if v.ndim != 1:
                raise DimensionMismatch(f"state {i}: weights must be a vector")
            if not np.all(np.isfinite(v)):
                raise DomainError(f"state {i}: weights have non-finite entries")
            vecs.append(_lock(v))
        if not vecs:
            raise DomainError("policy needs at least one state")
        self.weights = tuple(vecs)

    @property
    def n_states(self) -> int:
        return len(self.weights)

    def scaled(self, c: float) -> "Policy":
        return Policy([c * w for w in self.weights])

    def as_matrix(self) -> np.ndarray:
        return np.vstack(self.weights)

    def __repr__(self) -> str:
        return f"Policy(n_states={self.n_states})"


def _check_dims(market: DiscreteMarket, policy: Policy) -> None:
    if policy.n_states != market.n_states:
        raise DimensionMismatch(
            f"policy has {policy.n_states} states, market has {market.n_states}"
        )
    for i, w in enumerate(policy.weights):
        if w.size != market.n_assets:
            raise DimensionMismatch(
                f"state {i}: policy has {w.size} assets, market has {market.n_assets}"
            )


def evaluate(market: DiscreteMarket, policy: Policy, rfr: float = 0.0) -> PerfSummary:
    """Unconditional performance of ``policy`` on ``market``.

    mean = sum_s p_s mu_s' w_s and second moment = sum_s p_s w_s' A_s w_s;
    the quadratic form is computed through the Cholesky factor of A_s so
    it is nonnegative by construction.
    """
    _check_dims(market, policy)
    mean = 0.0
    second = 0.0
    for (p, m), w in zip(market.states, policy.weights):
        mean += p * float(m.mu @ w)
        y = m.chol_second.T @ w
        second += p * float(y @ y)
    return PerfSummary(mean=mean, second_moment=second, rfr=float(rfr))


def q_of(market: DiscreteMarket) -> float:
    """Squared unconditional Hansen ratio of the optimal policy.

    Computed as sum_s p_s mu_s' inv(A_s) mu_s and cross-checked against
    the rank-one-update form 1 - sum_s p_s / (1 + mu_s' inv(Sigma_s) mu_s);
    disagreement beyond tolerance signals a numerically inconsistent
    market and raises.
    """
    direct = 0.0
    complement = 0.0
    for p, m in market.states:
        direct += p * conditional_q(m)
        complement += p / (1.0 + conditional_sharpe_sq(m))
    alt = 1.0 - complement
    if abs(direct - alt) > Q_CONSISTENCY_TOL:
        raise SmmError(
            f"internal: q formulas disagree ({direct!r} vs {alt!r})"
        )
    return direct


def smm_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Optimal policy: per-state direction inv(A_s) mu_s, one overall scale."""
    q = q_of(market)
    c = scaling_constant(q, objective)
    return Policy([c * smm_direction(m) for _, m in market.states])


def markowitz_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Conditional covariance-direction policy inv(Sigma_s) mu_s with a
    single state-independent scale chosen optimally for ``objective``.

    Suboptimal in general: it misses the per-state down-levering of the
    second-moment direction.
    """
    unit = Policy([markowitz_direction(m) for _, m in market.states])
    summary = evaluate(market, unit)
    if isinstance(objective, SharpeBudget):
        if summary.risk == 0.0:
            raise DegenerateMarket("unit covariance policy has zero risk")
        c = objective.risk_budget / summary.risk
    elif isinstance(objective, MeanVariance):
        if summary.variance == 0.0:
            raise DegenerateMarket("unit covariance policy has zero variance")
        c = objective.risk_param * summary.mean / (2.0 * summary.variance)
    elif isinstance(objective, Kelly):
        if summary.second_moment == 0.0:
            raise DegenerateMarket("unit covariance policy has zero second moment")
        c = summary.mean / summary.second_moment
    else:
        raise DomainError(f"unknown objective {objective!r}")
    return unit.scaled(c)


def merge_states(
    market: DiscreteMarket, subset: Iterable[int]
) -> tuple[DiscreteMarket, float]:
    """Coarsen the market by merging the states in ``subset``.

    The merged state carries the probability-weighted mean and second
    moment of its members (second moments, not covariances, are affine in
    the mixture); its covariance is recovered as A - mu mu'. The merged
    state is placed at the smallest merged index. Returns the new market
    and delta_q = q(merged) - q(original), which is never positive.
    """
    idx = sorted(set(int(i) for i in subset))
    if len(idx) < 2:
        raise InvalidSubset("need at least two distinct states to merge")
    if idx[0] < 0 or idx[-1] >= market.n_states:
        raise InvalidSubset(
            f"subset {idx} out of range for {market.n_states} states"
        )
    chosen = set(idx)
    p_merged = 0.0
    for i in idx:
        p_merged += market.states[i][0]
    if len(idx) == market.n_states:
        p_merged = 1.0
    mu_acc = np.zeros(market.n_assets)
    a_acc = np.zeros((market.n_assets, market.n_assets))
    for i in idx:
        p, m = market.states[i]
        mu_acc += p * m.mu
        a_acc += p * m.second_moment
    merged = MomentPair.from_second_moment(mu_acc / p_merged, a_acc / p_merged)

    new_states: list[tuple[float, MomentPair]] = []
    for i, (p, m) in enumerate(market.states):
        if i == idx[0]:
            new_states.append((p_merged, merged))
        elif i not in chosen:
            new_states.append((p, m))
    new_market = DiscreteMarket(new_states)
    delta_q = q_of(new_market) - q_of(market)
    return new_market, delta_q
