"""Discrete-feature markets and policy evaluation.

A market is a finite set of S states, each carrying a probability and a
conditional moment pair over n assets. It is stored as stacked,
read-only arrays: ``probs`` (S,), ``mu`` (S, n), and ``sigma``,
``second_moment`` and their lower Cholesky factors (S, n, n), each
factor from one batched factorization. At construction the market also
solves, once and batched over states, the per-state quantities that
every operation reuses: ``smm_directions`` inv(A_s) mu_s,
``markowitz_directions`` inv(Sigma_s) mu_s, ``conditional_q``
mu_s' inv(A_s) mu_s and ``conditional_sharpe_sq`` mu_s' inv(Sigma_s) mu_s.

A policy assigns an asset-weight vector to every state, stored as one
(S, n) array. Unconditional moments of a policy are probability-weighted
sums of per-state terms. Every sum across states is ``math.fsum`` of the
terms, so it is correctly rounded and does not depend on the order of
the states or on BLAS threading.
"""

from __future__ import annotations

import math
import numbers
import warnings
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateMarket,
    DimensionMismatch,
    DomainError,
    InvalidSubset,
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
    _pair_stacks,
    _tri_solve,
    scaling_constant,
)

PROB_SUM_TOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)

# Maximum tolerated disagreement between the two q formulas.
Q_CONSISTENCY_TOL = 1e-10

# Per-state arrays of a market, each with the state axis first.
_STACKS = (
    "mu", "sigma", "second_moment", "chol_sigma", "chol_second",
    "second_supplied", "smm_directions", "markowitz_directions",
    "conditional_q", "conditional_sharpe_sq",
)


def _fsum_states(terms: np.ndarray):
    """Correctly rounded sum of ``terms`` over its leading (state) axis."""
    if terms.ndim == 1:
        return math.fsum(terms.tolist())
    columns = terms.reshape(terms.shape[0], -1).T.tolist()
    return np.array([math.fsum(c) for c in columns]).reshape(terms.shape[1:])


def _float_rows(rows) -> np.ndarray | None:
    """``rows`` as a new float64 array, or None if ragged or not numeric."""
    try:
        return np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def _state_solves(mu, chol_sigma, chol_second) -> dict:
    """Directions and squared ratios of every state, batched over states."""
    out = {}
    for direction, ratio, lower in (
        ("markowitz_directions", "conditional_sharpe_sq", chol_sigma),
        ("smm_directions", "conditional_q", chol_second),
    ):
        y = _tri_solve(lower, mu[..., None])
        out[direction] = np.linalg.solve(np.swapaxes(lower, -1, -2), y)[..., 0]
        out[ratio] = np.einsum("si,si->s", y[..., 0], y[..., 0])
    return out


def _check_probs(probs: np.ndarray) -> None:
    bad = ~((probs > 0.0) & (probs <= 1.0 + PROB_SUM_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"state {i}: probability {float(probs[i])} outside (0, 1]")
    # fsum rounds once; the S * eps allowance covers probabilities
    # normalized by a naively accumulated total.
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > max(PROB_SUM_TOL, probs.size * _EPS):
        raise DomainError(f"state probabilities sum to {total!r}, not 1")


def _parse(raw: list) -> tuple[np.ndarray, dict, np.ndarray]:
    """Probabilities, validated stacks and per-state asymmetry of raw JSON
    states. Raises the error of the first failing check, naming no state."""
    try:
        given = np.array(["second_moment" in e for e in raw])
        probs = [e["prob"] for e in raw]
        mu = _float_rows([e["mu"] for e in raw])
        mats = _float_rows([
            e["second_moment"] if s else e["sigma"] for e, s in zip(raw, given.tolist())
        ])
    except (TypeError, KeyError):
        raise DomainError('needs "prob", "mu", and "sigma" or "second_moment"') from None
    # np.array would read None as NaN and a numeric string as its value;
    # checking each distinct type once keeps this off the per-state path
    types = set(map(type, probs))
    if not all(issubclass(t, numbers.Real) and t is not bool for t in types):
        raise DomainError("prob must be a number")
    if mu is None or mu.ndim != 2 or not mu.shape[1]:
        raise DimensionMismatch("mu must be a nonempty vector as long as state 0's")
    if mats is None or mats.shape != mu.shape + mu.shape[1:]:
        n = mu.shape[1]
        # in a replay the last state is the one under test
        raise DomainError(f"{'second_moment' if given[-1] else 'sigma'} must be {n}x{n}")
    return (np.array(probs, dtype=np.float64), *_pair_stacks(mu, mats, given))


class DiscreteMarket:
    """Finite feature distribution: S states of (probability, moment pair),
    held as stacked read-only arrays with the state axis first.

    ``second_supplied`` marks the states given by their second moment
    rather than their covariance, so ``to_dict`` keeps each state's
    parameterization. ``states`` and ``moments`` are per-state
    ``MomentPair`` views, built on first access.
    """

    __slots__ = ("probs",) + _STACKS + ("_states",)

    def __init__(self, states: Iterable[tuple[float, MomentPair]]):
        states = tuple((float(p), m) for p, m in states)
        if not states:
            raise DomainError("market needs at least one state")
        pairs = [m for _, m in states]
        bad = [i for i, m in enumerate(pairs) if not isinstance(m, MomentPair)]
        if bad:
            raise DomainError(f"state {bad[0]}: moments must be a MomentPair")
        probs = np.array([p for p, _ in states])
        _check_probs(probs)
        sizes = np.array([m.n for m in pairs])
        if (sizes != sizes[0]).any():
            i = int(np.argmax(sizes != sizes[0]))
            raise DimensionMismatch(f"state {i} has {sizes[i]} assets, expected {sizes[0]}")
        stacks = {
            name: np.stack([getattr(m, name) for m in pairs])
            for name in ("mu", "sigma", "second_moment", "chol_sigma", "chol_second")
        }
        stacks["second_supplied"] = np.array([m.supplied == "second_moment" for m in pairs])
        self._assign(probs, stacks)
        self._states = states

    def _assign(self, probs: np.ndarray, stacks: dict) -> None:
        if "conditional_q" not in stacks:
            stacks.update(_state_solves(
                stacks["mu"], stacks["chol_sigma"], stacks["chol_second"]
            ))
        self.probs = _lock(probs)
        for name in _STACKS:
            setattr(self, name, _lock(stacks[name]))
        self._states = None

    @classmethod
    def _from_stacks(cls, probs: np.ndarray, stacks: dict) -> "DiscreteMarket":
        _check_probs(probs)
        market = cls.__new__(cls)
        market._assign(probs, stacks)
        return market

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_assets(self) -> int:
        return self.mu.shape[1]

    @property
    def states(self) -> tuple[tuple[float, MomentPair], ...]:
        """(probability, MomentPair) per state; a view built on first access."""
        if self._states is None:
            supplied = np.where(self.second_supplied, "second_moment", "sigma")
            self._states = tuple(
                (p, MomentPair._from_parts(*parts))
                for p, *parts in zip(
                    self.probs.tolist(), self.mu, self.sigma, self.second_moment,
                    supplied.tolist(), self.chol_sigma, self.chol_second,
                )
            )
        return self._states

    @property
    def moments(self) -> tuple[MomentPair, ...]:
        return tuple(m for _, m in self.states)

    def __repr__(self) -> str:
        return f"DiscreteMarket(n_states={self.n_states}, n_assets={self.n_assets})"

    def to_dict(self) -> dict:
        """JSON-ready form. Each state is emitted in the parameterization
        it was constructed from."""
        given = self.second_supplied
        keys = np.where(given, "second_moment", "sigma").tolist()
        mats = np.where(given[:, None, None], self.second_moment, self.sigma).tolist()
        return {"states": [
            {"prob": p, "mu": mu, key: mat}
            for p, mu, key, mat in zip(self.probs.tolist(), self.mu.tolist(), keys, mats)
        ]}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMarket":
        """Parse ``{"states": [{"prob", "mu", "sigma"|"second_moment"}, ...]}``.

        All states are validated and factorized at once, by one parse
        and the batched check of :mod:`smmport.moments`. If that fails,
        each state is replayed through the same parse together with state
        0 (so its width is checked against state 0's), and the first
        failure is raised again as ``state i: ...``. Warns once for each
        asymmetric matrix, naming its state.
        """
        if not isinstance(data, dict) or "states" not in data:
            raise DomainError('market JSON must be an object with a "states" list')
        raw = data["states"]
        if not isinstance(raw, list) or not raw:
            raise DomainError('"states" must be a nonempty list')
        try:
            probs, stacks, asymmetry = _parse(raw)
        except SmmError:
            for i, entry in enumerate(raw):
                try:
                    _parse([raw[0], entry])
                except SmmError as exc:
                    raise type(exc)(f"state {i}: {exc}") from None
            raise
        for i in np.flatnonzero(asymmetry).tolist():
            name = "second_moment" if stacks["second_supplied"][i] else "sigma"
            warnings.warn(
                f"state {i}: {name} deviates from symmetry by {asymmetry[i]:.3e}; "
                "symmetrizing",
                stacklevel=2,
            )
        return cls._from_stacks(probs, stacks)


class Policy:
    """Per-state asset weight vectors, held as one read-only (S, n) array."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = _vector_rows(weights, "weights")

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    def scaled(self, c: float) -> "Policy":
        return Policy(c * self.weights)

    def as_matrix(self) -> np.ndarray:
        return self.weights.copy()

    def __repr__(self) -> str:
        return f"Policy(n_states={self.n_states})"


def _vector_rows(rows, name: str) -> np.ndarray:
    """``rows``, one vector per state, as a new read-only (S, n) array.

    A ragged or non-finite input raises an error naming ``name`` and its
    first bad state.
    """
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    w = _float_rows(rows)
    if w is not None and w.ndim == 2 and w.shape[0] and np.isfinite(w).all():
        return _lock(w)
    for i, r in enumerate(rows):
        v = np.asarray(r, dtype=np.float64)
        if v.ndim != 1 or v.shape != np.shape(rows[0]):
            raise DimensionMismatch(f"{name}: state {i}: not a vector as long as state 0's")
        if not np.isfinite(v).all():
            raise DomainError(f"{name}: state {i}: non-finite entries")
    raise DomainError(f"{name}: needs at least one state")


def _check_dims(market: DiscreteMarket, policy: Policy) -> None:
    if policy.n_states != market.n_states:
        raise DimensionMismatch(
            f"policy has {policy.n_states} states, market has {market.n_states}"
        )
    size = policy.weights.shape[1]
    if size != market.n_assets:
        raise DimensionMismatch(
            f"state 0: policy has {size} assets, market has {market.n_assets}"
        )


def evaluate(market: DiscreteMarket, policy: Policy, rfr: float = 0.0) -> PerfSummary:
    """Unconditional performance of ``policy`` on ``market``.

    mean = sum_s p_s mu_s' w_s and second moment = sum_s p_s w_s' A_s w_s;
    the quadratic form is computed through the Cholesky factor of A_s so
    it is nonnegative by construction.
    """
    _check_dims(market, policy)
    w = policy.weights
    y = np.einsum("sji,sj->si", market.chol_second, w)
    mean = _fsum_states(market.probs * np.einsum("si,si->s", market.mu, w))
    second = _fsum_states(market.probs * np.einsum("si,si->s", y, y))
    return PerfSummary(mean=mean, second_moment=second, rfr=float(rfr))


def q_of(market: DiscreteMarket) -> float:
    """Squared unconditional Hansen ratio of the optimal policy.

    Computed as sum_s p_s mu_s' inv(A_s) mu_s and cross-checked against
    the rank-one-update form 1 - sum_s p_s / (1 + mu_s' inv(Sigma_s) mu_s);
    disagreement beyond tolerance signals a numerically inconsistent
    market and raises.
    """
    p = market.probs
    direct = _fsum_states(p * market.conditional_q)
    alt = 1.0 - _fsum_states(p / (1.0 + market.conditional_sharpe_sq))
    if abs(direct - alt) > Q_CONSISTENCY_TOL:
        raise SmmError(
            f"internal: q formulas disagree ({direct!r} vs {alt!r})"
        )
    return direct


def smm_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Optimal policy: per-state direction inv(A_s) mu_s, one overall scale."""
    c = scaling_constant(q_of(market), objective)
    return Policy(c * market.smm_directions)


def markowitz_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Conditional covariance-direction policy inv(Sigma_s) mu_s with a
    single state-independent scale chosen optimally for ``objective``.

    Suboptimal in general: it misses the per-state down-levering of the
    second-moment direction. With zeta_s^2 = mu_s' inv(Sigma_s) mu_s, the
    unit policy has mean E[zeta^2] and second moment E[zeta^2 (1 + zeta^2)].
    """
    z = market.conditional_sharpe_sq
    summary = PerfSummary(
        mean=_fsum_states(market.probs * z),
        second_moment=_fsum_states(market.probs * z * (1.0 + z)),
    )
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
    return Policy(c * market.markowitz_directions)


def merge_states(
    market: DiscreteMarket, subset: Iterable[int]
) -> tuple[DiscreteMarket, float]:
    """Coarsen the market by merging the states in ``subset``, which holds
    Python or numpy integers (not bools).

    The merged state carries the probability-weighted mean and second
    moment of its members (second moments, not covariances, are affine in
    the mixture); its covariance is recovered as A - mu mu'. The merged
    state is placed at the smallest merged index; the other states keep
    their already validated arrays. Returns the new market and
    delta_q = q(merged) - q(original), which is never positive.
    """
    subset = list(subset)
    bad = [i for i in subset
           if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer))]
    if bad:
        raise InvalidSubset(f"subset index {bad[0]!r} is not an integer")
    idx = sorted(set(int(i) for i in subset))
    if len(idx) < 2:
        raise InvalidSubset("need at least two distinct states to merge")
    if idx[0] < 0 or idx[-1] >= market.n_states:
        raise InvalidSubset(
            f"subset {idx} out of range for {market.n_states} states"
        )
    p = market.probs[idx]
    p_merged = 1.0 if len(idx) == market.n_states else math.fsum(p.tolist())
    mu_acc = _fsum_states(p[:, None] * market.mu[idx])
    a_acc = _fsum_states(p[:, None, None] * market.second_moment[idx])
    merged = DiscreteMarket([(1.0, MomentPair.from_second_moment(
        mu_acc / p_merged, a_acc / p_merged
    ))])

    drop = idx[1:]
    stacks = {}
    for name in _STACKS:
        stacks[name] = np.delete(getattr(market, name), drop, axis=0)
        stacks[name][idx[0]] = getattr(merged, name)[0]
    probs = np.delete(market.probs, drop)
    probs[idx[0]] = p_merged
    new_market = DiscreteMarket._from_stacks(probs, stacks)
    return new_market, q_of(new_market) - q_of(market)
