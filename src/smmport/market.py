"""Discrete-feature markets and policy evaluation.

A market is a finite set of S states, each carrying a probability and a
conditional moment pair over n assets. Every market, whether read from
JSON, given as ``MomentPair`` states or merged, is built from copies of
its inputs by the checks of ``DiscreteMarket.from_arrays``, which check
all states at once (:func:`smmport.moments._pair_stacks`), and is stored
as stacked, read-only arrays: ``probs`` (S,), ``mu`` (S, n), and ``sigma``,
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
    _back_solve,
    _finite_scale,
    _floats,
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
    "probs", "mu", "sigma", "second_moment", "chol_sigma", "chol_second",
    "second_supplied", "smm_directions", "markowitz_directions",
    "conditional_q", "conditional_sharpe_sq",
)


def _fsum_states(terms: np.ndarray):
    """Correctly rounded sum of ``terms`` over its leading (state) axis."""
    if terms.ndim == 1:
        return math.fsum(terms.tolist())
    columns = terms.reshape(terms.shape[0], -1).T.tolist()
    return np.array([math.fsum(c) for c in columns]).reshape(terms.shape[1:])


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


def _probability(i: int, p) -> float:
    """State ``i``'s probability ``p`` as a float, or a :class:`DomainError`
    naming the state if ``p`` is not a number."""
    try:
        return float(p)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"state {i}: probability must be a number") from None


def _parse(raw: list) -> tuple[list, list, list, np.ndarray]:
    """Probabilities, mean rows, matrix rows and ``second_supplied`` of raw
    JSON states. Raises the error of the first failing check, naming no state."""
    try:
        given = np.array(["second_moment" in e for e in raw])
        probs = [e["prob"] for e in raw]
        mu = [e["mu"] for e in raw]
        mats = [e["second_moment"] if s else e["sigma"] for e, s in zip(raw, given.tolist())]
    except (TypeError, KeyError):
        raise DomainError('needs "prob", "mu", and "sigma" or "second_moment"') from None
    # np.array would read None as NaN and a numeric string as its value;
    # checking each distinct type once keeps this off the per-state path
    types = set(map(type, probs))
    if not all(issubclass(t, numbers.Real) and t is not bool for t in types):
        raise DomainError("prob must be a number")
    return probs, mu, mats, given


def _state_stacks(probs, mu, mats, second_supplied) -> tuple[dict, np.ndarray]:
    """Every check of a market's states, on new arrays copied from the
    inputs: shapes, then :func:`moments._pair_stacks`. Returns the stacks,
    ``probs`` among them, and each state's asymmetry; the first failing
    check raises, naming no state."""
    probs, mu, mats = map(_floats, (probs, mu, mats))
    given = np.array(second_supplied)
    if (probs is None or probs.ndim != 1 or not probs.size
            or given.shape != probs.shape or given.dtype != bool):
        raise DimensionMismatch("probs and second_supplied must be nonempty, one per state")
    if mu is None or mu.ndim != 2 or not mu.shape[1]:
        raise DimensionMismatch("mu must be a nonempty vector as long as state 0's")
    if len(mu) != len(probs):
        raise DimensionMismatch(f"mu has {len(mu)} rows for {len(probs)} states")
    if mats is None or mats.shape != mu.shape + mu.shape[1:]:
        n = mu.shape[1]
        # when a bad state is being named, it is the last state parsed
        raise DomainError(f"{'second_moment' if given[-1] else 'sigma'} must be {n}x{n}")
    stacks, asymmetry = _pair_stacks(mu, mats, given)
    stacks["probs"] = probs
    return stacks, asymmetry


class DiscreteMarket:
    """Finite feature distribution: S states of (probability, moment pair),
    held as stacked read-only arrays with the state axis first.

    ``second_supplied`` marks the states given by their second moment
    rather than their covariance, so ``to_dict`` keeps each state's
    parameterization. ``states`` and ``moments`` are per-state
    ``MomentPair`` views, built on first access.
    """

    __slots__ = _STACKS + ("_states",)

    def __init__(self, states: Iterable[tuple[float, MomentPair]]):
        states = tuple((_probability(i, p), m) for i, (p, m) in enumerate(states))
        if not states:
            raise DomainError("market needs at least one state")
        pairs = [m for _, m in states]
        for i, m in enumerate(pairs):
            if not isinstance(m, MomentPair):
                raise DomainError(f"state {i}: moments must be a MomentPair")
            if m.n != pairs[0].n:
                raise DimensionMismatch(f"state {i} has {m.n} assets, expected {pairs[0].n}")
        given = [m.supplied == "second_moment" for m in pairs]
        mats = [m.second_moment if g else m.sigma for m, g in zip(pairs, given)]
        market = self.from_arrays([p for p, _ in states], [m.mu for m in pairs], mats, given)
        for name in self.__slots__:
            setattr(self, name, getattr(market, name))
        self._states = states

    @classmethod
    def from_arrays(cls, probs, mu, mats, second_supplied) -> "DiscreteMarket":
        """Build a market from ``probs`` (S,), ``mu`` (S, n), ``mats``
        (S, n, n) and bools ``second_supplied`` (S,), where ``mats[s]`` is
        state s's second moment if ``second_supplied[s]``, else its
        covariance. The inputs are copied, never locked or shared. State
        checks run before probability checks; the first to fail raises.
        Warns for each asymmetric matrix, naming its state, and solves
        every state once, batched."""
        return cls._from_stacks(*_state_stacks(probs, mu, mats, second_supplied))

    @classmethod
    def _from_stacks(cls, stacks: dict, asymmetry: np.ndarray) -> "DiscreteMarket":
        """The market of stacks that passed :func:`_state_stacks`: checks
        the probabilities, warns, solves and locks. Every constructor ends
        here."""
        _check_probs(stacks["probs"])
        for i in np.flatnonzero(asymmetry).tolist():
            name = "second_moment" if stacks["second_supplied"][i] else "sigma"
            warnings.warn(f"state {i}: {name} deviates from symmetry by "
                          f"{asymmetry[i]:.3e}; symmetrizing", stacklevel=3)
        for direction, ratio, lower in (
            ("markowitz_directions", "conditional_sharpe_sq", stacks["chol_sigma"]),
            ("smm_directions", "conditional_q", stacks["chol_second"]),
        ):
            y = _tri_solve(lower, stacks["mu"])
            stacks[direction] = _back_solve(lower, y)
            stacks[ratio] = np.einsum("si,si->s", y, y)
        market = cls.__new__(cls)
        for name in _STACKS:
            setattr(market, name, _lock(stacks[name]))
        market._states = None
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
        """Parse ``{"states": [{"prob", "mu", "sigma"|"second_moment"}, ...]}``
        and build the market as :meth:`from_arrays` does. If a state check
        fails, bisection finds the first bad state: each probe runs the
        state checks on state 0 (so widths are checked against state 0's)
        and the left half of the remaining range, and the half that fails
        is kept, down to one state, whose error is raised again as
        ``state i: ...``. The probability checks run after the state
        checks and raise at once."""
        if not isinstance(data, dict) or "states" not in data:
            raise DomainError('market JSON must be an object with a "states" list')
        raw = data["states"]
        if not isinstance(raw, list) or not raw:
            raise DomainError('"states" must be a nonempty list')
        try:
            checked = _state_stacks(*_parse(raw))
        except SmmError:
            lo, hi = 0, len(raw)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    _state_stacks(*_parse([raw[0], *raw[lo:mid]]))
                    lo = mid
                except SmmError:
                    hi = mid
            try:
                _state_stacks(*_parse([raw[0], raw[lo]]))
            except SmmError as exc:
                raise type(exc)(f"state {lo}: {exc}") from None
            raise
        return cls._from_stacks(*checked)


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

    A non-sequence, or a ragged, non-numeric or non-finite state, raises an
    error naming ``name`` and the first bad state; a generator is read once.
    """
    try:
        rows = rows if isinstance(rows, np.ndarray) and rows.ndim else list(rows)
    except TypeError:
        raise DomainError(f"{name}: needs one vector per state") from None
    w = _floats(rows)
    if w is not None and w.ndim == 2 and w.shape[0] and np.isfinite(w).all():
        return _lock(w)
    for i, r in enumerate(rows):
        v = _floats(r)
        if v is None or v.ndim != 1 or v.shape != np.shape(rows[0]):
            raise DimensionMismatch(f"{name}: state {i}: not a vector as long as state 0's")
        if not np.isfinite(v).all():
            raise DomainError(f"{name}: state {i}: non-finite entries")
    raise DomainError(f"{name}: needs at least one state")


def _per_state_vectors(x, market: DiscreteMarket, name: str) -> np.ndarray:
    """Read-only (S, n) array from a Policy or a sequence of per-state
    vectors, one per state of ``market`` and as long as its asset count."""
    v = x.weights if isinstance(x, Policy) else _vector_rows(x, name)
    if v.shape != (market.n_states, market.n_assets):
        raise DimensionMismatch(
            f"{name} is {v.shape[0]} states of {v.shape[1]} assets, market has "
            f"{market.n_states} of {market.n_assets}"
        )
    return v


def evaluate(market: DiscreteMarket, policy: Policy, rfr: float = 0.0) -> PerfSummary:
    """Unconditional performance of ``policy`` on ``market``.

    mean = sum_s p_s mu_s' w_s and second moment = sum_s p_s w_s' A_s w_s;
    the quadratic form is computed through the Cholesky factor of A_s so
    it is nonnegative by construction. A second moment that overflows
    raises :class:`DomainError`.
    """
    w = _per_state_vectors(policy, market, "policy")
    y = np.einsum("sji,sj->si", market.chol_second, w)
    second = _fsum_states(market.probs * np.einsum("si,si->s", y, y))
    if not math.isfinite(second):
        raise DomainError("the policy's second moment overflows: its weights are too large")
    # |mu_s' w_s| <= sqrt(w_s' A_s w_s), so the mean is finite too
    mean = _fsum_states(market.probs * np.einsum("si,si->s", market.mu, w))
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
        c = _finite_scale(objective.risk_budget / summary.risk, objective)
    elif isinstance(objective, MeanVariance):
        if summary.variance == 0.0:
            raise DegenerateMarket("unit covariance policy has zero variance")
        # dividing first: mean / (2 variance) is at most 1/2, and
        # risk_param * mean alone can overflow while the scale does not
        c = _finite_scale(
            objective.risk_param * (summary.mean / (2.0 * summary.variance)), objective
        )
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
    the mixture); its covariance is recovered as A - mu mu'. It is placed
    at the smallest merged index, and :meth:`DiscreteMarket.from_arrays`
    checks the other states again, which keeps their bits. Returns the new
    market and delta_q = q(merged) - q(original), which is never positive.
    """
    subset = list(subset)
    # checking each distinct type once keeps this off the per-index path
    types = set(map(type, subset))
    bad = [t for t in types if not issubclass(t, (int, np.integer)) or t is bool]
    if bad:
        first = next(i for i in subset if type(i) in bad)
        raise InvalidSubset(f"subset index {first!r} is not an integer")
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
    given = market.second_supplied
    mats = np.where(given[:, None, None], market.second_moment, market.sigma)
    arrays = [np.delete(a, idx[1:], axis=0) for a in (market.probs, market.mu, mats, given)]
    for a, merged in zip(arrays, (p_merged, mu_acc / p_merged, a_acc / p_merged, True)):
        a[idx[0]] = merged
    new_market = DiscreteMarket.from_arrays(*arrays)
    return new_market, q_of(new_market) - q_of(market)
