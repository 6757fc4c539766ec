"""Discrete-feature markets and policy evaluation.

A market is a finite set of S states, each carrying a probability and a
conditional moment pair over n assets, stored as stacked, read-only
arrays: ``probs`` (S,), ``mu`` (S, n), and ``sigma``, ``second_moment``
and their lower Cholesky factors (S, n, n). Each state is validated once,
where it enters, by :func:`smmport.moments._pair_stacks`: the states of
``from_arrays`` and ``from_dict`` all at once, a ``MomentPair`` when it is
built (``DiscreteMarket(states)`` stacks the pairs' checked arrays) and a
merged state alone (``merge_states`` keeps the other states' stacks).
Every constructor ends in ``DiscreteMarket._from_stacks``, which checks
the probabilities and solves, once and batched over states (a merge
solves its merged state alone), the per-state quantities that every
operation reuses: ``smm_directions`` inv(A_s) mu_s,
``markowitz_directions`` inv(Sigma_s) mu_s, ``conditional_q``
mu_s' inv(A_s) mu_s and ``conditional_sharpe_sq`` mu_s' inv(Sigma_s) mu_s,
and sums them into q two ways, which must agree (:func:`q_of`).

A policy assigns an asset-weight vector to every state, stored as one
(S, n) array. Unconditional moments of a policy are probability-weighted
sums of per-state terms. Every sum across states is ``moments._fsum``:
correctly rounded, independent of the order of the states and of BLAS
threading, and inf past the float maximum, never an overflow error.
"""

from __future__ import annotations

import math
import numbers
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
    MomentPair,
    Objective,
    PerfSummary,
    _floats,
    _fsum,
    _fsum_symmetric,
    _lock,
    _optimum,
    _pair_stacks,
    _real,
    _solve,
    _warn_asymmetric,
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
# The arrays of a MomentPair, stacked.
_PAIR_STACKS = ("mu", "sigma", "second_moment", "chol_sigma", "chol_second")


def _check_probs(probs: np.ndarray) -> None:
    bad = ~((probs > 0.0) & (probs <= 1.0 + PROB_SUM_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"state {i}: probability {float(probs[i])} outside (0, 1]")
    # fsum rounds once; the S * eps allowance covers probabilities
    # normalized by a naively accumulated total.
    total = _fsum(probs)
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
    # _floats would read None as NaN and True as 1, and reject text without
    # naming prob; checking each distinct type once keeps this off the
    # per-state path
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

    ``DiscreteMarket(states)`` takes (probability, ``MomentPair``) pairs.
    Each pair was checked when it was built, so its arrays are stacked as
    they are, bit for bit, and ``states`` returns the given pairs.
    """

    __slots__ = _STACKS + ("_states", "_q", "_one_minus_q")

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
        # each pair passed _pair_stacks when it was built: stack its arrays
        stacks = {name: np.stack([getattr(m, name) for m in pairs]) for name in _PAIR_STACKS}
        stacks["second_supplied"] = np.array([m.supplied == "second_moment" for m in pairs])
        stacks["probs"] = np.array([p for p, _ in states])
        market = self._from_stacks(stacks, np.zeros(len(pairs)))
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
        """The market of stacks that passed :func:`moments._pair_stacks`,
        with ``probs``: checks the probabilities, warns, solves the states
        unless ``stacks`` holds their solved rows (:func:`_solve_states`),
        checks q (:func:`q_of`) and locks. Every constructor ends here. Its
        1 - q is sum_s p_s / (1 + mu_s' inv(Sigma_s) mu_s) = sum(p) - q: it
        keeps its digits as q nears 1, and is off 1 - q by the sum(p) - 1
        PROB_SUM_TOL allows."""
        _check_probs(stacks["probs"])
        for i in np.flatnonzero(asymmetry).tolist():
            name = "second_moment" if stacks["second_supplied"][i] else "sigma"
            _warn_asymmetric(f"state {i}: {name}", asymmetry[i])
        if "smm_directions" not in stacks:
            stacks.update(_solve_states(stacks))
        p = stacks["probs"]
        q, rest = _fsum(np.stack([
            p * stacks["conditional_q"], p / (1.0 + stacks["conditional_sharpe_sq"]),
        ], axis=1)).tolist()
        alt = 1.0 - rest
        if abs(q - alt) > Q_CONSISTENCY_TOL:
            raise SmmError(f"internal: q formulas disagree ({q!r} vs {alt!r})")
        market = cls.__new__(cls)
        for name in _STACKS:
            setattr(market, name, _lock(stacks[name]))
        market._states, market._q, market._one_minus_q = None, q, rest
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


def _solve_states(stacks: dict) -> dict:
    """The per-state solves of ``stacks``, batched over its states:
    ``smm_directions``, ``markowitz_directions``, ``conditional_q`` and
    ``conditional_sharpe_sq``. A state's rows are the same bits whatever
    other states are solved with it."""
    mu = stacks["mu"]
    solved = {}
    # a state whose mu' inv(Sigma) mu passes the float maximum gets inf
    # here, silently, and adds 0 to 1 - q; the steps that use it name
    # it (_optimum a market with no 1 - q left, markowitz_policy the
    # state's non-finite direction)
    with np.errstate(over="ignore", invalid="ignore"):
        solved["markowitz_directions"], solved["conditional_sharpe_sq"] = _solve(
            stacks["chol_sigma"], mu)
    solved["smm_directions"], solved["conditional_q"] = _solve(stacks["chol_second"], mu)
    return solved


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

    With L_s and K_s the Cholesky factors of A_s and Sigma_s: the mean
    m = sum_s p_s mu_s' w_s, the second moment sum_s p_s ||L_s' w_s||^2, and
    the variance sum_s p_s ||K_s' w_s||^2 + sum_s p_s (mu_s' w_s - m)^2, the
    within-state risk plus the spread of the state means. Every term is
    nonnegative. A second moment that overflows, or an ``rfr`` that is not
    a finite number, raises :class:`DomainError`.
    """
    rfr = _real(rfr, "rfr")
    w = _per_state_vectors(policy, market, "policy")
    second = _second_moment(market, w)
    z = np.einsum("sji,sj->si", market.chol_sigma, w)
    means = np.einsum("si,si->s", market.mu, w)
    p = market.probs
    # |mu_s' w_s| and ||K_s' w_s|| are at most sqrt(w_s' A_s w_s): with
    # every second-moment term finite, so is every term here
    mean, within = _fsum(p[:, None] * np.stack([means, np.einsum("si,si->s", z, z)],
                                               axis=1)).tolist()
    # halved, each spread term is at most the second moment: none overflows
    half = 0.5 * (means - mean)
    variance = within + 4.0 * _fsum(p * half * half)
    return PerfSummary(mean, second, rfr, _variance=variance)


def _second_moment(market: DiscreteMarket, w: np.ndarray) -> float:
    """sum_s p_s ||L_s' w_s||^2 for per-state weights ``w`` (S, n), L_s
    the Cholesky factor of A_s: the second moment of :func:`evaluate`,
    which ``solve_hedge`` takes as q_g. One that overflows raises
    :class:`DomainError`."""
    y = np.einsum("sji,sj->si", market.chol_second, w)
    return _second_moment_sum(market.probs * np.einsum("si,si->s", y, y))


def _second_moment_sum(terms: np.ndarray) -> float:
    """The sum of a policy's per-state second-moment ``terms``; one that
    overflows raises :class:`DomainError`."""
    second = _fsum(terms) if np.isfinite(terms).all() else math.inf
    if not math.isfinite(second):
        raise DomainError("the policy's second moment overflows: its weights are too large")
    return second


def q_of(market: DiscreteMarket) -> float:
    """Squared unconditional Hansen ratio of the optimal policy.

    Computed as sum_s p_s mu_s' inv(A_s) mu_s when the market was built,
    and checked there against the rank-one-update form
    1 - sum_s p_s / (1 + mu_s' inv(Sigma_s) mu_s): a disagreement beyond
    ``Q_CONSISTENCY_TOL`` signals a numerically inconsistent market, and
    no such market is built. The market keeps that sum as its 1 - q.
    """
    return market._q


def smm_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Optimal policy: per-state direction inv(A_s) mu_s, one overall scale
    from q and the market's own 1 - q."""
    c = _optimum(market._q, market._one_minus_q, objective)[0]
    return Policy(c * market.smm_directions)


def markowitz_policy(market: DiscreteMarket, objective: Objective) -> Policy:
    """Conditional covariance-direction policy inv(Sigma_s) mu_s with a
    single state-independent scale chosen optimally for ``objective``.

    Suboptimal in general: it misses the per-state down-levering of the
    second-moment direction. With zeta_s^2 = mu_s' inv(Sigma_s) mu_s, the
    unit policy has mean m = E[zeta^2], second moment s = E[zeta^2 (1 +
    zeta^2)] and variance v = E[zeta^2] + E[(zeta^2 - m)^2], the values
    :func:`evaluate` gives it, summed from the solved zeta^2 alone.
    """
    unit = Policy(market.markowitz_directions)  # names a state whose direction is not finite
    p, z2 = market.probs, market.conditional_sharpe_sq
    with np.errstate(over="ignore"):  # an overflowing term is named below
        terms = p * z2 * (1.0 + z2)
    second = _second_moment_sum(terms)
    if second == 0.0:
        raise DegenerateMarket("unit covariance policy is zero: it has zero risk, "
                               "zero variance and zero second moment")
    mean = _fsum(p * z2)
    spread = z2 - mean
    variance = mean + _fsum(p * spread * spread)
    k = mean / second
    c = _optimum(k * mean, variance / second, objective, k)[0]
    return unit.scaled(c)


def merge_states(
    market: DiscreteMarket, subset: Iterable[int]
) -> tuple[DiscreteMarket, float]:
    """Coarsen the market by merging the states in ``subset``, which holds
    Python or numpy integers (not bools).

    The merged state carries its members' probability-weighted mean and
    second moment and, not A - mu mu', which cancels as q nears 1, their
    risk plus the spread of their means as its covariance, by which it is
    given: ``to_dict`` writes that covariance, so the written market reads
    back valid. It is placed at the smallest merged index. Only the merged
    state is checked, by
    :func:`moments._pair_stacks`, and solved; the other states keep their
    checked stacks and solved rows, bit for bit, and the new market is
    finished as every market is (probabilities, q). Returns the new market and
    delta_q = q(merged) - q(original) <= 0, as -sum_{s in subset}
    p_s ||L_s'(x_s - x_m)||^2, x = inv(A) mu and x_m the merged state's.
    """
    subset = list(subset)
    # checking each distinct type once keeps this off the per-index path
    types = set(map(type, subset))
    bad = [t for t in types if not issubclass(t, (int, np.integer)) or t is bool]
    if bad:
        first = next(i for i in subset if type(i) in bad)
        raise InvalidSubset(f"subset index {first!r} is not an integer")
    idx = sorted(set(map(int, subset)))
    if len(idx) < 2:
        raise InvalidSubset("need at least two distinct states to merge")
    if idx[0] < 0 or idx[-1] >= market.n_states:
        raise InvalidSubset(
            f"subset {idx} out of range for {market.n_states} states"
        )
    # each member's second moment of (1, r), [[1, mu'], [mu, A]], weighted
    # by its probability and summed at once: p_merged, p_merged mu_m and
    # p_merged A_m
    n, p = market.n_assets, market.probs[idx]
    aug = np.empty((len(idx), n + 1, n + 1))
    aug[:, 0, 0] = 1.0
    aug[:, 0, 1:] = aug[:, 1:, 0] = market.mu[idx]
    aug[:, 1:, 1:] = market.second_moment[idx]
    sums = _fsum_symmetric(p[:, None, None] * aug)
    p_merged = 1.0 if len(idx) == market.n_states else sums[0, 0]
    # p_merged Sigma_m from p_s Sigma_s and e_s e_s', each exactly symmetric and finite
    mu_m = sums[None, 1:, 0] / p_merged
    e = np.sqrt(p)[:, None] * (market.mu[idx] - mu_m)
    risk = _fsum_symmetric(np.concatenate([p[:, None, None] * market.sigma[idx],
                                           e[:, :, None] * e[:, None, :]]))
    merged, _ = _pair_stacks(mu_m, sums[None, 1:, 1:] / p_merged, np.array([True]),
                             sigma=risk[None] / p_merged)
    merged["probs"], merged["second_supplied"] = np.array([p_merged]), np.array([False])
    merged.update(_solve_states(merged))
    keep = np.ones(market.n_states, dtype=bool)
    keep[idx[1:]] = False
    kept = np.flatnonzero(keep)
    stacks = {}
    for name, row in merged.items():
        stacks[name] = getattr(market, name).take(kept, axis=0)
        stacks[name][idx[0]] = row[0]
    new_market = DiscreteMarket._from_stacks(stacks, np.zeros(kept.size))
    dx = market.smm_directions[idx] - new_market.smm_directions[idx[0]]
    y = np.einsum("sji,sj->si", market.chol_second[idx], dx)
    return new_market, -_fsum(p * np.einsum("si,si->s", y, y))
