"""Moment pairs, objectives, and the rank-one scaling identities.

A :class:`MomentPair` holds a conditional mean vector together with the
covariance and the (uncentered) second moment matrix A = Sigma + mu mu'.
The two natural allocation directions satisfy

    inv(A) mu = inv(Sigma) mu / (1 + mu' inv(Sigma) mu),

so the second-moment direction is a down-levered rescaling of the
classical covariance direction. ``conditional_q`` is the squared Hansen
ratio mu' inv(A) mu of the locally optimal allocation, and the
``Objective`` variants carry the scalars that turn a unit direction into
a fully scaled policy.

Every moment pair is validated by one batched check, ``_pair_stacks``:
finite inputs, symmetrization, and a Cholesky factorization of both
Sigma and A whose smallest pivot must pass ``PIVOT_RTOL``. A
``MomentPair`` runs it on a stack of one; a market runs it on all of its
states at once (see :mod:`smmport.market`).

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarket, DomainError, NotPositiveDefinite

# Reject SPD factorizations whose minimum pivot falls below this fraction
# of the largest diagonal entry.
PIVOT_RTOL = 1e-10

# Warn when an input matrix deviates from symmetry by more than this.
ASYMMETRY_WARN = 1e-8


def _as_vector(x, name: str) -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} has non-finite entries")
    return v


def _as_square(x, n: int, name: str) -> np.ndarray:
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.shape != (n, n):
        raise DomainError(f"{name} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} has non-finite entries")
    return m


def _asymmetry(mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: max |M - M'|, or 0 where that is within
    ``ASYMMETRY_WARN * max(1, max |M|)``."""
    asym = np.max(np.abs(mat - np.swapaxes(mat, -1, -2)), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    return np.where(asym > ASYMMETRY_WARN * scale, asym, 0.0)


def _symmetrize(mat: np.ndarray, name: str) -> np.ndarray:
    asym = float(_asymmetry(mat)) if mat.size else 0.0
    if asym:
        warnings.warn(
            f"{name} deviates from symmetry by {asym:.3e}; symmetrizing",
            stacklevel=3,
        )
    return (mat + mat.T) / 2.0


def _pivots_ok(lower: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: is the smallest squared Cholesky pivot at
    least ``PIVOT_RTOL`` times the largest diagonal entry?"""
    pivots = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
    diag = np.diagonal(mat, axis1=-2, axis2=-1)
    return ~(np.min(pivots, axis=-1) < PIVOT_RTOL * np.max(diag, axis=-1))


def _tri_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for a lower Cholesky factor L; b may be a matrix.

    L may also be a stack (S, n, n); b must then be (S, n, k), with the
    trailing axis explicit, because numpy 1.x and 2.x broadcast a stacked
    (S, n) right-hand side differently.
    """
    return np.linalg.solve(lower, b)


def _chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b given the lower Cholesky factor L (or a stack
    of them, as for :func:`_tri_solve`)."""
    return np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, b))


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pair_stacks(mu: np.ndarray, mats: np.ndarray, second_supplied: np.ndarray):
    """Validate and factorize S moment pairs at once: the one place the
    checks of a moment pair live.

    ``mu`` is (S, n) and ``mats`` (S, n, n): a state's second moment where
    ``second_supplied`` is set, else its covariance; callers check these
    shapes. The checks run in order over the whole stack: finite ``mu``,
    finite ``mats``, then a Cholesky factorization of every covariance
    and then of every second moment, each with the ``PIVOT_RTOL`` pivot
    test. The first failing check raises its error (:class:`DomainError`
    or :class:`NotPositiveDefinite`) without naming a state.

    Returns the arrays a MomentPair holds, stacked along a leading state
    axis, and each state's asymmetry of ``mats`` (0 where within
    tolerance), for the caller to warn about.
    """
    if not np.isfinite(mu).all():
        raise DomainError("mu has non-finite entries")
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        name = "second_moment" if second_supplied[np.argmin(finite)] else "sigma"
        raise DomainError(f"{name} has non-finite entries")
    sym = (mats + np.swapaxes(mats, -1, -2)) / 2.0
    outer = mu[:, :, None] * mu[:, None, :]
    given = second_supplied[:, None, None]
    stacks = {
        "mu": mu, "sigma": np.where(given, sym - outer, sym),
        "second_moment": np.where(given, sym, sym + outer),
        "second_supplied": second_supplied,
    }
    for name, chol in (("sigma", "chol_sigma"), ("second_moment", "chol_second")):
        try:
            stacks[chol] = np.linalg.cholesky(stacks[name])
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"{name} is not positive definite") from None
        if not _pivots_ok(stacks[chol], stacks[name]).all():
            raise NotPositiveDefinite(
                f"{name} is numerically singular (pivot below tolerance)"
            )
    return stacks, _asymmetry(mats)


class MomentPair:
    """Conditional mean plus covariance / second-moment matrix pair.

    Construct from ``(mu, sigma)`` or ``(mu, second_moment)``; the missing
    matrix is derived via A = Sigma + mu mu'. ``supplied`` records which
    parameterization was given. Both matrices must be positive definite;
    inputs are symmetrized before validation.
    """

    __slots__ = ("mu", "sigma", "second_moment", "supplied",
                 "chol_sigma", "chol_second")

    def __init__(self, mu, sigma=None, second_moment=None):
        if (sigma is None) == (second_moment is None):
            raise DomainError("supply exactly one of sigma or second_moment")
        supplied = "sigma" if second_moment is None else "second_moment"
        mu = np.array(mu, dtype=np.float64)
        if mu.ndim != 1 or mu.size == 0:
            raise DomainError("mu must be a nonempty 1-d vector")
        mat = np.asarray(sigma if second_moment is None else second_moment,
                         dtype=np.float64)
        if mat.shape != (mu.size, mu.size):
            raise DomainError(f"{supplied} must be {mu.size}x{mu.size}, got {mat.shape}")
        stacks, asymmetry = _pair_stacks(
            mu[None], mat[None], np.array([supplied == "second_moment"])
        )
        if asymmetry[0]:
            warnings.warn(
                f"{supplied} deviates from symmetry by {asymmetry[0]:.3e}; symmetrizing",
                stacklevel=2,
            )
        self.supplied = supplied
        for name in ("mu", "sigma", "second_moment", "chol_sigma", "chol_second"):
            setattr(self, name, _lock(stacks[name][0]))

    @classmethod
    def _from_parts(cls, mu, sigma, second_moment, supplied,
                    chol_sigma, chol_second) -> "MomentPair":
        """Wrap already validated, read-only arrays without copying them."""
        pair = object.__new__(cls)
        pair.mu = mu
        pair.sigma = sigma
        pair.second_moment = second_moment
        pair.supplied = supplied
        pair.chol_sigma = chol_sigma
        pair.chol_second = chol_second
        return pair

    @classmethod
    def from_covariance(cls, mu, sigma) -> "MomentPair":
        return cls(mu, sigma=sigma)

    @classmethod
    def from_second_moment(cls, mu, second_moment) -> "MomentPair":
        return cls(mu, second_moment=second_moment)

    @property
    def n(self) -> int:
        return self.mu.size

    def __repr__(self) -> str:
        return f"MomentPair(n={self.n}, supplied={self.supplied!r})"


def markowitz_direction(pair: MomentPair) -> np.ndarray:
    """Covariance-inverse direction inv(Sigma) mu."""
    return _chol_solve(pair.chol_sigma, pair.mu)


def smm_direction(pair: MomentPair) -> np.ndarray:
    """Second-moment-inverse direction inv(A) mu.

    Equals ``markowitz_direction`` divided by 1 + mu' inv(Sigma) mu.
    """
    return _chol_solve(pair.chol_second, pair.mu)


def conditional_sharpe_sq(pair: MomentPair) -> float:
    """Squared conditional Sharpe of the locally optimal allocation,
    mu' inv(Sigma) mu."""
    y = _tri_solve(pair.chol_sigma, pair.mu)
    return float(y @ y)


def conditional_q(pair: MomentPair) -> float:
    """Squared conditional Hansen ratio mu' inv(A) mu, in [0, 1)."""
    y = _tri_solve(pair.chol_second, pair.mu)
    return float(y @ y)


def tas(hansen: float) -> float:
    """Sharpe ratio of a strategy with Hansen ratio ``hansen``.

    "Tangent of arcsin": h / sqrt(1 - h**2), defined for |h| < 1.
    """
    h = float(hansen)
    if not abs(h) < 1.0:
        raise DomainError(f"tas requires |h| < 1, got {h}")
    return h / math.sqrt((1.0 - h) * (1.0 + h))


def itas(sharpe: float) -> float:
    """Hansen ratio of a strategy with Sharpe ratio ``sharpe``:
    s / sqrt(1 + s**2). Inverse of :func:`tas`."""
    s = float(sharpe)
    h = s / math.hypot(1.0, s)
    if abs(h) >= 1.0:
        # enormous s rounds to +/-1; the true value is strictly inside
        h = math.copysign(math.nextafter(1.0, 0.0), s)
    return h


@dataclass(frozen=True)
class SharpeBudget:
    """Maximize (mean - risk_free) / risk subject to risk <= risk_budget."""

    risk_budget: float = 1.0
    risk_free: float = 0.0

    def __post_init__(self):
        if not self.risk_budget > 0.0:
            raise DomainError("risk_budget must be positive")
        if self.risk_free < 0.0:
            raise DomainError("risk_free must be nonnegative")


@dataclass(frozen=True)
class MeanVariance:
    """Maximize mean - variance / risk_param (risk-tolerance form)."""

    risk_param: float

    def __post_init__(self):
        if not self.risk_param > 0.0:
            raise DomainError("risk_param must be positive")


@dataclass(frozen=True)
class Kelly:
    """Maximize mean - second_moment / 2 (quadratic log-wealth expansion)."""


Objective = SharpeBudget | MeanVariance | Kelly


def scaling_constant(q: float, objective: Objective) -> float:
    """Scalar applied to the unit second-moment policy to solve ``objective``.

    The unit policy has unconditional mean and second moment both equal to
    q, hence variance q - q**2. The objective-specific optima are

    * SharpeBudget: R / sqrt(q - q**2), saturating the risk budget,
    * MeanVariance: lambda / (2 (1 - q)),
    * Kelly: 1 (hold the unscaled policy).
    """
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q}")
    if isinstance(objective, SharpeBudget):
        if q == 0.0:
            raise DegenerateMarket(
                "no risky opportunity (q = 0): risk scaling undefined"
            )
        return objective.risk_budget / math.sqrt(q * (1.0 - q))
    if isinstance(objective, MeanVariance):
        return objective.risk_param / (2.0 * (1.0 - q))
    if isinstance(objective, Kelly):
        return 1.0
    raise DomainError(f"unknown objective {objective!r}")


def optimal_objective_value(q: float, objective: Objective) -> float:
    """Value of ``objective`` attained by the optimally scaled policy."""
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q}")
    if isinstance(objective, SharpeBudget):
        return math.sqrt(q / (1.0 - q)) - objective.risk_free / objective.risk_budget
    if isinstance(objective, MeanVariance):
        return (objective.risk_param / 4.0) * q / (1.0 - q)
    if isinstance(objective, Kelly):
        return q / 2.0
    raise DomainError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class PerfSummary:
    """Unconditional performance of a policy.

    ``variance``, ``risk``, ``hansen`` and ``sharpe`` are derived from the
    stored mean and second moment; ``rfr`` is the risk-free rate the
    Sharpe ratio is quoted against.
    """

    mean: float
    second_moment: float
    rfr: float = 0.0

    @property
    def variance(self) -> float:
        return max(self.second_moment - self.mean**2, 0.0)

    @property
    def risk(self) -> float:
        return math.sqrt(self.variance)

    @property
    def zero_risk(self) -> bool:
        return self.variance == 0.0

    @property
    def sharpe(self) -> float:
        """(mean - rfr) / risk; 0 for the all-zero policy, NaN when the
        excess mean is nonzero but the risk vanishes."""
        excess = self.mean - self.rfr
        if self.risk == 0.0:
            return 0.0 if excess == 0.0 else math.nan
        return excess / self.risk

    @property
    def hansen(self) -> float:
        """mean / sqrt(second_moment), clamped to [-1, 1]."""
        if self.second_moment <= 0.0:
            return 0.0
        return min(1.0, max(-1.0, self.mean / math.sqrt(self.second_moment)))

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "second_moment": self.second_moment,
            "variance": self.variance,
            "risk": self.risk,
            "sharpe": self.sharpe,
            "hansen": self.hansen,
            "rfr": self.rfr,
        }
