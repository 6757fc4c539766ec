"""Leverage overlay: does a strategy size itself optimally?

From observed strategy returns z_t and leverage x_t > 0, form the
unit-levered returns y_t = z_t / x_t and estimate, nonparametrically,
how the conditional mean and conditional second moment of y vary with x.
Up to a constant, the optimal leverage at x is mean(x) / second(x); if
the strategy already levers optimally, plotting that ratio against x
gives a straight line through the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch
from .moments import _as_array, _lock

# Grid points whose total kernel mass falls below this are emitted as
# missing (NaN) rather than dividing by ~0.
MIN_KERNEL_MASS = 1e-300

DEFAULT_GRID_SIZE = 101

# Rows of the T x G kernel-weight matrix are formed this many elements
# at a time, in one 512 KB scratch buffer that stays in cache.
_CHUNK_ELEMS = 1 << 16


def silverman_bandwidth(xs: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * std(x) * T**(-1/5) of a finite vector
    of at least two samples."""
    xs = _as_array(xs, "xs", 1)
    if xs.size < 2:
        raise DomainError("need at least two samples")
    # np.std squares deviations, which overflow past ~1e154. Scaling by
    # 2**-k with |x| < 2**k keeps them small; a power of two is exact,
    # so the result has the same bits as an unscaled std.
    k = math.frexp(float(np.max(np.abs(xs), initial=0.0)))[1]
    std = float(np.std(np.ldexp(xs, -k), ddof=1))
    return 1.06 * math.ldexp(std, k) * xs.size ** (-0.2)


def nw_sums(xs, ys, grid, bandwidth):
    """Gaussian-kernel weight sums for Nadaraya-Watson regression.

    Returns ``(den, num)`` where ``den[j]`` is the total kernel mass at
    grid point j and ``num[r, j]`` the mass-weighted sum of response
    row r. ``ys`` has shape (n_responses, n_samples).

    The T x G weights exp(-u**2 / 2), u = (grid[j] - xs[t]) / bandwidth,
    are formed a block of rows at a time in one scratch buffer of at
    most max(2**16, G) floats (512 KB when G <= 2**16), so memory beyond
    the inputs and outputs stays bounded whatever T is. Each weight has
    the same bits as in a dense T x G evaluation; the sums differ from
    dense ones only in the order of summation.
    """
    n_samples, n_grid = xs.size, grid.size
    rows = max(1, _CHUNK_ELEMS // max(n_grid, 1))
    scratch = np.empty((min(rows, n_samples), n_grid))
    den = np.zeros(n_grid)
    num = np.zeros((ys.shape[0], n_grid))
    for lo in range(0, n_samples, rows):
        hi = min(lo + rows, n_samples)
        w = scratch[:hi - lo]
        np.subtract(grid, xs[lo:hi, None], out=w)
        w /= bandwidth
        w *= w
        w *= -0.5
        np.exp(w, out=w)
        den += w.sum(axis=0)
        num += ys[:, lo:hi] @ w
    return den, num


def _positive(value, name: str, hint: str = "") -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive{hint}")
    return value


def _nw_estimates(xs, ys, grid, bandwidth: float):
    """Nadaraya-Watson estimates of each response row of ``ys`` at the
    grid points with enough kernel mass, and the mask of those points."""
    with np.errstate(over="ignore", invalid="ignore"):
        den, num = nw_sums(xs, ys, grid, bandwidth)
        mask = den >= MIN_KERNEL_MASS
        est = num[:, mask] / den[mask]
    if not np.isfinite(est).all():
        raise DomainError("kernel estimates overflow: responses are too large")
    return mask, est


def kernel_regress(xs, ys, grid, bandwidth: float) -> np.ndarray:
    """Nadaraya-Watson estimate of E[y | x] at each grid point.

    Gaussian kernel with a finite, positive bandwidth. Points with
    vanishing kernel mass come back NaN. Where defined, the estimate is
    a convex combination of the ys. ``xs``, ``ys`` and ``grid`` are
    copied to float64 vectors, which must be nonempty and finite.
    """
    xs = _as_array(xs, "xs", 1)
    ys = _as_array(ys, "ys", 1)
    grid = _as_array(grid, "grid", 1)
    if ys.shape != xs.shape:
        raise ShapeMismatch("xs and ys must have equal length")
    if xs.size < 2:
        raise DomainError("need at least two samples")
    mask, est = _nw_estimates(xs, ys[None, :], grid, _positive(bandwidth, "bandwidth"))
    out = np.full(grid.size, np.nan)
    out[mask] = est[0]
    return out


@dataclass(frozen=True)
class LeverageSample:
    """Observed leverage and strategy returns, and y = z / x, each the
    sample's own read-only float64 copy."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    @classmethod
    def from_observations(cls, leverage, strategy_returns) -> "LeverageSample":
        x = _as_array(leverage, "leverage", 1)
        z = _as_array(strategy_returns, "returns", 1)
        if z.shape != x.shape:
            raise ShapeMismatch("leverage and returns must have equal length")
        if x.size < 2:
            raise DomainError("need at least two observations")
        if not np.all(x > 0.0):
            raise DomainError("leverage must be strictly positive")
        return cls(x=_lock(x), z=_lock(z), y=_lock(z / x))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class LeverageCurve:
    """Estimated mean, second moment, and implied leverage on a grid.

    Only grid points with enough kernel mass are kept; ``lever_hat`` is
    defined up to a positive constant.
    """

    grid: np.ndarray
    m_hat: np.ndarray
    s_hat: np.ndarray
    lever_hat: np.ndarray

    @property
    def n_points(self) -> int:
        return self.grid.size


def leverage_curve(
    sample: LeverageSample,
    grid=None,
    bandwidth: float | None = None,
    floor: float | None = None,
) -> LeverageCurve:
    """Estimate the implied optimal-leverage curve of a strategy.

    Parameters
    ----------
    sample : LeverageSample
    grid : array, optional
        Finite, strictly increasing evaluation points, copied; defaults
        to 101 equally spaced points spanning the observed leverage range.
    bandwidth : float, optional
        Gaussian kernel bandwidth; defaults to Silverman's rule.
    floor : float, optional
        Lower bound applied to the second-moment estimate before
        dividing. Defaults to 1e-8 times its largest estimate, but at
        least the smallest normal float (so vanishing or subnormal
        estimates still get a positive floor).

    ``bandwidth`` and ``floor`` must be finite and positive. Returns so
    large that an estimate is not finite raise ``DomainError``.
    """
    if grid is None:
        grid = np.linspace(float(sample.x.min()), float(sample.x.max()),
                           DEFAULT_GRID_SIZE)
    else:
        grid = _as_array(grid, "grid", 1)
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("grid must be strictly increasing")
    hint = ""
    if bandwidth is None:
        bandwidth = silverman_bandwidth(sample.x)
        hint = " (constant leverage sample needs an explicit bandwidth)"
    bandwidth = _positive(bandwidth, "bandwidth", hint)

    with np.errstate(over="ignore"):
        ys = np.vstack([sample.y, sample.y * sample.y])
    mask, (m_hat, s_raw) = _nw_estimates(sample.x, ys, grid, bandwidth)

    if floor is None:
        floor = max(1e-8 * float(s_raw.max(initial=0.0)), np.finfo(np.float64).tiny)
    s_hat = np.maximum(s_raw, _positive(floor, "floor"))

    return LeverageCurve(grid=_lock(grid[mask]), m_hat=_lock(m_hat),
                         s_hat=_lock(s_hat), lever_hat=_lock(m_hat / s_hat))
