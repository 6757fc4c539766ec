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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch
from .moments import _as_array, _lock, _positive

# Grid points whose total kernel mass falls below this are emitted as
# missing (NaN) rather than dividing by ~0.
MIN_KERNEL_MASS = 1e-300

DEFAULT_GRID_SIZE = 101

# Rows of the T x G kernel-weight matrix are formed this many elements
# at a time, in one 512 KB scratch buffer that stays in cache.
_CHUNK_ELEMS = 1 << 16


def silverman_bandwidth(xs: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * std(x) * T**(-1/5) of a finite vector
    of at least two samples. It holds 2 * T floats beside its input: its
    own copy of ``xs``, scaled in place, and ``np.std``'s deviations."""
    xs = _as_array(xs, "xs", 1)
    if xs.size < 2:
        raise DomainError("need at least two samples")
    # np.std squares deviations, which overflow past ~1e154. Scaling by
    # 2**-k with |x| < 2**k keeps them small; a power of two is exact,
    # so the result has the same bits as an unscaled std.
    k = math.frexp(max(float(xs.max()), -float(xs.min())))[1]
    std = float(np.std(np.ldexp(xs, -k, out=xs), ddof=1))
    return 1.06 * math.ldexp(std, k) * xs.size ** (-0.2)


def nw_sums(xs, y, grid, bandwidth, powers: int):
    """Gaussian-kernel weight sums for Nadaraya-Watson regression.

    Returns ``(den, num)`` where ``den[j]`` is the total kernel mass at
    grid point j and ``num[r, j]`` the mass-weighted sum of y**(r + 1),
    for r below ``powers``. ``y`` has one entry per sample. Its powers
    are formed a block at a time, y**(r + 1) as y**r * y, and only as many
    as asked for, so y is never squared for ``powers`` = 1.

    The weight of sample t at grid point j is exp(-v**2) with
    v = (grid[j] - xs[t]) * scale and scale = sqrt(1/2) / bandwidth: the
    Gaussian exp(-u**2 / 2), u = (grid[j] - xs[t]) / bandwidth, to within
    a few ulps of the exponent, so a weight's relative error is a few
    eps times u**2 / 2 (about 2e-13 near the underflow edge, |u| ~ 37).
    The difference is taken before scaling, so a sample lying on a grid
    point gets weight exactly 1 even where ``xs[t] * scale`` alone would
    overflow. A bandwidth below about 3.9e-309 would make scale overflow
    and 0 * inf give NaN; scale is clamped to the float maximum instead,
    which keeps weight 1 on a grid point and weight 0 at any distance
    above about 2.2e-307 from it.

    The T x G weights are formed a block of rows at a time in one
    scratch buffer of at most max(2**16, G) floats (512 KB when
    G <= 2**16). A block's differences are one rank-2 product of a
    (rows, 2) buffer of rows [1, -xs[t]] and the (2, G) array
    [grid; ones]. Each product in it is by 1, so every entry is one
    rounding of grid[j] - xs[t] whatever the BLAS kernel, summation
    order or FMA use: a subtraction's value (a zero's sign may differ,
    and squaring drops it), so the weights have a subtraction's bits.
    Each block's mass is taken as a product with one ones vector of
    block length, and its response powers are formed in one reused
    (powers, rows) buffer. So beyond the inputs and outputs the memory
    held is one scratch block plus (powers, rows) response rows,
    whatever T is.
    """
    n_samples, n_grid = xs.size, grid.size
    rows = max(1, _CHUNK_ELEMS // max(n_grid, 1))
    block = min(rows, n_samples)
    scale = min(math.sqrt(0.5) / bandwidth, sys.float_info.max)
    scratch = np.empty((block, n_grid))
    ones = np.ones(block)
    left = np.ones((block, 2))
    right = np.stack([grid, np.ones(n_grid)])
    pows = np.empty((powers, block))
    den = np.zeros(n_grid)
    num = np.zeros((powers, n_grid))
    for lo in range(0, n_samples, rows):
        hi = min(lo + rows, n_samples)
        w = scratch[:hi - lo]
        np.negative(xs[lo:hi], out=left[:hi - lo, 1])
        np.matmul(left[:hi - lo], right, out=w)
        w *= scale
        w *= w
        np.negative(w, out=w)
        np.exp(w, out=w)
        den += ones[:hi - lo] @ w
        p = pows[:, :hi - lo]
        p[0] = y[lo:hi]
        for r in range(1, powers):
            np.multiply(p[r - 1], p[0], out=p[r])
        num += p @ w
    return den, num


def _nw_estimates(xs, y, grid, bandwidth: float, powers: int):
    """Nadaraya-Watson estimates of E[y**(r + 1) | x] for r below
    ``powers`` at the grid points with enough kernel mass, and the mask
    of those points."""
    with np.errstate(over="ignore", invalid="ignore"):
        den, num = nw_sums(xs, y, grid, bandwidth, powers)
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
    mask, est = _nw_estimates(xs, ys, grid, _positive(bandwidth, "bandwidth"), 1)
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

    Beyond the sample's own arrays, memory held is :func:`nw_sums`' one
    scratch block plus its (2, rows) response rows y and y * y, whatever
    the sample's length T; the default bandwidth adds 2 * T floats while
    :func:`silverman_bandwidth` runs.
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

    mask, (m_hat, s_raw) = _nw_estimates(sample.x, sample.y, grid, bandwidth, 2)

    if floor is None:
        floor = max(1e-8 * float(s_raw.max(initial=0.0)), np.finfo(np.float64).tiny)
    s_hat = np.maximum(s_raw, _positive(floor, "floor"))

    return LeverageCurve(grid=_lock(grid[mask]), m_hat=_lock(m_hat),
                         s_hat=_lock(s_hat), lever_hat=_lock(m_hat / s_hat))
