"""Moment pairs, objectives, and the rank-one scaling identities.

A :class:`MomentPair` holds a conditional mean vector together with the
covariance and the (uncentered) second moment matrix A = Sigma + mu mu'.
The two natural allocation directions satisfy

    inv(A) mu = inv(Sigma) mu / (1 + mu' inv(Sigma) mu),

so the second-moment direction is a down-levered rescaling of the
classical covariance direction, and 1 - mu' inv(A) mu = 1 / (1 + mu'
inv(Sigma) mu) keeps its digits as mu' inv(A) mu, ``conditional_q``, the
squared Hansen ratio of the locally optimal allocation, nears 1. The
``Objective`` variants carry the scalars that turn a unit direction into
a fully scaled policy.

Every outside value is read as float64 by one converter, ``_floats``,
which gives None for text and for what numpy cannot read as real
numbers; ``_as_array`` adds the finite, axis and emptiness checks,
naming the argument that fails; ``_real`` reads one number and checks
its range, naming the argument.
Every moment pair is validated by one batched check, ``_pair_stacks``:
finite inputs, symmetrization, a finite Sigma and A, and a Cholesky
factorization of both whose smallest pivot must pass ``PIVOT_RTOL``. A
``MomentPair`` runs it on a stack of one; a market runs it on all of its
states at once (see :mod:`smmport.market`). Every later solve against
those factors, and of a hedge's or basis' small system against its own,
is a triangular substitution, forward (``_tri_solve``) or forward then
back (``_solve``), and every per-state product a_s' b_s is ``_products``;
each is vectorized over a stack of factors and over the right-hand
sides. Each step the modules share has one implementation here:
``_fsum`` every exact sum, ``_sym`` every symmetrization,
``_warn_asymmetric`` every asymmetry warning, ``_solve`` every solve
inv(A) b with its ratio b' inv(A) b, and ``_optimum`` every policy scale
and optimal objective value, the one ladder over the ``Objective``
variants.

Stacks are passed with the state axis first, (S, n, n) and (S, n), but
the substitutions and products run with it last: ``_state_last`` moves
an operand to a C-contiguous (n, n, S) or (n, S) array, so that each
step is one numpy call over S contiguous numbers, not S calls over n. A
market stores its Cholesky factors that way and exposes (S, n, n) views
of them, so its factors are never copied per call. Each sum over n is
taken one term at a time, in index order, with separate multiplies and
adds: a state gets the same bits whatever other states share its stack,
a market's states and a ``MomentPair`` alike, and on any SIMD width. No
step calls a numpy contraction routine, whose inner kernel numpy picks
by the operands' shapes.

All types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMarket, DomainError, NotPositiveDefinite

# Reject SPD factorizations whose minimum pivot falls below this fraction
# of the largest diagonal entry. With every state of a dense 3-asset market
# at 1.001 PIVOT_RTOL (cond(Sigma) 1e10 to 6e11), q kept 12 to 15
# significant digits against 50-digit mpmath, the SMM directions 11 to 14,
# and mu' inv(Sigma) mu, so the carried 1 - q, only 5.6 to 7.6; each error
# was at most 0.08 of 3 eps cond. At 0.999 PIVOT_RTOL the market is rejected.
PIVOT_RTOL = 1e-10

# Warn when an input matrix deviates from symmetry by more than this.
ASYMMETRY_WARN = 1e-8


def _floats(x) -> np.ndarray | None:
    """``x`` as a new C-contiguous float64 array, never the caller's own, or
    None (never an error) if it is ragged, not real, past the double range or
    holds text, numeric text too. Float input is converted once."""
    try:
        a = np.array(x, order="C")  # ints past int64 come back as objects
        kind = a.dtype.kind
        if kind == "O" and any(isinstance(v, (str, bytes)) for v in a.flat):
            return None
        return a.astype(np.float64, copy=False) if kind in "biufO" else None
    except (TypeError, ValueError, OverflowError):
        return None


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    """:func:`_floats` of ``x`` with ``ndim`` axes (1: a vector, 2: a
    matrix), finite and nonempty; else a :class:`DomainError` naming
    ``name``, non-finite entries first."""
    a = _floats(x)
    if a is not None and not np.isfinite(a).all():
        raise DomainError(f"{name} has non-finite entries")
    if a is None or a.ndim != ndim or a.size == 0:
        kind = "vector" if ndim == 1 else "matrix"
        raise DomainError(f"{name} must be a nonempty {ndim}-d {kind}")
    return a


def _real(x, name: str, rule: str = "finite", ok=math.isfinite) -> float:
    """:func:`_floats` of ``x`` as one float for which ``ok`` holds, else a
    :class:`DomainError` that ``name`` must be ``rule``."""
    a = _floats(x)
    if a is None or a.ndim or not ok(float(a)):
        raise DomainError(f"{name} must be {rule}")
    return float(a)


def _positive(x, name: str, hint: str = "") -> float:
    """:func:`_real` of ``x``, finite and positive."""
    return _real(x, name, "finite and positive" + hint, lambda v: 0.0 < v < math.inf)


def _state_last(x: np.ndarray) -> np.ndarray:
    """A stack ``x`` given with its state axis first, as a C-contiguous
    array with that axis last: a view of a market's Cholesky factors,
    which are stored that way, and a copy of anything else."""
    return np.ascontiguousarray(x.transpose(*range(1, x.ndim), 0))


def _state_first(x: np.ndarray) -> np.ndarray:
    """The view of a state-last array with its state axis first."""
    return x.transpose(x.ndim - 1, *range(x.ndim - 1))


def _take_states(x: np.ndarray, rows) -> np.ndarray:
    """``x.take(rows, axis=0)`` for a stack with its state axis first, kept
    state-last in memory where ``x`` is: a market's factors stay so."""
    t = x.transpose(*range(1, x.ndim), 0)
    return _state_first(t.take(rows, axis=-1)) if t.flags.c_contiguous else x.take(rows, axis=0)


def _asymmetry(mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (one value for one matrix): max |M - M'|, or 0
    where that is within ``ASYMMETRY_WARN * max(1, max |M|)``. Each max is
    taken over the n * n entries along the outer axis of a state-last
    copy."""
    t = _state_last(mat) if mat.ndim == 3 else mat[..., None]
    n = t.shape[0]
    asym = np.abs(t - t.transpose(1, 0, 2)).reshape(n * n, -1).max(axis=0)
    scale = np.maximum(1.0, np.abs(t).reshape(n * n, -1).max(axis=0))
    out = np.where(asym > ASYMMETRY_WARN * scale, asym, 0.0)
    return out if mat.ndim == 3 else out[0]


def _sym(mat: np.ndarray) -> np.ndarray:
    """(M + M')/2 per matrix of a stack as M/2 + (M/2)', which cannot
    overflow: the bits of (M + M')/2 wherever that is finite and each entry
    is 0 or at least 2**-1021 in magnitude; below, halving first can round."""
    half = 0.5 * mat
    return half + np.swapaxes(half, -1, -2)


def _warn_asymmetric(name: str, asymmetry: float) -> None:
    """Unless ``asymmetry`` is 0, warn that ``name`` deviates from symmetry
    by it and is symmetrized, from the first frame outside this package."""
    if not asymmetry:
        return
    frame, level = sys._getframe(1), 2
    while frame and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(f"{name} deviates from symmetry by {asymmetry:.3e}; symmetrizing",
                  stacklevel=level)


def _pivots_ok(lower: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: is the smallest squared Cholesky pivot (not
    NaN) at least ``PIVOT_RTOL`` times the largest diagonal entry? Only the
    smallest pivot is squared, which gives the same bits: squaring rounds
    monotonically on the pivots, which are positive. Each extreme is taken
    along the outer axis of the (n, S) diagonals."""
    low = functools.reduce(np.minimum, np.diagonal(lower, axis1=-2, axis2=-1).T)
    top = functools.reduce(np.maximum, np.diagonal(mat, axis1=-2, axis2=-1).T)
    return low * low >= PIVOT_RTOL * top


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a_j b_j over the leading axis of state-last ``a`` and ``b``,
    whose other axes broadcast, one term at a time in order of j, each
    product rounded apart."""
    total = np.multiply(a[0], b[0])
    tmp = np.empty_like(total)
    for a_j, b_j in zip(a[1:], b[1:]):
        total += np.multiply(a_j, b_j, out=tmp)
    return total


def _forward(lower: np.ndarray, y: np.ndarray) -> None:
    """Overwrite the state-last (n, S) or (n, k, S) ``y`` with inv(L) y for
    the state-last (n, n, S) factors ``lower``:
    y_i = (((b_i - L_i0 y_0) - L_i1 y_1) - ...) / L_ii."""
    tmp = np.empty_like(y[0])
    for i in range(lower.shape[0]):
        row = y[i]
        for j in range(i):
            row -= np.multiply(lower[i, j], y[j], out=tmp)
        row /= lower[i, i]


def _backward(lower: np.ndarray, x: np.ndarray) -> None:
    """Overwrite the state-last (n, S) or (n, k, S) ``x`` with inv(L') x
    for the state-last (n, n, S) factors ``lower``:
    x_i = (((b_i - L_(i+1)i x_(i+1)) - L_(i+2)i x_(i+2)) - ...) / L_ii."""
    n = lower.shape[0]
    tmp = np.empty_like(x[0])
    for i in reversed(range(n)):
        row = x[i]
        for j in range(i + 1, n):
            row -= np.multiply(lower[j, i], x[j], out=tmp)
        row /= lower[i, i]


def _operands(lower: np.ndarray, b) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether ``lower`` is one factor, then its factors, one as a stack of
    one, state-last (n, n, S), and a state-last float64 copy of ``b``,
    (n, S) or (n, k, S), for the steps to overwrite."""
    one = lower.ndim == 2
    b = np.asarray(b, dtype=np.float64)
    if one:
        lower, b = lower[None], b[None]
    return one, _state_last(lower), np.array(b.transpose(*range(1, b.ndim), 0), order="C")


def _tri_solve(lower: np.ndarray, b) -> np.ndarray:
    """inv(L) b, the whitening, by forward substitution; shapes as for
    :func:`_solve`."""
    one, lower, y = _operands(lower, b)
    _forward(lower, y)
    return _state_first(y)[0] if one else _state_first(y)


def _solve(lower: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """x = inv(L L') b and b' inv(L L') b = ||inv(L) b||^2 for the lower
    Cholesky factor L, (n, n) or a stack (S, n, n), and b with L's ndim (a
    matrix right-hand side) or one less (a vector): every full solve of
    the package. x has b's shape; the ratios are one per factor and column
    of b, a numpy scalar for one factor and a vector. One factor is solved
    as a stack of one, so a stack and each of its members agree bit for
    bit. A ratio past the float maximum is inf, silently."""
    one, lower, x = _operands(lower, b)
    _forward(lower, x)
    with np.errstate(over="ignore"):
        ratio = _state_first(_dot(x, x))
    _backward(lower, x)
    x = _state_first(x)
    return (x[0], ratio[0]) if one else (x, ratio)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of a_s' b_s, sum_j a_s[j] b_s[j], for ``a`` (S, n) or
    (S, n, m) and ``b`` (S, n) or (S, n, L): (S,) dot products, (S, m),
    (S, L) or the (S, m, L) Gram stack, a view of a state-last array. One
    :func:`_dot` over the broadcast state-last operands forms every entry,
    so a state's entries are the same bits alone as in any stack, and the
    Gram stack of an (S, n, m) ``a`` with itself is exactly symmetric:
    entries (k, l) and (l, k) are the same products summed in the same
    order. A market's factors go in uncopied, and so does the result:
    ``_products(y, y)`` of ``y = _products(market.chol_second, w)`` gives
    ||L_s' w_s||^2, a policy's second moment terms w_s' A_s w_s (a
    factor's zeros add exact zeros).
    A product past the float maximum is +/-inf or NaN, silently: callers
    name it."""
    x, y = _state_last(a), _state_last(b)
    if a.ndim == 3:  # a's columns along the result's axis 1, b's along axis 2
        y = y[:, None]
        if b.ndim == 3:
            x = x[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _state_first(_dot(x, y))


def _fsum(terms: np.ndarray):
    """Correctly rounded sum of ``terms`` over its leading axis, a float for
    a vector: the bits of ``math.fsum`` of each column, whatever the order
    or SIMD width of numpy's own sums.

    All columns are summed at once by error-free extraction (ExtractVector of
    Rump, Ogita & Oishi, "Accurate floating-point summation, part I: faithful
    rounding", SIAM J. Sci. Comput. 31(1), 2008). With S terms and
    2**m >= S + 2, each step takes sigma = 2**(e + m) per column, 2**e the
    least power of two above its largest residual |x|, splits x into
    q = (sigma + x) - sigma and x - q, and sums the q of each column,
    exactly in any order: every q is a multiple of eps * sigma and their
    partial sums stay below sigma. It repeats until every residual is 0;
    ``math.fsum`` of a column's level sums, two or three for terms of like
    magnitude, is its correctly rounded total.

    A column holding NaN or +/-inf, or a term of magnitude 2**(1023 - m) or
    more (where sigma would overflow), is summed alone by ``math.fsum``, so
    +inf and -inf together raise its ``ValueError``. Where a partial sum
    there overflows, the column is summed scaled down by a power of two
    above twice its length and scaled back: exact but for terms turned
    subnormal, +/-inf only past the maximum."""
    x = np.array(terms.reshape(terms.shape[0], -1).T, dtype=np.float64, order="C")  # (K, S)
    q = np.empty_like(x)
    m = (x.shape[1] + 1).bit_length()
    top = np.abs(x, out=q).max(axis=1)
    fast = top < math.ldexp(1.0, 1023 - m)  # False for NaN and inf
    sums = np.empty(x.shape[0])
    if not fast.all():
        for j in np.flatnonzero(~fast).tolist():
            column = x[j].tolist()
            try:
                sums[j] = math.fsum(column)
            except OverflowError:
                scale = math.ldexp(1.0, len(column).bit_length() + 1)
                sums[j] = math.fsum([v / scale for v in column]) * scale
        x, top, q = x[fast], top[fast], q[:np.count_nonzero(fast)]
    levels = []
    while top.any():
        sigma = np.ldexp(1.0, np.frexp(top)[1] + m)[:, None]
        np.add(sigma, x, out=q)
        q -= sigma
        x -= q
        levels.append(q.sum(axis=1))
        top = np.abs(x, out=q).max(axis=1)
    sums[fast] = [math.fsum(c) for c in np.array(levels).T.tolist()] if levels else 0.0
    sums = sums.reshape(terms.shape[1:])
    return sums if sums.ndim else float(sums)


def _fsum_symmetric(terms: np.ndarray) -> np.ndarray:
    """:func:`_fsum` of a (S, k, k) stack whose every matrix is exactly
    symmetric: sums the upper triangle only and mirrors it."""
    k = terms.shape[-1]
    rows, cols = np.triu_indices(k)
    out = np.empty((k, k))
    out[rows, cols] = out[cols, rows] = _fsum(terms[:, rows, cols])
    return out


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _lock(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pair_stacks(mu: np.ndarray, mats: np.ndarray, second_supplied: np.ndarray,
                 sigma: np.ndarray | None = None):
    """Validate and factorize S moment pairs at once: the one place the
    checks of a moment pair live.

    ``mu`` is (S, n) and ``mats`` (S, n, n): a state's second moment where
    ``second_supplied`` is set, else its covariance; callers check these
    shapes. The checks run in order over the whole stack: finite ``mu``,
    finite ``mats``, then every covariance finite (mu mu' can overflow) and
    factorized, then every second moment, each with the ``PIVOT_RTOL`` pivot
    test. The first failing check raises its error (:class:`DomainError`
    or :class:`NotPositiveDefinite`) without naming a state. ``sigma``
    gives each covariance formed apart from A, exactly symmetric.

    Returns the arrays a MomentPair holds, stacked along a leading state
    axis, and each state's asymmetry of ``mats`` (0 where within
    tolerance), for the caller to warn about.
    """
    if not np.isfinite(mu).all():
        raise DomainError("mu has non-finite entries")
    if not np.isfinite(mats).all():
        finite = np.isfinite(mats).all(axis=(-2, -1))
        name = "second_moment" if second_supplied[np.argmin(finite)] else "sigma"
        raise DomainError(f"{name} has non-finite entries")
    sym = _sym(mats)
    given = second_supplied[:, None, None]
    with np.errstate(over="ignore"):
        outer = mu[:, :, None] * mu[:, None, :]
        # A = sym + mu mu' where Sigma is given; then Sigma = sym - mu mu'
        # where A is, in sym's own memory
        second = np.add(sym, outer, out=sym.copy(), where=~given)
        if sigma is None:
            sigma = np.subtract(sym, outer, out=sym, where=given)
    stacks = {"mu": mu, "sigma": sigma, "second_moment": second,
              "second_supplied": second_supplied}
    for name, chol in (("sigma", "chol_sigma"), ("second_moment", "chol_second")):
        if not np.isfinite(stacks[name]).all():
            raise DomainError(f"{name} overflows: mu is too large")
        try:
            stacks[chol] = np.linalg.cholesky(stacks[name])
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"{name} is not positive definite") from None
        if not _pivots_ok(stacks[chol], stacks[name]).all():
            raise NotPositiveDefinite(f"{name} is numerically singular (pivot below tolerance)")
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
        mu = _as_array(mu, "mu", 1)
        mat = _floats(sigma if second_moment is None else second_moment)
        if mat is None or mat.shape != (mu.size, mu.size):
            got = "a value not readable as floats" if mat is None else mat.shape
            raise DomainError(f"{supplied} must be {mu.size}x{mu.size}, got {got}")
        given = np.array([supplied == "second_moment"])
        stacks, asymmetry = _pair_stacks(mu[None], mat[None], given)
        _warn_asymmetric(supplied, asymmetry[0])
        self.supplied = supplied
        for name in ("mu", "sigma", "second_moment", "chol_sigma", "chol_second"):
            setattr(self, name, _lock(stacks[name][0]))

    @classmethod
    def _from_parts(cls, *parts) -> "MomentPair":
        """Wrap already validated, read-only arrays, given in ``__slots__``
        order, without copying them."""
        pair = object.__new__(cls)
        for name, part in zip(cls.__slots__, parts):
            setattr(pair, name, part)
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
    return _solve(pair.chol_sigma, pair.mu)[0]


def smm_direction(pair: MomentPair) -> np.ndarray:
    """Second-moment-inverse direction inv(A) mu.

    Equals ``markowitz_direction`` divided by 1 + mu' inv(Sigma) mu.
    """
    return _solve(pair.chol_second, pair.mu)[0]


def conditional_sharpe_sq(pair: MomentPair) -> float:
    """Squared conditional Sharpe of the locally optimal allocation,
    mu' inv(Sigma) mu."""
    return float(_solve(pair.chol_sigma, pair.mu)[1])


def conditional_q(pair: MomentPair) -> float:
    """Squared conditional Hansen ratio mu' inv(A) mu, in [0, 1)."""
    return float(_solve(pair.chol_second, pair.mu)[1])


def tas(hansen: float) -> float:
    """Sharpe ratio of a strategy with Hansen ratio ``hansen``.

    "Tangent of arcsin": h / sqrt(1 - h**2), defined for |h| < 1.
    """
    h = _real(hansen, "hansen")
    if not abs(h) < 1.0:
        raise DomainError(f"tas requires |h| < 1, got {h}")
    return h / math.sqrt((1.0 - h) * (1.0 + h))


def itas(sharpe: float) -> float:
    """Hansen ratio of a strategy with Sharpe ratio ``sharpe``:
    s / sqrt(1 + s**2), for finite s. Inverse of :func:`tas`."""
    s = _real(sharpe, "sharpe")
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
        object.__setattr__(self, "risk_budget", _positive(self.risk_budget, "risk_budget"))
        object.__setattr__(self, "risk_free", _real(
            self.risk_free, "risk_free", "finite and nonnegative", lambda v: 0.0 <= v < math.inf))


@dataclass(frozen=True)
class MeanVariance:
    """Maximize mean - variance / risk_param (risk-tolerance form)."""

    risk_param: float

    def __post_init__(self):
        object.__setattr__(self, "risk_param", _positive(self.risk_param, "risk_param"))


@dataclass(frozen=True)
class Kelly:
    """Maximize mean - second_moment / 2 (quadratic log-wealth expansion)."""


Objective = SharpeBudget | MeanVariance | Kelly


def _optimum(h2: float, one_minus_h2: float, objective: Objective,
             k: float = 1.0) -> tuple[float, float]:
    """The one ladder over the objectives: the optimal scale and value of a
    unit policy k times one with mean and second moment h2, given 1 - h2:
    R k / sqrt(h2 (1 - h2)) and sqrt(h2 / (1 - h2)) - r_f / R (SharpeBudget),
    lambda k / (2 (1 - h2)) and lambda h2 / (4 (1 - h2)) (MeanVariance), k
    and h2 / 2 (Kelly). A unit policy of mean m, second moment s, variance v
    has k = m / s <= 1, h2 = k m, 1 - h2 = v / s; k multiplies R or lambda
    first, so only a scale past the float maximum overflows (DomainError)."""
    if not one_minus_h2 > 0.0:
        raise DegenerateMarket(f"signal too strong: 1 - q is {one_minus_h2!r}")
    if isinstance(objective, Kelly):
        return k, h2 / 2.0
    if isinstance(objective, SharpeBudget):
        if h2 == 0.0:
            raise DegenerateMarket("no risky opportunity (q = 0): risk scaling undefined")
        name = "risk_budget"
        scale = objective.risk_budget * k / math.sqrt(h2 * one_minus_h2)
        value = math.sqrt(h2 / one_minus_h2) - objective.risk_free / objective.risk_budget
    elif isinstance(objective, MeanVariance):
        name = "risk_param"
        scale = objective.risk_param * k / (2.0 * one_minus_h2)
        value = (objective.risk_param / 4.0) * h2 / one_minus_h2
    else:
        raise DomainError(f"unknown objective {objective!r}")
    if not math.isfinite(scale):
        raise DomainError(f"{name} {getattr(objective, name)!r} makes the policy scale overflow")
    return scale, value


def _unit_q(q) -> float:
    """:func:`_real` of ``q``, in [0, 1)."""
    q = _real(q, "q")
    if not 0.0 <= q < 1.0:
        raise DomainError(f"q must lie in [0, 1), got {q}")
    return q


def scaling_constant(q: float, objective: Objective) -> float:
    """Scalar applied to the unit second-moment policy, whose mean and second
    moment are both q, to solve ``objective``: R / sqrt(q - q**2) for a
    Sharpe budget, lambda / (2 (1 - q)) for mean-variance, 1 for Kelly.
    1 - q is formed by subtraction (``smm_policy`` takes a market's own). A
    scale that overflows raises :class:`DomainError` naming the parameter.
    """
    q = _unit_q(q)
    return _optimum(q, 1.0 - q, objective)[0]


def optimal_objective_value(q: float, objective: Objective) -> float:
    """Value of ``objective`` attained by the optimally scaled policy, with
    1 - q formed by subtraction. At q = 0 no policy meets a Sharpe budget;
    the value is then the zero policy's, -risk_free / risk_budget."""
    q = _unit_q(q)
    try:
        return _optimum(q, 1.0 - q, objective)[1]
    except DegenerateMarket:
        return -objective.risk_free / objective.risk_budget


@dataclass(frozen=True)
class PerfSummary:
    """Unconditional performance of a policy.

    ``risk`` and ``sharpe`` come from the mean and the stored variance (or
    second_moment - mean**2 if none is stored), ``hansen`` from the mean and
    second moment; ``rfr`` is the risk-free rate of the Sharpe ratio.
    """

    mean: float
    second_moment: float
    rfr: float = 0.0
    _variance: float | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("mean", "second_moment", "rfr"):
            object.__setattr__(self, name, _real(getattr(self, name), name))

    @property
    def variance(self) -> float:
        if self._variance is not None:
            return self._variance
        # mean * mean is correctly rounded (mean**2 is the C library's pow,
        # which can be one ulp off); past the float maximum it is inf
        return max(self.second_moment - self.mean * self.mean, 0.0)

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
