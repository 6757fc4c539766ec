"""Linear conditional expectation model and its Monte Carlo study.

The model says the conditional mean of returns is B f for a Gaussian
feature vector f, with constant residual covariance Sigma, so the
conditional second moment is Sigma + (B f)(B f)'. Every integral over
the feature law reduces to an expectation of functions of the scalar

    s(f) = (B f)' inv(Sigma) (B f),

which Monte Carlo estimates by sampling f only: expectations over
returns conditional on f are taken analytically. That variance reduction
is what makes the tiny Sharpe gap between the second-moment policy and
the covariance policy resolvable at desk scale.

With Sigma = L L' and the feature law f = m + F z, z standard normal,

    s = ||C z + d||^2,    C = inv(L) B F,    d = inv(L) B m.

Only the law of s matters, and C z is normal with covariance C C'. So
with n assets and k features, n < k, the model keeps the n x n lower
Cholesky factor G of C C' instead of C, and s = ||G z + d||^2 with z of
length n has the same law: each sample draws r = min(n, k) normals.
G comes from the QR factorization C' = Q R as R' with its diagonal made
nonnegative, so C C' is never formed and a rank-deficient C needs no
special case.

``LcemModel`` computes the factor and d once, at construction. A block
is then processed in chunks of at most 2**14 samples, each in one pass
over buffers small enough to stay in a core's cache: the chunk's normals
are drawn into a reused buffer, one (n x r)(r x count) product gives the
signal with one asset per row, the squares of those n rows summed give
s, and the ten statistic sums come from numpy's own reductions. None of
them is a BLAS call, whose sums split across threads and so round by
the BLAS thread count. Features are never formed and nothing is solved
per sample. Each worker thread owns one set of buffers, about 1 MB for
the sample model, allocated at its first block and reused by the rest
of its run.

Sampling contract
-----------------
The normals z are drawn in fixed blocks of ``BLOCK_SIZE`` samples, r
per sample. Block b draws from numpy's SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(b,))``, the child b of
``SeedSequence(seed).spawn``, so the draws for a block depend only on
(seed, b). This is numpy's documented way to make parallel streams:
distinct (seed, b) hash to distinct states, and each SFC64 stream has a
period of at least 2**64. Unlike the disjoint counter ranges of a
counter-based generator, this is no proof that two streams never
overlap; it makes an overlap within any practical run astronomically
unlikely, and SFC64 is the cheaper generator per normal. A block's
chunks are drawn in turn from its one generator, so their draws, and the
s values, are those of one fill of the block. Every chunk's partial
sums, over all blocks of the run, are merged by one exact sum. The
blocks are split into contiguous runs, one per worker thread; there are
at most ``n_streams`` workers and one per CPU. Estimates are
bit-identical for any ``n_streams``, any scheduling and any BLAS thread
count.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateMarket, DomainError, NotPositiveDefinite
from .moments import (
    MomentPair,
    SharpeBudget,
    _as_array,
    _asymmetry,
    _fsum,
    _is_integer,
    _lock,
    _optimum,
    _real,
    _solve,
    _sym,
    _tri_solve,
    _warn_asymmetric,
)

BLOCK_SIZE = 1 << 16
# Samples per pass of _block_sums, whose buffers then stay in a core's
# cache, and per einsum accumulation within a pass.
_CHUNK = 1 << 14
_TILE = 128


class LcemModel:
    """Coefficient matrix, residual covariance, and Gaussian feature law.

    ``signal_offset`` is d = inv(L) B m and ``signal_factor`` is a
    matrix G with G G' = C C' for C = inv(L) B F (see the module
    docstring): the lower-triangular n x n factor with a nonnegative
    diagonal when n < k, C itself when n >= k. So s = ||G z + d||^2 has
    the law of the model's s for a standard normal z of length
    ``signal_factor.shape[1]`` = min(n, k). Every array is read-only
    float64, and the inputs are the model's own copies.
    """

    __slots__ = ("B", "sigma", "feature_mean", "feature_cov",
                 "chol_sigma", "feature_factor",
                 "signal_factor", "signal_offset")

    def __init__(self, B, sigma, feature_mean, feature_cov):
        b_mat = _as_array(B, "B", 2)
        n, k = b_mat.shape
        # with mu = 0, A = Sigma: the moment-pair check validates Sigma
        residual = MomentPair(np.zeros(n), sigma=sigma)
        fmean = _as_array(feature_mean, "feature_mean", 1)
        if fmean.size != k:
            raise DomainError(f"feature_mean must have length {k}")
        fcov = _as_array(feature_cov, "feature_cov", 2)
        if fcov.shape != (k, k):
            raise DomainError(f"feature_cov must be {k}x{k}, got {fcov.shape}")
        _warn_asymmetric("feature_cov", float(_asymmetry(fcov)))
        fcov = _sym(fcov)

        chol = self.chol_sigma = residual.chol_sigma
        factor = _psd_factor(fcov, "feature_cov")
        self.feature_factor = _lock(factor)
        # a huge B overflows here to inf or nan, silently: the first
        # block's check of s names it
        with np.errstate(over="ignore", invalid="ignore"):
            signal = _tri_solve(chol, b_mat @ factor)
            self.signal_offset = _lock(_tri_solve(chol, b_mat @ fmean))
            if n < k:
                # G = R' for C' = Q R, each column's sign set so that
                # G's diagonal is nonnegative (a zero keeps its sign)
                upper = np.linalg.qr(signal.T, mode="r")
                signal = np.ascontiguousarray(
                    upper.T * np.where(np.diagonal(upper) < 0.0, -1.0, 1.0))
        self.signal_factor = _lock(signal)
        self.B = _lock(b_mat)
        self.sigma = residual.sigma
        self.feature_mean = _lock(fmean)
        self.feature_cov = _lock(fcov)

    @property
    def n_assets(self) -> int:
        return self.B.shape[0]

    @property
    def n_features(self) -> int:
        return self.B.shape[1]

    def __repr__(self) -> str:
        return f"LcemModel(n_assets={self.n_assets}, n_features={self.n_features})"

    def to_dict(self) -> dict:
        return {
            "B": self.B.tolist(),
            "sigma": self.sigma.tolist(),
            "feature_mean": self.feature_mean.tolist(),
            "feature_cov": self.feature_cov.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LcemModel":
        required = ("B", "sigma", "feature_mean", "feature_cov")
        if not isinstance(data, dict) or any(key not in data for key in required):
            raise DomainError(f"model JSON needs fields {required}")
        return cls(*(data[key] for key in required))


def _psd_factor(cov: np.ndarray, name: str) -> np.ndarray:
    """Factor L with L L' = cov; cov may be singular (features are only
    ever sampled, never inverted)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(eigvals))))
        if float(eigvals[0]) < -tol:
            raise NotPositiveDefinite(
                f"{name} has negative eigenvalue {eigvals[0]:.3e}"
            ) from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@dataclass(frozen=True)
class McConfig:
    """Sample count, seed, and thread cap (``n_streams``) for a Monte Carlo
    run. Every estimate carries a standard error, so a run needs at least
    two samples."""

    n_samples: int
    seed: int = 0
    n_streams: int = 1

    def __post_init__(self):
        for name in ("n_samples", "seed", "n_streams"):
            if not _is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer")
        if self.n_samples < 2:
            raise DomainError("n_samples must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.n_streams < 1:
            raise DomainError("n_streams must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_error: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LcemComparison:
    """Head-to-head comparison of the two conditional policies.

    ``sr_smm`` and ``sr_mp`` are the unconditional Sharpe ratios of the
    second-moment policy and the covariance policy, both scaled to the
    same risk; ``rescale_std`` is the sampled standard deviation of the
    per-period down-levering factor 1 / (1 + s). The scale factors
    applied to the unit policies are reported alongside.
    """

    q: McEstimate
    sr_smm: McEstimate
    sr_mp: McEstimate
    delta_sr: McEstimate
    rescale_std: McEstimate
    smm_scale: float
    mp_scale: float

    def to_dict(self) -> dict:
        return asdict(self)


def lcem_conditional_weights(model: LcemModel, f, scale: float = 1.0) -> np.ndarray:
    """Optimal conditional allocation for feature vector ``f``.

    scale * inv(Sigma) B f / (1 + (B f)' inv(Sigma) (B f)), the
    second-moment direction of the conditional moment pair (B f, Sigma).
    ``f`` is copied to float64 and must be finite, as must ``scale``.
    """
    scale = _real(scale, "scale")
    fv = _as_array(f, "f", 1)
    if fv.size != model.n_features:
        raise DomainError(f"f must have length {model.n_features}")
    direction, s = _solve(model.chol_sigma, model.B @ fv)
    return (scale / (1.0 + float(s))) * direction


def block_bounds(n_samples: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) sample ranges; all but the last have BLOCK_SIZE."""
    return [
        (start, min(start + BLOCK_SIZE, n_samples))
        for start in range(0, n_samples, BLOCK_SIZE)
    ]


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    """The generator behind block ``block_index``: SFC64 seeded by child
    ``block_index`` of ``SeedSequence(seed)``, the sampling contract of the
    module docstring."""
    child = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(child))


def _normal_block(seed: int, block_index: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, C-contiguous with one row per sample, with the standard
    normal draws z behind block ``block_index`` in one call. Returns ``out``."""
    return _block_generator(seed, block_index).standard_normal(out=out)


def _signal_norms(model: LcemModel, z: np.ndarray, y: np.ndarray,
                  s: np.ndarray) -> np.ndarray:
    """Fill ``s`` with ||G z + d||^2 for draws z (count x r), G the model's
    ``signal_factor``, forming the signal G z + d in ``y`` one asset per row
    (n x count), so every step runs along contiguous samples. Each sample's
    s depends on its own draws only, whatever ``count``. A huge signal
    overflows to inf or nan here, silently; callers check ``s``."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(z) == 1:  # the first of two: numpy's gemv rounds otherwise than gemm
            z, y = np.repeat(z, 2, axis=0), np.empty((len(y), 2))
        y = np.matmul(model.signal_factor, z.T, out=y)[:, :len(s)]
        y += model.signal_offset[:, None]
        np.multiply(y[0], y[0], out=s)
        for row in y[1:]:
            row *= row
            s += row
    return s


def s_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """The ``count`` values of s in block ``block_index``, as the Monte
    Carlo estimates use them: ||G z + d||^2 for the block's draws z and
    the model's ``signal_factor`` G, each with the law of
    s(f) = (B f)' inv(Sigma) (B f) over the feature law.
    """
    n, r = model.signal_factor.shape
    z = _normal_block(seed, block_index, np.empty((count, r)))
    return _signal_norms(model, z, np.empty((n, count)), np.empty(count))


def _block_sums(model: LcemModel, seed: int, block_index: int, count: int,
                scratch: dict) -> np.ndarray:
    """The ten statistic sums of block ``block_index``, one row of partials
    per chunk, in the columns a1, s1, a2, s2, a3, s3, a4, s4, as1, as2:

        a1..a4  powers of a = s / (1 + s)    s1..s4  powers of s
        as1 = sum a*s, as2 = sum a*s**2

    The block is taken in chunks of ``_CHUNK`` samples, the last one
    shorter, each drawn in turn from the block's one generator, so the
    draws and the s values are those of one fill of the block, bit for bit.

    A chunk lives in the buffers of ``scratch``, a dict owned by one
    worker's run and allocated at its first block: the draws z, the signal
    y, the rows R = [a; s; a**2; s**2] and the tile sums, about 1 MB for
    the sample model. R's four sums are numpy's pairwise sums. The other
    six products are summed by ``einsum`` over tiles of ``_TILE`` samples
    and the tile sums pairwise, so no sum runs long in one accumulator. No
    sum is a BLAS call, whose bits would follow the BLAS thread count.
    Powers of a huge s may overflow; compare_policies rejects those sums.
    A partial of s past the float maximum raises :class:`DegenerateMarket`.
    """
    n, r = model.signal_factor.shape
    if not scratch:
        scratch.update(z=np.empty(_CHUNK * r), y=np.empty(n * _CHUNK),
                       rows=np.empty(4 * _CHUNK), tile_sums=np.empty(6 * _CHUNK // _TILE))
    draw = _block_generator(seed, block_index).standard_normal
    partials = np.empty((-(-count // _CHUNK), 10))
    for lo, out in zip(range(0, count, _CHUNK), partials):
        m = min(_CHUNK, count - lo)
        width = -(-m // _TILE) * _TILE
        z = draw(out=scratch["z"][:m * r].reshape(m, r))
        rows = scratch["rows"][:4 * width].reshape(4, width)
        tile_sums = scratch["tile_sums"][:6 * width // _TILE].reshape(6, -1)
        a, s = rows[0, :m], rows[1, :m]
        _signal_norms(model, z, scratch["y"][:n * m].reshape(n, m), s)
        # a short chunk is padded to whole tiles with a = s = 0, which add
        # exact zeros to every sum
        rows[:2, m:] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(s, np.add(s, 1.0, out=a), out=a)
            np.multiply(rows[:2], rows[:2], out=rows[2:])
            # out holds a1, s1, a2, s2, a3, s3, a4, s4, as1, as2
            rows.sum(axis=1, out=out[:4])
            by_tile = rows.reshape(4, -1, _TILE)
            np.einsum("itk,itk->it", by_tile[:2], by_tile[2:], out=tile_sums[:2])
            np.einsum("itk,itk->it", by_tile[2:], by_tile[2:], out=tile_sums[2:4])
            np.einsum("tk,itk->it", by_tile[0], by_tile[1::2], out=tile_sums[4:])
            tile_sums.sum(axis=1, out=out[4:])
    if not np.isfinite(partials[:, 1]).all():
        raise DegenerateMarket(f"signal s overflows in block {block_index}")
    return partials


def _collect_sums(model: LcemModel, cfg: McConfig):
    """The ten statistic sums over all blocks, in ``_block_sums``' order.

    The blocks are split into one contiguous run per worker, and at most
    ``n_streams`` workers, one per CPU, run them. Every chunk's partials,
    in block order, are reduced by one exact sum, so the result does not
    depend on the worker count or scheduling. A sum past the float
    maximum comes back inf.
    """
    bounds = block_bounds(cfg.n_samples)
    n_blocks = len(bounds)
    workers = min(cfg.n_streams, n_blocks, os.cpu_count() or 1)

    def run(s: int) -> list:
        blocks = range(s * n_blocks // workers, (s + 1) * n_blocks // workers)
        scratch = {}
        return [_block_sums(model, cfg.seed, b, bounds[b][1] - bounds[b][0], scratch)
                for b in blocks]

    if workers == 1:
        partials = run(0)
    else:
        # imported here: a one-worker run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = [p for blocks in pool.map(run, range(workers)) for p in blocks]
    return tuple(_fsum(np.concatenate(partials)).tolist())


def _mean_estimate(sum1: float, sum2: float, n: int) -> McEstimate:
    mean = sum1 / n
    var = max(sum2 - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(value=mean, std_error=math.sqrt(var / n), n=n)


def estimate_q(model: LcemModel, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of E[s / (1 + s)] over the feature law.

    This is the squared unconditional Hansen ratio of the optimal policy.
    Deterministic given (seed, n_samples); independent of n_streams.
    """
    a1, _, a2, *_ = _collect_sums(model, cfg)
    return _mean_estimate(a1, a2, cfg.n_samples)


def compare_policies(model: LcemModel, cfg: McConfig, risk_budget: float) -> LcemComparison:
    """Sharpe of the second-moment policy versus the covariance policy.

    Both policies are scaled to unconditional risk ``risk_budget`` using
    the sampled feature-law moments; the Sharpe ratios themselves are
    scale-free at zero risk-free rate. Estimates and standard errors come
    from the delta method on the jointly sampled means of
    (s/(1+s), s, s**2); the mean and second moment of each policy are
    computed from conditional moments per sampled f, never from sampled
    returns.
    """
    budget = SharpeBudget(risk_budget=risk_budget)
    n = cfg.n_samples
    a1, s1, a2, s2, a3, s3, a4, s4, as1, as2 = _collect_sums(model, cfg)

    if s2 == 0.0:
        # No signal anywhere: both policies are identically zero.
        zero = McEstimate(value=0.0, std_error=0.0, n=n)
        return LcemComparison(
            q=zero, sr_smm=zero, sr_mp=zero, delta_sr=zero,
            rescale_std=zero, smm_scale=0.0, mp_scale=0.0,
        )

    a_bar = a1 / n      # mean of s/(1+s): the q estimate
    b_bar = s1 / n      # mean of s: mean return of the unit covariance policy
    c_bar = s2 / n      # mean of s**2
    # v = b_bar + c_bar - b_bar**2 below cancels where q rounds to 1 (B = 1e9,
    # sigma = 1e-9 and a point-mass feature give 5.1e38 for 1e27), so sr_mp
    # would be garbage: a carried 1 - q needs centered moments first
    if a_bar == 1.0:
        raise DegenerateMarket("signal too strong: the q estimate rounds to 1")
    if not math.isfinite(s4):
        raise DegenerateMarket("signal too strong: the sum of s**4 overflows")

    means = np.array([a_bar, b_bar, c_bar])
    raw = np.array([[a2, as1, as2], [as1, s2, s3], [as2, s3, s4]])
    cov = (raw - n * np.outer(means, means)) / (n - 1)

    def delta_method(value: float, grad: list) -> McEstimate:
        """``value``, a smooth function of the three means, with the standard
        error its gradient ``grad`` there gives."""
        grad = np.array(grad)
        return McEstimate(value=value, std_error=math.sqrt(max(grad @ cov @ grad, 0.0) / n), n=n)

    sr_smm_val = math.sqrt(a_bar / (1.0 - a_bar))
    d_smm = 1.0 / (2.0 * math.sqrt(a_bar) * ((1.0 - a_bar) * math.sqrt(1.0 - a_bar)))
    # Covariance policy: unit direction has mean b_bar, second moment
    # b_bar + c_bar, hence variance v below.
    v = b_bar + c_bar - b_bar * b_bar
    sr_mp_val = b_bar / math.sqrt(v)
    d_b = (1.0 - b_bar * (1.0 - 2.0 * b_bar) / (2.0 * v)) / math.sqrt(v)
    d_c = -b_bar / (2.0 * (v * math.sqrt(v)))
    # sr_smm^2 - sr_mp^2 = [e(b + c) - c^2] / [(1 - a) v] with e = as2/n, as
    # a = s - s^2 + a*s^2: no difference of nearly equal Sharpe ratios
    delta_val = (as2 / n * (b_bar + c_bar) - c_bar * c_bar) / (
        (1.0 - a_bar) * v * (sr_smm_val + sr_mp_val))

    # std of the down-levering factor 1/(1+s) = 1 - a equals the std of a.
    a_sq = a_bar * a_bar
    m2 = max(cov[0, 0], 0.0)
    rescale_val = math.sqrt(m2)
    if m2 > 0.0:
        m4 = (a4 - 4 * a_bar * a3 + 6 * a_sq * a2
              - 4 * a_sq * a_bar * a1 + n * (a_sq * a_sq)) / n
        rescale_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n) / (2.0 * rescale_val)
    else:
        rescale_se = 0.0

    k = b_bar / (b_bar + c_bar)
    return LcemComparison(
        q=_mean_estimate(a1, a2, n),
        sr_smm=delta_method(sr_smm_val, [d_smm, 0.0, 0.0]),
        sr_mp=delta_method(sr_mp_val, [0.0, d_b, d_c]),
        delta_sr=delta_method(delta_val, [d_smm, -d_b, -d_c]),
        rescale_std=McEstimate(value=rescale_val, std_error=rescale_se, n=n),
        smm_scale=_optimum(a_bar, 1.0 - a_bar, budget)[0],
        mp_scale=_optimum(k * b_bar, v / (b_bar + c_bar), budget, k)[0],
    )
