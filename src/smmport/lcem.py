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

``LcemModel`` computes C and d once, at construction, so a block of
count samples costs one normal draw into a reused buffer, one
(n x k)(k x count) product giving the signal with one asset per row,
and the squares of those n rows summed: features are never formed and
nothing is solved per sample. Each worker thread owns one set of
buffers, allocated at its first block and reused by the rest of its run.

Sampling contract
-----------------
Features are drawn in fixed blocks of ``BLOCK_SIZE`` samples. Block b
uses a Philox counter-based generator keyed by the seed with its counter
advanced to block b's private range, so the draws for a block depend
only on (seed, b). Per-block partial sums are combined across blocks
with exact summation. The blocks are split into contiguous runs, one per
worker thread; there are at most ``n_streams`` workers and one per CPU.
Estimates are bit-identical for any ``n_streams`` and any scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateMarket, DomainError, NotPositiveDefinite
from .moments import (
    MomentPair,
    SharpeBudget,
    _as_array,
    _back_solve,
    _finite_scale,
    _is_integer,
    _lock,
    _symmetrize,
    _tri_solve,
)

BLOCK_SIZE = 1 << 16


class LcemModel:
    """Coefficient matrix, residual covariance, and Gaussian feature law.

    ``signal_factor`` and ``signal_offset`` are C = inv(L) B F and
    d = inv(L) B m (see the module docstring), so that
    s = ||C z + d||^2 for a standard normal z. Every array is the
    model's own read-only float64 copy of a finite input.
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
        fcov = _symmetrize(fcov, "feature_cov")

        chol = self.chol_sigma = residual.chol_sigma
        factor = _psd_factor(fcov, "feature_cov")
        self.feature_factor = _lock(factor)
        self.signal_factor = _lock(_tri_solve(chol, b_mat @ factor))
        self.signal_offset = _lock(_tri_solve(chol, b_mat @ fmean))
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
    """Sample count, seed, and thread cap (``n_streams``) for a Monte Carlo run."""

    n_samples: int
    seed: int = 0
    n_streams: int = 1

    def __post_init__(self):
        for name in ("n_samples", "seed", "n_streams"):
            if not _is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer")
        if self.n_samples < 1:
            raise DomainError("n_samples must be at least 1")
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
    ``f`` is copied to float64 and must be finite.
    """
    fv = _as_array(f, "f", 1)
    if fv.size != model.n_features:
        raise DomainError(f"f must have length {model.n_features}")
    signal = model.B @ fv
    y = _tri_solve(model.chol_sigma, signal)
    s = float(y @ y)
    return (float(scale) / (1.0 + s)) * _back_solve(model.chol_sigma, y)


def block_bounds(n_samples: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) sample ranges; all but the last have BLOCK_SIZE."""
    return [
        (start, min(start + BLOCK_SIZE, n_samples))
        for start in range(0, n_samples, BLOCK_SIZE)
    ]


def _normal_block(seed: int, block_index: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, C-contiguous with one row per sample, with the standard
    normal draws z behind block ``block_index``: the sampling contract of
    the module docstring. Returns ``out``."""
    bitgen = np.random.Philox(key=seed, counter=block_index << 128)
    return np.random.Generator(bitgen).standard_normal(out=out)


def feature_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """Draw the ``count`` feature rows of block ``block_index``.

    Deterministic given (seed, block_index, count); independent of any
    other block.
    """
    z = _normal_block(seed, block_index, np.empty((count, model.n_features)))
    return model.feature_mean + z @ model.feature_factor.T


def _signal_norms(model: LcemModel, seed: int, block_index: int,
                  z: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fill ``s`` with ||C z + d||^2 for the draws z of block
    ``block_index``, forming the signal C z + d in ``y`` one asset per row
    (n x count), so every step runs along contiguous samples. A huge
    signal overflows to inf or nan here, silently; callers check ``s``."""
    _normal_block(seed, block_index, z)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(model.signal_factor, z.T, out=y)
        y += model.signal_offset[:, None]
        np.multiply(y[0], y[0], out=s)
        for row in y[1:]:
            row *= row
            s += row
    return s


def s_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """s = (B f)' inv(Sigma) (B f) for each feature row of block ``block_index``.

    Computed as ||C z + d||^2 from the same draws as :func:`feature_block`.
    """
    return _signal_norms(model, seed, block_index, np.empty((count, model.n_features)),
                         np.empty((model.n_assets, count)), np.empty(count))


def _scratch_views(scratch: dict, model: LcemModel, count: int):
    """Views for ``count`` samples into one worker's buffers: the draws z
    (count x k), the signal y (n x count) and three rows s, a, t. The
    buffers are allocated on first use, sized by that block, and reused
    by every later block of the run, which is never longer (only the
    last block is short)."""
    n, k = model.B.shape
    if scratch.get("size", 0) < count:
        scratch.update(size=count, z=np.empty(count * k), y=np.empty(n * count),
                       rows=np.empty((3, count)))
    return (scratch["z"][:count * k].reshape(count, k),
            scratch["y"][:n * count].reshape(n, count),
            *scratch["rows"][:, :count])


def _block_sums(model: LcemModel, seed: int, block_index: int, count: int,
                scratch: dict):
    """The ten statistic sums of block ``block_index``, formed in place in
    ``scratch``, a dict owned by one worker's run (see
    :func:`_scratch_views`)."""
    z, y, s, a, t = _scratch_views(scratch, model, count)
    _signal_norms(model, seed, block_index, z, y, s)
    if not np.isfinite(s).all():
        raise DegenerateMarket(f"signal s overflows in block {block_index}")
    np.divide(s, np.add(s, 1.0, out=a), out=a)
    # Sums accumulated per block, with a = s / (1 + s):
    #   a1..a4  powers of a        s1..s4  powers of s
    #   as1 = sum a*s, as2 = sum a*s**2
    # Each product lands in t, or in y[0] for s**2 (y is spent once s is
    # formed), and is multiplied in the order a*a*a*a, s2*s, s2*s2 that
    # fixes its bits. Powers of a huge s may overflow; compare_policies
    # rejects those sums.
    s2 = y[0]
    with np.errstate(over="ignore"):
        np.multiply(s, s, out=s2)
        a2 = float(np.multiply(a, a, out=t).sum())
        a3 = float(np.multiply(t, a, out=t).sum())
        a4 = float(np.multiply(t, a, out=t).sum())
        return (
            float(a.sum()), a2, a3, a4,
            float(s.sum()), float(s2.sum()),
            float(np.multiply(s2, s, out=t).sum()),
            float(np.multiply(s2, s2, out=t).sum()),
            float(np.multiply(a, s, out=t).sum()),
            float(np.multiply(a, s2, out=t).sum()),
        )


def _fsum(partials) -> float:
    """Exact sum of nonnegative per-block partials, inf past the float
    maximum (math.fsum raises OverflowError there)."""
    try:
        return math.fsum(partials)
    except OverflowError:
        return math.inf


def _collect_sums(model: LcemModel, cfg: McConfig):
    """Accumulate the statistic sums over all blocks.

    The blocks are split into one contiguous run per worker, and at most
    ``n_streams`` workers, one per CPU, run them. Per-block partials are
    reduced exactly, so the result does not depend on the worker count
    or scheduling. A sum past the float maximum comes back inf.
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = [p for chunk in pool.map(run, range(workers)) for p in chunk]
    return tuple(_fsum(c) for c in zip(*partials))


def _mean_estimate(sum1: float, sum2: float, n: int) -> McEstimate:
    mean = sum1 / n
    if n < 2:
        return McEstimate(value=mean, std_error=0.0, n=n)
    var = max(sum2 - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(value=mean, std_error=math.sqrt(var / n), n=n)


def estimate_q(model: LcemModel, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of E[s / (1 + s)] over the feature law.

    This is the squared unconditional Hansen ratio of the optimal policy.
    Deterministic given (seed, n_samples); independent of n_streams.
    """
    sums = _collect_sums(model, cfg)
    return _mean_estimate(sums[0], sums[1], cfg.n_samples)


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
    budget = SharpeBudget(risk_budget=float(risk_budget))
    risk_budget = budget.risk_budget
    sums = _collect_sums(model, cfg)
    n = cfg.n_samples
    a1, a2, a3, a4, s1, s2, s3, s4, as1, as2 = sums

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
    if a_bar == 1.0:
        raise DegenerateMarket("signal too strong: the q estimate rounds to 1")
    if not math.isfinite(s4):
        raise DegenerateMarket("signal too strong: the sum of s**4 overflows")

    if n < 2:
        cov = np.zeros((3, 3))
    else:
        cov = np.array([
            [a2 - n * a_bar**2, as1 - n * a_bar * b_bar, as2 - n * a_bar * c_bar],
            [as1 - n * a_bar * b_bar, s2 - n * b_bar**2, s3 - n * b_bar * c_bar],
            [as2 - n * a_bar * c_bar, s3 - n * b_bar * c_bar, s4 - n * c_bar**2],
        ]) / (n - 1)

    q_est = _mean_estimate(a1, a2, n)

    sr_smm_val = math.sqrt(a_bar / (1.0 - a_bar))
    d_smm = 1.0 / (2.0 * math.sqrt(a_bar) * (1.0 - a_bar) ** 1.5)
    sr_smm = McEstimate(
        value=sr_smm_val,
        std_error=d_smm * math.sqrt(max(cov[0, 0], 0.0) / n),
        n=n,
    )

    # Covariance policy: unit direction has mean b_bar, second moment
    # b_bar + c_bar, hence variance v below.
    v = b_bar + c_bar - b_bar**2
    sr_mp_val = b_bar / math.sqrt(v)
    d_b = (1.0 - b_bar * (1.0 - 2.0 * b_bar) / (2.0 * v)) / math.sqrt(v)
    d_c = -b_bar / (2.0 * v**1.5)
    grad_mp = np.array([0.0, d_b, d_c])
    sr_mp = McEstimate(
        value=sr_mp_val,
        std_error=math.sqrt(max(grad_mp @ cov @ grad_mp, 0.0) / n),
        n=n,
    )

    grad_delta = np.array([d_smm, -d_b, -d_c])
    delta = McEstimate(
        value=sr_smm_val - sr_mp_val,
        std_error=math.sqrt(max(grad_delta @ cov @ grad_delta, 0.0) / n),
        n=n,
    )

    # std of the down-levering factor 1/(1+s) = 1 - a equals the std of a.
    m2 = max(cov[0, 0], 0.0)
    rescale_val = math.sqrt(m2)
    if m2 > 0.0 and n >= 2:
        m4 = (a4 - 4 * a_bar * a3 + 6 * a_bar**2 * a2
              - 4 * a_bar**3 * a1 + n * a_bar**4) / n
        rescale_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n) / (2.0 * rescale_val)
    else:
        rescale_se = 0.0
    rescale = McEstimate(value=rescale_val, std_error=rescale_se, n=n)

    smm_scale = _finite_scale(risk_budget / math.sqrt(a_bar * (1.0 - a_bar)), budget)
    mp_scale = _finite_scale(risk_budget / math.sqrt(v), budget)
    return LcemComparison(
        q=q_est, sr_smm=sr_smm, sr_mp=sr_mp, delta_sr=delta,
        rescale_std=rescale, smm_scale=smm_scale, mp_scale=mp_scale,
    )
