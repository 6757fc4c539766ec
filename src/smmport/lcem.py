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
samples costs one normal draw, one matrix product and a row-wise sum of
squares: features are never formed and nothing is solved per sample.

Sampling contract
-----------------
Features are drawn in fixed blocks of ``BLOCK_SIZE`` samples. Block b
uses a Philox counter-based generator keyed by the seed with its counter
advanced to block b's private range, so the draws for a block depend
only on (seed, b). Per-block partial sums are combined across blocks
with exact summation. Streams own whole blocks, hence estimates are
bit-identical for any ``n_streams``; streams may run concurrently.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .moments import (
    MomentPair,
    _as_square,
    _as_vector,
    _chol_solve,
    _lock,
    _symmetrize,
    _tri_solve,
)

BLOCK_SIZE = 1 << 16

# Sums accumulated per block, with a = s / (1 + s):
#   a1..a4  powers of a        s1..s4  powers of s
#   as1 = sum a*s, as2 = sum a*s**2
_N_SUMS = 10


class LcemModel:
    """Coefficient matrix, residual covariance, and Gaussian feature law.

    ``signal_factor`` and ``signal_offset`` are C = inv(L) B F and
    d = inv(L) B m (see the module docstring), so that
    s = ||C z + d||^2 for a standard normal z.
    """

    __slots__ = ("B", "sigma", "feature_mean", "feature_cov",
                 "chol_sigma", "feature_factor",
                 "signal_factor", "signal_offset")

    def __init__(self, B, sigma, feature_mean, feature_cov):
        b_mat = np.ascontiguousarray(B, dtype=np.float64)
        if b_mat.ndim != 2:
            raise DomainError("B must be a 2-d matrix")
        if not np.all(np.isfinite(b_mat)):
            raise DomainError("B has non-finite entries")
        n, k = b_mat.shape
        # with mu = 0, A = Sigma: the moment-pair check validates Sigma
        residual = MomentPair(np.zeros(n), sigma=sigma)
        fmean = _as_vector(feature_mean, "feature_mean")
        if fmean.size != k:
            raise DomainError(f"feature_mean must have length {k}")
        fcov = _symmetrize(_as_square(feature_cov, k, "feature_cov"),
                           "feature_cov")

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
    """Sample count, seed, and stream count for a Monte Carlo run."""

    n_samples: int
    seed: int = 0
    n_streams: int = 1

    def __post_init__(self):
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
        return {"value": self.value, "std_error": self.std_error, "n": self.n}


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
        return {
            "q": self.q.to_dict(),
            "sr_smm": self.sr_smm.to_dict(),
            "sr_mp": self.sr_mp.to_dict(),
            "delta_sr": self.delta_sr.to_dict(),
            "rescale_std": self.rescale_std.to_dict(),
            "smm_scale": self.smm_scale,
            "mp_scale": self.mp_scale,
        }


def lcem_conditional_weights(model: LcemModel, f, scale: float = 1.0) -> np.ndarray:
    """Optimal conditional allocation for feature vector ``f``.

    scale * inv(Sigma) B f / (1 + (B f)' inv(Sigma) (B f)), the
    second-moment direction of the conditional moment pair (B f, Sigma).
    """
    fv = _as_vector(f, "f")
    if fv.size != model.n_features:
        raise DomainError(f"f must have length {model.n_features}")
    signal = model.B @ fv
    y = _tri_solve(model.chol_sigma, signal)
    s = float(y @ y)
    return (float(scale) / (1.0 + s)) * _chol_solve(model.chol_sigma, signal)


def block_bounds(n_samples: int) -> list[tuple[int, int]]:
    """Fixed [start, stop) sample ranges; all but the last have BLOCK_SIZE."""
    return [
        (start, min(start + BLOCK_SIZE, n_samples))
        for start in range(0, n_samples, BLOCK_SIZE)
    ]


def _normal_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """Standard normal draws z behind block ``block_index``, one row per
    sample: the sampling contract of the module docstring."""
    bitgen = np.random.Philox(key=seed, counter=block_index << 128)
    return np.random.Generator(bitgen).standard_normal((count, model.n_features))


def feature_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """Draw the ``count`` feature rows of block ``block_index``.

    Deterministic given (seed, block_index, count); independent of any
    other block.
    """
    z = _normal_block(model, seed, block_index, count)
    return model.feature_mean + z @ model.feature_factor.T


def s_block(model: LcemModel, seed: int, block_index: int, count: int) -> np.ndarray:
    """s = (B f)' inv(Sigma) (B f) for each feature row of block ``block_index``.

    Computed as ||C z + d||^2 from the same draws as :func:`feature_block`.
    """
    y = _normal_block(model, seed, block_index, count) @ model.signal_factor.T
    y += model.signal_offset
    return np.einsum("ij,ij->i", y, y)


def _block_sums(model: LcemModel, seed: int, block_index: int, count: int):
    s = s_block(model, seed, block_index, count)
    a = s / (1.0 + s)
    s2 = s * s
    return (
        float(a.sum()),
        float((a * a).sum()),
        float((a * a * a).sum()),
        float((a * a * a * a).sum()),
        float(s.sum()),
        float(s2.sum()),
        float((s2 * s).sum()),
        float((s2 * s2).sum()),
        float((a * s).sum()),
        float((a * s2).sum()),
    )


def _collect_sums(model: LcemModel, cfg: McConfig):
    """Accumulate the statistic sums over all blocks.

    Blocks are distributed to streams in contiguous runs; per-block
    partials are reduced with math.fsum (exact), so the result does not
    depend on the stream count or scheduling.
    """
    bounds = block_bounds(cfg.n_samples)
    n_blocks = len(bounds)

    def run_block(b: int):
        start, stop = bounds[b]
        return _block_sums(model, cfg.seed, b, stop - start)

    if cfg.n_streams == 1 or n_blocks == 1:
        partials = [run_block(b) for b in range(n_blocks)]
    else:
        streams = min(cfg.n_streams, n_blocks)
        runs = [
            range(
                (s * n_blocks) // streams,
                ((s + 1) * n_blocks) // streams,
            )
            for s in range(streams)
        ]

        def run_stream(blocks):
            return [(b, run_block(b)) for b in blocks]

        partials_by_index: dict[int, tuple] = {}
        with ThreadPoolExecutor(max_workers=streams) as pool:
            for chunk in pool.map(run_stream, runs):
                for b, sums in chunk:
                    partials_by_index[b] = sums
        partials = [partials_by_index[b] for b in range(n_blocks)]

    return tuple(
        math.fsum(p[i] for p in partials) for i in range(_N_SUMS)
    )


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


def _zero_estimate(n: int) -> McEstimate:
    return McEstimate(value=0.0, std_error=0.0, n=n)


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
    if not float(risk_budget) > 0.0:
        raise DomainError("risk_budget must be positive")
    sums = _collect_sums(model, cfg)
    n = cfg.n_samples
    a1, a2, a3, a4, s1, s2, s3, s4, as1, as2 = sums

    if s2 == 0.0:
        # No signal anywhere: both policies are identically zero.
        zero = _zero_estimate(n)
        return LcemComparison(
            q=zero, sr_smm=zero, sr_mp=zero, delta_sr=zero,
            rescale_std=zero, smm_scale=0.0, mp_scale=0.0,
        )

    a_bar = a1 / n      # mean of s/(1+s): the q estimate
    b_bar = s1 / n      # mean of s: mean return of the unit covariance policy
    c_bar = s2 / n      # mean of s**2

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

    smm_scale = float(risk_budget) / math.sqrt(a_bar * (1.0 - a_bar))
    mp_scale = float(risk_budget) / math.sqrt(v)
    return LcemComparison(
        q=q_est, sr_smm=sr_smm, sr_mp=sr_mp, delta_sr=delta,
        rescale_std=rescale, smm_scale=smm_scale, mp_scale=mp_scale,
    )
