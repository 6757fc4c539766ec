import concurrent.futures
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from smmport import (
    DegenerateMarket,
    DomainError,
    LcemModel,
    McConfig,
    MomentPair,
    NotPositiveDefinite,
    compare_policies,
    estimate_q,
    lcem_conditional_weights,
    smm_direction,
)
from smmport import lcem
from smmport.lcem import BLOCK_SIZE, block_bounds, s_block
from conftest import SAMPLE_DIR, random_spd


def small_model(seed=0, n=2, k=3, signal=0.5):
    rng = np.random.default_rng(seed)
    return LcemModel(
        B=signal * rng.standard_normal((n, k)),
        sigma=random_spd(rng, n),
        feature_mean=rng.standard_normal(k),
        feature_cov=random_spd(rng, k),
    )


def test_model_validation():
    with pytest.raises(DomainError):
        LcemModel(B=[0.1, 0.2], sigma=np.eye(2), feature_mean=[0.0],
                  feature_cov=np.eye(1))
    with pytest.raises(DomainError):
        LcemModel(B=np.ones((2, 3)), sigma=np.eye(3), feature_mean=np.zeros(3),
                  feature_cov=np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        LcemModel(B=np.ones((2, 2)), sigma=[[1.0, 2.0], [2.0, 1.0]],
                  feature_mean=np.zeros(2), feature_cov=np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        LcemModel(B=np.ones((2, 2)), sigma=np.eye(2), feature_mean=np.zeros(2),
                  feature_cov=[[1.0, 0.0], [0.0, -0.5]])
    # singular feature covariance is allowed: features are sampled only
    LcemModel(B=np.ones((2, 2)), sigma=np.eye(2), feature_mean=np.zeros(2),
              feature_cov=np.zeros((2, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="sigma has non-finite"):
            LcemModel(B=np.ones((2, 2)), sigma=[[1.0, bad], [bad, 1.0]],
                      feature_mean=np.zeros(2), feature_cov=np.eye(2))
        with pytest.raises(DomainError, match="feature_cov has non-finite"):
            LcemModel(B=np.ones((2, 2)), sigma=np.eye(2),
                      feature_mean=np.zeros(2), feature_cov=[[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("B", [np.zeros((0, 2)), [[]]], ids=["no rows", "no columns"])
def test_model_rejects_empty_B(B):
    # checked before sigma, whose check would name a `mu` the model lacks
    with pytest.raises(DomainError, match="^B must be a nonempty 2-d matrix$"):
        LcemModel(B=B, sigma=np.zeros((0, 0)), feature_mean=np.zeros(2),
                  feature_cov=np.eye(2))


def test_model_symmetrizes_feature_cov_with_a_warning():
    with pytest.warns(UserWarning, match=r"feature_cov deviates from symmetry by "
                                         r"1\.000e-01; symmetrizing"):
        model = LcemModel(B=np.ones((2, 2)), sigma=np.eye(2), feature_mean=np.zeros(2),
                          feature_cov=[[1.0, 0.1], [0.0, 1.0]])
    np.testing.assert_array_equal(model.feature_cov, [[1.0, 0.05], [0.05, 1.0]])


def test_mcconfig_validation():
    with pytest.raises(DomainError):
        McConfig(n_samples=0)
    # one sample has no standard error
    with pytest.raises(DomainError, match="^n_samples must be at least 2$"):
        McConfig(n_samples=1)
    with pytest.raises(DomainError):
        McConfig(n_samples=10, seed=-1)
    with pytest.raises(DomainError):
        McConfig(n_samples=10, seed=2**64)
    with pytest.raises(DomainError):
        McConfig(n_samples=10, n_streams=0)


@pytest.mark.parametrize("field, value", [
    ("n_samples", 1000.0), ("n_samples", True), ("seed", 1.5),
    ("seed", np.float64(2.0)), ("n_streams", 2.5), ("n_streams", np.bool_(True)),
    ("n_streams", "2"),
])
def test_mcconfig_requires_integers(field, value):
    with pytest.raises(DomainError, match=f"^{field} must be an integer$"):
        McConfig(**{"n_samples": 1000, field: value})


def test_mcconfig_accepts_numpy_integers():
    model = small_model()
    cfg = McConfig(n_samples=np.int64(1000), seed=np.uint64(7), n_streams=np.int32(2))
    assert estimate_q(model, cfg) == estimate_q(model, McConfig(n_samples=1000, seed=7))


@pytest.mark.parametrize("cpus", [None, 1, 2, 64, "host"])
def test_threads_capped_at_cpu_count(monkeypatch, cpus):
    if cpus != "host":
        monkeypatch.setattr(lcem.os, "cpu_count", lambda: cpus)
    requested, seen = [], []

    class RecordingExecutor:
        """Records the thread count asked for and maps inline, so no
        thread is ever started."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    # lcem imports ThreadPoolExecutor from concurrent.futures when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)

    def block_sums(model, seed, block_index, count, scratch):
        seen.append(block_index)
        return np.full((1, 10), float(count))

    monkeypatch.setattr(lcem, "_block_sums", block_sums)
    n = 400_000_000
    n_blocks = len(block_bounds(n))
    sums = lcem._collect_sums(None, McConfig(n_samples=n, n_streams=5000))
    workers = min(os.cpu_count() or 1, n_blocks)
    assert requested == ([workers] if workers > 1 else [])
    # contiguous runs, in block order, cover every block once
    assert seen == list(range(n_blocks)) and sums == (float(n),) * 10

    requested.clear()
    lcem._collect_sums(None, McConfig(n_samples=n, n_streams=1))
    assert requested == []


def test_conditional_weights_no_signal():
    model = small_model()
    f = np.zeros(model.n_features)
    np.testing.assert_array_equal(
        lcem_conditional_weights(model, f), np.zeros(model.n_assets)
    )


def test_conditional_weights_scalar_case():
    model = LcemModel(B=[[1.0]], sigma=[[1.0]], feature_mean=[0.0],
                      feature_cov=[[1.0]])
    assert lcem_conditional_weights(model, [1.0], 1.0) == pytest.approx([0.5])


def test_conditional_weights_reject_wrong_length_f():
    model = small_model(k=3)
    with pytest.raises(DomainError, match="^f must have length 3$"):
        lcem_conditional_weights(model, [1.0, 2.0])


def test_model_repr_and_estimate_to_dict():
    assert repr(small_model(n=2, k=3)) == "LcemModel(n_assets=2, n_features=3)"
    estimate = lcem.McEstimate(value=0.25, std_error=0.5, n=10)
    assert estimate.to_dict() == {"value": 0.25, "std_error": 0.5, "n": 10}


def test_conditional_weights_match_moment_pair():
    rng = np.random.default_rng(33)
    for _ in range(20):
        model = small_model(seed=int(rng.integers(1 << 30)))
        f = rng.standard_normal(model.n_features)
        scale = float(rng.uniform(0.5, 2.0))
        got = lcem_conditional_weights(model, f, scale)
        mu = model.B @ f
        pair = MomentPair.from_covariance(mu, model.sigma)
        np.testing.assert_allclose(got, scale * smm_direction(pair),
                                   rtol=1e-12, atol=1e-15)


def test_estimate_q_zero_signal():
    model = LcemModel(B=np.zeros((2, 3)), sigma=np.eye(2),
                      feature_mean=np.zeros(3), feature_cov=np.eye(3))
    est = estimate_q(model, McConfig(n_samples=5000, seed=1))
    assert est.value == 0.0 and est.std_error == 0.0 and est.n == 5000


def test_estimate_q_point_mass_features():
    # degenerate feature law: every sample equals the mean, so the
    # estimate matches the closed form with zero variance
    b = np.array([[0.3, -0.2], [0.1, 0.4]])
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    fmean = np.array([0.7, -1.1])
    model = LcemModel(B=b, sigma=sigma, feature_mean=fmean,
                      feature_cov=np.zeros((2, 2)))
    mu = b @ fmean
    s = mu @ np.linalg.solve(sigma, mu)
    est = estimate_q(model, McConfig(n_samples=4000, seed=3))
    assert est.value == pytest.approx(s / (1.0 + s), rel=1e-14)
    # all samples identical: only cancellation residue remains
    assert est.std_error <= 1e-9


def test_estimate_q_deterministic_and_stream_invariant():
    model = small_model(seed=5)
    base = estimate_q(model, McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=11))
    again = estimate_q(model, McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=11))
    assert base == again
    for streams in (2, 3, 8):
        alt = estimate_q(
            model, McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=11,
                            n_streams=streams)
        )
        assert alt == base
    other_seed = estimate_q(model, McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=12))
    assert other_seed.value != base.value


def test_estimate_q_range_and_monotone_in_signal():
    rng = np.random.default_rng(34)
    for trial in range(5):
        model = small_model(seed=trial, signal=float(rng.uniform(0.1, 1.0)))
        cfg = McConfig(n_samples=20000, seed=7)
        q1 = estimate_q(model, cfg)
        assert 0.0 <= q1.value < 1.0
        doubled = LcemModel(B=2.0 * model.B, sigma=model.sigma,
                            feature_mean=model.feature_mean,
                            feature_cov=model.feature_cov)
        q2 = estimate_q(doubled, cfg)
        assert q2.value > q1.value


def test_estimate_q_std_error_shrinks():
    model = small_model(seed=6)
    small = estimate_q(model, McConfig(n_samples=2000, seed=2))
    large = estimate_q(model, McConfig(n_samples=128000, seed=2))
    assert large.std_error < small.std_error
    assert abs(large.value - small.value) < 5 * (small.std_error + large.std_error)


def test_feature_blocks_partition_samples():
    model = small_model(seed=8)
    n = 2 * BLOCK_SIZE + 123
    bounds = block_bounds(n)
    assert bounds[0] == (0, BLOCK_SIZE)
    assert bounds[-1][1] == n
    rows = sum(b[1] - b[0] for b in bounds)
    assert rows == n
    # blocks are self-contained: regenerating one gives identical values
    blk = s_block(model, seed=9, block_index=1, count=100)
    again = s_block(model, seed=9, block_index=1, count=100)
    np.testing.assert_array_equal(blk, again)
    other = s_block(model, seed=9, block_index=2, count=100)
    assert not np.array_equal(blk, other)


def test_s_values_match_direct_formula():
    # ||C z + d||^2 against (B f)' inv(Sigma) (B f) on the same draws, which
    # are the features' own only for n >= k, where C is kept as it is
    rng = np.random.default_rng(14)
    models = []
    for s in range(8):
        n = int(rng.integers(1, 6))
        models.append(small_model(seed=s, n=n, k=int(rng.integers(1, n + 1))))
    v = rng.standard_normal(2)
    models.append(LcemModel(B=rng.standard_normal((3, 2)), sigma=random_spd(rng, 3),
                            feature_mean=rng.standard_normal(2),
                            feature_cov=np.outer(v, v)))
    for i, model in enumerate(models):
        z = lcem._normal_block(i, 3, np.empty((4096, model.n_features)))
        feats = model.feature_mean + z @ model.feature_factor.T
        signal = feats @ model.B.T
        direct = np.einsum("ij,ij->i", signal,
                           np.linalg.solve(model.sigma, signal.T).T)
        # both forms cancel as s -> 0, where only an absolute bound holds
        np.testing.assert_allclose(
            s_block(model, seed=i, block_index=3, count=4096), direct,
            rtol=1e-12, atol=1e-12 * float(direct.mean()),
        )


def signal_gram(model):
    """Oracle: C C' and d for C = inv(L) B F and d = inv(L) B m, formed
    from the feature covariance, so that no factor of it is used."""
    inv_l = np.linalg.inv(np.linalg.cholesky(model.sigma))
    g = inv_l @ model.B
    return g @ model.feature_cov @ g.T, g @ model.feature_mean


def sampler_models():
    """n < k, n = k and n > k models, a rank-one C with n < k, and a
    point-mass feature law with n < k where every s is 1."""
    rng = np.random.default_rng(23)
    models = {f"{n}x{k}": small_model(seed=int(rng.integers(1000)), n=n, k=k)
              for n, k in ((1, 3), (2, 3), (2, 5), (3, 4), (2, 2), (3, 3), (3, 2), (4, 1))}
    models["rank one"] = LcemModel(
        B=np.outer(rng.standard_normal(2), rng.standard_normal(4)),
        sigma=random_spd(rng, 2), feature_mean=rng.standard_normal(4),
        feature_cov=random_spd(rng, 4))
    models["point mass"] = LcemModel(B=[[1.0, 0.0]], sigma=[[1.0]],
                                     feature_mean=[1.0, 5.0], feature_cov=np.zeros((2, 2)))
    return models


@pytest.mark.parametrize("name", list(sampler_models()))
def test_signal_factor_reproduces_the_signal_covariance(name):
    model = sampler_models()[name]
    factor = model.signal_factor
    gram, _ = signal_gram(model)
    n, k = model.B.shape
    assert factor.shape == (n, min(n, k))
    # to 1e-14 of ||C||_F^2 = tr(C C')
    np.testing.assert_allclose(factor @ factor.T, gram, rtol=0,
                               atol=1e-14 * np.trace(gram))
    if n < k:
        # the Cholesky factor of C C': unique, so no kernel can rotate it
        assert np.array_equal(factor, np.tril(factor))
        assert (np.diagonal(factor) >= 0.0).all()


def test_signal_factor_never_squares_the_signal():
    # C C' would overflow at this scale; its factor scales with C
    model = small_model(seed=4, n=2, k=3)
    huge = LcemModel(B=1e200 * model.B, sigma=model.sigma,
                     feature_mean=model.feature_mean, feature_cov=model.feature_cov)
    assert np.isfinite(huge.signal_factor).all()
    np.testing.assert_allclose(huge.signal_factor, 1e200 * model.signal_factor,
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", list(sampler_models()))
def test_s_block_matches_the_quadratic_form_moments(name):
    """Mean and variance of s against the cumulants of the noncentral
    quadratic form ||C z + d||^2, kappa_r = 2^(r-1) (r-1)!
    (tr(A^r) + r d' A^(r-1) d) with A = C C'."""
    model = sampler_models()[name]
    gram, d = signal_gram(model)

    def kappa(r):
        power = np.linalg.matrix_power(gram, r - 1)
        return 2.0 ** (r - 1) * math.factorial(r - 1) * (
            np.trace(power @ gram) + r * (d @ power @ d))

    s = np.concatenate([s_block(model, 5, b, BLOCK_SIZE) for b in range(4)])
    n = s.size
    mean, var = s.mean(), s.var(ddof=1)
    k1, k2, k4 = d @ d + np.trace(gram), kappa(2), kappa(4)
    if name == "point mass":
        # s = 1 exactly, so a = 1/2 and every sum of squares cancels exactly
        assert k2 == 0.0 and np.ptp(s) == 0.0 and s[0] == k1 == 1.0
        assert estimate_q(model, McConfig(n_samples=n, seed=5)).std_error == 0.0
        return
    # Var of the sample variance is (kappa_4 + 2 kappa_2^2) / n to first order
    assert abs(mean - k1) < 5.0 * math.sqrt(k2 / n)
    assert abs(var - k2) < 5.0 * math.sqrt((k4 + 2.0 * k2 * k2) / n)


def recording_draws(monkeypatch):
    """Wrap every block generator lcem makes so that each of its draws is
    recorded, a copy per call, in the list returned."""
    draws = []
    make = lcem._block_generator

    class Recording:
        def __init__(self, seed, block_index):
            self.generator = make(seed, block_index)

        def standard_normal(self, out):
            self.generator.standard_normal(out=out)
            draws.append(out.copy())
            return out

    monkeypatch.setattr(lcem, "_block_generator", Recording)
    return draws


def test_sample_model_draws_one_normal_per_asset(monkeypatch):
    # n = 2 assets and k = 3 features: two normals per sample, not three
    draws = recording_draws(monkeypatch)
    model = sample_model()
    compare_policies(model, McConfig(n_samples=BLOCK_SIZE + 17), 1.0)
    s_block(model, 0, 0, 100)
    assert {z.shape[1] for z in draws} == {2}
    assert sum(len(z) for z in draws) == BLOCK_SIZE + 17 + 100


@pytest.mark.parametrize("count", [17, lcem._CHUNK + 1, 3 * lcem._CHUNK + 1, BLOCK_SIZE])
@pytest.mark.parametrize("name", list(sampler_models()))
def test_block_chunks_are_one_fill_of_the_block(monkeypatch, name, count):
    # the block sums draw the block in chunks from one generator: their z
    # and s are one fill of the block and s_block's, bit for bit
    model = sampler_models()[name]
    draws, norms = recording_draws(monkeypatch), []
    signal_norms = lcem._signal_norms

    def recording_norms(*args):
        norms.append(signal_norms(*args).copy())
        return args[-1]

    monkeypatch.setattr(lcem, "_signal_norms", recording_norms)
    lcem._block_sums(model, 11, 4, count, {})
    monkeypatch.undo()
    assert len(draws) == len(norms) == -(-count // lcem._CHUNK)
    z = lcem._normal_block(11, 4, np.empty((count, model.signal_factor.shape[1])))
    assert np.concatenate(draws).tobytes() == z.tobytes()
    assert np.concatenate(norms).tobytes() == s_block(model, 11, 4, count).tobytes()


@pytest.mark.parametrize("count", [2, 3, BLOCK_SIZE])
@pytest.mark.parametrize("name", list(sampler_models()))
def test_one_sample_is_the_first_of_any_wider_block(name, count):
    # numpy computes a one-column product by gemv, which rounds otherwise
    # than gemm: a block of one sample must still give that sample's s
    model = sampler_models()[name]
    for seed, block in ((0, 0), (11, 4), (2**64 - 1, 30)):
        one = s_block(model, seed, block, 1)
        assert one.shape == (1,)
        assert one[0].hex() == s_block(model, seed, block, count)[0].hex()


EPS = float(np.finfo(float).eps)
BLOCK_SUM_NAMES = ("a1", "s1", "a2", "s2", "a3", "s3", "a4", "s4", "as1", "as2")


def plain_block_terms(model, seed, block_index, count):
    """Oracle: the ten per-sample terms of one block's sums by the plain
    formula, in the order of BLOCK_SUM_NAMES, with fresh arrays, samples
    along rows and einsum for the squared norms."""
    child = np.random.SeedSequence(seed).spawn(block_index + 1)[block_index]
    z = np.random.Generator(np.random.SFC64(child)).standard_normal(
        (count, model.signal_factor.shape[1]))
    y = z @ model.signal_factor.T + model.signal_offset
    s = np.einsum("ij,ij->i", y, y)
    a = s / (1.0 + s)
    s2 = s * s
    return (a, s, a * a, s2, a * a * a, s2 * s, a * a * a * a, s2 * s2, a * s, a * s2)


def plain_block_sums(model, seed, block_index, count):
    """Oracle: each of the ten plain terms summed exactly."""
    return tuple(math.fsum(x.tolist()) for x in plain_block_terms(model, seed, block_index, count))


def sample_model():
    with open(SAMPLE_DIR / "lcem_model.json") as fh:
        return LcemModel.from_dict(json.load(fh))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("block_index", [0, 1, 30])
def test_normal_block_is_the_spawned_child_driving_sfc64(block_index, seed):
    # the sampling contract, pinned to numpy's documented SeedSequence.spawn
    out = np.empty((100, 3))
    assert lcem._normal_block(seed, block_index, out) is out
    child = np.random.SeedSequence(seed).spawn(block_index + 1)[block_index]
    want = np.random.Generator(np.random.SFC64(child)).standard_normal((100, 3))
    assert np.array_equal(out, want)


def test_normal_blocks_differ_across_seeds_and_block_indices():
    keys = [(seed, b) for seed in (0, 1, 2**64 - 1) for b in (0, 1, 30)]
    firsts = [float(lcem._normal_block(seed, b, np.empty(1))[0]) for seed, b in keys]
    assert len(set(firsts)) == len(keys)


# Exact values for sample_inputs/lcem_model.json, from Gauss-Laguerre
# quadrature of the Laplace transform of s (ROADMAP direction 4).
LCEM_EXACT = {
    "q": 0.0238058609783649,
    "sr_smm": 0.156161455654240,
    "sr_mp": 0.156124032660810,
    "delta_sr": 3.74229934e-5,
    "rescale_std": 0.0181261423,
}


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_compare_policies_within_five_standard_errors_of_exact(seed):
    # the study's sample size: a generator whose normals are off in law
    # moves some estimate by many of its standard errors
    report = compare_policies(sample_model(), McConfig(n_samples=2_000_000, seed=seed), 1.0)
    for key, exact in LCEM_EXACT.items():
        est = getattr(report, key)
        assert est.std_error > 0.0
        assert abs(est.value - exact) < 5.0 * est.std_error, (key, est)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("n", [17, lcem._CHUNK - 1, lcem._CHUNK, lcem._CHUNK + 1, BLOCK_SIZE,
                               BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 17, 150_000])
def test_block_sums_bitwise_equal_the_plain_formula(n, seed):
    """Each block's chunk partials, summed exactly, within 32 eps of the
    plain terms summed exactly (every term is nonnegative, so the bound is
    relative): a chunk is summed by numpy's reductions, whose order follows
    its SIMD width, so no bitwise oracle of it exists. The merge of every
    chunk's partials is one exact sum, math.fsum of them bit for bit."""
    # one scratch through every block, as in a worker's run: a short last
    # block, one sample long at BLOCK_SIZE + 1, reuses buffers sized for a
    # full one
    model, scratch = sample_model(), {}
    partials = []
    for b, (start, stop) in enumerate(block_bounds(n)):
        got = lcem._block_sums(model, seed, b, stop - start, scratch)
        want = plain_block_sums(model, seed, b, stop - start)
        for name, column, w in zip(BLOCK_SUM_NAMES, got.T.tolist(), want):
            g = math.fsum(column)
            assert abs(g - w) <= 32 * EPS * w, (name, g, w)
        partials.extend(got.tolist())
    assert lcem._collect_sums(model, McConfig(n_samples=n, seed=seed)) == tuple(
        math.fsum(c) for c in zip(*partials))


@pytest.mark.parametrize("n_assets", [3, 5])
def test_block_sums_match_the_plain_formula_on_random_models(n_assets):
    """With three or more assets the squared norm is summed over assets in
    another order than einsum's, so s itself differs in its last bits and
    the sums agree to rtol 1e-14."""
    rng = np.random.default_rng(n_assets)
    for k in (1, 2, 4):
        model = small_model(seed=int(rng.integers(1000)), n=n_assets, k=k)
        scratch = {}
        for b, count in enumerate((BLOCK_SIZE, 17)):
            got = lcem._block_sums(model, 3, b, count, scratch)
            np.testing.assert_allclose([math.fsum(c) for c in got.T.tolist()],
                                       plain_block_sums(model, 3, b, count), rtol=1e-14, atol=0)


def test_compare_policies_ignores_the_blas_thread_count():
    # a BLAS reduction splits its sum across threads, so its bits follow the
    # thread count; the block sums use none, and the signal's product splits
    # only its output. At seed 4, sums of a*s and a*s**2 by a whole-block
    # BLAS dot differ between one and two threads.
    code = ("import json, sys; from smmport import lcem; "
            "model = lcem.LcemModel.from_dict(json.load(open(sys.argv[1]))); "
            "cfg = lcem.McConfig(n_samples=3 * lcem.BLOCK_SIZE + 5, seed=4, n_streams=2); "
            "print(json.dumps(lcem.compare_policies(model, cfg, 1.0).to_dict()))")
    src = os.path.dirname(os.path.dirname(lcem.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code, str(SAMPLE_DIR / "lcem_model.json")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0 and run.stderr == "", run
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [2, 3])
def test_compare_policies_bitwise_equal_across_workers(monkeypatch, workers):
    # more cores than the host may have, so that each worker count runs;
    # the last of the four blocks is five samples long
    monkeypatch.setattr(lcem.os, "cpu_count", lambda: workers)
    model = sample_model()
    cfg = McConfig(n_samples=3 * BLOCK_SIZE + 5, seed=5)
    threaded = McConfig(n_samples=cfg.n_samples, seed=5, n_streams=workers)
    assert (compare_policies(model, threaded, 1.0).to_dict()
            == compare_policies(model, cfg, 1.0).to_dict())


def test_compare_policies_zero_signal():
    model = LcemModel(B=np.zeros((2, 2)), sigma=np.eye(2),
                      feature_mean=np.zeros(2), feature_cov=np.eye(2))
    report = compare_policies(model, McConfig(n_samples=1000, seed=0), 1.0)
    assert report.sr_smm.value == 0.0
    assert report.sr_mp.value == 0.0
    assert report.delta_sr.value == 0.0
    assert report.rescale_std.value == 0.0


def test_compare_policies_zero_spread():
    # s = 1 for every feature draw: a = 1/2 everywhere, so every sample
    # variance, hence every standard error and rescale_std, is exactly 0
    model = LcemModel(B=[[1.0]], sigma=[[1.0]], feature_mean=[1.0], feature_cov=[[0.0]])
    report = compare_policies(model, McConfig(n_samples=1000, seed=3), 1.0)
    assert report.q.value == 0.5
    assert report.sr_smm.value == report.sr_mp.value == 1.0
    assert report.delta_sr.value == 0.0 and report.rescale_std.value == 0.0
    assert all(e.std_error == 0.0 for e in (report.q, report.sr_smm, report.sr_mp,
                                            report.delta_sr, report.rescale_std))


def test_compare_policies_dominance_and_consistency():
    for seed in range(4):
        model = small_model(seed=seed, signal=0.3)
        cfg = McConfig(n_samples=60000, seed=seed + 100)
        report = compare_policies(model, cfg, risk_budget=2.0)
        # population optimality holds sample-wise for these estimators
        assert report.delta_sr.value >= 0.0
        assert report.delta_sr.value >= -3.0 * report.delta_sr.std_error
        q = report.q.value
        assert report.sr_smm.value == pytest.approx(
            math.sqrt(q / (1.0 - q)), rel=1e-12
        )
        assert report.smm_scale == pytest.approx(
            2.0 / math.sqrt(q - q * q), rel=1e-12
        )
        assert report.rescale_std.std_error >= 0.0


@pytest.mark.parametrize("kappa", [1.0, 0.1, 0.03, 0.01])
def test_delta_sr_value_against_mpmath(kappa):
    # at a weak signal sr_smm and sr_mp agree in most of their digits;
    # the oracle takes their difference at 50 digits on the same s values
    mpmath = pytest.importorskip("mpmath")
    with open(os.path.join(SAMPLE_DIR, "lcem_model.json")) as fh:
        data = json.load(fh)
    data["B"] = (kappa * np.array(data["B"])).tolist()
    model = LcemModel.from_dict(data)
    n = BLOCK_SIZE
    report = compare_policies(model, McConfig(n_samples=n, seed=7), 1.0)
    with mpmath.workdps(50):
        s = [mpmath.mpf(v) for v in s_block(model, 7, 0, n).tolist()]
        a = mpmath.fsum(v / (1 + v) for v in s) / n
        b = mpmath.fsum(s) / n
        c = mpmath.fsum(v * v for v in s) / n
        exact = mpmath.sqrt(a / (1 - a)) - b / mpmath.sqrt(b + c - b * b)
        assert abs(report.delta_sr.value - exact) <= 1e-13 * abs(exact)


def test_compare_policies_matches_estimate_q():
    model = small_model(seed=9)
    cfg = McConfig(n_samples=30000, seed=13)
    assert compare_policies(model, cfg, 1.0).q == estimate_q(model, cfg)


def test_compare_policies_validation():
    model = small_model(seed=10)
    with pytest.raises(DomainError):
        compare_policies(model, McConfig(n_samples=100, seed=0), 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="^risk_budget must be finite and positive$"):
            compare_policies(model, McConfig(n_samples=100, seed=0), bad)


def test_compare_policies_scale_overflow():
    model = small_model(seed=10)
    with pytest.raises(DomainError, match="^risk_budget 1e\\+308 makes the policy scale overflow$"):
        compare_policies(model, McConfig(n_samples=100, seed=0), 1e308)


STRONG_SIGNALS = {
    # q = s/(1+s) rounds to 1, so 1 - q is 0
    "q rounds to 1": {"B": [[1e9]], "sigma": [[1e-9]], "feature_mean": [1.0],
                      "feature_cov": [[0.0]]},
    # s itself is not finite
    "s overflows": {"B": [[1e200]], "sigma": [[1.0]], "feature_mean": [1.0],
                    "feature_cov": [[1.0]]},
    # s is finite, but s**4 and s**3 are not
    "powers overflow": {"B": [[1e50]], "sigma": [[1.0]], "feature_mean": [0.0],
                        "feature_cov": [[1.0]]},
    # the signal C z + d itself overflows in the matrix product
    "signal overflows": {"B": [[1e308]], "sigma": [[1.0]], "feature_mean": [1.0],
                         "feature_cov": [[1.0]]},
    # the model's own products overflow: B m with n < k, and inv(L) B
    "B m overflows": {"B": [[1.5e308, 1.5e308]], "sigma": [[1.0]],
                      "feature_mean": [1.0, 1.0], "feature_cov": [[1, 0], [0, 1]]},
    "inv(L) B overflows": {"B": [[1e308]], "sigma": [[1e-10]], "feature_mean": [1.0],
                           "feature_cov": [[1.0]]},
    # inv(L) B F overflows before the QR factorization of an n < k model
    "C overflows before QR": {"B": [[1e308, 1e308, 1e308], [1.0, 2.0, 3.0]],
                              "sigma": [[1e-10, 0], [0, 1]], "feature_mean": [0.0, 0.0, 0.0],
                              "feature_cov": np.eye(3).tolist()},
}


# an overflow inside the block kernel must not surface as a RuntimeWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1000, 2 * BLOCK_SIZE])
@pytest.mark.parametrize("name", list(STRONG_SIGNALS))
def test_signal_too_strong_is_degenerate(name, n):
    model = LcemModel.from_dict(STRONG_SIGNALS[name])
    with pytest.raises(DegenerateMarket, match="^signal"):
        compare_policies(model, McConfig(n_samples=n, n_streams=2), 1.0)


def test_non_finite_power_sums_are_degenerate(monkeypatch):
    # s**4 overflowing while q stays below 1 needs s to span some sixty
    # orders of magnitude within one sample; stubbed sums stand in for it
    sums = np.array([[500.0, 1e300, 300.0, 1e300, 200.0, math.inf, 100.0, math.inf, 1.0, 1.0]])
    monkeypatch.setattr(lcem, "_block_sums", lambda model, seed, b, count, scratch: sums)
    with pytest.raises(DegenerateMarket, match="^signal too strong"):
        compare_policies(None, McConfig(n_samples=1000), 1.0)


def test_estimate_q_rejects_overflowing_s():
    model = LcemModel.from_dict(STRONG_SIGNALS["s overflows"])
    with pytest.raises(DegenerateMarket, match="^signal s overflows in block 0$"):
        estimate_q(model, McConfig(n_samples=1000))


def test_conditional_vs_raw_return_sampling():
    # the conditional-moment path must agree with brute-force sampling of
    # returns within Monte Carlo error
    model = small_model(seed=11, signal=0.4)
    n = 60000
    cfg = McConfig(n_samples=n, seed=21)
    report = compare_policies(model, cfg, risk_budget=1.0)

    rng = np.random.default_rng(99)
    z = rng.standard_normal((n, model.n_features))
    feats = model.feature_mean + z @ model.feature_factor.T
    means = feats @ model.B.T
    s = np.einsum(
        "ij,ij->i", means, np.linalg.solve(model.sigma, means.T).T
    )
    scale = report.smm_scale
    weights = (scale / (1.0 + s))[:, None] * np.linalg.solve(model.sigma, means.T).T
    noise = rng.standard_normal((n, model.n_assets)) @ model.chol_sigma.T
    realized = np.einsum("ij,ij->i", weights, means + noise)

    raw_mean = realized.mean()
    raw_se = realized.std(ddof=1) / math.sqrt(n)
    cond_mean = scale * report.q.value
    cond_se = scale * report.q.std_error
    assert abs(raw_mean - cond_mean) <= 4.0 * math.hypot(raw_se, cond_se)

    raw_var = realized.var(ddof=1)
    centered = (realized - raw_mean) ** 2
    raw_var_se = centered.std(ddof=1) / math.sqrt(n)
    assert abs(raw_var - 1.0) <= 4.0 * raw_var_se + 1e-3


def test_model_dict_round_trip():
    model = small_model(seed=12)
    clone = LcemModel.from_dict(model.to_dict())
    np.testing.assert_array_equal(clone.B, model.B)
    np.testing.assert_array_equal(clone.sigma, model.sigma)
    cfg = McConfig(n_samples=5000, seed=4)
    assert estimate_q(clone, cfg) == estimate_q(model, cfg)
    with pytest.raises(DomainError):
        LcemModel.from_dict({"B": [[1.0]]})
