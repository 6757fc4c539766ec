import json
import math
import os

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
from smmport.lcem import BLOCK_SIZE, block_bounds, feature_block, s_block
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


def test_mcconfig_validation():
    with pytest.raises(DomainError):
        McConfig(n_samples=0)
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

    monkeypatch.setattr(lcem, "ThreadPoolExecutor", RecordingExecutor)

    def block_sums(model, seed, block_index, count, scratch):
        seen.append(block_index)
        return (float(count),) * 10

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
    # blocks are self-contained: regenerating one gives identical rows
    blk = feature_block(model, seed=9, block_index=1, count=100)
    again = feature_block(model, seed=9, block_index=1, count=100)
    np.testing.assert_array_equal(blk, again)
    other = feature_block(model, seed=9, block_index=2, count=100)
    assert not np.array_equal(blk, other)


def test_s_values_match_direct_formula():
    # ||C z + d||^2 against (B f)' inv(Sigma) (B f) on the same draws
    rng = np.random.default_rng(14)
    models = [small_model(seed=s, n=int(rng.integers(1, 5)),
                          k=int(rng.integers(1, 6))) for s in range(8)]
    v = rng.standard_normal(3)
    models.append(LcemModel(B=rng.standard_normal((2, 3)), sigma=random_spd(rng, 2),
                            feature_mean=rng.standard_normal(3),
                            feature_cov=np.outer(v, v)))
    for i, model in enumerate(models):
        feats = feature_block(model, seed=i, block_index=3, count=4096)
        signal = feats @ model.B.T
        direct = np.einsum("ij,ij->i", signal,
                           np.linalg.solve(model.sigma, signal.T).T)
        # both forms cancel as s -> 0, where only an absolute bound holds
        np.testing.assert_allclose(
            s_block(model, seed=i, block_index=3, count=4096), direct,
            rtol=1e-12, atol=1e-12 * float(direct.mean()),
        )


def plain_block_sums(model, seed, block_index, count):
    """Oracle: the ten sums of one block by the plain formula, with fresh
    arrays, samples along rows and einsum for the squared norms."""
    bitgen = np.random.Philox(key=seed, counter=block_index << 128)
    z = np.random.Generator(bitgen).standard_normal((count, model.n_features))
    y = z @ model.signal_factor.T + model.signal_offset
    s = np.einsum("ij,ij->i", y, y)
    a = s / (1.0 + s)
    s2 = s * s
    return tuple(float(x.sum()) for x in (
        a, a * a, a * a * a, a * a * a * a, s, s2, s2 * s, s2 * s2, a * s, a * s2))


def sample_model():
    with open(SAMPLE_DIR / "lcem_model.json") as fh:
        return LcemModel.from_dict(json.load(fh))


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 17, BLOCK_SIZE, 2 * BLOCK_SIZE + 17, 150_000])
def test_block_sums_bitwise_equal_the_plain_formula(n, seed):
    # one scratch through every block, as in a worker's run: a short last
    # block reuses buffers sized for a full one
    model, scratch = sample_model(), {}
    partials = []
    for b, (start, stop) in enumerate(block_bounds(n)):
        got = lcem._block_sums(model, seed, b, stop - start, scratch)
        assert got == plain_block_sums(model, seed, b, stop - start)
        partials.append(got)
    assert lcem._collect_sums(model, McConfig(n_samples=n, seed=seed)) == tuple(
        math.fsum(c) for c in zip(*partials))


@pytest.mark.parametrize("n_assets", [3, 5])
def test_block_sums_match_the_plain_formula_on_random_models(n_assets):
    """With three or more assets the squared norm is summed over assets in
    another order than einsum's, so the sums agree to rtol 1e-14 rather
    than bit for bit."""
    rng = np.random.default_rng(n_assets)
    for k in (1, 2, 4):
        model = small_model(seed=int(rng.integers(1000)), n=n_assets, k=k)
        scratch = {}
        for b, count in enumerate((BLOCK_SIZE, 17)):
            np.testing.assert_allclose(
                lcem._block_sums(model, 3, b, count, scratch),
                plain_block_sums(model, 3, b, count), rtol=1e-14, atol=0)


@pytest.mark.parametrize("workers", [2, 3])
def test_compare_policies_bitwise_equal_across_workers(monkeypatch, workers):
    # more cores than the host may have, so that each worker count runs
    monkeypatch.setattr(lcem.os, "cpu_count", lambda: workers)
    model = sample_model()
    cfg = McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=5)
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
    sums = (500.0, 300.0, 200.0, 100.0, 1e300, 1e300, math.inf, math.inf, 1.0, 1.0)
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
    collected = []
    for b, (start, stop) in enumerate(block_bounds(n)):
        collected.append(feature_block(model, seed=21, block_index=b,
                                       count=stop - start))
    feats = np.vstack(collected)
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
