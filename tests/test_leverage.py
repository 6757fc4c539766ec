import math
import statistics
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from smmport import (
    DomainError,
    LeverageSample,
    ShapeMismatch,
    kernel_regress,
    leverage,
    leverage_curve,
    silverman_bandwidth,
)


def synthetic_sample(seed=19, a=0.1, sigma=1.0, t_count=20000):
    """y | x ~ N(a x, sigma^2) with x uniform; optimal leverage is
    a x / (sigma^2 + a^2 x^2), essentially linear when the noise dominates."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.5, t_count)
    y = a * x + sigma * rng.standard_normal(t_count)
    return LeverageSample.from_observations(x, y * x), a, sigma


def test_constant_response_reproduced():
    rng = np.random.default_rng(40)
    xs = rng.uniform(0.0, 1.0, 200)
    ys = np.full(200, 5.0)
    grid = np.linspace(0.1, 0.9, 9)
    est = kernel_regress(xs, ys, grid, bandwidth=0.2)
    np.testing.assert_allclose(est, 5.0, rtol=1e-12)


def test_interpolation_with_tiny_bandwidth():
    # samples several bandwidths apart: the estimate interpolates ys
    xs = np.linspace(0.0, 10.0, 100)
    h = (xs.max() - xs.min()) / 1000.0
    est = kernel_regress(xs, xs, xs, bandwidth=h)
    np.testing.assert_allclose(est, xs, atol=1e-6)


def test_far_grid_point_missing():
    xs = np.array([1.0, 1.1, 0.9, 1.05])
    ys = np.array([2.0, 2.1, 1.9, 2.05])
    est = kernel_regress(xs, ys, np.array([1.0, 500.0]), bandwidth=0.1)
    assert est[0] == pytest.approx(2.0, abs=0.1)
    assert np.isnan(est[1])


def test_estimates_are_convex_combinations():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-1.0, 1.0, 500)
    ys = rng.standard_normal(500)
    grid = np.linspace(-1.0, 1.0, 21)
    est = kernel_regress(xs, ys, grid, bandwidth=0.3)
    assert np.all(est >= ys.min() - 1e-12)
    assert np.all(est <= ys.max() + 1e-12)


def test_kernel_regress_validation():
    with pytest.raises(DomainError):
        kernel_regress([1.0, 2.0], [1.0, 2.0], [1.5], bandwidth=0.0)
    with pytest.raises(ShapeMismatch):
        kernel_regress([1.0, 2.0], [1.0], [1.5], bandwidth=0.1)
    with pytest.raises(DomainError):
        kernel_regress([1.0], [1.0], [1.0], bandwidth=0.1)


def test_sample_validation():
    with pytest.raises(DomainError):
        LeverageSample.from_observations([1.0], [0.1])
    with pytest.raises(DomainError):
        LeverageSample.from_observations([1.0, -0.5], [0.1, 0.1])
    with pytest.raises(DomainError, match="^leverage has non-finite entries$"):
        LeverageSample.from_observations([1.0, np.inf], [0.1, 0.1])
    with pytest.raises(DomainError, match="^returns has non-finite entries$"):
        LeverageSample.from_observations([1.0, 2.0], [np.nan, 0.1])
    with pytest.raises(ShapeMismatch):
        LeverageSample.from_observations([1.0, 2.0], [0.1])
    sample = LeverageSample.from_observations([2.0, 4.0], [0.5, 2.0])
    np.testing.assert_allclose(sample.y, [0.25, 0.5])


def test_curve_zero_returns():
    x = np.linspace(1.0, 2.0, 100)
    sample = LeverageSample.from_observations(x, np.zeros(100))
    curve = leverage_curve(sample)
    assert np.all(curve.s_hat > 0.0)
    np.testing.assert_array_equal(curve.lever_hat, 0.0)


def test_curve_floor_binding():
    x = np.linspace(1.0, 2.0, 100)
    sample = LeverageSample.from_observations(x, np.zeros(100))
    curve = leverage_curve(sample, floor=1e-4)
    np.testing.assert_array_equal(curve.s_hat, 1e-4)
    np.testing.assert_array_equal(curve.lever_hat, 0.0)


def test_curve_defaults_and_grid():
    sample, _, _ = synthetic_sample(t_count=2000)
    curve = leverage_curve(sample)
    assert curve.n_points == 101
    assert curve.grid[0] == pytest.approx(sample.x.min())
    assert curve.grid[-1] == pytest.approx(sample.x.max())
    assert np.all(np.diff(curve.grid) > 0.0)
    with pytest.raises(DomainError):
        leverage_curve(sample, grid=[2.0, 1.0])
    with pytest.raises(DomainError):
        leverage_curve(sample, bandwidth=-0.1)
    with pytest.raises(DomainError):
        leverage_curve(sample, floor=0.0)


def test_constant_leverage_needs_explicit_bandwidth():
    sample = LeverageSample.from_observations([1.5] * 50, [0.1] * 50)
    with pytest.raises(DomainError):
        leverage_curve(sample)
    curve = leverage_curve(sample, grid=[1.5], bandwidth=0.5)
    assert curve.n_points == 1


def test_scale_equivariance():
    sample, _, _ = synthetic_sample(seed=43, t_count=4000)
    doubled = LeverageSample.from_observations(sample.x, 2.0 * sample.z)
    h = silverman_bandwidth(sample.x)
    base = leverage_curve(sample, bandwidth=h, floor=1e-12)
    twice = leverage_curve(doubled, bandwidth=h, floor=1e-12)
    np.testing.assert_allclose(twice.m_hat, 2.0 * base.m_hat, rtol=1e-10)
    np.testing.assert_allclose(twice.s_hat, 4.0 * base.s_hat, rtol=1e-10)
    np.testing.assert_allclose(twice.lever_hat, 0.5 * base.lever_hat, rtol=1e-10)


def test_shuffle_invariance():
    sample, _, _ = synthetic_sample(seed=44, t_count=3000)
    rng = np.random.default_rng(0)
    perm = rng.permutation(sample.n)
    shuffled = LeverageSample.from_observations(sample.x[perm], sample.z[perm])
    h = silverman_bandwidth(sample.x)
    a = leverage_curve(sample, bandwidth=h)
    b = leverage_curve(shuffled, bandwidth=h)
    np.testing.assert_allclose(a.lever_hat, b.lever_hat, rtol=1e-9)


def test_synthetic_linear_recovery():
    sample, a, sigma = synthetic_sample(seed=19, t_count=20000)
    curve = leverage_curve(sample)
    lo = curve.n_points // 10
    hi = curve.n_points - lo
    g = curve.grid[lo:hi]
    lever = curve.lever_hat[lo:hi]
    slope = float(g @ lever) / float(g @ g)
    assert slope == pytest.approx(a / sigma**2, rel=0.10)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_bandwidth_and_floor_must_be_finite(bad):
    sample, _, _ = synthetic_sample(t_count=500)
    with pytest.raises(DomainError, match="^bandwidth must be finite and positive$"):
        leverage_curve(sample, bandwidth=bad)
    with pytest.raises(DomainError, match="^floor must be finite and positive$"):
        leverage_curve(sample, floor=bad)
    with pytest.raises(DomainError, match="^bandwidth must be finite and positive$"):
        kernel_regress([1.0, 2.0], [1.0, 2.0], [1.5], bandwidth=bad)


def test_non_finite_estimates_rejected():
    sample, _, _ = synthetic_sample(t_count=500)
    # y**2 overflows: the second-moment estimate would be Infinity
    huge = LeverageSample.from_observations(sample.x, 1e200 * sample.z)
    with pytest.raises(DomainError, match="overflow"):
        leverage_curve(huge)
    # the kernel sums overflow although every response is finite
    with pytest.raises(DomainError, match="overflow"):
        kernel_regress(sample.x, np.full(500, 1e308), [1.5], bandwidth=1.0)


def test_silverman_bandwidth_huge_leverage():
    # np.std of raw values near 1e160 overflows while squaring deviations;
    # the second moments of y = z / x underflow, so the default floor
    # must stay positive
    rng = np.random.default_rng(5)
    x = rng.uniform(1e160, 2e160, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = silverman_bandwidth(x)
        curve = leverage_curve(
            LeverageSample.from_observations(x, rng.standard_normal(50))
        )
    # statistics.stdev sums exact fractions, so it cannot overflow
    assert h == pytest.approx(1.06 * statistics.stdev(x.tolist()) * 50 ** -0.2, rel=1e-14)
    assert curve.n_points == 101 and np.all(np.isfinite(curve.lever_hat))


def _fsum_oracle(xs, ys, grid, h):
    """Kernel sums one grid point at a time, each summed exactly."""
    u = (grid[None, :] - xs[:, None]) / h
    w = np.exp(-0.5 * u * u)
    den = np.array([math.fsum(col) for col in w.T])
    num = np.array([[math.fsum(col) for col in (row[:, None] * w).T] for row in ys])
    return den, num


CHUNK_CASES = [
    (n_grid, t)
    for n_grid in (1, 101, 2**16 + 1)
    for r in [max(1, leverage._CHUNK_ELEMS // n_grid)]
    for t in (r - 1, r, r + 1, 3 * r + 7)
]


@pytest.mark.parametrize("n_grid, t_count", CHUNK_CASES)
def test_nw_sums_chunk_boundaries(n_grid, t_count):
    rng = np.random.default_rng(t_count + n_grid)
    xs = rng.uniform(0.5, 2.5, t_count)
    y = rng.uniform(0.5, 1.5, t_count)
    ys = np.vstack([y, y * y])
    grid = np.linspace(0.0, 3.0, n_grid)
    h = 0.3
    den, num = leverage.nw_sums(xs, y, grid, h, 2)
    want_den, want_num = _fsum_oracle(xs, ys, grid, h)
    np.testing.assert_allclose(den, want_den, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(num, want_num, rtol=1e-13, atol=0.0)
    if t_count >= 2:
        est = kernel_regress(xs, y, grid, h)
        np.testing.assert_allclose(est, want_num[0] / want_den, rtol=1e-13, atol=0.0)


def _leverage_shaped(seed, t_count=20_000):
    """xs, y and the response rows [y; y * y], shaped like the leverage
    workload's data."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.5, 2.5, t_count)
    y = rng.uniform(0.5, 1.5, t_count)
    return xs, y, np.vstack([y, y * y])


@pytest.mark.parametrize("u_max", [30.0, 38.0, 40.0])
def test_nw_sums_across_exp_range(u_max):
    # T = 2e4 samples and G = 101 points over their range; the farthest
    # pairs reach |u| = u_max, where exp(-u**2 / 2) turns subnormal (38)
    # or underflows to 0 (40)
    xs, y, ys = _leverage_shaped(int(u_max))
    grid = np.linspace(0.5, 2.5, 101)
    h = 2.0 / u_max
    den, num = leverage.nw_sums(xs, y, grid, h, 2)
    want_den, want_num = _fsum_oracle(xs, ys, grid, h)
    np.testing.assert_allclose(den, want_den, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(num, want_num, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(den >= leverage.MIN_KERNEL_MASS,
                                  want_den >= leverage.MIN_KERNEL_MASS)


@pytest.mark.parametrize("h", [0.01, 2.0 / 38.0, 0.2])
def test_nw_sums_beyond_the_sample(h):
    # Grid points up to 40 bandwidths past the largest sample, where the
    # kernel mass falls from ~1 through MIN_KERNEL_MASS to 0. A weight
    # exp(-e) carries the rounding of its exponent e times e, so at
    # point j the sums may differ from the oracle by a few eps times
    # e_j, the exponent of the heaviest weight (~2e-13 near e = 690).
    xs, y, ys = _leverage_shaped(46)
    grid = np.linspace(2.5, 2.5 + 40.0 * h, 101)
    den, num = leverage.nw_sums(xs, y, grid, h, 2)
    want_den, want_num = _fsum_oracle(xs, ys, grid, h)
    mask = den >= leverage.MIN_KERNEL_MASS
    np.testing.assert_array_equal(mask, want_den >= leverage.MIN_KERNEL_MASS)
    assert 0 < mask.sum() < grid.size
    e = 0.5 * ((grid[mask] - xs.max()) / h) ** 2
    rtol = 1e-13 + 8.0 * np.finfo(np.float64).eps * e
    assert np.all(np.abs(den[mask] - want_den[mask]) <= rtol * want_den[mask])
    assert np.all(np.abs(num[:, mask] - want_num[:, mask]) <= rtol * want_num[:, mask])


@pytest.mark.parametrize("h", [5e-324, 1e-308, 3e-308])
def test_tiny_bandwidth_interpolates(h):
    # below ~3.9e-309 sqrt(1/2) / h overflows; the weights must stay 1
    # on a sample's own grid point and 0 elsewhere, never NaN
    xs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(kernel_regress(xs, xs, xs, h), xs)


def test_huge_samples_on_their_grid_points():
    # x * scale alone overflows here; the difference is taken first
    xs = np.array([1e300, 2e300, 3e300])
    np.testing.assert_array_equal(kernel_regress(xs, [1.0, 2.0, 3.0], xs, 1e-10),
                                  [1.0, 2.0, 3.0])


def _broadcast_nw_sums(xs, ys, grid, bandwidth):
    """nw_sums with each block's differences formed by a broadcast
    subtract, and its response rows sliced from the stacked (rows, T)
    array ``ys``, in the same blocks, buffers and passes otherwise."""
    n_samples, n_grid = xs.size, grid.size
    rows = max(1, leverage._CHUNK_ELEMS // max(n_grid, 1))
    scale = min(math.sqrt(0.5) / bandwidth, sys.float_info.max)
    scratch = np.empty((min(rows, n_samples), n_grid))
    ones = np.ones(min(rows, n_samples))
    den = np.zeros(n_grid)
    num = np.zeros((ys.shape[0], n_grid))
    for lo in range(0, n_samples, rows):
        hi = min(lo + rows, n_samples)
        w = scratch[:hi - lo]
        np.subtract(grid, xs[lo:hi, None], out=w)
        w *= scale
        w *= w
        np.negative(w, out=w)
        np.exp(w, out=w)
        den += ones[:hi - lo] @ w
        num += ys[:, lo:hi] @ w
    return den, num


def _difference_cases():
    """name -> (xs, grid, a bandwidth in the data's units or None), each
    reaching an edge of the difference grid[j] - xs[t]."""
    rng = np.random.default_rng(2026)
    tiny, big = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
    cases = {}
    for i, s in enumerate(10.0 ** rng.uniform(-5.0, 5.0, 4)):
        xs = s * rng.uniform(0.5, 2.5, 300)
        grid = np.sort(np.concatenate([np.linspace(0.4 * s, 2.6 * s, 23), xs[:3]]))
        cases[f"scale-{s:.3g}"] = (xs, grid, 0.3 * s)
    cases["subnormal"] = (tiny * rng.integers(-2**20, 2**20, 300).astype(float),
                          tiny * np.arange(-2**20, 2**20 + 1, 2**15).astype(float),
                          2**10 * tiny)
    cases["overflow"] = (np.array([-big, -0.75 * big, 1.0, 0.9 * big, big]),
                         np.array([-big, -0.6 * big, 0.0, 0.6 * big, big]), 0.1 * big)
    cases["signed-zero"] = (np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.0]),
                            np.array([-0.0, 0.0, 0.5, 1.0]), 1.0)
    for n_grid in (101, 2**16 + 1):
        r = max(1, leverage._CHUNK_ELEMS // n_grid)
        for t in (r - 1, r, r + 1):
            cases[f"G{n_grid}-T{t}"] = (rng.uniform(0.5, 2.5, t),
                                       np.linspace(0.0, 3.0, n_grid), None)
    return cases


_DIFFERENCE_CASES = _difference_cases()


@pytest.mark.parametrize("h", [5e-324, 1e-10, 0.3])
@pytest.mark.parametrize("case", list(_DIFFERENCE_CASES))
def test_nw_sums_matches_broadcast_difference(case, h):
    # the rank-2 product [1, -x_t] @ [grid; 1] multiplies only by 1, so
    # it must give the subtract's weights and sums bit for bit; the
    # response powers formed per block must give the sums of the stacked
    # [y; y * y], and y alone those of its one row
    xs, grid, own_h = _DIFFERENCE_CASES[case]
    y = np.random.default_rng(xs.size).uniform(-1.0, 1.0, xs.size)
    for powers, ys in ((2, np.vstack([y, y * y])), (1, y[None, :])):
        for bandwidth in (h, own_h) if own_h is not None else (h,):
            with np.errstate(over="ignore"):
                got = leverage.nw_sums(xs, y, grid, bandwidth, powers)
                want = _broadcast_nw_sums(xs, ys, grid, bandwidth)
            for a, b in zip(got, want):
                assert np.array_equal(a, b, equal_nan=True), (case, powers, bandwidth)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (case, powers, bandwidth)


def _traced_peak(call):
    """call() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_leverage_curve_memory_bound():
    # a dense T x G weight matrix at T = 2e5, G = 101 traces ~490 MB. Beyond
    # the sample's own arrays a curve holds one 512 KB weight block and
    # (2, rows) response rows, whatever T is (a stacked [y; y * y] alone
    # would take 3.2 MB), and the bandwidth its own copy of x, scaled in
    # place, and np.std's deviations
    t_count = 200_000
    sample, _, _ = synthetic_sample(seed=45, t_count=t_count)
    curve, peak = _traced_peak(lambda: leverage_curve(sample))
    assert curve.n_points == 101
    assert peak < 16e6
    h, peak = _traced_peak(lambda: silverman_bandwidth(sample.x))
    assert peak <= 2 * 8 * t_count + 64 * 1024
    curve, peak = _traced_peak(lambda: leverage_curve(sample, bandwidth=h))
    assert curve.n_points == 101
    assert peak < 1e6
