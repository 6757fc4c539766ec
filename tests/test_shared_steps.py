"""The numerical steps the modules share, each with one implementation in
``smmport.moments``: the exact sum ``_fsum``, the symmetrization ``_sym``,
the asymmetry warning ``_warn_asymmetric`` and the one solve ``_solve``,
and the overflow checks of ``_pair_stacks``."""

import json
import math
import warnings

import numpy as np
import pytest

from smmport import (
    DiscreteMarket,
    DomainError,
    LcemModel,
    MomentPair,
    conditional_q,
    conditional_sharpe_sq,
    markowitz_direction,
    smm_direction,
)
from smmport.cli import main
from smmport.moments import _fsum, _pivots_ok, _solve, _sym
from conftest import random_spd


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_market(tmp_path, states):
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"states": states}))
    return str(path)


# --- _fsum ---------------------------------------------------------------


def test_fsum_partial_overflow_is_not_an_error():
    # math.fsum raises here although the total is representable
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert _fsum(np.array([1e308, 1e308, -1e308])) == 1e308
    # halving alone would overflow again on four large terms of one sign
    assert _fsum(np.array([1.7e308] * 4 + [-1.7e308] * 4)) == 0.0


def test_fsum_total_past_the_maximum_is_signed_inf():
    assert _fsum(np.array([1.7e308, 1e307])) == math.inf
    assert _fsum(np.array([-1.7e308, -1e307])) == -math.inf


def test_fsum_of_a_stack_sums_each_column():
    terms = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]])
    got = _fsum(terms)
    assert isinstance(got, np.ndarray) and got.tolist() == [1e308, 6.0]
    assert type(_fsum(terms[:, 1])) is float


def test_fsum_has_the_bits_of_math_fsum_where_that_does_not_raise():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.floats(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(floats, min_size=1, max_size=20))
    def check(xs):
        try:
            want = math.fsum(xs)
        except OverflowError:
            return
        assert _fsum(np.array(xs)).hex() == want.hex()

    check()


def reference_fsum(terms):
    """``math.fsum`` one column at a time, scaled down where a partial sum
    overflows: the per-column sum that ``_fsum`` keeps for non-finite and
    near-overflow columns, and had for every column before it was batched."""
    sums = []
    for column in terms.reshape(terms.shape[0], -1).T.tolist():
        try:
            sums.append(math.fsum(column))
        except OverflowError:
            scale = math.ldexp(1.0, len(column).bit_length() + 1)
            sums.append(math.fsum([v / scale for v in column]) * scale)
    sums = np.array(sums).reshape(terms.shape[1:])
    return sums if sums.ndim else float(sums)


def fsum_guard(n_terms):
    """The magnitude from which a column of ``n_terms`` terms is summed by
    ``math.fsum`` alone: 2**(1023 - m) with 2**m >= n_terms + 2."""
    return math.ldexp(1.0, 1023 - (n_terms + 1).bit_length())


def hard_terms(rng, s, k):
    """(s, k) terms with magnitudes from 1e-320 to 1e300, signed zeros, and
    about half of each column cancelling the other half to a few ulps."""
    mags = np.ldexp(rng.uniform(0.5, 1.0, (s, k)), rng.integers(-1063, 997, (s, k)))
    narrow = np.ldexp(rng.uniform(0.5, 1.0, (s, k)), rng.integers(-60, 60, (s, k)))
    x = np.where(rng.random((s, k)) < 0.5, mags, narrow)
    x = np.where(rng.random((s, k)) < 0.5, -x, x)
    half = s // 2
    x[half:2 * half] = -x[:half] * (1.0 + np.ldexp(rng.integers(-4, 5, (half, k)), -52))
    x[rng.random((s, k)) < 0.05] = 0.0
    x[rng.random((s, k)) < 0.05] = -0.0
    return x[rng.permutation(s)]


def test_fsum_of_large_stacks_has_the_bits_of_math_fsum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.integers(1, 5000), st.integers(1, 10), st.integers(0, 0xFFFF_FFFF))
    def check(s, k, seed):
        terms = hard_terms(np.random.default_rng(seed), s, k)
        got = _fsum(terms)
        for j in range(k):
            assert got[j].hex() == math.fsum(terms[:, j].tolist()).hex()
        assert _fsum(terms[:, 0]).hex() == got[0].hex()

    check()


@pytest.mark.parametrize("s", [1, 2, 3, 1000, 4094, 4095])
def test_fsum_near_the_overflow_guard(s):
    rng = np.random.default_rng(s)
    guard = fsum_guard(s)
    for top in (math.nextafter(guard, 0.0), guard):
        terms = np.ldexp(rng.uniform(-1.0, 1.0, (s, 3)), -rng.integers(0, 60, (s, 3)))
        terms *= top
        terms[0] = [top, -top, 0.5 * top]
        if s > 1:
            terms[1] = [top, -top, -top]
        got = _fsum(terms)
        assert got.tobytes() == reference_fsum(terms).tobytes()
        for j in range(3):
            column = terms[:, j].tolist()
            try:
                want = math.fsum(column)
            except OverflowError:
                continue
            assert got[j].hex() == want.hex()


@pytest.mark.parametrize("special", [
    [math.nan], [math.inf], [-math.inf], [math.inf, math.inf], [math.nan, math.inf],
    [-math.inf, math.nan, -math.inf],
])
def test_fsum_of_non_finite_columns_is_unchanged(special):
    terms = np.array([[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]])
    terms[:len(special), 1] = special
    got, want = _fsum(terms), reference_fsum(terms)
    assert got[0] == 9.0
    assert got.tobytes() == want.tobytes() or (np.isnan(got[1]) and np.isnan(want[1]))
    assert str(_fsum(terms[:, 1])) == str(reference_fsum(terms[:, 1]))


@pytest.mark.parametrize("mixed", [[math.inf, -math.inf], [-math.inf, math.nan, math.inf]])
def test_fsum_of_mixed_infinities_raises_the_value_error(mixed):
    terms = np.zeros((4, 3))
    terms[:len(mixed), 2] = mixed
    with pytest.raises(ValueError) as want:
        reference_fsum(terms)
    with pytest.raises(ValueError) as got:
        _fsum(terms)
    assert str(got.value) == str(want.value) == "-inf + inf in fsum"


def test_fsum_of_a_vector_is_a_python_float():
    for terms in (np.array([0.1] * 10), np.array([-0.0, -0.0]), np.array([1e308, 1e308])):
        got = _fsum(terms)
        assert type(got) is float
        assert got.hex() == reference_fsum(terms).hex()
    assert _fsum(np.array([-0.0])).hex() == math.fsum([-0.0]).hex() == "0x0.0p+0"


def test_sum_overflow_is_a_named_error_on_the_cli(capsys, tmp_path):
    # the two second-moment terms sum past the float maximum
    states = [{"prob": 0.5, "mu": [1.0], "sigma": [[1.0]]},
              {"prob": 0.5000000000009, "mu": [1.0], "sigma": [[1.0]]}]
    rc, out, err = run_cli(capsys, "solve-discrete", "--risk-budget", "9.480751908115e+153",
                           "--market", write_market(tmp_path, states))
    assert (rc, out) == (2, "")
    assert err == "error: the policy's second moment overflows: its weights are too large\n"


# --- _sym ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sym_has_the_bits_of_the_plain_mean(n):
    rng = np.random.default_rng(n)
    mags = 10.0 ** rng.uniform(-300, 300, (400, n, n))
    m = np.where(rng.random((400, n, n)) < 0.5, -mags, mags)
    assert _sym(m).tobytes() == ((m + np.swapaxes(m, 1, 2)) / 2.0).tobytes()


def test_sym_cannot_overflow():
    big = math.ldexp(1.0, 1023)
    m = np.array([[1.0, big], [1.5 * big, 1.0]])
    with np.errstate(over="ignore"):
        assert not np.isfinite((m + m.T) / 2.0).all()
    assert _sym(m).tolist() == [[1.0, 1.25 * big], [1.25 * big, 1.0]]


def test_market_with_a_huge_variance_is_solved(capsys, tmp_path):
    # pivot ratio 1e-8, well inside PIVOT_RTOL; (M + M')/2 overflowed here
    states = [{"prob": 1.0, "mu": [1.0, 0.0], "sigma": [[1e308, 0.0], [0.0, 1e300]]}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "solve-discrete", "--market",
                               write_market(tmp_path, states))
    assert (rc, err) == (0, "")
    assert json.loads(out)["q"] == pytest.approx(1e-308, rel=1e-15)


# --- _warn_asymmetric ----------------------------------------------------

SKEW = [[1.0, 0.1], [0.3, 1.0]]
LCEM = {"B": [[0.1, 0.0], [0.0, 0.1]], "sigma": np.eye(2).tolist(),
        "feature_mean": [0.0, 0.0], "feature_cov": np.eye(2).tolist()}

ENTRY_POINTS = {
    "MomentPair": lambda: MomentPair([0.1, 0.0], sigma=SKEW),
    "from_covariance": lambda: MomentPair.from_covariance([0.1, 0.0], SKEW),
    "from_second_moment": lambda: MomentPair.from_second_moment([0.1, 0.0], SKEW),
    "DiscreteMarket.from_dict": lambda: DiscreteMarket.from_dict(
        {"states": [{"prob": 1.0, "mu": [0.1, 0.0], "second_moment": SKEW}]}),
    "DiscreteMarket.from_arrays": lambda: DiscreteMarket.from_arrays(
        [1.0], [[0.1, 0.0]], [SKEW], [False]),
    "LcemModel": lambda: LcemModel(**{**LCEM, "sigma": SKEW}),
    "LcemModel.from_dict": lambda: LcemModel.from_dict({**LCEM, "feature_cov": SKEW}),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_asymmetry_warning_points_at_the_caller(entry):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry]()
    assert len(caught) == 1
    assert "deviates from symmetry by 2.000e-01; symmetrizing" in str(caught[0].message)
    assert caught[0].filename == __file__


# --- _solve --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
def test_each_state_pair_agrees_with_the_market_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    s = 60
    probs = rng.uniform(0.2, 1.0, s)
    mu = 0.5 * rng.standard_normal((s, n))
    mats = np.array([random_spd(rng, n) for _ in range(s)])
    given = rng.random(s) < 0.5
    mats[given] += mu[given, :, None] * mu[given, None, :]
    market = DiscreteMarket.from_arrays(probs / probs.sum(), mu, mats, given)
    for i, pair in enumerate(market.moments):
        assert conditional_q(pair) == market.conditional_q[i]
        assert conditional_sharpe_sq(pair) == market.conditional_sharpe_sq[i]
        assert smm_direction(pair).tobytes() == market.smm_directions[i].tobytes()
        assert markowitz_direction(pair).tobytes() == market.markowitz_directions[i].tobytes()


@pytest.mark.parametrize("stack", [False, True], ids=["one-factor", "stack"])
def test_solve_gives_one_ratio_per_column_with_the_bits_of_a_vector_solve(stack):
    # hedges solve a matrix right-hand side, a basis and the multipliers
    # one factor; each column is solved as if alone
    rng = np.random.default_rng([7, stack])
    n, k = 4, 3
    lower = np.stack([np.linalg.cholesky(random_spd(rng, n)) for _ in range(5)])
    b = rng.standard_normal((5, n, k))
    if not stack:
        lower, b = lower[0], b[0]
    x, ratio = _solve(lower, b)
    assert x.shape == b.shape and ratio.shape == b.shape[:-2] + (k,)
    for j in range(k):
        x_j, ratio_j = _solve(lower, b[..., j])
        assert x[..., j].tobytes() == x_j.tobytes()
        assert np.shape(ratio_j) == b.shape[:-2]
        assert ratio[..., j].tobytes() == np.asarray(ratio_j).tobytes()


# --- overflow of Sigma + mu mu' ------------------------------------------

HUGE_MU = {
    "both entries": ({"mu": [1e160, 1e160], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                     "second_moment overflows: mu is too large"),
    "one entry": ({"mu": [1e160, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                  "second_moment overflows: mu is too large"),
    "second moment given": ({"mu": [1e160, 0.0], "second_moment": [[1e300, 0.0], [0.0, 1.0]]},
                            "sigma overflows: mu is too large"),
}


@pytest.mark.parametrize("kind", list(HUGE_MU))
def test_overflowing_mu_mu_is_a_named_input_error(kind, capsys, tmp_path):
    state, message = HUGE_MU[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{message}$"):
            MomentPair(**state)
        rc, out, err = run_cli(capsys, "solve-discrete", "--market",
                               write_market(tmp_path, [{"prob": 1.0, **state}]))
    assert (rc, out, err) == (2, "", f"error: state 0: {message}\n")


def test_nan_pivot_fails_the_pivot_test():
    ok = _pivots_ok(np.array([[[np.nan]], [[1.0]]]), np.array([[[1.0]], [[1.0]]]))
    assert ok.tolist() == [False, True]
