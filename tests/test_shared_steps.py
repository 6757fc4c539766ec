"""The numerical steps the modules share, each with one implementation in
``smmport.moments``: the exact sum ``_fsum``, the symmetrization ``_sym``,
the asymmetry warning ``_warn_asymmetric`` and the moment-pair solve
``_solve``, and the overflow checks of ``_pair_stacks``."""

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
from smmport.moments import _fsum, _pivots_ok, _sym
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


def test_sum_overflow_is_a_named_error_on_the_cli(capsys, tmp_path):
    # the two second-moment terms sum past the float maximum
    states = [{"prob": 0.5, "mu": [1.0], "sigma": [[1.0]]},
              {"prob": 0.5000000000009, "mu": [1.0], "sigma": [[1.0]]}]
    rc, out, err = run_cli(capsys, "solve-discrete", "--risk-budget", "9.480751908107e+153",
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
