"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerances
and runtime budget and printing a PASS line (visible with ``pytest -s``).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from smmport import (
    HedgeConstraint,
    Kelly,
    LcemModel,
    LeverageSample,
    McConfig,
    MeanVariance,
    Policy,
    SharpeBudget,
    compare_policies,
    conditional_sharpe_sq,
    evaluate,
    leverage_curve,
    markowitz_policy,
    merge_states,
    optimal_objective_value,
    q_of,
    smm_direction,
    smm_policy,
    solve_hedge,
)
from smmport.cli import main as cli_main
from conftest import random_market, random_moment_pair


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_worked_example_exactness(two_state_market):
    started = time.perf_counter()
    q = q_of(two_state_market)
    assert abs(q - 11 / 15) <= 1e-12

    smm = evaluate(two_state_market, smm_policy(two_state_market, SharpeBudget(risk_budget=1.0)))
    assert abs(smm.sharpe - math.sqrt(11 / 4)) <= 1e-10

    mp = evaluate(two_state_market, markowitz_policy(two_state_market, SharpeBudget(risk_budget=1.0)))
    assert abs(mp.sharpe - 1.5) <= 1e-12

    boost = smm.sharpe / mp.sharpe
    assert abs(boost - math.sqrt(11) / 3) <= 1e-10
    assert boost - 1.0 == pytest.approx(0.1055, abs=6e-4)
    _report(1, "two-state worked example exact", started, 1.0)


def test_criterion_2_rank_one_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        pair = random_moment_pair(rng, int(rng.integers(1, 9)))
        sigma_inv_mu = np.linalg.inv(pair.sigma) @ pair.mu
        expected = sigma_inv_mu / (1.0 + pair.mu @ sigma_inv_mu)
        got = smm_direction(pair)
        scale = 1.0 + float(np.max(np.abs(sigma_inv_mu)))
        assert float(np.max(np.abs(got - expected))) <= 1e-9 * scale

    for _ in range(100):
        market = random_market(rng)
        complement = 1.0 - sum(
            p / (1.0 + conditional_sharpe_sq(m)) for p, m in market.states
        )
        assert abs(q_of(market) - complement) <= 1e-10
    _report(2, "rank-one update identity, 1000 pairs + 100 markets", started, 5.0)


def test_criterion_3_pythagorean_decomposition():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    done = 0
    while done < 100:
        market = random_market(rng, n_assets=int(rng.integers(2, 5)),
                               n_states=int(rng.integers(2, 6)))
        n_con = int(rng.integers(1, 3))
        constraints = [
            HedgeConstraint.raw(
                [rng.standard_normal(market.n_assets)
                 for _ in range(market.n_states)],
                market,
            )
            for _ in range(n_con)
        ]
        policy, sol = solve_hedge(market, constraints, Kelly())
        assert abs(q_of(market) - (sol.q_g + sol.spanned_q)) <= 1e-10
        for con in constraints:
            residual = sum(
                p * float(g @ w) for (p, _), g, w in
                zip(market.states, con.g, policy.weights)
            )
            assert abs(residual) <= 1e-9

        # optimizer restricted to the span of inv(A) g_j recovers spanned_q
        from smmport import optimize_basis

        basis = [
            [np.linalg.solve(m.second_moment, g)
             for (_, m), g in zip(market.states, con.g)]
            for con in constraints
        ]
        _, summary = optimize_basis(market, basis, Kelly())
        assert abs(summary.hansen**2 - sol.spanned_q) <= 1e-10
        done += 1
    _report(3, "q = q_g + b'M^-1 b on 100 instances", started, 10.0)


def test_criterion_4_lcem_reproduction(lcem_model_path):
    started = time.perf_counter()
    with open(lcem_model_path) as fh:
        model = LcemModel.from_dict(json.load(fh))
    cfg = McConfig(n_samples=2_000_000, seed=42, n_streams=1)
    report = compare_policies(model, cfg, risk_budget=1.0)

    sr = math.sqrt(report.q.value / (1.0 - report.q.value))
    assert abs(sr - 0.156) <= 0.010
    assert 0.0 <= report.delta_sr.value <= 2e-4
    assert abs(report.rescale_std.value - 0.018) <= 0.005
    _report(4, "linear-model Monte Carlo matches published values", started, 60.0)


def test_criterion_5_optimality_and_merge_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(200):
        market = random_market(rng, n_assets=int(rng.integers(1, 5)),
                               n_states=int(rng.integers(1, 6)))
        budget = 1.0
        best = evaluate(market, smm_policy(market, SharpeBudget(risk_budget=budget)))
        for _ in range(50):
            raw = Policy([rng.standard_normal(market.n_assets)
                          for _ in range(market.n_states)])
            risk = evaluate(market, raw).risk
            if risk == 0.0:
                continue
            rival = evaluate(market, raw.scaled(budget / risk))
            assert best.sharpe >= rival.sharpe - 1e-9

    for _ in range(200):
        market = random_market(rng, n_states=int(rng.integers(2, 6)))
        size = int(rng.integers(2, market.n_states + 1))
        subset = rng.choice(market.n_states, size=size, replace=False)
        _, delta_q = merge_states(market, subset)
        assert delta_q <= 1e-12
    _report(5, "policy optimality + merge monotonicity", started, 30.0)


def test_criterion_6_kelly_and_mean_variance_values():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(50):
        market = random_market(rng)
        q = q_of(market)

        kelly = smm_policy(market, Kelly())
        s = evaluate(market, kelly)
        kelly_value = s.mean - 0.5 * s.second_moment
        assert abs(kelly_value - q / 2.0) <= 1e-10
        for bump in (0.9, 1.1):
            sb = evaluate(market, kelly.scaled(bump))
            bumped = sb.mean - 0.5 * sb.second_moment
            if q > 0.0:
                assert bumped < kelly_value
            else:
                assert bumped <= kelly_value

        lam = float(rng.uniform(0.5, 4.0))
        mv = smm_policy(market, MeanVariance(risk_param=lam))
        sv = evaluate(market, mv)
        mv_value = sv.mean - sv.variance / lam
        expected = (lam / 4.0) * q / (1.0 - q)
        assert abs(mv_value - expected) <= 1e-10
        assert optimal_objective_value(q, MeanVariance(lam)) == pytest.approx(
            expected, rel=1e-14
        )
    _report(6, "Kelly value q/2 and mean-variance value", started, 30.0)


def test_criterion_7_leverage_synthetic_recovery():
    started = time.perf_counter()
    a, sigma, t_count = 0.1, 1.0, 20000
    rng = np.random.default_rng(19)
    x = rng.uniform(0.5, 2.5, t_count)
    y = a * x + sigma * rng.standard_normal(t_count)
    sample = LeverageSample.from_observations(x, y * x)
    curve = leverage_curve(sample)

    lo = curve.n_points // 10
    hi = curve.n_points - lo
    g = curve.grid[lo:hi]
    lever = curve.lever_hat[lo:hi]
    slope = float(g @ lever) / float(g @ g)
    assert abs(slope - a / sigma**2) <= 0.10 * (a / sigma**2)
    _report(7, "leverage curve slope within 10%", started, 10.0)


def test_criterion_8_determinism(capsys, two_state_market_path, lcem_model_path):
    started = time.perf_counter()
    cmd = [
        sys.executable, "-m", "smmport", "solve-discrete",
        "--market", two_state_market_path,
    ]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout

    sim_args = ["simulate-lcem", "--model", lcem_model_path,
                "--n", "150000", "--seed", "5"]
    outputs = []
    for _ in range(2):
        rc = cli_main(sim_args)
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    by_stream = []
    for streams in ("1", "4"):
        rc = cli_main(sim_args + ["--n-streams", streams])
        assert rc == 0
        by_stream.append(json.loads(capsys.readouterr().out))
    for key in ("q", "sr_smm", "sr_mp", "delta_sr", "rescale_std"):
        assert by_stream[0][key] == by_stream[1][key]
    _report(8, "byte-identical runs, stream-count invariance", started, 60.0)
