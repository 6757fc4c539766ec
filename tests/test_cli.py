import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import smmport
from smmport import DiscreteMarket, Policy, evaluate
from smmport.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_discrete_known_values(capsys, two_state_market_path):
    rc, out, err = run_cli(
        capsys, "solve-discrete", "--market", two_state_market_path,
        "--objective", "sharpe", "--risk-budget", "1",
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["q"] == pytest.approx(11 / 15, abs=1e-12)
    assert doc["summary"]["sharpe"] == pytest.approx(math.sqrt(11 / 4), abs=1e-10)
    assert doc["summary"]["risk"] == pytest.approx(1.0, rel=1e-8)
    assert doc["optimal_objective"] == pytest.approx(math.sqrt(11 / 4), abs=1e-10)
    assert len(doc["policy"]) == 2


def test_solve_discrete_round_trip(capsys, two_state_market_path):
    rc, out, _ = run_cli(capsys, "solve-discrete", "--market", two_state_market_path)
    assert rc == 0
    doc = json.loads(out)
    with open(two_state_market_path) as fh:
        market = DiscreteMarket.from_dict(json.load(fh))
    policy = Policy([np.asarray(w, dtype=np.float64) for w in doc["policy"]])
    summary = evaluate(market, policy, rfr=doc["summary"]["rfr"])
    # serialized with 17 significant digits: the reported summary must
    # reproduce exactly after re-parsing
    assert summary.mean == doc["summary"]["mean"]
    assert summary.second_moment == doc["summary"]["second_moment"]
    assert summary.variance == doc["summary"]["variance"]
    assert summary.risk == doc["summary"]["risk"]
    assert summary.sharpe == doc["summary"]["sharpe"]
    assert summary.hansen == doc["summary"]["hansen"]


def test_solve_discrete_objectives(capsys, two_state_market_path):
    rc, out, _ = run_cli(
        capsys, "solve-discrete", "--market", two_state_market_path,
        "--objective", "kelly",
    )
    doc = json.loads(out)
    assert rc == 0
    np.testing.assert_allclose(doc["policy"][0], [1 / 3, 1 / 3], rtol=1e-10)
    assert doc["optimal_objective"] == pytest.approx(11 / 30, abs=1e-12)

    rc, out, _ = run_cli(
        capsys, "solve-discrete", "--market", two_state_market_path,
        "--objective", "mean-variance", "--risk-param", "2.0",
    )
    doc = json.loads(out)
    assert rc == 0
    q = 11 / 15
    assert doc["optimal_objective"] == pytest.approx(0.5 * q / (1 - q), rel=1e-12)


def test_solve_discrete_with_constraints(
    capsys, two_state_market_path, hedge_constraints_path
):
    rc, out, _ = run_cli(
        capsys, "solve-discrete", "--market", two_state_market_path,
        "--constraints", hedge_constraints_path,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["q_g"] + doc["spanned_q"] == pytest.approx(doc["q"], abs=1e-10)
    assert doc["summary"]["sharpe"] == pytest.approx(
        math.sqrt(doc["q_g"] / (1 - doc["q_g"])), rel=1e-8
    )
    assert len(doc["multipliers"]) == 1


def test_non_positive_definite_names_state(capsys, tmp_path):
    market = {
        "states": [
            {"prob": 0.5, "mu": [1.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            {"prob": 0.5, "mu": [1.0, 1.0], "sigma": [[1.0, 9.0], [9.0, 1.0]]},
        ]
    }
    path = write_json(tmp_path / "bad.json", market)
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", path)
    assert rc == 1
    assert out == ""
    assert "state 1" in err
    assert err.count("\n") == 1


def test_missing_file_is_validation_error(capsys):
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", "/no/such.json")
    assert rc == 2 and out == "" and err.startswith("error:")


def test_malformed_json_is_validation_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "solve-discrete", "--market", str(path))
    assert rc == 2 and "invalid JSON" in err


@pytest.mark.parametrize("prob", [None, [0.5], "0.5"])
def test_non_numeric_prob_is_validation_error(capsys, tmp_path, prob):
    state = {"mu": [0.1], "sigma": [[1.0]]}
    market = {"states": [dict(state, prob=0.5), dict(state, prob=prob)]}
    path = write_json(tmp_path / "prob.json", market)
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", path)
    assert rc == 2 and out == ""
    assert "state 1: prob must be a number" in err


@pytest.mark.parametrize("constraint, message", [
    ({"kind": "raw", "g": [[math.nan, 0.0], [0.0, 1.0]]},
     "constraint 0: g: state 0: non-finite entries"),
    ({"kind": "zero_covariance", "target": [[1.0, 0.0], [math.inf, 0.0]]},
     "constraint 0: target: state 1: non-finite entries"),
], ids=["g", "target"])
def test_non_finite_constraint_is_validation_error(
    capsys, tmp_path, two_state_market_path, constraint, message
):
    path = write_json(tmp_path / "constraints.json", {"constraints": [constraint]})
    rc, out, err = run_cli(
        capsys, "solve-discrete", "--market", two_state_market_path, "--constraints", path
    )
    assert rc == 2 and out == ""
    assert message in err


def test_degenerate_market_is_numerical_error(capsys, tmp_path):
    market = {"states": [{"prob": 1.0, "mu": [0.0], "sigma": [[1.0]]}]}
    path = write_json(tmp_path / "flat.json", market)
    rc, _, err = run_cli(capsys, "solve-discrete", "--market", path)
    assert rc == 1 and "error:" in err


def test_linalg_error_is_numerical_error(capsys, monkeypatch, two_state_market_path):
    # LinAlgError is a ValueError, but it is not invalid input
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", fail)
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", two_state_market_path)
    assert rc == 1 and out == "" and "Singular matrix" in err


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(smmport.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, smmport; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_merge_states_command(capsys, two_state_market_path):
    rc, out, _ = run_cli(
        capsys, "merge-states", "--market", two_state_market_path, "--subset", "0,1"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["q_before"] == pytest.approx(11 / 15, abs=1e-12)
    assert doc["q_after"] == pytest.approx(9 / 13, abs=1e-12)
    assert doc["delta_q"] == pytest.approx(9 / 13 - 11 / 15, abs=1e-12)
    merged = DiscreteMarket.from_dict(doc["merged_market"])
    assert merged.n_states == 1


def test_merge_states_bad_subset(capsys, two_state_market_path):
    rc, _, err = run_cli(
        capsys, "merge-states", "--market", two_state_market_path, "--subset", "0,x"
    )
    assert rc == 2 and "subset" in err
    rc, _, _ = run_cli(
        capsys, "merge-states", "--market", two_state_market_path, "--subset", "0,7"
    )
    assert rc == 2


def test_simulate_lcem_json(capsys, lcem_model_path):
    rc, out, _ = run_cli(
        capsys, "simulate-lcem", "--model", lcem_model_path,
        "--n", "50000", "--seed", "42", "--risk-budget", "1",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["n_samples"] == 50000 and doc["seed"] == 42
    assert 0.10 < doc["sr_smm"]["value"] < 0.21
    assert doc["delta_sr"]["value"] >= 0.0
    for key in ("q", "sr_smm", "sr_mp", "delta_sr", "rescale_std"):
        assert set(doc[key]) == {"value", "std_error", "n"}


@pytest.mark.parametrize("field", ["sigma", "feature_cov"])
def test_simulate_lcem_non_finite_model(capsys, tmp_path, lcem_model_path, field):
    with open(lcem_model_path) as fh:
        model = json.load(fh)
    model[field][0][0] = math.nan
    path = write_json(tmp_path / "nan_model.json", model)
    rc, out, err = run_cli(capsys, "simulate-lcem", "--model", path, "--n", "1000")
    assert rc == 2 and out == "" and "non-finite" in err


def test_simulate_lcem_text_format(capsys, lcem_model_path):
    rc, out, _ = run_cli(
        capsys, "simulate-lcem", "--model", lcem_model_path,
        "--n", "2000", "--format", "text",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["metric", "value", "std_error", "n"]
    assert any(line.startswith("sr_smm") for line in lines)
    assert any(line.startswith("rescale_std") for line in lines)


def test_simulate_lcem_stream_invariance(capsys, lcem_model_path):
    outputs = []
    for streams in ("1", "3"):
        rc, out, _ = run_cli(
            capsys, "simulate-lcem", "--model", lcem_model_path,
            "--n", "150000", "--seed", "7", "--n-streams", streams,
        )
        assert rc == 0
        outputs.append(json.loads(out))
    for key in ("q", "sr_smm", "sr_mp", "delta_sr", "rescale_std"):
        assert outputs[0][key] == outputs[1][key]


def test_leverage_audit_csv(capsys, tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 2.0, 500)
    z = (0.05 * x + 0.5 * rng.standard_normal(500)) * x
    path = tmp_path / "lev.csv"
    with open(path, "w") as fh:
        fh.write("leverage,return\n")
        for xi, zi in zip(x, z):
            fh.write(f"{float(xi)!r},{float(zi)!r}\n")
    rc, out, _ = run_cli(
        capsys, "leverage-audit", "--csv", str(path), "--grid-size", "11"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,m_hat,s_hat,lever_hat"
    assert len(lines) == 12
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(x.min())
    assert first[2] > 0.0


def test_leverage_audit_missing_points_omitted(capsys, tmp_path):
    # a grid wider than the data support loses its far points
    path = tmp_path / "lev.csv"
    with open(path, "w") as fh:
        fh.write("leverage,return\n")
        for _ in range(50):
            fh.write("1.0,0.01\n")
        for _ in range(50):
            fh.write("2.0,0.02\n")
    rc, out, _ = run_cli(
        capsys, "leverage-audit", "--csv", str(path),
        "--bandwidth", "0.001", "--grid-size", "101",
    )
    assert rc == 0
    assert len(out.strip().splitlines()) < 102


def test_leverage_audit_header_required(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,0.1\n")
    rc, _, err = run_cli(capsys, "leverage-audit", "--csv", str(path))
    assert rc == 2 and "leverage,return" in err


def test_flatten_cli(capsys, tmp_path):
    returns = tmp_path / "r.csv"
    returns.write_text("r1,r2\n1.0,2.0\n3.0,4.0\n")
    features = tmp_path / "f.csv"
    features.write_text("f1,f2,f3\n1.0,0.0,2.0\n0.0,1.0,1.0\n")
    out_path = tmp_path / "flat.csv"
    rc, out, _ = run_cli(
        capsys, "flatten", "--returns", str(returns),
        "--features", str(features), "--out", str(out_path),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"] == 2 and doc["columns"] == 6
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r1*f1,r1*f2,r1*f3,r2*f1,r2*f2,r2*f3"
    np.testing.assert_allclose(
        [float(v) for v in lines[1].split(",")], [1.0, 0.0, 2.0, 2.0, 0.0, 4.0]
    )


def test_flatten_shape_mismatch(capsys, tmp_path):
    returns = tmp_path / "r.csv"
    returns.write_text("r1\n1.0\n2.0\n")
    features = tmp_path / "f.csv"
    features.write_text("f1\n1.0\n")
    rc, _, err = run_cli(
        capsys, "flatten", "--returns", str(returns),
        "--features", str(features), "--out", str(tmp_path / "o.csv"),
    )
    assert rc == 2 and "row counts differ" in err


def test_repeated_runs_byte_identical(two_state_market_path):
    cmd = [
        sys.executable, "-m", "smmport", "solve-discrete",
        "--market", two_state_market_path, "--objective", "sharpe",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


@pytest.mark.parametrize("which", ["returns", "features"])
def test_flatten_rejects_non_finite_cells(capsys, tmp_path, which):
    returns = tmp_path / "r.csv"
    returns.write_text("r1,r2\n1.0,2.0\n3.0,4.0\n")
    features = tmp_path / "f.csv"
    features.write_text("f1\n1.0\n2.0\n")
    bad = returns if which == "returns" else features
    bad.write_text(bad.read_text().replace("2.0", "nan", 1))
    out_path = tmp_path / "flat.csv"
    rc, out, err = run_cli(
        capsys, "flatten", "--returns", str(returns),
        "--features", str(features), "--out", str(out_path),
    )
    assert rc == 2 and out == ""
    assert "finite" in err
    assert not out_path.exists()


def test_flatten_ragged_row_names_path_and_row(capsys, tmp_path):
    returns = tmp_path / "r.csv"
    returns.write_text("r1,r2\n1.0,2.0\n3.0\n")
    features = tmp_path / "f.csv"
    features.write_text("f1\n1.0\n2.0\n")
    out_path = tmp_path / "flat.csv"
    rc, out, err = run_cli(
        capsys, "flatten", "--returns", str(returns),
        "--features", str(features), "--out", str(out_path),
    )
    assert rc == 2 and out == ""
    assert f"{returns}:3" in err
    assert "inhomogeneous" not in err
    assert not out_path.exists()
