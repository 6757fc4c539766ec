import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import smmport
import smmport.cli
import smmport.errors
from smmport import DiscreteMarket, Policy, evaluate
from smmport.cli import main, render_json


SAMPLES = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "sample_inputs"))


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


def test_overflowing_constraint_is_validation_error(capsys, tmp_path):
    # the constraint products are +inf in one state and -inf in the other
    market = write_json(tmp_path / "market.json", {"states": [
        {"prob": 0.5, "mu": [0.1, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
        {"prob": 0.5, "mu": [0.0, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    ]})
    path = write_json(tmp_path / "constraints.json", {"constraints": [
        {"kind": "raw", "g": [[1e200, 0.0], [1e200, 0.0]]},
        {"kind": "raw", "g": [[1e200, 0.0], [-1e200, 0.0]]},
    ]})
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", market, "--constraints", path)
    assert (rc, out) == (2, "")
    assert err.startswith("error: constraint 0 overflows: ") and err.count("\n") == 1


def test_degenerate_market_is_numerical_error(capsys, tmp_path):
    market = {"states": [{"prob": 1.0, "mu": [0.0], "sigma": [[1.0]]}]}
    path = write_json(tmp_path / "flat.json", market)
    rc, _, err = run_cli(capsys, "solve-discrete", "--market", path)
    assert rc == 1 and "error:" in err


def test_linalg_error_is_numerical_error(capsys, monkeypatch, two_state_market_path,
                                        hedge_constraints_path):
    # LinAlgError is a ValueError, but it is not invalid input. Only a
    # hedged solve reaches np.linalg.cond, on its multiplier system.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "cond", fail)
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", two_state_market_path,
                           "--constraints", hedge_constraints_path)
    assert rc == 1 and out == "" and "Singular matrix" in err


def _cold_env():
    """The environment for a new interpreter that imports this smmport."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(smmport.__file__)))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _loaded_in_fresh_process(code: str, cwd=None) -> tuple[set, set]:
    """The smmport submodules, and all modules, loaded once ``code`` has
    run in a new interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=cwd, env=_cold_env())
    assert out.returncode == 0, out.stderr
    modules = set(json.loads(out.stdout.splitlines()[-1]))
    return {m[len("smmport."):] for m in modules if m.startswith("smmport.")}, modules


def test_import_loads_no_scipy():
    _, modules = _loaded_in_fresh_process("import smmport")
    assert sorted(m for m in modules if m.startswith("scipy")) == []


def test_import_loads_no_submodule_numpy_or_thread_pool():
    submodules, modules = _loaded_in_fresh_process("import smmport")
    assert submodules <= {"errors"}
    assert "numpy" not in modules and "concurrent.futures" not in modules


# Each command, and the smmport submodules it loads besides cli, errors
# and moments. No command on one stream loads concurrent.futures.
COMMAND_MODULES = [
    (["solve-discrete", "--market", SAMPLES + "/two_state_market.json"], {"market"}),
    (["solve-discrete", "--market", SAMPLES + "/two_state_market.json",
      "--constraints", SAMPLES + "/hedge_constraints.json"], {"market", "hedging"}),
    (["merge-states", "--market", SAMPLES + "/two_state_market.json", "--subset", "0,1"],
     {"market"}),
    (["simulate-lcem", "--model", SAMPLES + "/lcem_model.json", "--n", "1000"], {"lcem"}),
    (["leverage-audit", "--csv", SAMPLES + "/leverage_history.csv"], {"leverage"}),
    (["flatten", "--returns", "r.csv", "--features", "f.csv", "--out", "flat.csv"],
     {"market", "hedging"}),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=["solve-discrete", "solve-discrete-constraints", "merge-states",
                              "simulate-lcem", "leverage-audit", "flatten"])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules):
    (tmp_path / "r.csv").write_text("r0,r1\n0.01,-0.02\n0.03,0.01\n")
    (tmp_path / "f.csv").write_text("f0\n1.0\n-0.5\n")
    code = ("import contextlib, io\n"
            "from smmport.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")
    submodules, loaded = _loaded_in_fresh_process(code, cwd=tmp_path)
    assert submodules == {"cli", "errors", "moments", *modules}
    assert "concurrent.futures" not in loaded


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


@pytest.mark.parametrize("argv", [
    ["solve-discrete", "--risk-free", "nan"],
    ["solve-discrete", "--risk-free", "inf"],
    ["simulate-lcem", "--risk-budget", "inf"],
    ["solve-discrete", "--risk-budget", "inf"],
    ["solve-discrete", "--objective", "mean-variance", "--risk-param", "inf"],
])
def test_non_finite_risk_parameter_is_validation_error(
    capsys, two_state_market_path, lcem_model_path, argv
):
    inputs = {"solve-discrete": ["--market", two_state_market_path],
              "simulate-lcem": ["--model", lcem_model_path, "--n", "1000"]}
    rc, out, err = run_cli(capsys, argv[0], *inputs[argv[0]], *argv[1:])
    name = argv[-2].lstrip("-").replace("-", "_")
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {name} must be finite and ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--risk-budget", "1e308"],
    ["--risk-budget", "1e308", "--constraints"],
    ["--objective", "mean-variance", "--risk-param", "1e308"],
], ids=["sharpe", "sharpe hedged", "mean-variance"])
def test_risk_parameter_overflowing_policy_scale(
    capsys, two_state_market_path, hedge_constraints_path, argv
):
    if argv[-1] == "--constraints":
        argv = [*argv, hedge_constraints_path]
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", two_state_market_path,
                           *argv)
    name = argv[argv.index("1e308") - 1].lstrip("-").replace("-", "_")
    assert rc == 2 and out == ""
    assert err == f"error: {name} 1e+308 makes the policy scale overflow\n"


@pytest.mark.parametrize("argv", [
    ["--risk-budget", "1e200"],
    ["--objective", "mean-variance", "--risk-param", "5e307"],
    ["--objective", "mean-variance", "--risk-param", "1e308", "--constraints"],
], ids=["sharpe", "mean-variance", "mean-variance hedged"])
def test_policy_second_moment_overflow(
    capsys, two_state_market_path, hedge_constraints_path, argv
):
    # each policy scale is finite; the second moment it gives is not
    if argv[-1] == "--constraints":
        argv = [*argv, hedge_constraints_path]
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", two_state_market_path,
                           *argv)
    assert rc == 2 and out == ""
    assert err == "error: the policy's second moment overflows: its weights are too large\n"


@pytest.mark.parametrize("objective", ["sharpe", "kelly", "mean-variance"])
def test_overflowing_conditional_sharpe_is_one_error_line(tmp_path, objective):
    # mu' inv(Sigma) mu is 1e500; in a process where every warning is an
    # error, the market build must still reach the one error line
    path = write_json(tmp_path / "market.json", {"states": [
        {"prob": 1.0, "mu": [1e150], "sigma": [[1e-200]]}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(smmport.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-W", "error", "-m", "smmport", "solve-discrete",
                          "--market", path, "--objective", objective],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "error: signal too strong: 1 - q is 0.0\n"


def test_simulate_lcem_needs_two_samples(capsys, lcem_model_path):
    rc, out, err = run_cli(capsys, "simulate-lcem", "--model", lcem_model_path, "--n", "1")
    assert rc == 2 and out == ""
    assert err == "error: n_samples must be at least 2\n"


def test_simulate_lcem_scale_overflow(capsys, lcem_model_path):
    rc, out, err = run_cli(capsys, "simulate-lcem", "--model", lcem_model_path,
                           "--n", "1000", "--risk-budget", "1e308")
    assert rc == 2 and out == ""
    assert err == "error: risk_budget 1e+308 makes the policy scale overflow\n"


@pytest.mark.parametrize("model", [
    {"B": [[1e9]], "sigma": [[1e-9]], "feature_mean": [1.0], "feature_cov": [[0.0]]},
    {"B": [[1e200]], "sigma": [[1.0]], "feature_mean": [1.0], "feature_cov": [[1.0]]},
], ids=["q rounds to 1", "s overflows"])
def test_simulate_lcem_signal_too_strong(capsys, tmp_path, model):
    path = write_json(tmp_path / "strong.json", model)
    rc, out, err = run_cli(capsys, "simulate-lcem", "--model", path, "--n", "1000")
    assert rc == 1 and out == ""
    assert err.startswith("error: signal ") and err.count("\n") == 1


def test_simulate_lcem_block_sums_overflow(capsys, tmp_path):
    # s is about 6.6e75: each block's sum of s**4 is finite, and the sum
    # over the two blocks of 65,536 samples passes the float maximum
    model = {"B": [[8.1e37]], "sigma": [[1.0]], "feature_mean": [1.0],
             "feature_cov": [[0.0]]}
    path = write_json(tmp_path / "strong.json", model)
    rc, out, err = run_cli(capsys, "simulate-lcem", "--model", path, "--n", "131072")
    assert rc == 1 and out == ""
    assert err.startswith("error: signal too strong: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("scale, flag, message", [
    (1.0, ["--floor", "inf"], "floor must be finite and positive"),
    (1.0, ["--bandwidth", "inf"], "bandwidth must be finite and positive"),
    (1e200, [], "kernel estimates overflow: responses are too large"),
])
def test_leverage_audit_non_finite_is_validation_error(capsys, tmp_path, scale, flag, message):
    rng = np.random.default_rng(4)
    path = tmp_path / "lev.csv"
    with open(path, "w") as fh:
        fh.write("leverage,return\n")
        for xi, zi in zip(rng.uniform(1.0, 2.0, 200), rng.standard_normal(200)):
            fh.write(f"{float(xi)!r},{scale * float(zi)!r}\n")
    rc, out, err = run_cli(capsys, "leverage-audit", "--csv", str(path), *flag)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_leverage_audit_huge_leverage(capsys, tmp_path):
    # squaring deviations near 1e160 overflows unless the bandwidth
    # rule rescales first
    rng = np.random.default_rng(5)
    path = tmp_path / "lev.csv"
    with open(path, "w") as fh:
        fh.write("leverage,return\n")
        for xi, zi in zip(rng.uniform(1e160, 2e160, 50), rng.standard_normal(50)):
            fh.write(f"{float(xi)!r},{float(zi)!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "leverage-audit", "--csv", str(path))
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 102


def test_leverage_audit_tiny_bandwidth(capsys):
    # only the grid ends coincide with samples: they keep weight 1, and
    # no point may turn into NaN
    rc, out, err = run_cli(capsys, "leverage-audit", "--csv",
                           SAMPLES + "/leverage_history.csv", "--bandwidth", "5e-324")
    assert (rc, err) == (0, "")
    rows = [[float(tok) for tok in line.split(",")] for line in out.splitlines()[1:]]
    x = np.loadtxt(SAMPLES + "/leverage_history.csv", delimiter=",", skiprows=1)[:, 0]
    assert [row[0] for row in rows] == [x.min(), x.max()]
    assert np.all(np.isfinite(rows))


def test_leverage_audit_header_required(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,0.1\n")
    rc, _, err = run_cli(capsys, "leverage-audit", "--csv", str(path))
    assert rc == 2 and "leverage,return" in err


def test_leverage_audit_grid_size_zero(capsys):
    rc, out, err = run_cli(capsys, "leverage-audit", "--csv",
                           SAMPLES + "/leverage_history.csv", "--grid-size", "0")
    assert (rc, out, err) == (2, "", "error: --grid-size must be at least 1\n")


def run_csv_command(capsys, tmp_path, command, text):
    """Run ``command`` with ``text`` as its CSV: the leverage sample, or the
    returns of ``flatten`` next to a one-column features file."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    if command == "leverage-audit":
        rc, out, err = run_cli(capsys, command, "--csv", str(path), "--grid-size", "3")
        return rc, out, err, path
    features = tmp_path / "f.csv"
    features.write_text("f0\n1.5\n-0.5\n")
    out_path = tmp_path / "flat.csv"
    rc, out, err = run_cli(capsys, command, "--returns", str(path),
                           "--features", str(features), "--out", str(out_path))
    return rc, (out_path.read_text() if rc == 0 else out), err, path


@pytest.mark.parametrize("command", ["leverage-audit", "flatten"])
def test_csv_fields_read_as_python_float(capsys, tmp_path, command):
    # surrounding whitespace, digit separators, quoted fields and empty
    # lines (before the header too) read as the plain file does
    plain = "leverage,return\n1000,0.5\n2,-0.25\n"
    loose = "\n leverage , return \n\n 1_000 ,\"0.5\"\n\n2,-2.5e-1\n\n"
    rc, expected, err, _ = run_csv_command(capsys, tmp_path, command, plain)
    assert (rc, err) == (0, "")
    got = run_csv_command(capsys, tmp_path, command, loose)
    assert got[:3] == (0, expected, "")


@pytest.mark.parametrize("command", ["leverage-audit", "flatten"])
@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty file"),
    ("\n\n", "{path}: empty file"),
    ("leverage,return\n", "{path}: no data rows"),
    ("leverage,return\n\n", "{path}: no data rows"),
    # a row wider than the header is never cut to fit
    ("leverage,return\n1.0,0.1\n1,234.5,0.01\n", "{path}:3: 3 fields, header has 2"),
    ("leverage,return\n1.0,0.1\n\n2.0\n", "{path}:4: 1 fields, header has 2"),
    ("leverage,return\n1.0,0.1\n\n2.0,x\n", "{path}:4: malformed row ['2.0', 'x']"),
    ("\nleverage,return\n1.0,0.1\n2.0,\n", "{path}:4: malformed row ['2.0', '']"),
])
def test_csv_errors_name_path_and_row(capsys, tmp_path, command, text, message):
    rc, out, err, path = run_csv_command(capsys, tmp_path, command, text)
    assert (rc, out, err) == (2, "", "error: " + message.format(path=path) + "\n")


@pytest.mark.parametrize("command", ["leverage-audit", "flatten"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_cells_exit_2(capsys, tmp_path, command, cell):
    rc, out, err, _ = run_csv_command(
        capsys, tmp_path, command, f"leverage,return\n1.0,0.1\n2.0,{cell}\n")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "non-finite" in err


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


# The six calls of the benchmark's cold-CLI workload, one numerical
# failure (exit 1) and one invalid input (exit 2); paths are relative to
# a directory that entry_point_dir fills.
ENTRY_POINT_CALLS = {
    "solve-discrete": ["solve-discrete", "--market", "market.json", "--objective", "sharpe"],
    "solve-hedge": ["solve-discrete", "--market", "market.json", "--objective", "kelly",
                    "--constraints", "constraints.json"],
    "merge-states": ["merge-states", "--market", "market.json", "--subset", "0,1"],
    "simulate-lcem": ["simulate-lcem", "--model", "model.json", "--n", "150000",
                      "--seed", "7"],
    "leverage-audit": ["leverage-audit", "--csv", "leverage.csv"],
    "flatten": ["flatten", "--returns", "r.csv", "--features", "f.csv", "--out", "flat.csv"],
    "not-positive-definite": ["solve-discrete", "--market", "not_pd.json"],
    "invalid-json": ["solve-discrete", "--market", "broken.json"],
}
ENTRY_POINT_EXIT = {"not-positive-definite": 1, "invalid-json": 2}


@pytest.fixture
def entry_point_dir(tmp_path):
    for name, sample in [("market.json", "two_state_market.json"),
                         ("constraints.json", "hedge_constraints.json"),
                         ("model.json", "lcem_model.json"),
                         ("leverage.csv", "leverage_history.csv")]:
        shutil.copyfile(os.path.join(SAMPLES, sample), tmp_path / name)
    rng = np.random.default_rng(3)
    for name, prefix, cols in [("r.csv", "r", 3), ("f.csv", "f", 4)]:
        rows = rng.standard_normal((50, cols)).tolist()
        (tmp_path / name).write_text(
            ",".join(f"{prefix}{j}" for j in range(cols)) + "\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    write_json(tmp_path / "not_pd.json", {"states": [
        {"prob": 0.5, "mu": [1.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
        {"prob": 0.5, "mu": [1.0, 1.0], "sigma": [[1.0, 9.0], [9.0, 1.0]]}]})
    (tmp_path / "broken.json").write_text("{not json")
    return tmp_path


# The installed script imports run from smmport.__main__ and exits with
# its status, as setuptools' console-script wrapper does.
SCRIPT = "import sys\nfrom smmport.__main__ import run\nsys.exit(run())\n"
ENTRY_POINTS = {
    "module": ["-m", "smmport"],
    "module-dev": ["-X", "dev", "-W", "error", "-m", "smmport"],
    "script": ["-c", SCRIPT],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", ENTRY_POINT_CALLS)
def test_entry_point_matches_in_process_main(capsys, monkeypatch, entry_point_dir, call,
                                             entry):
    monkeypatch.chdir(entry_point_dir)
    argv = ENTRY_POINT_CALLS[call]
    want = run_cli(capsys, *argv)
    assert want[0] == ENTRY_POINT_EXIT.get(call, 0)
    flat = entry_point_dir / "flat.csv"
    want_flat = flat.read_bytes() if flat.exists() else None
    if want_flat is not None:
        flat.unlink()
    got = subprocess.run([sys.executable, *ENTRY_POINTS[entry], *argv], capture_output=True,
                         cwd=entry_point_dir, env=_cold_env())
    assert (got.returncode, got.stdout, got.stderr) == (
        want[0], want[1].encode(), want[2].encode())
    assert (flat.read_bytes() if flat.exists() else None) == want_flat


def test_main_leaves_the_collector_as_it_was(capsys, two_state_market_path):
    # the freeze belongs to the process entry point, never to main
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    for argv in (["solve-discrete", "--market", two_state_market_path],
                 ["solve-discrete", "--market", "/no/such.json"]):
        run_cli(capsys, *argv)
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen


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


# Exit status for each error a subcommand can raise; a new error class
# must be added here with the status it should give.
EXIT_CODES = {
    "SmmError": 1,
    "NotPositiveDefinite": 1,
    "DegenerateMarket": 1,
    "SingularConstraintSystem": 1,
    "SingularBasis": 1,
    "LinAlgError": 1,
    "DomainError": 2,
    "DimensionMismatch": 2,
    "ShapeMismatch": 2,
    "InvalidSubset": 2,
    "ValueError": 2,
    "FileNotFoundError": 2,
}
ERROR_CLASSES = [
    cls for cls in vars(smmport.errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
] + [np.linalg.LinAlgError, ValueError, FileNotFoundError]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_per_error_class(capsys, monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(smmport.cli, "_cmd_merge_states", fail)
    rc, out, err = run_cli(capsys, "merge-states", "--market", "m.json", "--subset", "0")
    assert rc == EXIT_CODES[error.__name__]
    assert out == "" and err == "error: boom\n"


def _fmt_oracle(x: float) -> str:
    """One float as the emitter first wrote it."""
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _render_json_oracle(obj) -> str:
    """The emitter as first written, type by type: the oracle for render_json."""

    def emit(o) -> str:
        if isinstance(o, dict):
            items = ", ".join(f"{json.dumps(str(k))}: {emit(v)}" for k, v in o.items())
            return "{" + items + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(emit(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_oracle(float(o))
        if o is None:
            return "null"
        return json.dumps(str(o))

    return emit(obj) + "\n"


def test_render_json_matches_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        st.floats(),
        st.sampled_from([math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf,
                         -0.0, 5e-324, 1e308]),
    )
    scalars = st.one_of(
        floats,
        floats.map(np.float64),
        st.floats(width=32).map(np.float32),
        st.integers(),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans(),
        st.none(),
        st.text(),
        st.sampled_from(['"quoted"', "back\\slash", "tab\tand\nnewline", "ünïcødé ∑ 😀"]),
    )
    keys = st.one_of(st.text(), st.integers())
    trees = st.recursive(
        scalars,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(keys, kids, max_size=4),
        ),
        max_leaves=25,
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(trees)
    def check(obj):
        assert render_json(obj) == _render_json_oracle(obj)

    check()


def test_float_rows_match_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        st.floats(),
        st.sampled_from([math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf,
                         -0.0, 5e-324, 1.7976931348623157e308]),
    )
    rows = st.lists(floats, min_size=1, max_size=64)
    # a float row with one np.float64, int or bool in it takes the generic path
    mixed = st.tuples(rows, st.one_of(floats.map(np.float64), st.integers(), st.booleans()),
                      st.integers(0, 64)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    tables = st.lists(st.one_of(rows, mixed), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(tables)
    def check(table):
        assert render_json(table) == _render_json_oracle(table)
        float_rows = [r for r in table if set(map(type, r)) == {float}]
        expected = ["a"] + [",".join(map(_fmt_oracle, r)) for r in float_rows]
        assert smmport.cli._csv_text(["a"], float_rows) == "\n".join(expected) + "\n"

    check()


def test_float_matrices_match_oracle():
    """Rectangular float matrices take the one-call path of render_json and
    _csv_text; one planted np.float64, int or bool sends the matrix down
    the generic path. Both must write what the oracle writes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        st.floats(),
        st.sampled_from([math.nan, math.copysign(math.nan, -1.0), math.inf, -math.inf,
                         -0.0, 5e-324, 1.7976931348623157e308]),
    )
    # width 0 gives empty rows
    matrices = st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(floats, min_size=m, max_size=m), min_size=1, max_size=12))
    leaves = st.one_of(floats.map(np.float64), st.integers(), st.booleans())

    def plant(drawn):
        rows, leaf, at = drawn
        cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        if cells:
            i, j = cells[at % len(cells)]
            rows[i][j] = leaf
        return rows

    mixed = st.tuples(matrices, leaves, st.integers(0, 10**6)).map(plant)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.one_of(matrices, mixed))
    def check(rows):
        assert render_json(rows) == _render_json_oracle(rows)
        doc = {"policy": rows, "q": 0.5}
        assert render_json(doc) == _render_json_oracle(doc)
        if all(type(v) is float for row in rows for v in row):
            expected = ["a"] + [",".join(map(_fmt_oracle, r)) for r in rows]
            assert smmport.cli._csv_text(["a"], rows) == "\n".join(expected) + "\n"

    check()


# One malformed value in one field of a sample input: each must give exit
# 2, no stdout and a single "error:" line naming the field, never a
# traceback (main runs in process, so an uncaught error fails the test).
BIG_INT = int("1" + "0" * 400)
BAD_VALUES = {
    "mapping": {"a": 1},
    "null": None,
    "string": "x",
    "big-int": BIG_INT,
    "ragged": [[1.0], [1.0, 2.0]],
    "number": 5,
}


def _market_with(field, value):
    with open(os.path.join(SAMPLES, "two_state_market.json")) as fh:
        doc = json.load(fh)
    state = doc["states"][0]
    if field == "second_moment":
        del state["sigma"]
    state[field] = value
    return doc


def _model_with(field, value):
    with open(os.path.join(SAMPLES, "lcem_model.json")) as fh:
        doc = json.load(fh)
    doc[field] = value
    return doc


FIELDS = {
    "market prob": lambda v: ("market", _market_with("prob", v)),
    "market mu": lambda v: ("market", _market_with("mu", v)),
    "market sigma": lambda v: ("market", _market_with("sigma", v)),
    "market second_moment": lambda v: ("market", _market_with("second_moment", v)),
    "constraint g": lambda v: ("constraints", {"constraints": [{"kind": "raw", "g": v}]}),
    "constraint target": lambda v: (
        "constraints", {"constraints": [{"kind": "zero_covariance", "target": v}]}),
    "model B": lambda v: ("model", _model_with("B", v)),
    "model sigma": lambda v: ("model", _model_with("sigma", v)),
    "model feature_mean": lambda v: ("model", _model_with("feature_mean", v)),
    "model feature_cov": lambda v: ("model", _model_with("feature_cov", v)),
}


def _expect_one_error_line(rc, out, err, name):
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    # the field, or its plural as an array argument (prob -> probs)
    assert re.search(rf"\b{name}s?\b", lines[0]), lines[0]


# a bare number is a valid probability, so that one pair is left out
BAD_FIELDS = [
    pytest.param(field, value, id=f"{field}-{label}")
    for field in FIELDS for label, value in BAD_VALUES.items()
    if (field, label) != ("market prob", "number")
]


def _argv_with(tmp_path, field, value):
    """The command that reads a sample input whose ``field`` is ``value``."""
    kind, doc = FIELDS[field](value)
    path = write_json(tmp_path / "input.json", doc)
    market = os.path.join(SAMPLES, "two_state_market.json")
    return {
        "market": ["solve-discrete", "--market", path],
        "constraints": ["solve-discrete", "--market", market, "--constraints", path],
        "model": ["simulate-lcem", "--model", path, "--n", "1000"],
    }[kind]


@pytest.mark.parametrize("field, value", BAD_FIELDS)
def test_unreadable_field_is_a_named_error(capsys, tmp_path, field, value):
    argv = _argv_with(tmp_path, field, value)
    _expect_one_error_line(*run_cli(capsys, *argv), field.split()[1])


# A valid value of each field; written as text, even numeric text, any of
# its numbers must be a named error, as it always was for prob.
VALID_VALUES = {
    "market prob": 0.5,
    "market mu": [1.0, 1.0],
    "market sigma": [[1.0, 0.0], [0.0, 1.0]],
    "market second_moment": [[2.0, 1.0], [1.0, 2.0]],
    "constraint g": [[1.0, 0.0], [0.0, 1.0]],
    "constraint target": [[1.0, 0.0], [1.0, 0.0]],
    "model B": [[0.04, 0.02, -0.03], [-0.03, -0.02, 0.02]],
    "model sigma": [[1.0, -0.1], [-0.1, 1.0]],
    "model feature_mean": [1.0, 1.0, -2.0],
    "model feature_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


def _as_text(value, every: bool):
    """``value`` with its first number, or every number, as a string that
    float() reads back as that number."""
    if isinstance(value, list):
        return [_as_text(v, every) if every or i == 0 else v for i, v in enumerate(value)]
    return repr(value)


@pytest.mark.parametrize("every", [False, True], ids=["one-entry", "every-entry"])
@pytest.mark.parametrize("field", VALID_VALUES)
def test_numeric_text_is_a_named_error(capsys, tmp_path, field, every):
    value = VALID_VALUES[field]
    rc, out, err = run_cli(capsys, *_argv_with(tmp_path, field, value))
    assert rc == 0 and out and err == ""
    argv = _argv_with(tmp_path, field, _as_text(value, every))
    _expect_one_error_line(*run_cli(capsys, *argv), field.split()[1])


@pytest.mark.parametrize("constraints", [5, None], ids=["number", "null"])
def test_constraints_must_be_a_list(capsys, tmp_path, two_state_market_path, constraints):
    path = write_json(tmp_path / "c.json", {"constraints": constraints})
    rc, out, err = run_cli(capsys, "solve-discrete", "--market", two_state_market_path,
                           "--constraints", path)
    assert (rc, out, err) == (2, "", 'error: "constraints" must be a list\n')


def test_flatten_overflowing_product_writes_nothing(capsys, tmp_path):
    returns = tmp_path / "r.csv"
    returns.write_text("r1\n1e200\n")
    features = tmp_path / "f.csv"
    features.write_text("f1\n1e200\n")
    out_path = tmp_path / "flat.csv"
    rc, out, err = run_cli(
        capsys, "flatten", "--returns", str(returns),
        "--features", str(features), "--out", str(out_path),
    )
    assert (rc, out, err) == (2, "", "error: returns times features overflows\n")
    assert not out_path.exists()
