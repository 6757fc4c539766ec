"""CLI stdout on ``sample_inputs/`` against recorded outputs.

Each file in ``tests/golden/`` is the stdout of one command. The text
between numbers (keys, key order, punctuation, strings) must match
exactly; each number must match within rtol 1e-12 or atol 1e-15, so that
numpy builds which round a last bit differently still agree. Regenerate a
file only for an intended change of output, e.g.

    PYTHONPATH=src python -m smmport merge-states \\
        --market sample_inputs/two_state_market.json --subset 0,1 \\
        > tests/golden/merge_states.json
"""

import math
import pathlib
import re

import pytest

from smmport.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
MARKET = str(SAMPLES / "two_state_market.json")

COMMANDS = {
    "solve_discrete_sharpe.json": [
        "solve-discrete", "--market", MARKET, "--objective", "sharpe"],
    "solve_discrete_kelly.json": [
        "solve-discrete", "--market", MARKET, "--objective", "kelly"],
    "solve_discrete_mean_variance.json": [
        "solve-discrete", "--market", MARKET, "--objective", "mean-variance"],
    "solve_discrete_hedged.json": [
        "solve-discrete", "--market", MARKET,
        "--constraints", str(SAMPLES / "hedge_constraints.json")],
    "merge_states.json": ["merge-states", "--market", MARKET, "--subset", "0,1"],
    "leverage_audit.csv": [
        "leverage-audit", "--csv", str(SAMPLES / "leverage_history.csv")],
    "simulate_lcem.json": [
        "simulate-lcem", "--model", str(SAMPLES / "lcem_model.json"),
        "--n", "65536", "--seed", "42"],
}

NUMBER = re.compile(
    r"(?<![\w.])(?:-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|NaN|-?Infinity)(?![\w.])"
)


def split_numbers(text):
    """The text with every number replaced by ``#``, and the numbers."""
    return NUMBER.sub("#", text), NUMBER.findall(text)


def test_split_numbers():
    skeleton, numbers = split_numbers('{"q_g": -1.5e-07, "n": 42, "x": [NaN, 1]}\n')
    assert skeleton == '{"q_g": #, "n": #, "x": [#, #]}\n'
    assert numbers == ["-1.5e-07", "42", "NaN", "1"]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_stdout_matches_golden(capsys, name):
    assert main(COMMANDS[name]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / name).read_text()
    got_skeleton, got_numbers = split_numbers(got)
    want_skeleton, want_numbers = split_numbers(want)
    assert got_skeleton == want_skeleton
    assert len(got_numbers) == len(want_numbers)
    for i, (g, w) in enumerate(zip(got_numbers, want_numbers)):
        if g != w:
            assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=1e-15), (
                f"number {i}: {g} != {w}"
            )
