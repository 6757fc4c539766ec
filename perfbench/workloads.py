"""The four workloads: seeded inputs, one timed op, and its output checks.

Each workload object does its set-up in ``__init__``. ``op(i, tr)`` is the
timed unit of work; ``check(i, out)`` returns the problems found in its
output (empty when correct); ``after_loop(first)`` runs once per run,
untimed, and returns the problems it finds with op 0's output.

Only names exported from ``smmport`` are called, plus ``smmport.cli.main``
and ``smmport.cli.render_json``. A name that has gone raises
``MissingApi``, which fails the op and leaves the metric missing.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import smmport

# Sampling contract in the lcem module docstring: samples per Philox block.
BLOCK_SIZE = 65536
MC_SAMPLES = 2_000_000
MARKET_STATES = 2000
MARKET_ASSETS = 4
LEVERAGE_T = 20_000
LEVERAGE_GRID = 101
CLI_LCEM_SAMPLES = 150_000
FLATTEN_SHAPE = (1000, 3, 4)  # rows, return columns, feature columns

# Exact values for sample_inputs/lcem_model.json (Gauss-Laguerre, ROADMAP).
LCEM_EXACT = {
    "q": 0.0238058609783649,
    "sr_smm": 0.156161455654242,
    "sr_mp": 0.15612403266081,
    "delta_sr": 3.74230e-5,
    "rescale_std": 0.0181261423458,
}
Z_LIMIT = 5.0


class MissingApi(Exception):
    """A probed public name no longer exists."""


def api(name: str):
    obj = getattr(smmport, name, None)
    if obj is None:
        raise MissingApi(name)
    return obj


def cli_api(name: str):
    try:
        module = importlib.import_module("smmport.cli")
    except ImportError:
        raise MissingApi("cli") from None
    obj = getattr(module, name, None)
    if obj is None:
        raise MissingApi(f"cli.{name}")
    return obj


def policy_weights(policy) -> np.ndarray:
    """(S, n) weights from a Policy of per-state vectors or a plain array."""
    return np.asarray(getattr(policy, "weights", policy))


def _write_matrix_csv(path: str, prefix: str, mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"{prefix}{j}" for j in range(mat.shape[1])) + "\n")
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class CliCold:
    """One cold ``python -m smmport`` subprocess per op, cycling six calls."""

    name = "cli-cold"

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        market = "sample_inputs/two_state_market.json"
        rows, n_ret, n_feat = FLATTEN_SHAPE
        rng = np.random.default_rng(seed)
        returns = rng.normal(0.0, 0.05, (rows, n_ret))
        features = rng.normal(0.0, 1.0, (rows, n_feat))
        ret_csv = os.path.join(workdir, "returns.csv")
        feat_csv = os.path.join(workdir, "features.csv")
        self.flat_csv = os.path.join(workdir, "flat.csv")
        _write_matrix_csv(os.path.join(root, ret_csv), "r", returns)
        _write_matrix_csv(os.path.join(root, feat_csv), "f", features)
        # Oracle for flatten: the row-wise Kronecker product, asset-major.
        self.flat_ref = np.einsum("ti,tj->tij", returns, features).reshape(rows, -1)
        self.flat_header = [f"r{i}*f{j}" for i in range(n_ret) for j in range(n_feat)]
        self.calls = [
            ("solve-discrete", ["solve-discrete", "--market", market,
                                "--objective", "sharpe"]),
            ("solve-hedge", ["solve-discrete", "--market", market,
                             "--objective", "kelly", "--constraints",
                             "sample_inputs/hedge_constraints.json"]),
            ("merge-states", ["merge-states", "--market", market,
                              "--subset", "0,1"]),
            ("simulate-lcem", ["simulate-lcem", "--model",
                               "sample_inputs/lcem_model.json",
                               "--n", str(CLI_LCEM_SAMPLES), "--seed", str(seed)]),
            ("leverage-audit", ["leverage-audit", "--csv",
                                "sample_inputs/leverage_history.csv"]),
            ("flatten", ["flatten", "--returns", ret_csv, "--features", feat_csv,
                         "--out", self.flat_csv]),
        ]
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # Reference bytes from the in-process CLI, for the same argv.
        self.reference = {}
        for call, argv in self.calls:
            try:
                code, out = self.main_in_process(argv)
            except Exception as exc:  # a broken call must not stop set-up
                code, out = f"raised {exc!r}", b""
            self.reference[call] = out if code == 0 else None

    def main_in_process(self, argv) -> tuple[int, bytes]:
        main = cli_api("main")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue().encode("utf-8")

    def run_cold(self, args, stderr=subprocess.DEVNULL):
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=stderr, timeout=120)

    def op(self, i, tr):
        call, argv = self.calls[i % len(self.calls)]
        with tr.span(f"cli.cold.{call}"):
            proc = self.run_cold(["-m", "smmport", *argv])
        return call, proc.returncode, proc.stdout

    def check(self, i, out):
        call, code, stdout = out
        if code != 0:
            return [f"{call}: exit code {code}"]
        problems = []
        ref = self.reference[call]
        if ref is None:
            problems.append(f"{call}: in-process reference failed")
        elif stdout != ref:
            problems.append(f"{call}: stdout differs from in-process cli.main")
        if call == "solve-discrete":
            q = json.loads(stdout)["q"]
            if not abs(q - 11.0 / 15.0) <= 1e-15:
                problems.append(f"solve-discrete: q={q!r}, expected 11/15")
        elif call == "merge-states":
            dq = json.loads(stdout)["delta_q"]
            if not dq <= 0.0:
                problems.append(f"merge-states: delta_q={dq!r} > 0")
        elif call == "flatten":
            problems += self._check_flat_csv()
        return problems

    def _check_flat_csv(self):
        with open(os.path.join(self.root, self.flat_csv), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0].split(",") != self.flat_header:
            return ["flatten: header differs from the reference"]
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if got.shape != self.flat_ref.shape or not np.array_equal(got, self.flat_ref):
            return ["flatten: CSV values differ from the einsum reference"]
        return []

    def after_loop(self, first):
        return []


class MonteCarlo:
    """``compare_policies`` at n=2M on the sample model, one stream."""

    name = "mc"

    def __init__(self, root: str, seed: int, workdir: str):
        self.seed = seed
        with open(os.path.join(root, "sample_inputs/lcem_model.json"),
                  encoding="utf-8") as fh:
            self.model_dict = json.load(fh)
        self.model = api("LcemModel").from_dict(self.model_dict)
        # Cores the benchmark may use; an untraced run pins itself to one.
        self.nproc = int(os.environ.get("PERFBENCH_NPROC", 0)) or os.cpu_count()

    def compare(self, seed: int, n_streams: int):
        cfg = api("McConfig")(n_samples=MC_SAMPLES, seed=seed, n_streams=n_streams)
        return api("compare_policies")(self.model, cfg, risk_budget=1.0)

    def op(self, i, tr):
        with tr.span("lcem.compare_policies"):
            return self.compare(self.seed + i, 1)

    def check(self, i, out):
        problems = []
        for key, exact in LCEM_EXACT.items():
            est = getattr(out, key)
            z = (est.value - exact) / est.std_error if est.std_error > 0 else math.inf
            if not abs(z) < Z_LIMIT:
                problems.append(f"{key}={est.value!r} is {z:.2f} standard errors "
                                f"from the exact {exact!r}")
        return problems

    def after_loop(self, first):
        """Op 0 again at n_streams=nproc: the result must be bit-identical."""
        threaded = self.compare(self.seed, self.nproc)
        if threaded.to_dict() != first.to_dict():
            return [f"n_streams={self.nproc} result differs from n_streams=1"]
        return []


class Market:
    """The discrete-market pipeline on S=2000 states and 4 assets."""

    name = "market"

    def __init__(self, root: str, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        s_count, n = MARKET_STATES, MARKET_ASSETS
        probs = rng.uniform(0.5, 1.5, s_count)
        probs /= probs.sum()
        states = []
        for s in range(s_count):
            mu = rng.normal(0.05, 0.1, n)
            g = rng.normal(0.0, 0.2, (n, n))
            sigma = g @ g.T + 0.02 * np.eye(n)
            entry = {"prob": float(probs[s]), "mu": mu.tolist()}
            # Alternate the two parameterizations so both parse paths run.
            if s % 2 == 0:
                entry["sigma"] = sigma.tolist()
            else:
                entry["second_moment"] = (sigma + np.outer(mu, mu)).tolist()
            states.append(entry)
        # Round-trip through JSON so the op sees an already-parsed dict.
        self.market_dict = json.loads(json.dumps({"states": states}))
        self.constraint_dict = {"constraints": [
            {"kind": "zero_covariance", "target": rng.normal(0, 1, (s_count, n)).tolist()},
            {"kind": "raw", "g": rng.normal(0, 1, (s_count, n)).tolist()},
        ]}
        self.basis = [rng.normal(0.0, 1.0, (s_count, n)) for _ in range(3)]
        self.subset = list(range(0, s_count, 2))

    def op(self, i, tr):
        objective = api("SharpeBudget")(risk_budget=1.0)
        with tr.span("market.build"):
            market = api("DiscreteMarket").from_dict(self.market_dict)
        with tr.span("market.q_of"):
            q = api("q_of")(market)
        with tr.span("market.smm_policy"):
            p_smm = api("smm_policy")(market, objective)
        with tr.span("market.markowitz_policy"):
            p_mp = api("markowitz_policy")(market, objective)
        with tr.span("market.evaluate"):
            e_smm = api("evaluate")(market, p_smm)
        with tr.span("market.evaluate"):
            e_mp = api("evaluate")(market, p_mp)
        with tr.span("hedging.constraints"):
            constraints = api("constraints_from_dict")(self.constraint_dict, market)
        with tr.span("hedging.solve_hedge"):
            _, hedge = api("solve_hedge")(market, constraints, objective)
        with tr.span("market.merge_states"):
            _, delta_q = api("merge_states")(market, self.subset)
        with tr.span("hedging.optimize_basis"):
            api("optimize_basis")(market, self.basis, objective)
        result = {
            "command": "solve-discrete",
            "objective": {"kind": "sharpe", "risk_budget": 1.0, "risk_free": 0.0},
            "q": q,
            "optimal_objective": api("optimal_objective_value")(q, objective),
            "policy": policy_weights(p_smm).tolist(),
            "summary": e_smm.to_dict(),
        }
        with tr.span("cli.render_json"):
            cli_api("render_json")(result)
        return {"q": q, "sharpe_smm": e_smm.sharpe, "sharpe_mp": e_mp.sharpe,
                "q_g": hedge.q_g, "spanned_q": hedge.spanned_q, "delta_q": delta_q}

    def check(self, i, out):
        problems = []
        if not 0.0 <= out["q"] < 1.0:
            problems.append(f"q={out['q']!r} outside [0, 1)")
        if not out["sharpe_smm"] >= out["sharpe_mp"] - 1e-9:
            problems.append("smm_policy Sharpe below markowitz_policy Sharpe")
        if not abs(out["q_g"] + out["spanned_q"] - out["q"]) <= 1e-10:
            problems.append("q_g + spanned_q differs from q")
        if not out["delta_q"] <= 1e-12:
            problems.append(f"merge delta_q={out['delta_q']!r} > 0")
        return problems

    def after_loop(self, first):
        return []


class Leverage:
    """``leverage_curve`` on a synthetic T=20,000 history, default grid."""

    name = "leverage"

    def __init__(self, root: str, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.x = rng.uniform(0.5, 2.5, LEVERAGE_T)
        self.z = (0.1 * self.x + rng.normal(0.0, 1.0, LEVERAGE_T)) * self.x

    def op(self, i, tr):
        with tr.span("leverage.sample"):
            sample = api("LeverageSample").from_observations(self.x, self.z)
        if tr.active:  # leverage_curve calls it inside; time it apart
            with tr.span("leverage.bandwidth"):
                api("silverman_bandwidth")(sample.x)
        with tr.span("leverage.curve") as rec:
            curve = api("leverage_curve")(sample)
        if rec is not None:
            rec["points"] = curve.grid.size
        return curve

    def check(self, i, out):
        arrays = (out.grid, out.m_hat, out.s_hat, out.lever_hat)
        problems = []
        if any(a.shape != (LEVERAGE_GRID,) for a in arrays):
            problems.append(f"curve has {out.grid.size} points, not {LEVERAGE_GRID}")
        elif not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("curve has non-finite values")
        elif not np.array_equal(out.lever_hat, out.m_hat / out.s_hat):
            problems.append("lever_hat != m_hat / s_hat")
        elif i == 0:
            problems += self._check_oracle(arrays)
        return problems

    def _check_oracle(self, arrays):
        """Direct Nadaraya-Watson, one grid point at a time.

        Each step holds a few length-T vectors, well under 1 MB, so the
        oracle never sets ``peak_rss_mb`` in place of the program's kernel.
        """
        x, y = self.x, self.z / self.x
        y2 = y * y
        h = 1.06 * np.std(x, ddof=1) * x.size ** -0.2
        grid = np.linspace(x.min(), x.max(), LEVERAGE_GRID)
        mass, first, second = (np.empty(LEVERAGE_GRID) for _ in range(3))
        for j, g in enumerate(grid):
            w = np.exp(-0.5 * ((g - x) / h) ** 2)
            mass[j], first[j], second[j] = w.sum(), y @ w, y2 @ w
        m_hat = first / mass
        second /= mass
        s_hat = np.maximum(second, 1e-8 * second.max())
        problems = []
        for label, got, want in zip(("grid", "m_hat", "s_hat", "lever_hat"), arrays,
                                    (grid, m_hat, s_hat, m_hat / s_hat)):
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            if not err <= 1e-9:
                problems.append(f"{label} differs from direct NW by {err:.2e} relative")
        return problems

    def after_loop(self, first):
        return []


WORKLOADS = {cls.name: cls for cls in (CliCold, MonteCarlo, Market, Leverage)}
