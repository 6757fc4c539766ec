"""Layer probes for the traced run.

The workload loop only exercises its own layers, so every traced run also
calls into each layer once or a few times here: cold interpreter and import
costs, the warm in-process CLI, MomentPair construction, the LcemModel
build, one Philox block drawn by the harness, the threaded Monte Carlo, and
a few market and leverage ops. Each call is a span; ``attempt`` turns a
failure into a counted, non-fatal outcome.
"""

from __future__ import annotations

import math
import statistics
import subprocess
from contextlib import contextmanager

import numpy as np

from workloads import (BLOCK_SIZE, LEVERAGE_GRID, LEVERAGE_T, MC_SAMPLES,
                       MissingApi, api)

COLD_REPS = 3
WARM_REPS = 3
PROBE_OPS = {"market": 2, "leverage": 3}

LAYERS = ("cli", "moments", "market", "hedging", "lcem", "leverage")
CLI_CALLS = ("solve-discrete", "solve-hedge", "merge-states", "simulate-lcem",
             "leverage-audit", "flatten")


@contextmanager
def attempt(outcome, label: str):
    """Count one probe call; record its failure instead of raising."""
    try:
        yield
    except MissingApi as exc:
        outcome.fail(label, f"missing {exc}", missing=str(exc))
    except Exception as exc:  # a probe failure must not stop the run
        outcome.fail(label, repr(exc))
    else:
        outcome.ok()


def _ok(proc: subprocess.CompletedProcess):
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}")
    return proc


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy*`` modules.

    ``-X importtime`` prints children before their parent, indented two
    spaces per level; walking it backwards visits each parent first.
    """
    total_us = 0
    open_scipy_depth = None
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        if open_scipy_depth is not None and depth <= open_scipy_depth:
            open_scipy_depth = None
        if open_scipy_depth is None and name.strip().startswith("scipy"):
            total_us += int(cumulative)
            open_scipy_depth = depth
    return total_us / 1e3


def probe_cli(tracer, cli, outcome, values):
    for _ in range(COLD_REPS):
        with attempt(outcome, "cli.interpreter"), tracer.span("cli.interpreter"):
            _ok(cli.run_cold(["-c", "pass"]))
        with attempt(outcome, "cli.import"), tracer.span("cli.import"):
            _ok(cli.run_cold(["-c", "import smmport"]))
    logs = []
    for _ in range(COLD_REPS):
        with attempt(outcome, "cli.importtime"), tracer.span("cli.importtime"):
            proc = _ok(cli.run_cold(["-X", "importtime", "-c", "import smmport"],
                                    stderr=subprocess.PIPE))
            logs.append(scipy_import_ms(proc.stderr.decode()))
    values["cli.import_scipy_ms"] = statistics.median(logs) if logs else None
    for _ in range(WARM_REPS):
        for call, argv in cli.calls:
            with attempt(outcome, f"cli.main.{call}"), tracer.span(f"cli.main.{call}"):
                code, out = cli.main_in_process(argv)
                if code != 0 or out != cli.reference[call]:
                    raise RuntimeError(f"exit {code} or stdout differs from reference")


def probe_moments(tracer, market, outcome):
    states = market.market_dict["states"]
    for _ in range(WARM_REPS):
        with attempt(outcome, "moments.pairs"), \
                tracer.span("moments.pairs", count=len(states)):
            pair = api("MomentPair")
            for e in states:
                if "sigma" in e:
                    pair.from_covariance(e["mu"], e["sigma"])
                else:
                    pair.from_second_moment(e["mu"], e["second_moment"])


def probe_lcem(tracer, mc, outcome, values):
    for _ in range(WARM_REPS):
        with attempt(outcome, "lcem.model"), tracer.span("lcem.model"):
            api("LcemModel").from_dict(mc.model_dict)
    k = len(mc.model_dict["feature_mean"])
    for b in range(WARM_REPS):
        with tracer.span("lcem.rng_block"):
            bitgen = np.random.Philox(key=mc.seed, counter=b << 128)
            np.random.Generator(bitgen).standard_normal((BLOCK_SIZE, k))
    with attempt(outcome, "lcem.streams"):
        with tracer.span("lcem.compare_policies") as serial_span:
            serial = mc.compare(mc.seed, 1)
        with tracer.span("lcem.compare_policies_threaded",
                         n_streams=mc.nproc) as threaded_span:
            threaded = mc.compare(mc.seed, mc.nproc)
        if threaded.to_dict() != serial.to_dict():
            raise RuntimeError(f"n_streams={mc.nproc} differs from n_streams=1")
        values["lcem.streams_speedup"] = (
            (serial_span["end"] - serial_span["start"])
            / (threaded_span["end"] - threaded_span["start"]))


def run_probes(tracer, instances, loop_workload, outcome, run_op):
    """Call every layer; returns values measured outside spans."""
    values = {}
    tracer.op = "probe"
    if "cli-cold" in instances:
        probe_cli(tracer, instances["cli-cold"], outcome, values)
    if "market" in instances:
        probe_moments(tracer, instances["market"], outcome)
    if "mc" in instances:
        probe_lcem(tracer, instances["mc"], outcome, values)
    for name, count in PROBE_OPS.items():
        if name != loop_workload and name in instances:
            for i in range(count):
                run_op(instances[name], i, tracer, op_id=f"probe-{name}-{i}")
    return values


def layer_metrics(tracer, values, loop, gauges):
    """Every per-layer metric; None marks one that could not be measured."""

    def med(name, scale=1.0):
        d = tracer.durations_ms(name)
        return statistics.median(d) * scale if d else None

    def diff(a, b):
        return None if a is None or b is None else a - b

    interpreter = med("cli.interpreter")
    m = {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": diff(med("cli.import"), interpreter),
        "cli.import_scipy_ms": values.get("cli.import_scipy_ms"),
    }
    for call in CLI_CALLS:
        m[f"cli.main_ms.{call}"] = med(f"cli.main.{call}")
    m["cli.render_ms"] = med("cli.render_json")
    pairs = [(s["end"] - s["start"]) * 1e6 / s["count"]
             for s in tracer.spans if s["name"] == "moments.pairs" and s.get("ok")]
    m["moments.pair_us"] = statistics.median(pairs) if pairs else None
    for step in ("build", "q_of", "smm_policy", "markowitz_policy", "evaluate",
                 "merge_states"):
        m[f"market.{step}_ms"] = med(f"market.{step}")
    for step in ("constraints", "solve_hedge", "optimize_basis"):
        m[f"hedging.{step}_ms"] = med(f"hedging.{step}")

    blocks = math.ceil(MC_SAMPLES / BLOCK_SIZE)
    block = med("lcem.compare_policies", 1.0 / blocks)
    rng = med("lcem.rng_block")
    m.update({
        "lcem.model_ms": med("lcem.model"),
        "lcem.blocks": blocks,
        "lcem.block_ms": block,
        "lcem.rng_ms": rng,
        "lcem.non_rng_ms": diff(block, rng),
        "lcem.streams_speedup": values.get("lcem.streams_speedup"),
    })

    evals = LEVERAGE_T * LEVERAGE_GRID
    curve = med("leverage.curve")
    kept = [s["points"] / LEVERAGE_GRID for s in tracer.spans
            if s["name"] == "leverage.curve" and s.get("ok")]
    m.update({
        "leverage.sample_ms": med("leverage.sample"),
        "leverage.bandwidth_ms": med("leverage.bandwidth"),
        "leverage.curve_ms": curve,
        "leverage.kernel_evals": evals,
        "leverage.ns_per_eval": None if curve is None else curve * 1e6 / evals,
        "leverage.dense_mb": evals * 8 / 1e6,
        "leverage.kept_frac": min(kept) if kept else None,
    })

    wall = sum(op["ms"] for op in loop)
    cpu = sum(op["cpu_ms"] for op in loop)
    traced = [op["ms"] for op in loop if op["traced"] and op["ok"]]
    plain = [op["ms"] for op in loop if not op["traced"] and op["ok"]]
    m["bench.sched_wait_frac"] = 1.0 - cpu / wall if wall > 0 else None
    m["bench.gauge_ms"] = statistics.median(gauges) if gauges else None
    m["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if traced and plain else None)
    for layer in LAYERS:
        m[f"{layer}.failed"] = tracer.failed[layer]
    return m

