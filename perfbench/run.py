#!/usr/bin/env python3
"""smmport benchmark: one workload per call, untraced or traced.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload market --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; ``smmport`` is imported from its ``src``.
Each workload runs in a fresh interpreter (``worker.py``), one process or
thread per core at most. Untraced runs report the end-to-end metrics,
with times scaled to a fixed machine speed (``gauge.py``); traced runs
report the per-layer metrics, raw. See ``perfbench/METRICS.md``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from gauge import REF_MS, gauge_ms, scaled_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("cli-cold", "mc", "market", "leverage")
SETUPS_PER_RUN = 7  # set-up is timed this many times; its median is reported
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops above it
DEADLINE_S = 170.0  # whole run, so that it ends within 180 s
# One BLAS thread in every process the benchmark starts. Otherwise the
# threaded Monte Carlo would run nproc streams x nproc BLAS threads, and
# BLAS threads spinning on small products made the mc op about 1.5x slower
# and twice as variable on a 2-core machine.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name: str) -> str:
    """Installed version, read without importing the package; or "absent"."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def git_state() -> dict:
    """Commit and dirty flag; None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def run_worker(args, stem: str, out: str, deadline: float, setup_only: bool,
               nproc: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
           "--spans", f"{stem}.spans.jsonl"]
    if setup_only:
        cmd.append("--setup-only")
    # With the gauge the worker takes right after its set-up, this one
    # brackets the set-up; on the same core when the run is pinned.
    pre_gauge = gauge_ms()
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, stdout=sys.stderr,
                          env={**os.environ, **SINGLE_THREAD_BLAS,
                               "PERFBENCH_NPROC": str(nproc)},
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return {**result, "pre_gauge_ms": pre_gauge}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above.

    With too few ops for that, the slowest op and percentile 100.
    """
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    for need in ("BENCHMARK.json", "src/smmport/__init__.py",
                 "sample_inputs/lcem_model.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            return fail(f"{need} not found: run from the root of an smmport checkout")

    deadline = time.monotonic() + DEADLINE_S
    cpus = os.sched_getaffinity(0)
    if not args.trace:
        # One core for this process and all it starts, so that the speed
        # gauge and the ops it scales run on the same core. Traced runs keep
        # every core: the threaded Monte Carlo probe needs them.
        os.sched_setaffinity(0, {min(cpus)})
    env = {"nproc": len(cpus), "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": package_version("numpy"),
           "scipy": package_version("scipy"), **git_state(),
           "loadavg_start": os.getloadavg(), "seed": args.seed,
           "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setup_runs = []
        if not args.trace:
            for k in range(SETUPS_PER_RUN - 1):
                setup_runs.append(
                    run_worker(args, stem, f"{stem}.setup{k}.json", deadline, True,
                               len(cpus)))
        res = run_worker(args, stem, f"{stem}.worker.json", deadline, False, len(cpus))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    env["loadavg_end"] = os.getloadavg()
    env.update(res.pop("versions"))

    ops = res.pop("ops")
    plain = [op for op in ops if not op["traced"] and op["ok"]]
    attempted = max(res["attempted"], 1)
    failed = res["failed"] if res["attempted"] else 1
    setups = [{"setup_s": r["setup_s"],
               "gauge_ms": (r["pre_gauge_ms"] + r["setup_gauge_ms"]) / 2}
              for r in (*setup_runs, res)
              if r.get("setup_s") is not None and r.get("setup_gauge_ms")]
    env.update({"ops": len(ops), "setups": len(setups),
                "measured_s": res.get("measured_s")})

    # BENCHMARK.json names the metrics each kind of run reports.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    raw = {}
    if args.trace:
        values = res.pop("layers", {})
    else:
        values = {"peak_rss_mb": res.get("peak_rss_mb")}
        gauges = res.get("gauges_ms")
        if plain and gauges:
            raw["op_p50_ms"] = statistics.median(op["ms"] for op in plain)
            raw["op_tail_ms"] = tail([op["ms"] for op in plain])[0]
            scaled = scaled_ms(plain, gauges)
            values["op_p50_ms"] = statistics.median(scaled)
            values["op_tail_ms"], env["tail_pct"] = tail(scaled)
            env["gauge_ms"] = statistics.median(g for _, g in gauges)
    if not args.trace and setups:
        # Each set-up is scaled by the mean of the gauges just before and
        # just after it, so no drift between set-ups enters its scale.
        raw["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        values["setup_s"] = statistics.median(
            r["setup_s"] * REF_MS / r["gauge_ms"] for r in setups)
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit in units.items()}
    record = {"env": env, "metrics": metrics, "raw": raw,
              "error_rate": failed / attempted, "setups": setups,
              "ops": ops, **res}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  nproc {env['nproc']}  git {env['sha']}"
          f"{' (dirty)' if env['dirty'] else ''}")
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        unscaled = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<34} {value:>14} {m['unit']}{unscaled}")
    if not args.trace and "tail_pct" in env:
        print(f"  (times scaled to a {REF_MS} ms speed gauge; op_tail_ms is "
              f"p{env['tail_pct']:.1f} of {len(plain)} ops; setup_s is the "
              f"median of {len(setups)} set-ups)")
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} fraction "
          f"({failed}/{attempted})")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    if res["missing"]:
        print(f"  missing from smmport: {', '.join(res['missing'])}")
    print(f"  record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
