"""Run one workload in its own interpreter and write its raw result as JSON.

Started by ``run.py`` from the root of the checkout. ``--t0`` is the
parent's ``time.monotonic()`` just before this process was spawned, so the
set-up time includes interpreter start-up. The op loop is closed: one
client, no think time, the next op starts when the previous one returns.
In a traced run every other op is traced, which gives the tracing overhead,
and the layer probes run before the loop, inside the same time budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import smmport  # noqa: E402
from gauge import EVERY_S, gauge_ms  # noqa: E402
from tracer import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, MissingApi  # noqa: E402

MIN_OPS = 2
MAX_LISTED_PROBLEMS = 20


class Outcome:
    """Ops attempted and failed, with the first problems and missing names."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.missing: set[str] = set()

    def ok(self):
        self.attempted += 1

    def fail(self, label: str, problem: str, missing: str | None = None):
        self.attempted += 1
        self.failed += 1
        if missing:
            self.missing.add(missing)
        if len(self.problems) < MAX_LISTED_PROBLEMS:
            self.problems.append(f"{label}: {problem}")


def cpu_s() -> float:
    """CPU time of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_op(wl, i, tr, outcome, op_id):
    """Time one op, then check its output outside the timed region."""
    tr.op = op_id
    problems, out = [], None
    c0 = cpu_s()
    t0 = time.perf_counter()
    try:
        with tr.span("op", workload=wl.name):
            out = wl.op(i, tr)
    except MissingApi as exc:
        problems = [f"missing {exc}"]
        outcome.missing.add(str(exc))
    except Exception as exc:  # an op that raises counts as failed
        problems = [f"raised {exc!r}"]
    wall = time.perf_counter() - t0
    cpu = cpu_s() - c0
    if not problems:
        try:
            problems = wl.check(i, out)
        except Exception as exc:  # malformed output fails its check
            problems = [f"check raised {exc!r}"]
    if problems:
        outcome.fail(f"{wl.name} op {op_id}", "; ".join(problems))
    else:
        outcome.ok()
    return {"t": t0, "ms": wall * 1e3, "cpu_ms": cpu * 1e3, "ok": not problems,
            "traced": tr.active}, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True, help="raw result JSON path")
    ap.add_argument("--spans", help="spans JSONL path, written when tracing")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(smmport.__file__).startswith(src + os.sep):
        print(f"smmport imported from {smmport.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    workdir = os.path.join("perfbench", "results", f"tmp-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run(args, workdir) -> dict:
    outcome = Outcome()
    # numpy and scipy versions are read by run.py, which imports neither.
    result = {"versions": {"smmport": getattr(smmport, "__version__", "unknown")}}
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    except Exception as exc:  # set-up that cannot finish fails the run
        wl = None
        outcome.fail(f"{args.workload} set-up", repr(exc),
                     missing=str(exc) if isinstance(exc, MissingApi) else None)
    if args.setup_only:
        if wl is None:
            return {**result, "setup_s": None}
        setup_s = time.monotonic() - args.t0
        return {**result, "setup_s": setup_s, "setup_gauge_ms": gauge_ms()}

    tracer = Tracer() if args.trace else NULL
    start = time.perf_counter()
    deadline = start + args.seconds
    values = {}
    if args.trace:
        from probes import run_probes

        instances = {}
        for name, cls in WORKLOADS.items():
            if name == args.workload:
                if wl is not None:
                    instances[name] = wl
                continue
            try:
                instances[name] = cls(ROOT, args.seed, workdir)
            except Exception as exc:  # its probes are skipped, metrics missing
                outcome.fail(f"{name} set-up for probes", repr(exc),
                             missing=str(exc) if isinstance(exc, MissingApi) else None)
        values = run_probes(
            tracer, instances, args.workload, outcome,
            lambda w, i, tr, op_id: run_op(w, i, tr, outcome, op_id))
    setup_s = None
    ops, first, gauges = [], None, []
    last_gauge = -math.inf
    while wl is not None and (len(ops) < MIN_OPS or time.perf_counter() < deadline):
        i = len(ops)
        if setup_s is None:
            setup_s = time.monotonic() - args.t0
        if time.perf_counter() - last_gauge >= EVERY_S:
            g = gauge_ms()
            last_gauge = time.perf_counter()
            gauges.append((last_gauge, g))
        tr = tracer if args.trace and i % 2 == 1 else NULL
        rec, out = run_op(wl, i, tr, outcome, op_id=i)
        ops.append(rec)
        if i == 0:
            first = out
    measured_s = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = kids if args.workload == "cli-cold" else own

    if ops and ops[0]["ok"]:
        try:
            problems = wl.after_loop(first)
        except Exception as exc:  # the untimed check failed to run
            problems = [f"raised {exc!r}"]
        if problems:
            ops[0]["ok"] = False
            outcome.failed += 1
            outcome.problems.append(f"{wl.name} op 0 after loop: {'; '.join(problems)}")

    result.update({"setup_s": setup_s,
                   "setup_gauge_ms": gauges[0][1] if gauges else None,
                   "gauges_ms": gauges,
                   "measured_s": measured_s,
                   "peak_rss_mb": peak_kb * 1024 / 1e6 if ops else None, "ops": ops})
    if args.trace:
        from probes import layer_metrics

        result["layers"] = layer_metrics(tracer, values, ops, [g for _, g in gauges])
        result["self_ms"] = tracer.self_ms()
        tracer.write(args.spans)
        result["spans_file"] = os.path.relpath(args.spans, ROOT)
    return {**result, **_outcome(outcome)}


def _outcome(outcome: Outcome) -> dict:
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "problems": outcome.problems, "missing": sorted(outcome.missing)}


if __name__ == "__main__":
    sys.exit(main())
