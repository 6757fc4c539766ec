"""Command-line front end.

Subcommands::

    smmport solve-discrete --market M.json --objective sharpe [--risk-budget R]
                           [--risk-free r] [--risk-param L] [--constraints C.json]
    smmport simulate-lcem  --model M.json --n N [--seed S] [--risk-budget R]
                           [--n-streams K] [--format json|text]
    smmport merge-states   --market M.json --subset 0,1
    smmport leverage-audit --csv DATA.csv [--bandwidth H] [--grid-size N]
                           [--floor F]
    smmport flatten        --returns R.csv --features F.csv --out OUT.csv

Results go to standard output as JSON (CSV for leverage-audit). Exit
status: 0 success, 1 numerical failure (e.g. a non-positive-definite
state), 2 invalid input; :mod:`smmport.errors` states which errors are
which. Identical invocations produce byte-identical output; numbers are
serialized with 17 significant digits so values round-trip losslessly;
the floats of a matrix, a row or a CSV table are formatted in one call.
Each command imports the modules it runs, so a cold call loads no others.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from .errors import DomainError, SmmError


def _fmt_rows(rows, sep: str, row_sep: str) -> str:
    """The floats of ``rows`` at 17 significant digits, with NaN and
    Infinity spelled as in JSON: a row's floats joined by ``sep``, rows by
    ``row_sep``, formatted in one call."""
    lengths = set(map(len, rows))
    if len(lengths) == 1:
        template = row_sep.join([sep.join(["%.17g"] * lengths.pop())] * len(rows))
    else:
        template = row_sep.join([sep.join(["%.17g"] * len(row)) for row in rows])
    text = template % tuple(chain.from_iterable(rows))
    # a finite float never formats with an "n": only nan and inf need renaming
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _fmt_float(x: float) -> str:
    """One float as :func:`_fmt_rows` writes it."""
    return _fmt_rows(((x,),), "", "")


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""

    def emit(o) -> str:
        # floats first: they are nearly every value rendered
        if isinstance(o, float):
            return _fmt_float(o)
        if isinstance(o, list) and o:
            kinds = set(map(type, o))
            if kinds == {float}:
                return "[" + _fmt_rows((o,), ", ", "") + "]"
            if kinds == {list} and set(map(type, chain.from_iterable(o))) <= {float}:
                return "[[" + _fmt_rows(o, ", ", "], [") + "]]"
        if isinstance(o, dict):
            items = ", ".join(f"{json.dumps(str(k))}: {emit(v)}" for k, v in o.items())
            return "{" + items + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(map(emit, o)) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, np.floating):
            return _fmt_float(float(o))
        if o is None:
            return "null"
        return json.dumps(str(o))

    return emit(obj) + "\n"


def _csv_text(header: list[str], rows) -> str:
    """A header line, then one line of 17-digit numbers per row."""
    text = ",".join(header) + "\n"
    return text + _fmt_rows(rows, ",", "\n") + "\n" if rows else text


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from None


def _objective_from_args(args):
    from .moments import Kelly, MeanVariance, SharpeBudget

    if args.objective == "sharpe":
        return SharpeBudget(risk_budget=args.risk_budget, risk_free=args.risk_free)
    if args.objective == "mean-variance":
        return MeanVariance(risk_param=args.risk_param)
    return Kelly()


def _cmd_solve_discrete(args) -> str:
    from dataclasses import asdict

    from .market import DiscreteMarket, evaluate, q_of, smm_policy
    from .moments import _optimum

    market = DiscreteMarket.from_dict(_load_json(args.market))
    objective = _objective_from_args(args)
    rfr = args.risk_free if args.objective == "sharpe" else 0.0
    out = {
        "command": "solve-discrete",
        "objective": {"kind": args.objective, **asdict(objective)},
        "q": q_of(market),
    }
    q_g, one_minus_q_g = out["q"], market._one_minus_q  # the pair the policy is scaled by
    if args.constraints:
        from .hedging import constraints_from_dict, solve_hedge

        constraints = constraints_from_dict(_load_json(args.constraints), market)
        policy, sol = solve_hedge(market, constraints, objective)
        out["q_g"] = sol.q_g
        out["spanned_q"] = sol.spanned_q
        out["multipliers"] = sol.multipliers.tolist()
        q_g, one_minus_q_g = sol.q_g, one_minus_q_g + sol.spanned_q
    else:
        policy = smm_policy(market, objective)
    out["optimal_objective"] = _optimum(q_g, one_minus_q_g, objective)[1]
    out["policy"] = policy.weights.tolist()
    out["summary"] = evaluate(market, policy, rfr=rfr).to_dict()
    return render_json(out)


def _cmd_merge_states(args) -> str:
    from .market import DiscreteMarket, merge_states, q_of

    market = DiscreteMarket.from_dict(_load_json(args.market))
    try:
        subset = [int(tok) for tok in args.subset.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"--subset must be comma-separated integers, got {args.subset!r}")
    merged, delta_q = merge_states(market, subset)
    out = {
        "command": "merge-states",
        "subset": sorted(set(subset)),
        "q_before": q_of(market),
        "q_after": q_of(merged),
        "delta_q": delta_q,
        "merged_market": merged.to_dict(),
    }
    return render_json(out)


def _format_report_text(report, cfg) -> str:
    """An ``LcemComparison`` as an aligned table, with the ``McConfig`` seed."""
    rows = [
        ("q", report.q),
        ("sr_smm", report.sr_smm),
        ("sr_mp", report.sr_mp),
        ("delta_sr", report.delta_sr),
        ("rescale_std", report.rescale_std),
    ]
    lines = [f"{'metric':<12} {'value':>24} {'std_error':>24} {'n':>9}"]
    for name, est in rows:
        value = _fmt_float(est.value)
        std_error = _fmt_float(est.std_error)
        lines.append(f"{name:<12} {value:>24} {std_error:>24} {est.n:>9d}")
    lines.append(f"{'smm_scale':<12} {_fmt_float(report.smm_scale):>24}")
    lines.append(f"{'mp_scale':<12} {_fmt_float(report.mp_scale):>24}")
    lines.append(f"{'seed':<12} {cfg.seed:>24d}")
    return "\n".join(lines) + "\n"


def _cmd_simulate_lcem(args) -> str:
    from .lcem import LcemModel, McConfig, compare_policies

    model = LcemModel.from_dict(_load_json(args.model))
    cfg = McConfig(n_samples=args.n, seed=args.seed, n_streams=args.n_streams)
    report = compare_policies(model, cfg, risk_budget=args.risk_budget)
    if args.format == "text":
        return _format_report_text(report, cfg)
    out = {
        "command": "simulate-lcem",
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "n_streams": cfg.n_streams,
        "risk_budget": args.risk_budget,
    }
    out.update(report.to_dict())
    return render_json(out)


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """The stripped header names and the (rows, fields) floats of a CSV
    file. Empty lines are skipped; every other row must have the header's
    field count, and each field is read by ``float()``. An error names
    the row at fault, counting the header and empty lines."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(filter(None, reader), None)
        if header is None:
            raise DomainError(f"{path}: empty file")
        width = len(header)
        fields, row_nums = [], []
        for row_num, row in enumerate(reader, start=reader.line_num + 1):
            if len(row) != width:
                if not row:
                    continue
                raise DomainError(f"{path}:{row_num}: {len(row)} fields, header has {width}")
            fields += row
            row_nums.append(row_num)
    if not row_nums:
        raise DomainError(f"{path}: no data rows")
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        # convert again row by row to name the first one float() rejects
        for row_num, k in zip(row_nums, range(0, len(fields), width)):
            row = fields[k:k + width]
            try:
                list(map(float, row))
            except ValueError:
                raise DomainError(f"{path}:{row_num}: malformed row {row!r}") from None
    return [h.strip() for h in header], values.reshape(-1, width)


def _cmd_leverage_audit(args) -> str:
    from .leverage import LeverageSample, leverage_curve

    names, data = _read_csv(args.csv)
    if [name.lower() for name in names[:2]] != ["leverage", "return"]:
        raise DomainError(f'{args.csv}: expected header "leverage,return"')
    sample = LeverageSample.from_observations(data[:, 0], data[:, 1])
    grid = None
    if args.grid_size is not None:
        if args.grid_size < 1:
            raise DomainError("--grid-size must be at least 1")
        grid = np.linspace(float(sample.x.min()), float(sample.x.max()),
                           args.grid_size)
    curve = leverage_curve(
        sample, grid=grid, bandwidth=args.bandwidth, floor=args.floor
    )
    columns = (curve.grid, curve.m_hat, curve.s_hat, curve.lever_hat)
    return _csv_text(["x", "m_hat", "s_hat", "lever_hat"], np.column_stack(columns).tolist())


def _cmd_flatten(args) -> str:
    from .hedging import flatten_pseudo_assets

    r_names, returns = _read_csv(args.returns)
    f_names, features = _read_csv(args.features)
    flat = flatten_pseudo_assets(returns, features)
    names = [f"{rn}*{fn}" for rn in r_names for fn in f_names]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(names, flat.tolist()))
    out = {
        "command": "flatten",
        "rows": int(flat.shape[0]),
        "columns": int(flat.shape[1]),
        "out": args.out,
    }
    return render_json(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smmport",
        description="Conditional portfolio policies from moment functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-discrete", help="optimal policy on a discrete market")
    p.add_argument("--market", required=True, help="market JSON path")
    p.add_argument("--objective", choices=["sharpe", "mean-variance", "kelly"],
                   default="sharpe")
    p.add_argument("--risk-budget", type=float, default=1.0)
    p.add_argument("--risk-free", type=float, default=0.0)
    p.add_argument("--risk-param", type=float, default=1.0,
                   help="risk parameter for --objective mean-variance")
    p.add_argument("--constraints", help="hedge constraint JSON path")
    p.set_defaults(func=_cmd_solve_discrete)

    p = sub.add_parser("simulate-lcem", help="Monte Carlo policy comparison")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--n", type=int, required=True, help="number of samples, at least 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--risk-budget", type=float, default=1.0)
    p.add_argument("--n-streams", type=int, default=1,
                   help="upper bound on worker threads, capped at the CPU "
                        "count; never changes results")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_simulate_lcem)

    p = sub.add_parser("merge-states", help="coarsen a market and report delta q")
    p.add_argument("--market", required=True)
    p.add_argument("--subset", required=True, help="comma-separated state indices")
    p.set_defaults(func=_cmd_merge_states)

    p = sub.add_parser("leverage-audit", help="implied optimal-leverage curve")
    p.add_argument("--csv", required=True, help='CSV with header "leverage,return"')
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--floor", type=float, default=None)
    p.set_defaults(func=_cmd_leverage_audit)

    p = sub.add_parser("flatten", help="pseudo-asset expansion of returns x features")
    p.add_argument("--returns", required=True, help="returns sample CSV")
    p.add_argument("--features", required=True, help="features sample CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_flatten)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except (SmmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # LinAlgError is a ValueError, but it is not invalid input
        invalid = isinstance(exc, (ValueError, OSError))
        return 2 if invalid and not isinstance(exc, np.linalg.LinAlgError) else 1
    sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
