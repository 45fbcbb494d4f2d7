"""Command-line front end.

Four subcommands: ``analyze`` scores every computed mode of one
problem, ``sweep-k`` tabulates spectral error against constraint
depth, ``reduce`` runs the quality-ranked reduction error sweep, and
``problems`` lists what is registered.  Output is CSV or JSON on stdout
or to a file; runs are deterministic, with no environment dependence.

Exit codes: 0 on success, 2 on usage errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
from dataclasses import fields
from functools import partial

import numpy as np

from . import constrained, experiments, problems, quality, reduction
from .errors import EigensieveError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a finite number strictly between 0 and 1, got {text}"
        )
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("retained counts must be positive integers")
    return values


def _add_null_tol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--null-tol", type=_fraction,
                        help="relative singular-value cutoff for nullspace rank, in (0, 1)")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensieve",
        description="score, sweep, and prune eigenmodes of constrained spectral models",
    )
    # Every setting a run echoes in its JSON meta, in meta order, with its
    # default.  Subcommand options default to SUPPRESS (only the --problem
    # of sweep-k and reduce states its own), so an option left out, or one
    # the subcommand does not take, keeps the value given here.
    parser.set_defaults(
        problem=None, n=None, k=1, k_max=None, alpha=1.0, reynolds=10000.0,
        null_tol=constrained.DEFAULT_NULL_TOL, ic=None, r_list=None, t_end=1.0,
        grid=False, format="csv", out=None,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = tuple(problems.REGISTRY)
    referenced = tuple(name for name, prob in problems.REGISTRY.items() if prob.reference_cover)
    add_parser = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add_parser("analyze", help="score every computed mode of one problem")
    p.add_argument("--problem", required=True, choices=names)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int)
    p.add_argument("--alpha", type=_positive_float)
    p.add_argument("--reynolds", type=_positive_float)
    _add_null_tol(p)
    _add_output(p)

    p = add_parser("sweep-k", help="spectral error against constraint depth")
    p.add_argument("--problem", default="canuto", choices=referenced)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k-max", type=_positive_int, required=True)
    p.add_argument("--grid", action="store_true",
                   help="emit the full per-mode grid instead of per-depth summaries")
    _add_null_tol(p)
    _add_output(p)

    p = add_parser("reduce", help="reduction error against retained mode count")
    # the wave problem is the only one with a time-domain reference
    p.add_argument("--problem", default="acoustic", choices=("acoustic",))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--ic", required=True, choices=("bump", "sine"))
    p.add_argument("--r-list", type=_int_list, required=True,
                   help="comma-separated retained mode counts")
    p.add_argument("--t-end", type=_positive_float)
    _add_null_tol(p)
    _add_output(p)

    p = add_parser("problems", help="list registered problems")
    _add_output(p)
    return parser


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _g17(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _split_lam(row: dict) -> dict:
    """Copy of a row with its complex ``lam`` split into ``re_lambda`` and ``im_lambda``."""
    out = {}
    for name, value in row.items():
        if name == "lam":
            out["re_lambda"], out["im_lambda"] = value.real, value.imag
        else:
            out[name] = value
    return out


def _cmd_analyze(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    prob = problems.get_problem(args.problem)
    system = prob.build(**{name: getattr(args, name) for name in prob.params})
    report = quality.quality_report(system, args.k, null_tol=args.null_tol)
    columns = {
        "rank": range(report.lambdas.size),
        "re_lambda": report.lambdas.real.tolist(),
        "im_lambda": report.lambdas.imag.tolist(),
        "s_norm": report.s_norm.tolist(),
        "theta": report.theta.tolist(),
        "zero_mode": report.zero_mode.tolist(),
    }
    return list(columns), [dict(zip(columns, row)) for row in zip(*columns.values())]


def _cmd_sweep_k(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    if args.grid:
        grid_rows = experiments.k_quality_sweep(
            args.problem, args.n, args.k_max, null_tol=args.null_tol
        )
        header = ["k", "rank", "re_lambda", "im_lambda", "abs_error", "rel_error",
                  "s_norm", "theta", "zero_mode"]
        return header, [_split_lam(vars(row)) for row in grid_rows]
    sweep_rows = experiments.k_sweep(args.problem, args.n, args.k_max, null_tol=args.null_tol)
    return [f.name for f in fields(experiments.KSweepRow)], [vars(row) for row in sweep_rows]


def _cmd_reduce(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    sweep_rows = reduction.reduction_sweep(
        args.n, args.ic, args.r_list, args.t_end, null_tol=args.null_tol
    )
    return [f.name for f in fields(reduction.ReductionRow)], [vars(row) for row in sweep_rows]


def _cmd_problems(args: argparse.Namespace) -> tuple[list[str], list[dict]]:
    header = ["name", "params"]
    rows = [
        {"name": prob.name, "params": list(prob.params)}
        for prob in problems.REGISTRY.values()
    ]
    return header, rows


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep-k": _cmd_sweep_k,
    "reduce": _cmd_reduce,
    "problems": _cmd_problems,
}


def _write_output(args: argparse.Namespace, header: list[str], rows: list[dict]) -> int:
    if args.format == "json":
        text = json.dumps({"meta": vars(args), "rows": rows}, indent=2) + "\n"
    else:
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[name]) for name in header])
        text = buffer.getvalue()
    if not args.out:
        _sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=_sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # C is two unit rows, so at k = 1 an acoustic report has 2n - 2 modes
    if args.command == "reduce" and max(args.r_list) > 2 * args.n - 2:
        parser.error(f"retained counts must be at most 2n - 2 = {2 * args.n - 2}, the mode count")
    try:
        header, rows = _COMMANDS[args.command](args)
    except (EigensieveError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return _write_output(args, header, rows)


def run() -> None:
    raise SystemExit(main())
