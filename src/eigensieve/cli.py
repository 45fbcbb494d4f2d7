"""Command-line front end.

Four subcommands: ``analyze`` scores every computed mode of one
problem, ``sweep-k`` tabulates spectral error against constraint
depth, ``reduce`` runs the quality-ranked reduction error sweep, and
``problems`` lists what is registered.  Output is CSV or JSON on stdout
or to a file.  A run reads no clock, seed or file, so its bytes repeat
for a fixed BLAS build and thread count; the thread count changes how
products round, which can move scores within their rounding floors and
reorder modes whose angles lie within each other's floors (see the
README's Reproducibility section).

Exit codes: 0 on success, 2 on usage errors, 3 on numerical failure,
including arrays too large to allocate (``MemoryError``).

Every command builds one table, a dict that maps each column name, in
header order, to one 1-D array, and ``_write_output`` writes it: JSON
rows hold each cell as its Python value, CSV cells are ``true`` or
``false`` for a bool, ``.17g`` for a float, ``;``-joined for a list
and ``str`` otherwise.  No CSV cell is quoted: headers are identifiers,
and no registered problem name or parameter holds a comma, a quote or
a newline.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
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


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("retained counts must be positive integers")
    return values


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
    # the subcommand does not take, keeps the value given here.  null_tol is
    # no option: it records the rank cut of every depth, DEFAULT_NULL_TOL.
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
    _add_output(p)

    p = add_parser("sweep-k", help="spectral error against constraint depth")
    p.add_argument("--problem", default="canuto", choices=referenced)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k-max", type=_positive_int, required=True)
    p.add_argument("--grid", action="store_true",
                   help="emit the full per-mode grid instead of per-depth summaries")
    _add_output(p)

    p = add_parser("reduce", help="reduction error against retained mode count")
    # the wave problem is the only one with a time-domain reference
    p.add_argument("--problem", default="acoustic", choices=("acoustic",))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--ic", required=True, choices=("bump", "sine"))
    p.add_argument("--r-list", type=_int_list, required=True,
                   help="comma-separated retained mode counts")
    p.add_argument("--t-end", type=_positive_float)
    _add_output(p)

    p = add_parser("problems", help="list registered problems")
    _add_output(p)
    return parser


def _cmd_analyze(args: argparse.Namespace) -> dict:
    prob = problems.get_problem(args.problem)
    system = prob.build(**{name: getattr(args, name) for name in prob.params})
    report = quality.quality_report(system, args.k)
    return {
        "rank": np.arange(report.lambdas.size),
        "re_lambda": report.lambdas.real,
        "im_lambda": report.lambdas.imag,
        "s_norm": report.s_norm,
        "theta": report.theta,
        "zero_mode": report.zero_mode,
    }


def _cmd_sweep_k(args: argparse.Namespace) -> dict:
    sweep = experiments.k_quality_sweep if args.grid else experiments.k_sweep
    return sweep(args.problem, args.n, args.k_max)


def _cmd_reduce(args: argparse.Namespace) -> dict:
    return reduction.reduction_sweep(args.n, args.ic, args.r_list, args.t_end)


def _cmd_problems(args: argparse.Namespace) -> dict:
    return {
        "name": np.array([prob.name for prob in problems.REGISTRY.values()]),
        "params": [list(prob.params) for prob in problems.REGISTRY.values()],
    }


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep-k": _cmd_sweep_k,
    "reduce": _cmd_reduce,
    "problems": _cmd_problems,
}


def _csv_column(values: list) -> tuple[str, list]:
    """A CSV column's ``%`` conversion and its cells, chosen from the type of its elements.

    Bools become ``true`` or ``false`` and lists their ``;``-joined
    items first, so each cell takes ``%s``, as a str does; floats take
    ``%.17g``, whose bytes are those of ``format(v, ".17g")``, inf, nan
    and -0 included.
    """
    kind = type(values[0]) if values else str
    if kind is bool:
        return "%s", ["true" if v else "false" for v in values]
    if kind is list:
        return "%s", [";".join(map(str, v)) for v in values]
    return {float: "%.17g", int: "%d"}.get(kind, "%s"), values


def _write_output(args: argparse.Namespace, table: dict) -> int:
    # a column is a 1-D array, or a plain list of lists; tolist() gives
    # every cell its Python type, hence its JSON bytes
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.values()]
    if args.format == "json":
        rows = [dict(zip(table, row)) for row in zip(*columns)]
        text = json.dumps({"meta": vars(args), "rows": rows}, indent=2) + "\n"
    else:
        specs, cells = zip(*map(_csv_column, columns))
        # one template per row formats every cell of it in one call
        rows = map((",".join(specs) + "\n").__mod__, zip(*cells))
        text = "".join([",".join(table) + "\n", *rows])
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
    # the builder would raise on a grid below its minimum, but that is a usage error
    if args.n is not None and args.n < (least := problems.REGISTRY[args.problem].min_n):
        parser.error(f"--n must be at least {least} for {args.problem}, got {args.n}")
    # C is two unit rows, so at k = 1 an acoustic report has 2n - 2 modes
    if args.command == "reduce" and max(args.r_list) > 2 * args.n - 2:
        parser.error(f"retained counts must be at most 2n - 2 = {2 * args.n - 2}, the mode count")
    try:
        table = _COMMANDS[args.command](args)
    except (EigensieveError, np.linalg.LinAlgError, ValueError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return _write_output(args, table)


def run() -> None:
    raise SystemExit(main())
