"""Output checks for the commands the benchmark runs.

Every check comes from an analytic reference or an acceptance
invariant, never from golden bytes: a change that legitimately moves
theta values or mode order still passes, while a dropped row, a
reordered table or a wrong eigenvalue fails.  Stdlib only, so the
parent process (run.py) can check fresh CLI processes without numpy.
"""

from __future__ import annotations

import csv
import io
import math

from workloads import options

#: Tollmien-Schlichting eigenvalue and tolerance of acceptance criterion 4.
TS_TARGET = complex(0.00373967, -0.23752649)
TS_TOL = 5e-6

#: The acoustic eigenvalues +-i m pi/2, m = 0 .. LADDER_PAIRS, must all be found.
LADDER_PAIRS = 10
LADDER_RTOL = 1e-8

#: (fields, constraint rows) of each problem: the depth-k compressed
#: system keeps ``fields * n - k * rows`` states, one mode each.
SHAPES = {"acoustic": (2, 2), "canuto": (2, 2), "orr-sommerfeld": (1, 4)}


class CheckError(Exception):
    """A command output that breaks one of the invariants."""


def mode_count(problem: str, n: int, k: int = 1) -> int:
    fields, rows = SHAPES[problem]
    return fields * n - k * rows


def check_output(argv: list[str], text: str) -> int:
    """Check the CSV output of one command; return its row count."""
    command, opts = options(argv)
    rows = list(csv.DictReader(io.StringIO(text)))
    problem, n = opts["--problem"], int(opts["--n"])
    if command == "analyze":
        check_analyze(problem, n, rows)
    elif command == "sweep-k":
        check_sweep(problem, n, int(opts["--k-max"]), "--grid" in opts, rows)
    elif command == "reduce":
        check_reduce([int(r) for r in opts["--r-list"].split(",")], rows)
    else:
        raise CheckError(f"no check for command {command!r}")
    return len(rows)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _column(rows: list[dict], name: str) -> list[float]:
    try:
        values = [float(row[name]) for row in rows]
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"column {name!r} is missing or not numeric") from None
    _expect(all(math.isfinite(v) for v in values), f"column {name!r} is not finite")
    return values


def _check_ranked(rows: list[dict], what: str) -> None:
    """Ranks run 0 .. len-1 and theta is finite, >= 0 and ascending."""
    _expect(_column(rows, "rank") == list(range(len(rows))), f"{what}: ranks are not 0..{len(rows) - 1}")
    thetas = _column(rows, "theta")
    _expect(all(t >= 0.0 for t in thetas), f"{what}: negative theta")
    _expect(all(a <= b for a, b in zip(thetas, thetas[1:])), f"{what}: theta is not ascending")


def _eigenvalues(rows: list[dict]) -> list[complex]:
    return [complex(re, im) for re, im in zip(_column(rows, "re_lambda"), _column(rows, "im_lambda"))]


def check_analyze(problem: str, n: int, rows: list[dict]) -> None:
    expected = mode_count(problem, n)
    _expect(len(rows) == expected, f"analyze {problem} n={n}: {len(rows)} rows, {expected} modes")
    _check_ranked(rows, f"analyze {problem} n={n}")
    lams = _eigenvalues(rows)
    if problem == "acoustic":
        for m in range(-LADDER_PAIRS, LADDER_PAIRS + 1):
            target = 0.5j * math.pi * m
            gap = min(abs(lam - target) for lam in lams)
            _expect(gap <= LADDER_RTOL * max(1.0, abs(target)),
                    f"analyze acoustic n={n}: no mode near i*{m}*pi/2 (gap {gap:.3e})")
    if problem == "orr-sommerfeld":
        gap = min(abs(lam - TS_TARGET) for lam in lams)
        _expect(gap < TS_TOL, f"analyze orr-sommerfeld n={n}: Tollmien-Schlichting mode off by {gap:.3e}")


def check_sweep(problem: str, n: int, k_max: int, grid: bool, rows: list[dict]) -> None:
    ks = [int(k) for k in _column(rows, "k")]
    if grid:
        depths = sorted(set(ks))
        _expect(depths == list(range(1, k_max + 1)), f"sweep-k grid: depths {depths[:3]}... not 1..{k_max}")
        _expect(ks == sorted(ks), "sweep-k grid: depths are interleaved")
        blocks = [[row for row, kk in zip(rows, ks) if kk == k] for k in depths]
        for k, block in zip(depths, blocks):
            _check_ranked(block, f"sweep-k grid k={k}")
        _check_depth_ranks(problem, n, [len(block) for block in blocks])
        errors = _column(rows, "abs_error") + _column(rows, "rel_error")
    else:
        _expect(ks == list(range(1, k_max + 1)), f"sweep-k: depths are not 1..{k_max}")
        _check_depth_ranks(problem, n, [int(r) for r in _column(rows, "r")])
        errors = [e for name in ("proxy_real_error", "max_abs_error", "min_abs_error", "max_abs_real")
                  for e in _column(rows, name)]
    _expect(all(e >= 0.0 for e in errors), "sweep-k: negative error")


def _check_depth_ranks(problem: str, n: int, rs: list[int]) -> None:
    """Compressed sizes r_1, r_2, ... of a depth sweep.

    In exact arithmetic each depth removes one rank per constraint row,
    r_k = fields * n - k * rows.  In floating point the late blocks
    C A^(k-1) turn numerically dependent and the nullspace stops
    shrinking (canuto n=64 holds r = 90 from k = 19 to 21), so r_k may
    sit above that line but never below it, starts on it, never grows
    and never drops by more than the constraint row count.
    """
    rows = SHAPES[problem][1]
    _expect(rs[0] == mode_count(problem, n), f"depth 1 keeps {rs[0]} states, not {mode_count(problem, n)}")
    for k, (prev, r) in enumerate(zip(rs, rs[1:]), start=2):
        _expect(0 <= prev - r <= rows, f"depth {k}: r drops from {prev} to {r}")
        _expect(r >= mode_count(problem, n, k), f"depth {k}: r = {r} below {mode_count(problem, n, k)}")


def check_reduce(r_list: list[int], rows: list[dict]) -> None:
    _expect(len(rows) == len(r_list), f"reduce: {len(rows)} rows for {len(r_list)} retained counts")
    rs = [int(r) for r in _column(rows, "r")]
    _expect(rs == r_list, "reduce: r column differs from --r-list")
    for r, size in zip(rs, _column(rows, "size")):
        _expect(size in (r, r + 1), f"reduce r={r}: size {size:g} is neither r nor r+1")
    _expect(all(e >= 0.0 for e in _column(rows, "rel_error")), "reduce: negative error")
    # theta_r is the score of the r-th best mode, so it rises with r
    by_r = [t for _, t in sorted(zip(rs, _column(rows, "theta_r")))]
    _expect(all(t >= 0.0 for t in by_r), "reduce: negative theta_r")
    _expect(all(a <= b for a, b in zip(by_r, by_r[1:])), "reduce: theta_r falls as r grows")
