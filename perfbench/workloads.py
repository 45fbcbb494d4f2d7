"""The benchmark's workloads: the CLI commands that make up one op.

Stdlib only, so run.py can build the same command lines it hands
to fresh ``python -m eigensieve`` processes.  The seed draws only the
retained counts of ``reduce-acoustic``; the other workloads are fixed.
"""

from __future__ import annotations

import random

NAMES = ("analyze-acoustic", "small-spectra", "reduce-acoustic")

#: Grid size of the reduce workload and of its rk4 cross-check.
REDUCE_N = 128
#: Retained counts are drawn from 1 .. 2n - 2, every mode of the report.
REDUCE_MODES = 2 * REDUCE_N - 2
REDUCE_COUNTS = 64
T_END = 1.0


def r_list(seed: int) -> list[int]:
    """The 64 retained counts of one ``reduce-acoustic`` run, ascending.

    One count is drawn from each of 64 equal slices of 1 .. 254, so the
    counts differ from seed to seed while their sum, which sets the
    cost of truncation and simulation, stays within a fraction of a
    percent.
    """
    rng = random.Random(seed)
    edges = [1 + REDUCE_MODES * i // REDUCE_COUNTS for i in range(REDUCE_COUNTS + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]


def commands(workload: str, seed: int) -> list[list[str]]:
    """Argument lists of the CLI commands one op runs, in order."""
    if workload == "analyze-acoustic":
        return [["analyze", "--problem", "acoustic", "--n", "256"]]
    if workload == "small-spectra":
        sweep = ["sweep-k", "--problem", "canuto", "--n", "64", "--k-max", "25"]
        return [
            sweep + ["--grid"],
            sweep,
            ["analyze", "--problem", "orr-sommerfeld", "--n", "110"],
            ["analyze", "--problem", "orr-sommerfeld", "--n", "150"],
        ]
    if workload == "reduce-acoustic":
        return [[
            "reduce", "--problem", "acoustic", "--n", str(REDUCE_N), "--ic", "bump",
            "--t-end", str(T_END), "--r-list", ",".join(map(str, r_list(seed))),
        ]]
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(NAMES)}")


def options(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Subcommand and ``--flag value`` pairs of one argument list.

    A flag followed by another flag, or by nothing, maps to ``""``.
    """
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = ""
            i += 1
    return argv[0], opts


def systems(workload: str) -> list[tuple[str, int]]:
    """Distinct (problem, n) pairs the workload's commands build."""
    pairs = []
    for argv in commands(workload, 0):
        _, opts = options(argv)
        pair = (opts["--problem"], int(opts["--n"]))
        if pair not in pairs:
            pairs.append(pair)
    return pairs
