"""Print the exit code and stdout sha256 of a fixed list of CLI commands.

Each command runs as a fresh ``python -m eigensieve`` process against
the ``src`` tree next to this script, with ``OPENBLAS_NUM_THREADS=1``
unless the environment already sets it.  Running the script on two
checkouts and diffing the output checks a claim that a change keeps
the CLI's bytes.  The fixed list covers every subcommand and every
problem, CSV and JSON, a numerical failure (exit 3: a depth that
leaves no state), a depth of 300 past the underflow of C A^299, whose
derivative scores must stay finite, four usage errors (exit 2) and a
``reduce`` with an unsorted, repeated retained count list, so a change
of exit code shows in the diff; after it come the commands of every benchmark workload,
built by ``perfbench/workloads.py`` with seed ``SEED``.

Each line ``<exit code> <sha256> <command>`` digests a command's whole
stdout.  After the line of a command that printed CSV come indented
lines ``<column> <sha256>``, one per CSV column, each the digest of
that column's cells joined by newlines, so a diff shows which columns
moved (say ``rel_error`` alone, against ``size`` or ``theta_r``).
Compare only the whole-output lines with ``grep -v '^ '``.

A change to scoring may move scores within their rounding floors, so
it may move the ``s_norm``, ``theta`` and ``theta_r`` digests, the
error columns (``rel_error``, ``abs_error``, and a ``reduce`` row's
error when rounding reorders the modes it cuts between), and the
``re_lambda`` and ``im_lambda`` digests of the rows it reorders.  It
must keep every exit code, the ``problems`` outputs, the ``sweep-k``
summaries (the commands without ``--grid``), and the ``rank``,
``zero_mode``, ``k``, ``r`` and ``size`` columns.  A change to the
``reduce`` arithmetic alone (projection, evolution, reference) may
move only the ``rel_error`` digests of the ``reduce`` commands: the
Gauss-Legendre table of the reference and the real arithmetic of a
real system's factorisation and evolution are such changes, and so is
the memory layout of the retained basis (``ReducedModel.shapes``, C
order today), because GEMM rounds a transposed operand differently.  A
change to compression below depth 1 may move only the outputs of
depth 2 and deeper: the ``analyze --k`` commands with k >= 2 (the
Orr-Sommerfeld one runs the mass-operator path) and the ``sweep-k``
commands with ``--k-max`` >= 2.  Every ``reduce``, every ``analyze`` at
k = 1 and every benchmark command but the ``sweep-k`` ones keep their
bytes.  A change to how a mirrored system is split into its even and
odd halves (``ConstrainedSystem.mirror``) moves the outputs of the
problems that declare a mirror, ``acoustic``, ``heat`` and
``orr-sommerfeld``, and no other: every ``canuto`` line, every exit
code, ``problems`` and the ``rank``, ``k`` and ``r`` columns keep their
bytes.  Within those problems it may move the eigenvalue, score and
error columns, the ``sweep-k`` summaries, and also ``zero_mode`` and
``size``: acoustic's exact zero mode (p = 0, u constant) and its
spurious twin fall into different halves, so the split resolves the
zero mode and flags it, and a report that leads with that real mode
shifts where its conjugate pairs start, and with it the size of a
model cut between two halves of a pair.

    python3 tools/cli_digest.py
"""

import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

#: Seed of the benchmark's ``reduce-acoustic`` retained counts.
SEED = 1

COMMANDS = [
    "problems",
    "problems --format json",
    "analyze --problem heat --n 48",
    "analyze --problem heat --n 12 --k 2 --format json",
    "analyze --problem canuto --n 64",
    "analyze --problem canuto --n 16 --k 3 --format json",
    "analyze --problem heat --n 8 --k 4",
    "analyze --problem canuto --n 8 --k 300",
    "analyze --problem orr-sommerfeld --n 50 --alpha 1.02 --reynolds 5772 --format json",
    "analyze --problem orr-sommerfeld --n 50 --k 2",
    "analyze --problem acoustic --n 64",
    "analyze --problem acoustic --n 32 --null-tol 1e-8 --format json",
    "sweep-k --n 32 --k-max 25",
    "sweep-k --problem canuto --n 16 --k-max 4 --grid",
    "sweep-k --n 8 --k-max 2 --format json",
    "sweep-k --problem heat --n 16 --k-max 3",
    "sweep-k --problem acoustic --n 16 --k-max 2 --grid --format json",
    "reduce --n 32 --ic sine --r-list 6,8,12",
    "reduce --n 64 --ic bump --r-list 2,10,40,126 --t-end 0.5",
    "reduce --n 32 --ic sine --r-list 2,6 --null-tol 1e-9 --format json",
    "reduce --problem acoustic --n 48 --ic bump --r-list 1,5,94",
    "reduce --n 16 --ic sine --r-list 2,100",
    "reduce --problem heat --n 16 --ic sine --r-list 2",
    "reduce --n 32 --ic bump --r-list 12,2,12,62",
    "analyze --problem heat --n 8 --out .",
    "sweep-k --problem orr-sommerfeld --n 16 --k-max 2",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_digests(stdout: bytes) -> list[tuple[str, str]]:
    """``(name, sha256)`` of each column of a CSV output, in header order."""
    header, *rows = csv.reader(io.StringIO(stdout.decode()))
    return [
        (name, _sha256("\n".join(row[i] for row in rows).encode()))
        for i, name in enumerate(header)
    ]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    print(f"# OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")
    argvs = [command.split() for command in COMMANDS]
    argvs += [argv for name in workloads.NAMES for argv in workloads.commands(name, SEED)]
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "eigensieve", *argv],
            env=env, capture_output=True, timeout=600,
        )
        print(proc.returncode, _sha256(proc.stdout), " ".join(argv))
        if proc.stdout and "json" not in argv:
            for name, digest in _column_digests(proc.stdout):
                print(f"    {name} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
