"""The benchmark's output checks pass real outputs and reject corrupted ones.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  Outputs come
from small instances of the benchmark's commands; each corruption is
one a broken program could produce.
"""

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from eigensieve import cli  # noqa: E402
from eigensieve.problems import acoustic_wave  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402

ACOUSTIC = ("analyze", "--problem", "acoustic", "--n", "32")
ORR = ("analyze", "--problem", "orr-sommerfeld", "--n", "80")
GRID = ("sweep-k", "--problem", "canuto", "--n", "16", "--k-max", "8", "--grid")
SWEEP = GRID[:-1]
REDUCE = ("reduce", "--problem", "acoustic", "--n", "32", "--ic", "bump",
          "--t-end", "1.0", "--r-list", "1,5,17,30,62")


@pytest.fixture(scope="module")
def outputs():
    texts = {}
    for argv in (ACOUSTIC, ORR, GRID, SWEEP, REDUCE):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0
        texts[argv] = buf.getvalue()
    return texts


def _edit(text, corrupt):
    reader = csv.DictReader(io.StringIO(text))
    rows = corrupt([dict(row) for row in reader])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _renumber(rows):
    for rank, row in enumerate(rows):
        row["rank"] = str(rank)
    return rows


def _set(index, column, value):
    def corrupt(rows):
        rows[index][column] = value
        return rows
    return corrupt


def _nearest(target, shift):
    def corrupt(rows):
        row = min(rows, key=lambda r: abs(complex(float(r["re_lambda"]), float(r["im_lambda"])) - target))
        row["im_lambda"] = repr(float(row["im_lambda"]) + shift)
        return rows
    return corrupt


def _reverse_depth(k):
    def corrupt(rows):
        block = [row for row in rows if row["k"] == str(k)]
        start = rows.index(block[0])
        rows[start:start + len(block)] = _renumber(block[::-1])
        return rows
    return corrupt


def _drop_last_of_depth(k):
    def corrupt(rows):
        rows.remove([row for row in rows if row["k"] == str(k)][-1])
        return rows
    return corrupt


def _swap(i, j, column):
    def corrupt(rows):
        rows[i][column], rows[j][column] = rows[j][column], rows[i][column]
        return rows
    return corrupt


@pytest.mark.parametrize("argv", [ACOUSTIC, ORR, GRID, SWEEP, REDUCE], ids=lambda a: " ".join(a[:3]))
def test_real_output_passes(outputs, argv):
    assert checks.check_output(list(argv), outputs[argv]) > 0


CORRUPTIONS = {
    "reversed mode order": (ACOUSTIC, lambda rows: _renumber(rows[::-1])),
    "dropped mode row": (ACOUSTIC, lambda rows: rows[:-1]),
    "negative theta": (ACOUSTIC, _set(0, "theta", "-1e-3")),
    "nan theta": (ACOUSTIC, _set(3, "theta", "nan")),
    "rank gap": (ACOUSTIC, _set(5, "rank", "6")),
    "acoustic pair off the ladder": (ACOUSTIC, _nearest(0.5j * math.pi, 1e-6)),
    "missing Tollmien-Schlichting mode": (ORR, _nearest(checks.TS_TARGET, 1e-4)),
    "grid depth out of order": (GRID, _reverse_depth(2)),
    "grid row dropped": (GRID, _drop_last_of_depth(3)),
    "grid depth missing": (GRID, lambda rows: [row for row in rows if row["k"] != "8"]),
    "sweep r grows": (SWEEP, _set(4, "r", "40")),
    "sweep r below 2n - 2k": (SWEEP, _set(7, "r", "15")),
    "sweep depth dropped": (SWEEP, lambda rows: rows[:3] + rows[4:]),
    "sweep error not finite": (SWEEP, _set(2, "max_abs_error", "inf")),
    "reduce size r + 2": (REDUCE, _set(1, "size", "7")),
    "reduce error not finite": (REDUCE, _set(2, "rel_error", "inf")),
    "reduce row dropped": (REDUCE, lambda rows: rows[:-1]),
    "reduce theta_r out of order": (REDUCE, _swap(0, 4, "theta_r")),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_output_fails(outputs, name):
    argv, corrupt = CORRUPTIONS[name]
    bad = _edit(outputs[argv], corrupt)
    assert bad != outputs[argv]
    with pytest.raises(checks.CheckError):
        checks.check_output(list(argv), bad)


def test_rk4_cross_check_rejects_a_wrong_state():
    check = worker.Rk4CrossCheck(acoustic_wave(64))
    comp, result = check.run()
    check.check(comp, result)
    result.states[-1] *= 1.01
    with pytest.raises(checks.CheckError):
        check.check(comp, result)
