"""The README's examples print what the README says they print.

Each ``$ eigensieve ...`` block, and the ``python`` blocks as one
script, run in a fresh interpreter at one BLAS thread, the setting the
README's outputs were produced with.  Numbers must agree to 1e-9
relative, also at rounding level, and an exact 0 must stay exact, so a
change that moves an example, even a rounding-level score, fails here
until the README is refreshed.  A ``...`` line ends the lines that are
compared.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = [
    (shlex.split(text.splitlines()[0])[2:], text.splitlines()[1:])
    for text in re.findall(r"```text\n(\$ eigensieve .*?)```", TEXT, re.S)
]
#: The python blocks, in order, then the numbers their comments quote:
#: the simulation error and the ranks of the +-i pi pair.
SCRIPT = "\n".join(re.findall(r"```python\n(.*?)```", TEXT, re.S)) + """
print(repr(err))
print(*np.flatnonzero(np.abs(np.abs(report.lambdas) - np.pi) < 1e-6))
"""


def _one_thread(env):
    return dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _agree(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if w == 0.0:
        return g == 0.0
    return abs(g - w) <= 1e-9 * abs(w)


def test_readme_has_command_examples():
    assert {argv[0] for argv, _ in BLOCKS} == {"analyze", "sweep-k", "reduce"}


@pytest.mark.parametrize("argv, expected", BLOCKS, ids=[" ".join(a) for a, _ in BLOCKS])
def test_command_example_output(argv, expected, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "eigensieve", *argv],
        capture_output=True, text=True, timeout=120, env=_one_thread(child_env),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    if "..." in expected:
        expected = expected[: expected.index("...")]
        lines = lines[: len(expected)]
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        got_fields, want_fields = got.split(","), want.split(",")
        assert len(got_fields) == len(want_fields), (got, want)
        assert all(_agree(g, w) for g, w in zip(got_fields, want_fields)), (got, want)


def test_python_examples_run_and_print_the_quoted_numbers(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, timeout=120, env=_one_thread(child_env),
    )
    assert proc.returncode == 0, proc.stderr
    err, ranks = proc.stdout.splitlines()[-2:]
    assert _agree(err, re.search(r"# err is (\S+) at OPENBLAS_NUM_THREADS=1", TEXT)[1])
    ordinal = r"(\d+)(?:st|nd|rd|th)"
    first, second = re.search(rf"it ranks {ordinal} and {ordinal}", TEXT).groups()
    assert ranks.split() == [str(int(first) - 1), str(int(second) - 1)]
