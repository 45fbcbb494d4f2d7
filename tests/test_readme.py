"""The README's command-line examples print what the README says they print.

Each ``$ eigensieve ...`` block runs in a fresh interpreter at one BLAS
thread, the setting the README's outputs were produced with.  Numbers
must agree to 1e-9 relative, or 1e-14 absolute below 1e-10, so a
change that moves an example by more than rounding fails here until the
README is refreshed.  A ``...`` line ends the lines that are compared.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = [
    (shlex.split(text.splitlines()[0])[2:], text.splitlines()[1:])
    for text in re.findall(r"```text\n(\$ eigensieve .*?)```", README.read_text(), re.S)
]


def _agree(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if abs(w) < 1e-10:
        return abs(g - w) <= 1e-14
    return abs(g - w) <= 1e-9 * abs(w)


def test_readme_has_command_examples():
    assert {argv[0] for argv, _ in BLOCKS} == {"analyze", "sweep-k", "reduce"}


@pytest.mark.parametrize("argv, expected", BLOCKS, ids=[" ".join(a) for a, _ in BLOCKS])
def test_command_example_output(argv, expected, child_env):
    env = dict(child_env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "eigensieve", *argv],
        capture_output=True, text=True, timeout=120, env=env,
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
