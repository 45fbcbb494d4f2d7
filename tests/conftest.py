"""Collects acceptance verdicts and prints them after the run.

Per-test prints are swallowed by capture, so the acceptance tests
register their verdicts here and a terminal-summary section emits one
line per criterion where it cannot be hidden.  The ``child_env``
fixture gives subprocess tests an environment that imports the package
from this checkout's ``src`` tree, and ``stacked_vectors`` lays out the
eigenvectors of ``quality.eigenpairs`` as one matrix.
"""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

VERDICTS: dict[int, tuple[bool, str]] = {}
EXPECTED: set[int] = set()


def record_verdict(num: int, ok: bool, detail: str) -> None:
    VERDICTS[num] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not EXPECTED and not VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(EXPECTED | set(VERDICTS)):
        if num in VERDICTS:
            ok, detail = VERDICTS[num]
            line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({detail})"
        else:
            line = f"[criterion {num}] FAIL (no verdict: test did not complete)"
        terminalreporter.write_line(line)


@pytest.fixture
def child_env() -> dict[str, str]:
    """The current environment with ``src`` first on ``PYTHONPATH``.

    pyproject's ``pythonpath`` setting reaches only the pytest process,
    so a child interpreter needs the path in its environment.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def stacked_vectors(comp, blocks):
    """``eigenpairs``' vectors as one r x r matrix in sorted order, zero outside each block.

    Checks on the way that each block holds complex128 columns for its
    ascending positions, and that the blocks cover every position once.
    """
    ats = np.concatenate([at for at, _ in blocks])
    assert np.array_equal(np.sort(ats), np.arange(comp.r))
    vecs = np.zeros((comp.r, comp.r), dtype=complex)
    for part, (at, block) in zip(comp.slices, blocks):
        assert block.dtype == np.complex128 and block.shape == (part.stop - part.start, at.size)
        assert np.all(np.diff(at) > 0)
        vecs[part, at] = block
    return vecs
