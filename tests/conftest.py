"""Collects acceptance verdicts and prints them after the run.

Per-test prints are swallowed by capture, so the acceptance tests
register their verdicts here and a terminal-summary section emits one
line per criterion where it cannot be hidden.  The ``child_env``
fixture gives subprocess tests an environment that imports the package
from this checkout's ``src`` tree, ``stacked_vectors`` lays out the
eigenvectors of ``quality.eigenpairs`` as one matrix, and ``whole_p``
and ``whole_e_k`` assemble a compressed system's P and E_k over the
whole state space from its halves.
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


def stacked_vectors(comp, vecs):
    """``eigenpairs``' vectors as one block-diagonal r x r matrix, column i that of ``lams[i]``.

    Block i of ``vecs`` fills rows and columns ``comp.slices[i]``.
    Checks on the way that there is one square complex128 block per
    diagonal block of ``comp``, so the blocks cover every position once.
    """
    assert len(vecs) == len(comp.slices)
    stacked = np.zeros((comp.r, comp.r), dtype=complex)
    for part, block in zip(comp.slices, vecs):
        assert block.dtype == np.complex128 and block.shape == (part.stop - part.start,) * 2
        stacked[part, part] = block
    return stacked


def whole_p(comp):
    """Each half's orthonormal complement P lifted to the state space, ``[U_+ P_+, U_- P_-]``."""
    return comp._lift([half.p for half in comp.halves])


def whole_e_k(comp):
    """The block diagonal ``m* E m`` of the halves' ``e_k``, None without a mass operator."""
    if comp.halves[0].e_k is None:
        return None
    return comp._diagonal([half.e_k for half in comp.halves])
