"""What the package ships and loads: data files and runtime imports."""

import fnmatch
import json
import subprocess
import sys
from pathlib import Path

import pytest

import eigensieve

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(eigensieve.__file__).parent


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_every_data_file_is_package_data():
    # An installed wheel carries only the files these patterns match;
    # a missing Gauss-Legendre table would fail the first `reduce`.
    patterns = _pyproject()["tool"]["setuptools"]["package-data"]["eigensieve"]
    data = [
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    ]
    assert "gauss_legendre_4096.npy" in data
    assert [f for f in data if not any(fnmatch.fnmatch(f, p) for p in patterns)] == []


def test_scipy_is_a_test_dependency_only():
    project = _pyproject()["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


RUN_EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
from eigensieve.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["analyze", "--problem", "heat", "--n", "8"]))
    codes.append(main(["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3"]))
    codes.append(main(["reduce", "--problem", "acoustic", "--n", "8", "--ic", "sine",
                       "--r-list", "2,4"]))
    codes.append(main(["problems"]))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_no_subcommand_loads_scipy(child_env):
    # A fresh interpreter: this test session has imported scipy itself.
    proc = subprocess.run(
        [sys.executable, "-c", RUN_EVERY_SUBCOMMAND],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}
