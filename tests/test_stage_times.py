"""The stage tool (``tools/stage_times.py``) still fits the package.

The tool times CLI commands by wrapping module attributes by name, so a
renamed function, or a stage that a command reaches through a site the
table lacks, breaks its stage times without failing any other test.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"


@pytest.fixture(scope="module")
def tool():
    # the tool sets the BLAS thread variables and extends sys.path on import
    environ, path = dict(os.environ), list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("stage_times", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


def test_every_site_resolves(tool):
    for module, attr, stage, _ in tool.SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert stage in tool.STAGES
    assert set(tool.RENAMED.values()) <= set(tool.STAGES)


@pytest.mark.parametrize("argv, busy", [
    (["analyze", "--problem", "heat", "--n", "8"], {"build", "compress", "eig", "score", "sort"}),
    (["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3"],
     {"build", "compress", "eig", "reference"}),
    # the benchmark's tracer books none of this case's scoring (tests/test_tracer.py)
    (["sweep-k", "--problem", "canuto", "--n", "8", "--k-max", "3", "--grid"],
     {"build", "compress", "eig", "score", "sort", "reference"}),
    (["reduce", "--n", "8", "--ic", "bump", "--r-list", "2,9"],
     {"build", "compress", "eig", "score", "sort", "reference", "retain"}),
], ids=["analyze", "sweep-k", "sweep-k-grid", "reduce"])
def test_stages_split_the_whole_command(tool, argv, busy):
    times, total = tool.run(argv)
    assert set(times) <= set(tool.STAGES)
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
    assert all(times[stage] > 0.0 for stage in busy | {"write", "other"})


def test_a_failing_command_stops_the_tool(tool):
    # depth 300 of a 4-point heat grid leaves no state: exit 3
    with pytest.raises(SystemExit, match="exited with code 3"):
        tool.run(["analyze", "--problem", "heat", "--n", "4", "--k", "300"])
