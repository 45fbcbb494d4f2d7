"""Every exported name resolves and is declared once, in its own module."""

import importlib
import inspect
import pkgutil

import pytest

import eigensieve
from eigensieve import (
    DEFAULT_NULL_TOL,
    compress,
    compress_depths,
    k_quality_sweep,
    k_sweep,
    nullspace_basis,
    quality_report,
    reduction_sweep,
)
from eigensieve.cli import build_parser

SUBMODULES = [
    importlib.import_module(f"eigensieve.{info.name}")
    for info in pkgutil.iter_modules(eigensieve.__path__)
    if info.name != "__main__"
]
MODULES = [eigensieve] + SUBMODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_each_module_name_once():
    names = eigensieve.__all__
    assert len(names) == len(set(names))
    declared = {name for module in SUBMODULES for name in getattr(module, "__all__", ())}
    assert set(names) == declared


@pytest.mark.parametrize(
    "func, param",
    [
        (nullspace_basis, "tol"),
        (compress, "tol"),
        (compress_depths, "tol"),
        (quality_report, "null_tol"),
        (k_sweep, "null_tol"),
        (k_quality_sweep, "null_tol"),
        (reduction_sweep, "null_tol"),
    ],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_null_tolerance_defaults_read_the_one_constant(func, param):
    assert inspect.signature(func).parameters[param].default is DEFAULT_NULL_TOL


def test_cli_echoes_the_null_tolerance_default():
    args = build_parser().parse_args(["analyze", "--problem", "heat", "--n", "8"])
    assert args.null_tol is DEFAULT_NULL_TOL
