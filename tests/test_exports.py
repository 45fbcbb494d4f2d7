"""Every exported name resolves, so ``from eigensieve import *`` works."""

import importlib
import pkgutil

import pytest

import eigensieve

MODULES = [eigensieve] + [
    importlib.import_module(f"eigensieve.{info.name}")
    for info in pkgutil.iter_modules(eigensieve.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
