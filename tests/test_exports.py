"""Public names: every ``__all__`` entry resolves, and the package
re-exports only what its modules declare public."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import cascade_auctions

MODULES = {
    info.name: importlib.import_module(f"cascade_auctions.{info.name}")
    for info in pkgutil.iter_modules(cascade_auctions.__path__)
}


@pytest.mark.parametrize("name", ["__init__", *sorted(MODULES)])
def test_all_names_resolve(name):
    module = cascade_auctions if name == "__init__" else MODULES[name]
    assert len(set(module.__all__)) == len(module.__all__), "duplicate entry"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_reexports_only_module_public_names():
    public = {}
    for name, module in MODULES.items():
        for attr in module.__all__:
            public.setdefault(attr, getattr(module, attr))
    stray = [n for n in cascade_auctions.__all__ if n not in public]
    assert not stray, f"package exports names no module lists in __all__: {stray}"
    for n in cascade_auctions.__all__:
        assert getattr(cascade_auctions, n) is public[n]
