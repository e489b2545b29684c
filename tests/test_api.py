"""The public surface: every exported name resolves."""

import importlib

import pytest

MODULES = ("degenmfg", "degenmfg.domain", "degenmfg.solvers", "degenmfg.mfg",
           "degenmfg.carleman", "degenmfg.stability", "degenmfg.manufactured",
           "degenmfg.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
