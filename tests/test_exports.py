"""Every name a module exports is defined there, so `from rssiloc.<module>
import *` cannot fail on a name a change deleted and left in __all__."""

import importlib
import pkgutil

import pytest

import rssiloc

MODULES = ["rssiloc", *(f"rssiloc.{m.name}" for m in pkgutil.iter_modules(rssiloc.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_defined(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
