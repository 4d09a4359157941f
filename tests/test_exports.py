"""Every name a torsiongeo submodule lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import torsiongeo

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(torsiongeo.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"torsiongeo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
