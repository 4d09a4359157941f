"""Every name a torsiongeo submodule lists in ``__all__`` exists, and
every public function or class it defines is listed there."""

import importlib
import inspect
import pkgutil

import pytest

import torsiongeo

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(torsiongeo.__path__))
LISTED = [n for n in SUBMODULES
          if hasattr(importlib.import_module(f"torsiongeo.{n}"), "__all__")]


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"torsiongeo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", LISTED)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(f"torsiongeo.{name}")
    unlisted = [n for n, obj in vars(module).items()
                if not n.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
                and n not in module.__all__]
    assert unlisted == []
