"""Every name a torsiongeo submodule lists in ``__all__`` exists, every
public function or class it defines is listed there, and neither it nor
a test file imports a name it never uses."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module binds by import and never reads; a name listed in
    its ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


SOURCES = {name: Path(torsiongeo.__file__).parent / f"{name}.py" for name in SUBMODULES}
SOURCES.update({f"tests/{path.name}": path
                for path in sorted(Path(__file__).parent.glob("*.py"))})


@pytest.mark.parametrize("name", list(SOURCES))
def test_no_unused_imports(name):
    assert _unused_imports(SOURCES[name]) == []
