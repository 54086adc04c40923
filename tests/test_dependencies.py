"""The package imports only the standard library, numpy and itself, as
pyproject.toml declares. Other packages (scipy, say) may be installed next to
it, but a run must not need them."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "airfed").glob("*.py"))


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}


def test_declared_dependencies_are_numpy_only():
    assert declared_dependencies() == {"numpy"}


def test_guard_sees_nested_and_dotted_imports():
    source = "import os\ndef f():\n    from scipy.linalg import eigh\nfrom . import core\n"
    assert imported_modules(source) == {"os", "scipy"}


def test_package_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_airfed(path):
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {"airfed"}
    undeclared = sorted(imported_modules(path.read_text()) - allowed)
    assert undeclared == [], f"{path.name} imports {undeclared}"
