"""Every top-level function, class and method in src/airfed is used by the
program: src/airfed or perfbench's tooling (not its tests) refers to it by
name, by attribute, or as a `LAYERS` target ("module:qualname"). A
definition that only tests reach is a second path the runtime never takes.
The allowlist names the acceptance criterion that pins each of its entries."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "airfed").glob("*.py"))
USERS = SOURCES + [
    path for path in sorted((ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")
]

# module.qualname -> the acceptance criterion in tests/test_acceptance.py that calls it
ALLOWED = {
    "compression.compression_ratio": "criterion 6",
    "models.gradient": "criteria 1-3",
}


def definitions(module: str, source: str) -> list[str]:
    """module.qualname of each top-level function and class in `source`, and
    of each method of those classes but the dunders, which Python calls."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            found += [
                f"{module}.{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def referenced_names(source: str) -> set[str]:
    """Every name and attribute that `source` reads, and the last part of
    each target string in its `LAYERS = {...}`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            names |= {
                c.value.partition(":")[2].split(".")[-1]
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
            }
    return names


def test_lint_sees_methods_but_not_dunders_or_nested_functions():
    source = (
        "def f():\n    def inner(): pass\n"
        "class C:\n    def __init__(self): pass\n    def m(self): pass\n"
    )
    assert definitions("mod", source) == ["mod.f", "mod.C", "mod.C.m"]


def test_lint_sees_names_attributes_and_layer_targets():
    source = 'LAYERS = {"x": ("core:run_round", "budget:Ledger.record")}\nf(a.b)\n'
    assert referenced_names(source) == {"LAYERS", "f", "a", "b", "run_round", "record"}


def test_every_definition_is_used_by_the_program():
    used = set().union(*(referenced_names(path.read_text()) for path in USERS))
    unused = [
        name
        for path in SOURCES
        for name in definitions(path.stem, path.read_text())
        if name.rpartition(".")[2] not in used
    ]
    # equality, so an entry that the program comes to use, or that is
    # deleted, leaves the allowlist too
    assert sorted(unused) == sorted(ALLOWED)
