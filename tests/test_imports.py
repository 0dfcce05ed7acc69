"""No module of the package imports a name it never uses (pyflakes' F401,
without pyflakes): a name counts as used when the module reads it, lists
it in ``__all__``, or imports it on a line marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

import nasadapt

PACKAGE = Path(nasadapt.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code or in string annotations, and
    every name its ``__all__`` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= read_names(ast.parse(annotation.value))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = read_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items()
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert not unused, f"imported and never used: {', '.join(unused)}"


def test_check_catches_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nprint(loads)\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os", "dumps"}
