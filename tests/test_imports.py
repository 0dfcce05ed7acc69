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


INSTRUMENT = PACKAGE.parents[1] / "perfbench" / "instrument.py"


def patched_names(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for each name of a ``nasadapt`` module that the
    benchmark's instrumentation names as a patch target: a module alias
    followed by the name as a string, in a tuple or a call's arguments."""
    aliases = {alias.asname: alias.name.removeprefix("nasadapt.")
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("nasadapt.") and alias.asname}
    pairs = set()
    for node in ast.walk(tree):
        items = node.elts if isinstance(node, ast.Tuple) else \
            node.args if isinstance(node, ast.Call) else []
        for owner, name in zip(items, items[1:]):
            if isinstance(owner, ast.Name) and owner.id in aliases \
                    and isinstance(name, ast.Constant) and isinstance(name.value, str):
                pairs.add((aliases[owner.id], name.value))
    return pairs


def shim_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for each import in the package marked ``# noqa: F401``."""
    shims = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        shims += [(module, name) for name, line in imported_names(ast.parse(source)).items()
                  if "# noqa: F401" in lines[line - 1]]
    return shims


SHIMS = shim_imports()


@pytest.mark.parametrize("module, name", SHIMS, ids=[f"{m}.{n}" for m, n in SHIMS])
def test_shim_import_is_patched_by_the_benchmark(module, name):
    # an import kept only as a patch target goes once the benchmark stops patching it
    patched = patched_names(ast.parse(INSTRUMENT.read_text(encoding="utf-8")))
    assert (module, name) in patched, \
        f"{module} imports {name} unused, and perfbench/instrument.py does not patch it"


def test_shim_check_reads_tuples_and_calls():
    tree = ast.parse("import nasadapt.layers as layers\nimport os as o\n"
                     "spans = ((layers, 'relu6', 'k'), (o, 'sep', 'k'))\n"
                     "patch(layers, 'conv2d', make)\n")
    assert patched_names(tree) == {("layers", "relu6"), ("layers", "conv2d")}
