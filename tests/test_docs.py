"""Every test and every ``module.name`` of the package that README.md and
docs/determinism.md cite exists, and every ROADMAP item that src/ and
tests/ cite is open: a rename that leaves a citation dead, or a re-anchor
that closes an item a shim comment waits on, fails here."""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DOCS = [TESTS.parent / "README.md", TESTS.parent / "docs" / "determinism.md"]
CITED = re.compile(r"\btest_\w+(?:\.py)?")
ROADMAP = TESTS.parent / "ROADMAP.md"
ITEM = re.compile(r"\bROADMAP\s+item\s+(\d+)")
PACKAGE = TESTS.parent / "src" / "nasadapt"
MODULES = {p.stem for p in PACKAGE.rglob("*.py")} - {"__init__"} | {
    p.parent.name for p in PACKAGE.glob("*/__init__.py")}
# a backticked dotted name that starts at a module of the package; a file
# name such as `cli.py` is not one
REFERENCE = re.compile(rf"`((?:nasadapt\.)?(?:{'|'.join(sorted(MODULES))})(?:\.\w+)+)(?<!\.py)`")


def defined_tests() -> set[str]:
    """The name of every test module and every test function under tests/."""
    names = set()
    for path in TESTS.glob("test_*.py"):
        names.add(path.name)
        names |= {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    return names


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_cited_test_is_defined(doc):
    cited = set(CITED.findall(doc.read_text(encoding="utf-8")))
    assert cited, f"{doc.name} cites no test"
    dead = sorted(cited - defined_tests())
    assert not dead, f"{doc.name} cites tests that do not exist: {', '.join(dead)}"


def test_citation_pattern_reads_modules_and_functions():
    text = "see `test_numerics.py::TestBatchNorm::test_gradients` and test_e2e_x."
    assert set(CITED.findall(text)) == {"test_numerics.py", "test_gradients", "test_e2e_x"}


def resolves(reference: str) -> bool:
    """Whether a dotted name is a module of the package, or an attribute path
    from the longest module prefix of it."""
    parts = reference.removeprefix("nasadapt.").split(".")
    for n in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(["nasadapt", *parts[:n]]))
        except ModuleNotFoundError:
            continue
        try:
            functools.reduce(getattr, parts[n:], module)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_every_cited_name_exists(doc):
    cited = set(REFERENCE.findall(doc.read_text(encoding="utf-8")))
    assert cited, f"{doc.name} cites no name of the package"
    dead = sorted(name for name in cited if not resolves(name))
    assert not dead, f"{doc.name} cites names that do not exist: {', '.join(dead)}"


def test_reference_pattern_reads_dotted_names_not_files():
    text = ("`layers.ConvStage.tensors`, `nasadapt.seeding.seed_for`, `cli.py`, "
            "`nasadapt.layers`, `np.add.reduce` and `toytask.generate(spec)`")
    assert REFERENCE.findall(text) == ["layers.ConvStage.tensors", "nasadapt.seeding.seed_for"]
    assert resolves("layers.ConvStage.tensors") and resolves("numerics.optim")
    assert not resolves("costmodel.block_input_sizes")


def open_items() -> set[int]:
    """The number of every item under ROADMAP.md's "Open items" heading."""
    text = ROADMAP.read_text(encoding="utf-8").split("\n## Open items\n", 1)[1]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", text.split("\n## ", 1)[0], re.M)}


def test_every_cited_roadmap_item_is_open():
    cited: dict[int, set[str]] = {}
    for path in [*(TESTS.parent / "src").rglob("*.py"), *TESTS.glob("*.py")]:
        for n in ITEM.findall(path.read_text(encoding="utf-8")):
            cited.setdefault(int(n), set()).add(path.name)
    items = open_items()
    assert items, "ROADMAP.md lists no open item"
    closed = {n: sorted(names) for n, names in sorted(cited.items()) if n not in items}
    assert not closed, f"these files cite ROADMAP items that are not open: {closed}"
