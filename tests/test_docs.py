"""Every test that README.md and docs/determinism.md cite exists, and every
ROADMAP item that src/ and tests/ cite is open: a rename that leaves a
citation dead, or a re-anchor that closes an item a shim comment waits on,
fails here."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DOCS = [TESTS.parent / "README.md", TESTS.parent / "docs" / "determinism.md"]
CITED = re.compile(r"\btest_\w+(?:\.py)?")
ROADMAP = TESTS.parent / "ROADMAP.md"
ITEM = re.compile(r"\bROADMAP\s+item\s+(\d+)")


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
