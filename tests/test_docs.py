"""Every test that README.md and docs/determinism.md cite exists: a rename
that leaves a citation dead fails here."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DOCS = [TESTS.parent / "README.md", TESTS.parent / "docs" / "determinism.md"]
CITED = re.compile(r"\btest_\w+(?:\.py)?")


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
