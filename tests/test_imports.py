"""Every name a genphase module, test or demo imports at the top level is
used in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "genphase").glob("*.py") if p.name != "__init__.py")
SCRIPTS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"
