"""Each module of the package uses every name it imports, and only
``operators`` reads the pair layout's row starts."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphclean"


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    source = ("import math\nimport numpy as np\nimport os.path\n"
              "from .operators import pair_count, pair_index\n"
              "np.zeros(pair_count(3))\nos.path.join('a')\n")
    assert unused_imports(source) == ["math", "pair_index"]


# __init__.py imports names to export them
@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def reads_row_starts(source: str) -> bool:
    """Whether ``source`` imports ``_row_starts`` or reads it as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "_row_starts" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_row_starts":
            return True
    return False


def test_finds_a_read_of_the_row_starts():
    assert reads_row_starts("from .operators import _row_starts as starts\n")
    assert reads_row_starts("from . import operators\noperators._row_starts(4)\n")
    assert not reads_row_starts("from .operators import _rows, pair_positions\n")


# a pair position is computed in operators.py alone
@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "operators.py"))
def test_only_operators_reads_the_row_starts(module):
    assert not reads_row_starts((PACKAGE / module).read_text(encoding="utf-8"))
