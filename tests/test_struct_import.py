"""Only formats.py imports struct: every binary header is declared there."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "evprep").glob("*.py"))


def imports_struct(tree: ast.AST) -> bool:
    """Whether any import in ``tree``, at any depth, is of struct."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "struct" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_formats_imports_struct(path):
    assert imports_struct(ast.parse(path.read_text(), str(path))) == (path.name == "formats.py")


def test_checker_finds_struct_imports():
    found = ["import struct", "import os, struct as s", "from struct import pack",
             "def f():\n    import struct\n"]
    missed = ["import structlog", "from evprep import formats", "struct = None",
              "from . import struct_helpers"]
    assert [imports_struct(ast.parse(source)) for source in found + missed] == [True] * 4 + [False] * 4
