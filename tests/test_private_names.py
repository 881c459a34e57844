"""Modules and tests reach other evprep modules through public names only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "evprep").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(tree: ast.AST) -> list[str]:
    """Private evprep names imported, and private attributes of evprep modules."""
    found = []
    modules = set()  # local names bound to evprep modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "evprep":
                    if any(private(part) for part in alias.name.split(".")):
                        found.append(f"import {alias.name}")
                    modules.add(alias.asname or "evprep")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evprep":
            for alias in node.names:
                if any(private(part) for part in node.module.split(".") + [alias.name]):
                    found.append(f"from {node.module} import {alias.name}")
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_evprep_names(path):
    assert private_uses(ast.parse(path.read_text(), str(path))) == []


def test_checker_flags_private_uses():
    source = (
        "import evprep._helpers\n"
        "from evprep import _helpers, events\n"
        "from evprep.intensity import _update_adaptive_segment\n"
        "import evprep.cli as cli\n"
        "cli._Parser\n"
        "events.np._x\n"
        "self._stack\n"
    )
    assert private_uses(ast.parse(source)) == [
        "import evprep._helpers",
        "from evprep import _helpers",
        "from evprep.intensity import _update_adaptive_segment",
        "cli._Parser",
        "events.np._x",
    ]
