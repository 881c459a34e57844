"""Only masking.py permutes array axes: the patch layout lives in PatchGrid.

A call of ``transpose``, ``swapaxes`` or ``moveaxis``, as a function or a
method, counts; a matrix ``.T`` does not.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "evprep").glob("*.py"))
PERMUTATIONS = {"transpose", "swapaxes", "moveaxis"}


def permutation_lines(tree: ast.AST) -> list[int]:
    """The lines of every call in ``tree`` to a function or method that permutes axes."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PERMUTATIONS:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_masking_permutes_axes(path):
    lines = permutation_lines(ast.parse(path.read_text(), str(path)))
    if path.name == "masking.py":
        assert lines
    else:
        assert lines == []


def test_checker_finds_permutations():
    found = ["a.transpose(1, 0)", "np.swapaxes(a, 0, 1)", "np.moveaxis(a, 0, -1)",
             "transpose(a)", "a.reshape(2, 3).transpose(0, 2, 1).copy()"]
    missed = ["a.T", "b = a.T @ c", "transpose = 1", "a.reshape(2, 3)", "np.transpose"]
    assert [bool(permutation_lines(ast.parse(source))) for source in found + missed] == (
        [True] * 5 + [False] * 5
    )
