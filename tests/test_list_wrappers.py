"""No evprep module uses the list wrappers ``segment_stream`` and
``run_sequence``: every production caller streams its segments and frames
through ``iter_segments`` and ``iter_sequence``. The wrappers stay public,
and ``__init__.py`` may import and re-export them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "evprep").glob("*.py"))
WRAPPERS = {"segment_stream", "run_sequence"}


def wrapper_uses(tree: ast.AST) -> list[str]:
    """Each read of a wrapper's name in ``tree``, as a call or otherwise."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            continue
        if name in WRAPPERS:
            found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_the_list_wrappers(path):
    assert wrapper_uses(ast.parse(path.read_text(), str(path))) == []


def test_checker_finds_wrapper_uses():
    found = ["segment_stream(ev, geo, cfg)", "events.segment_stream(ev, geo, cfg)[0]",
             "_, frames = run_sequence(ev, geo, seg, cfg)", "split = run_sequence",
             "def f():\n    return [s for s in segment_stream(ev, geo, cfg)[0]]\n"]
    missed = ["from evprep.events import segment_stream", "import evprep.intensity as run_sequence",
              "def run_sequence(events):\n    return iter_sequence(events)\n",
              "iter_segments(ev, geo, cfg)", '"""segment_stream"""']
    assert [bool(wrapper_uses(ast.parse(source))) for source in found + missed] == (
        [True] * 5 + [False] * 5)
