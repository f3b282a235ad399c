"""The library is one program under ``python`` and ``python -O``.

``-O`` strips every ``assert`` and sets ``__debug__`` false, so a check
written either way would back a verdict in one mode only.  Every check
the library makes raises, and this pins that none of them is an assert.
"""

import ast
from pathlib import Path

import pytest

import wordrep

SOURCES = sorted(Path(wordrep.__file__).parent.glob("*.py"))


def test_the_library_sources_are_found():
    assert {"cli.py", "solver.py", "traces.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_debug_flag(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
        or isinstance(node, ast.Attribute) and node.attr == "__debug__"
    ]
    assert found == [], f"{path.name}: assert or __debug__ on lines {found}"
