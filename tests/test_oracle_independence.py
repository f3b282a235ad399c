"""The exhaustive oracle shares no code with the shortcut test it checks.

The tests that hold the solver and ``find_shortcut`` to the oracle compare
two independent exact tests only while the oracle keeps its own rows.
This pins that the oracle's functions name none of the routines that the
solver and ``find_shortcut`` share, and that they name
``is_semitransitive`` once, to re-check the certificate.
"""

import ast
from pathlib import Path

import wordrep.orientations

ORACLE = ("brute_force_semitransitive", "_leaf_verdicts", "_doomed")
SHARED = {
    "find_shortcut",
    "shortcut_under",
    "_violating_pair",
    "reach_rows",
    "add_arc_rows",
    "shortest_path",
    "PartialOrientation",
}


def _oracle_functions():
    path = Path(wordrep.orientations.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {name: found[name] for name in ORACLE}


def _names(node):
    """Every name, attribute and imported name under node."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    ]


def test_the_oracle_names_none_of_the_shared_routines():
    for name, function in _oracle_functions().items():
        shared = SHARED & set(_names(function))
        assert not shared, f"{name} names {sorted(shared)}"


def test_the_oracle_calls_is_semitransitive_once_on_its_certificate():
    functions = _oracle_functions()
    named = [name for name, f in functions.items() for n in _names(f) if n == "is_semitransitive"]
    calls = [
        ast.unparse(node)
        for node in ast.walk(functions["brute_force_semitransitive"])
        if isinstance(node, ast.Call) and _names(node.func) == ["is_semitransitive"]
    ]
    assert named == ["brute_force_semitransitive"]
    assert calls == ["is_semitransitive(cert)"]
