"""Small functions that only the tests use.

They were part of the library, but no library code or command calls
them: DOT writers for eyeballing a graph or an orientation, the reversal
of an orientation, the graph a word defines, induced containment as a
yes/no, and the reduction of a LaTeX proof listing to plain trace lines.
"""

import re

from wordrep.graphs import LabeledGraph
from wordrep.orientations import Orientation
from wordrep.subiso import find_induced_embedding
from wordrep.words import MissingLetter, alternate


def graph_to_dot(g: LabeledGraph, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  v{i} [label="{lab}"];')
    for a, b in g.edge_list():
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines)


def orientation_to_dot(o: Orientation, name: str = "o") -> str:
    g = o.graph
    lines = [f"digraph {name} {{"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  v{i} [label="{lab}"];')
    for t, h in sorted(o.arcs):
        lines.append(f"  v{t} -> v{h};")
    lines.append("}")
    return "\n".join(lines)


def reverse_orientation(o: Orientation) -> Orientation:
    return Orientation(o.graph, tuple((h, t) for t, h in o.arcs))


def graph_of_word(w, n_vertices: int) -> LabeledGraph:
    """Graph on 0..n-1 whose edges are exactly the alternating pairs of w."""
    seen = set(w)
    for v in range(n_vertices):
        if v not in seen:
            raise MissingLetter(v)
    edges = [
        (x, y)
        for x in range(n_vertices)
        for y in range(x + 1, n_vertices)
        if alternate(w, x, y)
    ]
    return LabeledGraph([str(v) for v in range(n_vertices)], edges)


def contains_induced(pattern: LabeledGraph, host: LabeledGraph) -> bool:
    """Whether ``pattern`` occurs in ``host`` as an induced subgraph."""
    return find_induced_embedding(pattern, host) is not None


def normalize_latex(text: str) -> str:
    """Reduce LaTeX trace source to plain instruction lines.

    Unwraps ``{\\bf ...}`` groups, rewrites ``$\\rightarrow$`` to ``->``,
    drops layout commands and blank lines, and collapses whitespace.
    """
    text = re.sub(r"\{\\bf\s*([^{}]*)\}", r"\1", text)
    text = text.replace(r"$\rightarrow$", "->")
    text = re.sub(r"\\(?:noindent|begin\{tiny\}|end\{tiny\})", " ", text)
    text = text.replace("\\\\", " ")
    lines = [" ".join(raw.split()) for raw in text.splitlines()]
    return "\n".join(line for line in lines if line)
