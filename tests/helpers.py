"""Small functions that only the tests use.

They were part of the library, but no library code or command calls
them: DOT writers for eyeballing a graph or an orientation, the reversal
of an orientation, the graph a word defines, induced containment as a
yes/no, the reduction of a LaTeX proof listing to plain trace lines, a
copy of a partial orientation with one vertex made a source, its unset
edges, the closing arc of a shortcut witness, the host label an
embedding maps a pattern label to, and a plain recursive enumerator of
the solver's cycle inventory, the reference for its bitmask DFS.
"""

import itertools
import re

from wordrep.graphs import LabeledGraph
from wordrep.orientations import (
    UNSET,
    Orientation,
    PartialOrientation,
    ShortcutWitness,
)
from wordrep.subiso import Embedding, find_induced_embedding
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


def fix_source(po: PartialOrientation, v: int) -> PartialOrientation:
    """A copy of ``po`` with every edge at ``v`` oriented outward."""
    g = po.graph
    if not 0 <= v < g.n:
        raise ValueError(f"vertex id {v} out of range")
    for u in g.neighbors(v):
        if po.direction(v, u) is not None:
            raise ValueError(
                f"edge {g.labels[v]}-{g.labels[u]} is already oriented"
            )
    out = po.copy()
    for u in g.neighbors(v):
        out.set_arc(v, u)
    return out


def unset_edges(po: PartialOrientation) -> list[tuple[int, int]]:
    return [e for e, s in zip(po.edge_order, po.state) if s == UNSET]


def closing_arc(w: ShortcutWitness) -> tuple[int, int]:
    return (w.path[0], w.path[-1])


def image_of(e: Embedding, label: str) -> str:
    """The host label a pattern label maps to."""
    return e.host.labels[e.mapping[e.pattern.index[label]]]


def is_clique(g: LabeledGraph, ids) -> bool:
    return all(g.has_edge(a, b) for a, b in itertools.combinations(ids, 2))


def reference_rings(g: LabeledGraph, max_len: int) -> list[tuple[int, ...]]:
    """Every triangle, and every non-clique simple cycle of length
    4..max_len, once per vertex set ring, sorted by (length, ids): a plain
    DFS from each ring's least vertex, taking each ring the way its second
    vertex is below its last."""
    neighbors = [g.neighbors(v) for v in range(g.n)]
    found: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        tail = path[-1]
        start = path[0]
        for w in neighbors[tail]:
            if w == start and len(path) >= 3:
                if path[1] > path[-1]:  # one orientation of each ring
                    continue
                ids = tuple(path)
                if len(ids) > 3 and is_clique(g, ids):
                    continue  # clique rings never fire the CycleRule
                found.append(ids)
            elif w > start and w not in path and len(path) < max_len:
                path.append(w)
                extend(path)
                path.pop()

    for s in range(g.n):
        extend([s])
    found.sort(key=lambda ids: (len(ids), ids))
    return found
