"""Trailing-run three-coloring of S(n,2) and exact chromatic numbers.

Every binary word falls into exactly one of three groups determined by the
parity of its maximal trailing run and the repeated letter: even run
(Red), odd run of 0s (Blue), odd run of 1s (Green). Adjacent vertices of
S(n,2) always land in different groups, which makes the rule a proper
3-coloring and S(n,2) word-representable for every n.
"""

from __future__ import annotations

from .debruijn import (
    SimplifiedDeBruijnGraph,
    SizeLimitExceeded,
    build_simplified,
)
from .graphs import LabeledGraph

__all__ = [
    "RED",
    "BLUE",
    "GREEN",
    "COLOR_NAMES",
    "classify_binary_vertex",
    "color_s_n_2",
    "exact_chromatic_number",
]

RED = 0
BLUE = 1
GREEN = 2

COLOR_NAMES = ("Red", "Blue", "Green")

CHROMATIC_VERTEX_LIMIT = 64


def classify_binary_vertex(label: str) -> int:
    """Color of a binary word: RED, BLUE, or GREEN (see module docstring)."""
    if not label:
        raise ValueError("label must be nonempty")
    if any(ch not in "01" for ch in label):
        raise ValueError(f"label must be binary, got {label!r}")
    c = label[-1]
    run = len(label) - len(label.rstrip(c))
    if run % 2 == 0:
        return RED
    return BLUE if c == "0" else GREEN


def color_s_n_2(n: int) -> tuple[SimplifiedDeBruijnGraph, list[int]]:
    """S(n,2) with the trailing-run coloring, unchecked: callers check it."""
    s = build_simplified(n, 2)
    g = s.graph
    return s, [classify_binary_vertex(g.labels[v]) for v in range(g.n)]


def exact_chromatic_number(g: LabeledGraph, max_colors: int) -> int | None:
    """Smallest c <= max_colors with a proper c-coloring, or None.

    Backtracking over vertices in decreasing-degree order; a vertex may
    only open one color index beyond those already in use, which prunes
    color permutations.  A graph of more than ``CHROMATIC_VERTEX_LIMIT``
    vertices raises SizeLimitExceeded.
    """
    if max_colors < 0:
        raise ValueError("max_colors must be >= 0")
    if g.n > CHROMATIC_VERTEX_LIMIT:
        raise SizeLimitExceeded(
            f"{g.n} vertices exceeds the chromatic-number limit {CHROMATIC_VERTEX_LIMIT}"
        )
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n

    def extend(i: int, c: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {colors[u] for u in g.neighbors(v)}
        for color in range(min(used + 1, c)):
            if color in forbidden:
                continue
            colors[v] = color
            if extend(i + 1, c, max(used, color + 1)):
                return True
            colors[v] = -1
        return False

    lower = 2 if g.edges else 1
    for c in range(lower, max_colors + 1):
        if extend(0, c, 0):
            return c
    return None
