"""Alternation relation on words and a bounded uniform-representant search.

A word over the vertex alphabet represents a graph when two vertices
alternate in it exactly if they are adjacent. The search here is a positive
oracle only: it looks for a k-uniform representing word and reports the
first hit; exhaustion proves nothing.

Symmetry breaking: for k-uniform words, every cyclic shift represents the
same graph (equal letter counts force the ends of an alternating
restriction to differ, so linear and circular alternation coincide), and
therefore any representable graph has a representant starting with vertex
0. The search fixes w[0] = 0 and explores the rest.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import LabeledGraph

__all__ = [
    "MissingLetter",
    "BudgetExceeded",
    "alternate",
    "represents",
    "find_uniform_representant",
]

Word = Sequence[int]

DEFAULT_SEARCH_BUDGET = 5_000_000


class MissingLetter(Exception):
    def __init__(self, vertex: int):
        super().__init__(f"vertex {vertex} never occurs in the word")
        self.vertex = vertex


class BudgetExceeded(Exception):
    pass


def alternate(w: Word, x: int, y: int) -> bool:
    """True iff w restricted to {x, y} strictly alternates (any length)."""
    if x == y:
        raise ValueError("alternation needs two distinct letters")
    prev = -1
    for letter in w:
        if letter == x or letter == y:
            if letter == prev:
                return False
            prev = letter
    return True


def represents(w: Word, g: LabeledGraph) -> bool:
    seen = set(w)
    for v in range(g.n):
        if v not in seen:
            raise MissingLetter(v)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if alternate(w, x, y) != g.has_edge(x, y):
                return False
    return True


def find_uniform_representant(
    g: LabeledGraph, k_max: int = 2, budget: int = DEFAULT_SEARCH_BUDGET
) -> list[int] | None:
    """First k-uniform representing word, smallest k <= k_max first.

    Deterministic: the lexicographically smallest representant among those
    starting with vertex 0 (a lossless restriction, see module docstring).
    Absence of a result is not a proof of non-representability.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = g.n
    if n == 0:
        return []
    nodes = 0
    for k in range(1, k_max + 1):
        total = n * k
        if n == 1:
            return [0] * k
        word = [0]
        count = [0] * n
        count[0] = 1
        # per unordered pair: which of the two letters occurred last in the
        # restriction (-1 = neither), and whether a repeat has been seen.
        # a repeat is fatal for edges and required for non-edges.
        last = [[-1] * n for _ in range(n)]
        broken = [[False] * n for _ in range(n)]
        for y in range(1, n):
            last[0][y] = 0

        def breakable(u: int, v: int, last_uv: int, rem_u: int, rem_v: int) -> bool:
            # can future placements still create a repeat in the (u,v)
            # restriction? a repeat needs some z in {u,v} appended right
            # after a z: either two z's remain, or one remains and z was last
            if rem_u >= 2 or rem_v >= 2:
                return True
            if rem_u >= 1 and last_uv == u:
                return True
            if rem_v >= 1 and last_uv == v:
                return True
            return False

        def place(pos: int) -> list[int] | None:
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"word search exceeded {budget} nodes")
            if pos == total:
                for x in range(n):
                    for y in range(x + 1, n):
                        if not g.has_edge(x, y) and not broken[x][y]:
                            return None
                return list(word)
            for v in range(n):
                if count[v] >= k:
                    continue
                undo = []
                dead = False
                for u in range(n):
                    if u == v:
                        continue
                    lo, hi = (u, v) if u < v else (v, u)
                    prev = last[lo][hi]
                    if prev == v:
                        if g.has_edge(lo, hi):
                            dead = True
                            break
                        if not broken[lo][hi]:
                            undo.append((lo, hi, prev, False))
                            broken[lo][hi] = True
                    else:
                        undo.append((lo, hi, prev, broken[lo][hi]))
                        last[lo][hi] = v
                if not dead:
                    count[v] += 1
                    # unbreakable-pair prune over v's non-neighbors
                    for u in range(n):
                        if u == v or g.has_edge(u, v):
                            continue
                        lo, hi = (u, v) if u < v else (v, u)
                        if broken[lo][hi]:
                            continue
                        if not breakable(
                            u, v, last[lo][hi], k - count[u], k - count[v]
                        ):
                            dead = True
                            break
                    if not dead:
                        word.append(v)
                        res = place(pos + 1)
                        if res is not None:
                            return res
                        word.pop()
                    count[v] -= 1
                for lo, hi, old_last, old_broken in undo:
                    last[lo][hi] = old_last
                    broken[lo][hi] = old_broken
            return None

        result = place(1)
        if result is not None:
            return result
    return None
