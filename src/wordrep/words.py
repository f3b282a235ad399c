"""Alternation on words, and a bounded uniform-representant search.

A word over the vertex alphabet represents a graph when two vertices
alternate in it exactly if they are adjacent.  ``represents`` and the
search both grow a word one letter at a time through ``_place``, which
keeps two bitmasks per letter:

- ``last[v]``: the letters u whose restriction to {u, v} ends in v;
- ``broken[v]``: the letters u that no longer alternate with v.

Appending v marks every pair in ``last[v]`` broken (its restriction now
repeats v), then makes v the last letter of every pair it is in.  A word
represents the graph when, at its end, ``broken[x]`` is exactly the
non-neighbours of x for every x.

The search is a positive oracle only: it reports the first k-uniform
representing word; exhaustion proves nothing.  For k-uniform words every
cyclic shift represents the same graph (equal letter counts force the
ends of an alternating restriction to differ, so linear and circular
alternation coincide), so the search fixes w[0] = 0 and loses nothing.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import LabeledGraph

__all__ = [
    "MissingLetter",
    "BudgetExceeded",
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


def _place(v: int, last: list[int], broken: list[int]) -> None:
    """Append letter v to the word whose masks ``last``/``broken`` hold."""
    bit = 1 << v
    ended = last[v]
    broken[v] |= ended
    for u in range(len(last)):
        if ended >> u & 1:
            broken[u] |= bit
        last[u] &= ~bit
    last[v] = ((1 << len(last)) - 1) ^ bit


def _non_neighbours(g: LabeledGraph) -> list[int]:
    full = (1 << g.n) - 1
    return [full ^ g.adj[x] ^ 1 << x for x in range(g.n)]


def represents(w: Word, g: LabeledGraph) -> bool:
    seen = set(w)
    for v in range(g.n):
        if v not in seen:
            raise MissingLetter(v)
    if len(seen) > g.n:
        raise ValueError("the word has a letter that is not a vertex")
    last, broken = [0] * g.n, [0] * g.n
    for v in w:
        _place(v, last, broken)
    return broken == _non_neighbours(g)


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
    if n <= 1:
        return [0] * n
    adj, non_adj = g.adj, _non_neighbours(g)
    nodes = 0
    for k in range(1, k_max + 1):
        word = [0]
        count = [1] + [0] * (n - 1)
        last, broken = [0] * n, [0] * n
        _place(0, last, broken)
        # one entry per letter after w[0]: the letter and the masks before it
        saved: list[tuple[int, list[int], list[int]]] = []
        v = 0  # the next letter to try, 0 exactly when a node is entered
        while True:
            if not v:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"word search exceeded {budget} nodes")
                # the prune lets no full word keep a non-edge unbroken; this
                # test backs the word it returns (a full word spends every
                # letter, so the loop below tries none)
                if len(word) == n * k and broken == non_adj:
                    return list(word)
            while v < n:
                # a neighbour whose pair ends in v would repeat v
                if count[v] < k and not last[v] & adj[v]:
                    next_last, next_broken = last[:], broken[:]
                    _place(v, next_last, next_broken)
                    # every pair holding v now ends in v, so once v is spent a
                    # pair that still alternates has at most one u to come and
                    # never repeats: a non-neighbour of v must be broken by now
                    if count[v] + 1 < k or not non_adj[v] & ~next_broken[v]:
                        break
                v += 1
            if v < n:
                count[v] += 1
                word.append(v)
                saved.append((v, last, broken))
                last, broken = next_last, next_broken
                v = 0
            elif saved:
                v, last, broken = saved.pop()
                word.pop()
                count[v] -= 1
                v += 1
            else:
                break
    return None
