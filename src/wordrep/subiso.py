"""Induced subgraph isomorphism with optional label anchors.

An induced embedding maps the pattern's vertices injectively into the
host so that pattern vertices are adjacent exactly when their images
are: edges must map onto edges and non-edges onto non-edges.  This is
the containment notion under which non-representability is hereditary,
so locating a small bad pattern inside a larger graph settles the
larger graph too.

The search is plain backtracking with two prunes: a candidate image
needs at least the pattern vertex's degree, and it must agree with
every already-placed neighbor and non-neighbor.  Pattern vertices are
tried in degree-descending order and host candidates in index order,
so the first embedding found is deterministic.  The hosts in scope are
small (at most a few dozen vertices); nothing heavier is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import LabeledGraph

__all__ = [
    "Embedding",
    "find_induced_embedding",
]


@dataclass(frozen=True)
class Embedding:
    """An injective map from pattern vertices to host vertices.

    ``mapping[p]`` is the host vertex id for pattern vertex id ``p``.
    The induced condition — pattern pairs are edges exactly when their
    images are — is re-checkable at any time via :meth:`is_induced`.
    """

    pattern: LabeledGraph
    host: LabeledGraph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.pattern.n:
            raise ValueError("mapping must cover every pattern vertex")
        if len(set(self.mapping)) != len(self.mapping):
            raise ValueError("mapping must be injective")
        if any(not 0 <= h < self.host.n for h in self.mapping):
            raise ValueError("mapping image out of host range")

    def image_of(self, label: str) -> str:
        """The host label a pattern label maps to."""
        return self.host.labels[self.mapping[self.pattern.index[label]]]

    def as_label_map(self) -> dict[str, str]:
        return {
            self.pattern.labels[p]: self.host.labels[h]
            for p, h in enumerate(self.mapping)
        }

    def is_induced(self) -> bool:
        """Re-check the induced condition over all pattern vertex pairs."""
        for u in range(self.pattern.n):
            for v in range(u + 1, self.pattern.n):
                if self.pattern.has_edge(u, v) != self.host.has_edge(
                    self.mapping[u], self.mapping[v]
                ):
                    return False
        return True


def _resolve_anchors(
    pattern: LabeledGraph, host: LabeledGraph, anchors: Mapping[str, str]
) -> dict[int, int]:
    resolved: dict[int, int] = {}
    for p_label, h_label in anchors.items():
        if p_label not in pattern.index:
            raise ValueError(f"anchor {p_label!r} is not a pattern vertex")
        if h_label not in host.index:
            raise ValueError(f"anchor image {h_label!r} is not a host vertex")
        resolved[pattern.index[p_label]] = host.index[h_label]
    if len(set(resolved.values())) != len(resolved):
        raise ValueError("anchor images must be distinct")
    return resolved


def find_induced_embedding(
    pattern: LabeledGraph,
    host: LabeledGraph,
    anchors: Mapping[str, str] | None = None,
) -> Embedding | None:
    """First induced embedding of ``pattern`` into ``host``, if any.

    ``anchors`` pins chosen pattern labels to host labels; a returned
    embedding always extends them.  Pattern vertices are assigned in
    degree-descending order (index ascending on ties) and host
    candidates are tried in index order, so the result is the first
    embedding in that fixed backtracking order.  Returns None when no
    embedding exists.  Raises ValueError for unknown anchor labels or
    repeated anchor images.
    """
    fixed = _resolve_anchors(pattern, host, anchors or {})
    if pattern.n > host.n:
        return None

    order = [p for p in range(pattern.n) if p not in fixed]
    order.sort(key=lambda p: (-pattern.degree(p), p))

    mapping = [-1] * pattern.n
    used = [False] * host.n
    for p, h in fixed.items():
        mapping[p] = h
        used[h] = True

    def consistent(p: int, h: int) -> bool:
        if host.degree(h) < pattern.degree(p):
            return False
        for q in range(pattern.n):
            hq = mapping[q]
            if hq >= 0 and pattern.has_edge(p, q) != host.has_edge(h, hq):
                return False
        return True

    # the anchors themselves must be mutually consistent
    for p in fixed:
        h = mapping[p]
        used[h] = False
        mapping[p] = -1
        ok = consistent(p, h)
        mapping[p] = h
        used[h] = True
        if not ok:
            return None

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        p = order[depth]
        for h in range(host.n):
            if used[h] or not consistent(p, h):
                continue
            mapping[p] = h
            used[h] = True
            if extend(depth + 1):
                return True
            mapping[p] = -1
            used[h] = False
        return False

    if not extend(0):
        return None
    found = Embedding(pattern, host, tuple(mapping))
    assert found.is_induced()
    return found
