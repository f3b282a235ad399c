"""Induced subgraph isomorphism with optional label anchors.

An induced embedding maps the pattern's vertices injectively into the
host so that pattern vertices are adjacent exactly when their images
are: edges must map onto edges and non-edges onto non-edges.  This is
the containment notion under which non-representability is hereditary,
so locating a small bad pattern inside a larger graph settles the
larger graph too.

The search is plain backtracking with two prunes: a candidate image
needs at least the pattern vertex's degree, and it must agree with
every already-placed neighbor and non-neighbor: among the placed
images, its neighbors must be exactly the images of the pattern
vertex's placed neighbors, one mask comparison.  Pattern vertices are
tried in degree-descending order and host candidates in index order,
so the first embedding found is deterministic.  The hosts in scope are
small (at most a few dozen vertices); nothing heavier is warranted.
"""

from __future__ import annotations

from typing import Mapping

from .graphs import FrozenRecord, LabeledGraph

__all__ = [
    "Embedding",
    "find_induced_embedding",
]


class Embedding(FrozenRecord):
    """An injective map from pattern vertices to host vertices.

    ``mapping[p]`` is the host vertex id for pattern vertex id ``p``.
    The induced condition — pattern pairs are edges exactly when their
    images are — is re-checkable at any time via :meth:`is_induced`.
    """

    __slots__ = ("pattern", "host", "mapping")

    def __init__(self, pattern: LabeledGraph, host: LabeledGraph, mapping: tuple[int, ...]):
        if len(mapping) != pattern.n:
            raise ValueError("mapping must cover every pattern vertex")
        if len(set(mapping)) != len(mapping):
            raise ValueError("mapping must be injective")
        if any(not 0 <= h < host.n for h in mapping):
            raise ValueError("mapping image out of host range")
        self._store(pattern, host, mapping)

    def as_label_map(self) -> dict[str, str]:
        return {
            self.pattern.labels[p]: self.host.labels[h]
            for p, h in enumerate(self.mapping)
        }

    def is_induced(self) -> bool:
        """Re-check the induced condition: among the images, each pattern
        vertex's image is adjacent to exactly its neighbors' images."""
        mapping, neighbors = self.mapping, self.pattern.neighbors
        images = sum(1 << h for h in mapping)
        return all(
            self.host.adj[h] & images == sum(1 << mapping[v] for v in neighbors(u))
            for u, h in enumerate(mapping)
        )


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

    mapping, images = [-1] * pattern.n, 0  # images: a mask of the placed images

    def wanted(p: int) -> int:
        # the images of p's placed neighbors, which p's image must match
        return sum(1 << mapping[q] for q in pattern.neighbors(p) if mapping[q] >= 0)

    # each anchor must agree with the anchors placed before it
    for p, h in fixed.items():
        if host.degree(h) < pattern.degree(p) or host.adj[h] & images != wanted(p):
            return None
        mapping[p], images = h, images | 1 << h

    # order[:depth] is placed and h is the next host candidate for
    # order[depth]; mapping is the stack, as a pattern may have more
    # vertices than Python's recursion limit allows frames
    depth = h = 0
    while depth < len(order):
        p = order[depth]
        want, degree = wanted(p), pattern.degree(p)
        # the free hosts from h on, next to one placed neighbor's image
        pool = host.adj[(want & -want).bit_length() - 1] if want else (1 << host.n) - 1
        cands = pool & ~images & -1 << h
        while cands:
            h = (cands & -cands).bit_length() - 1
            if host.adj[h] & images == want and host.degree(h) >= degree:
                break
            cands ^= 1 << h
        if cands:
            mapping[p], images = h, images | 1 << h
            depth, h = depth + 1, 0
        elif depth:
            depth -= 1
            q = order[depth]
            h, mapping[q], images = mapping[q] + 1, -1, images ^ 1 << mapping[q]
        else:
            return None
    found = Embedding(pattern, host, tuple(mapping))
    # checked under -O too: a "found" verdict has no other certificate
    if not found.is_induced():
        raise RuntimeError("found embedding is not induced")
    return found
