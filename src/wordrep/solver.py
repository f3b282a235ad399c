"""Branch-and-propagate search for semi-transitive orientations.

The procedure fixes a source vertex (losing no generality: a graph with a
semi-transitive orientation has one with any chosen vertex as source),
then alternates constraint propagation with case splits on unset edges:

- TriangleRule: arcs x->y->z in a triangle force x->z, else the triangle
  would close a directed cycle;
- PathRule: a directed path u ~> v forces an unset edge (u, v) to u->v,
  justified by the cycle the path would otherwise close;
- CycleRule: on a cycle of length m >= 4 whose vertices do not induce a
  clique, if m-2 edges point the same way around then the remaining two
  must point the other way — so with one of the two already against, the
  last is forced against, and with both unset, both are forced against.

A branch ("B") orients an edge one way and snapshots the other way as a
numbered copy for later; a dead end (directed cycle or shortcut) ends the
current line, and the search resumes the lowest-numbered unconsumed copy
("MC").  When every copy has been consumed and every line ended in a
defect, no semi-transitive orientation exists, and the accumulated lines
form a machine-checkable proof trace.

Optionally the very first branch is oriented one way only (recorded as the
preamble arc of the emitted trace instead of a copy).  The branch edge is
not incident to the source s, and reversing every arc *not* incident to s
maps a semi-transitive orientation with source s to another one with
source s: a directed cycle avoids s and reverses to a cycle; a shortcut
avoiding s reverses to a shortcut; and a shortcut s -> v1 -> ... -> vk
closed by s -> vk corresponds to the path s -> vk -> ... -> v1 closed by
s -> v1, with the same violating pairs.  (Reversing *every* arc would turn
s into a sink.)  Arcs forced before the split hold in every semi-transitive
orientation with source s, so up to that symmetry the first split explores
both cases at once.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .graphs import LabeledGraph, induced_subgraph, max_degree_vertex
from .orientations import (
    CyclicInput,
    Orientation,
    PartialOrientation,
    directed_cycle,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    shortest_path,
)
from .traces import (
    Branch,
    MoveCopy,
    Orient,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    verify_trace,
)

__all__ = [
    "SolverConfig",
    "SemiTransitive",
    "NonSemiTransitive",
    "BudgetExceeded",
    "fix_source",
    "propagate",
    "solve",
    "DEFAULT_CYCLE_LEN",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_CYCLE_LEN = 6
DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs.

    source: vertex label to fix as source; None picks the maximum-degree
    vertex (smallest id on ties) per component.  wlog_rule: orient the
    first branch edge one way only, recording it as the trace preamble
    arc.  budget: search nodes (root, branches, resumes) before giving
    up.  cycle_len: longest cycle the CycleRule propagates over.
    """

    source: str | None = None
    wlog_rule: bool = True
    budget: int = DEFAULT_NODE_BUDGET
    cycle_len: int = DEFAULT_CYCLE_LEN

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.cycle_len < 3:
            raise ValueError("cycle_len must be at least 3")


# --------------------------------------------------------------------------
# solve verdicts


@dataclass(frozen=True)
class SemiTransitive:
    orientation: Orientation


@dataclass(frozen=True)
class NonSemiTransitive:
    trace: ProofTrace


@dataclass(frozen=True)
class BudgetExceeded:
    nodes: int


Verdict = SemiTransitive | NonSemiTransitive | BudgetExceeded


# --------------------------------------------------------------------------
# cycle inventory


def _label_key(label: str) -> tuple[int, int, str]:
    """Numeric labels order numerically, everything else lexically after."""
    if label.isdigit():
        return (0, int(label), label)
    return (1, 0, label)


@dataclass(frozen=True)
class _Cycle:
    ids: tuple[int, ...]  # ring order
    steps: tuple[tuple[int, int], ...]  # ring edges as (ids[i], ids[i+1])
    printed: tuple[str, ...]  # canonical "C..." annotation order


def _canonical_ring_print(g: LabeledGraph, ids: tuple[int, ...]) -> tuple[str, ...]:
    """Rotate/reflect the ring: start at the least label, then towards the
    greater of its two ring neighbours (label order is numeric-first)."""
    m = len(ids)
    start = min(range(m), key=lambda i: _label_key(g.labels[ids[i]]))
    before, after = ids[start - 1], ids[(start + 1) % m]
    if _label_key(g.labels[after]) >= _label_key(g.labels[before]):
        ring = [ids[(start + k) % m] for k in range(m)]
    else:
        ring = [ids[(start - k) % m] for k in range(m)]
    return tuple(g.labels[v] for v in ring)


def _is_clique(g: LabeledGraph, ids: tuple[int, ...]) -> bool:
    return all(g.has_edge(a, b) for a, b in itertools.combinations(ids, 2))


@lru_cache(maxsize=32)
def _cycle_inventory(
    g: LabeledGraph, max_len: int
) -> tuple[tuple[_Cycle, ...], tuple[_Cycle, ...]]:
    """Every triangle, and every non-clique simple cycle of length
    4..max_len, once per vertex set ring, each sorted by (length, ids)."""
    found: list[_Cycle] = []

    def extend(path: list[int]) -> None:
        tail = path[-1]
        start = path[0]
        for w in g.neighbors(tail):
            if w == start and len(path) >= 3:
                if path[1] > path[-1]:  # one orientation of each ring
                    continue
                ids = tuple(path)
                if len(ids) > 3 and _is_clique(g, ids):
                    continue  # clique rings never fire the CycleRule
                found.append(
                    _Cycle(
                        ids=ids,
                        steps=tuple(
                            (ids[i], ids[(i + 1) % len(ids)])
                            for i in range(len(ids))
                        ),
                        printed=_canonical_ring_print(g, ids),
                    )
                )
            elif w > start and w not in path and len(path) < max_len:
                path.append(w)
                extend(path)
                path.pop()

    for s in range(g.n):
        extend([s])
    found.sort(key=lambda c: (len(c.ids), c.ids))
    triangles = tuple(c for c in found if len(c.ids) == 3)
    return triangles, tuple(found[len(triangles):])


def _tally(
    po: PartialOrientation, cyc: _Cycle
) -> tuple[int, int, list[tuple[int, int]]]:
    """Ring edges pointing along, against, and the unset ring steps."""
    along = against = 0
    unset: list[tuple[int, int]] = []
    for t, h in cyc.steps:
        d = po.direction(t, h)
        if d is None:
            unset.append((t, h))
        elif d == t:
            along += 1
        else:
            against += 1
    return along, against, unset


# --------------------------------------------------------------------------
# operations


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


def _scan_defect(po: PartialOrientation) -> tuple[str, ...] | None:
    """Printable terminal path if the state is dead, else None."""
    g = po.graph
    try:
        witness = find_shortcut(po)
    except CyclicInput:
        cyc = directed_cycle(po.out_adj)
        assert cyc is not None
        start = min(range(len(cyc)), key=lambda i: _label_key(g.labels[cyc[i]]))
        ring = cyc[start:] + cyc[:start]
        return tuple(g.labels[v] for v in ring)
    if witness is not None:
        return tuple(g.labels[v] for v in witness.path)
    return None


def _find_application(
    po: PartialOrientation,
    triangles: tuple[_Cycle, ...],
    longer: tuple[_Cycle, ...],
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[str, ...]] | None:
    """The first force a rule allows: its arcs (one, or the two of a paired
    force), the ids of the justifying cycle and its printed ring."""
    g = po.graph

    # TriangleRule: directed path across a triangle forces the third edge
    for cyc in triangles:
        ids = cyc.ids
        for i in range(3):
            mid, a, b = ids[i], ids[(i + 1) % 3], ids[(i + 2) % 3]
            for t, h in ((a, b), (b, a)):
                if (
                    po.has_arc(t, mid)
                    and po.has_arc(mid, h)
                    and po.direction(t, h) is None
                ):
                    return ((t, h),), ids, cyc.printed

    # PathRule: an existing directed path decides an unset edge
    for a, b in po.unset_edges():
        for t, h in ((a, b), (b, a)):
            path = shortest_path(po.out_adj, t, h)
            if path is not None:
                ids = tuple(path)
                return ((t, h),), ids, _canonical_ring_print(g, ids)

    # CycleRule: nearly-aligned non-clique cycles force the stragglers
    for cyc in longer:
        m = len(cyc.ids)
        along, against, unset = _tally(po, cyc)
        # evaluate the ring direction, then its mirror; "against" an
        # unset step (t, h) means arc (h, t) for the ring direction and
        # (t, h) for the mirror
        for fwd, bwd, mirrored in ((along, against, False), (against, along, True)):
            if len(unset) == 1 and fwd >= m - 2:
                t, h = unset[0]
                arc = (t, h) if mirrored else (h, t)
                return (arc,), cyc.ids, cyc.printed
            if len(unset) == 2 and fwd == m - 2 and bwd == 0:
                arcs = tuple(
                    (t, h) if mirrored else (h, t) for t, h in unset
                )
                return arcs, cyc.ids, cyc.printed

    return None


def _assert_flip_defect(
    po: PartialOrientation, cycle_ids: tuple[int, ...], arc: tuple[int, int]
) -> None:
    """Debug check: with the forced arc reversed, the justification
    cycle's induced sub-orientation is defective."""
    g = po.graph
    kept = sorted(cycle_ids)
    sub = induced_subgraph(g, kept)
    remap = {v: i for i, v in enumerate(kept)}
    mini = PartialOrientation(sub)
    for a, b in itertools.combinations(kept, 2):
        if not g.has_edge(a, b):
            continue
        d = po.direction(a, b)
        if d is None:
            continue
        t, h = (a, b) if d == a else (b, a)
        if (t, h) == arc:
            t, h = h, t
        mini.set_arc(remap[t], remap[h])
    assert not is_acyclic(mini) or find_shortcut(mini) is not None, (
        "forced arc is not justified by its cycle"
    )


def propagate(
    po: PartialOrientation, cycle_len: int = DEFAULT_CYCLE_LEN
) -> tuple[list[Orient], tuple[str, ...] | None]:
    """Apply the three rules to fixpoint, mutating ``po``.

    Returns the Orient steps applied, in order (the first arc of a
    two-arc force paired with the second), and the printable terminal
    path (a shortcut, or a directed cycle) as soon as the state is dead,
    else None.
    """
    g = po.graph
    triangles, longer = _cycle_inventory(g, cycle_len)
    steps: list[Orient] = []
    while True:
        witness = _scan_defect(po)
        if witness is not None:
            return steps, witness
        hit = _find_application(po, triangles, longer)
        if hit is None:
            return steps, None
        arcs, cycle_ids, printed = hit
        for t, h in arcs:
            po.set_arc(t, h)
        if __debug__:
            for arc in arcs:
                _assert_flip_defect(po, cycle_ids, arc)
        for k, (t, h) in enumerate(arcs):
            paired = k == 0 and len(arcs) == 2
            steps.append(Orient((g.labels[t], g.labels[h]), printed, paired))


# --------------------------------------------------------------------------
# branching


def _almost_forced_counts(
    po: PartialOrientation, cycles: tuple[_Cycle, ...]
) -> dict[tuple[int, int], int]:
    """How many rule-usable cycles each unset edge could nearly fire."""
    counts: dict[tuple[int, int], int] = {}
    for cyc in cycles:
        along, against, unset = _tally(po, cyc)
        if len(unset) == 3 and (along == 0 or against == 0):
            for t, h in unset:
                edge = (t, h) if t < h else (h, t)
                counts[edge] = counts.get(edge, 0) + 1
    return counts


def _pick_branch_edge(
    po: PartialOrientation, cycles: tuple[_Cycle, ...]
) -> tuple[int, int]:
    counts = _almost_forced_counts(po, cycles)
    return min(po.unset_edges(), key=lambda e: (-counts.get(e, 0), e))


# --------------------------------------------------------------------------
# the search


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Consume one node; False when the budget is exhausted."""
        self.used += 1
        return self.used <= self.limit


def _components(g: LabeledGraph) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp, frontier = [s], [s]
        seen[s] = True
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


def _choose_source(g: LabeledGraph, cfg: SolverConfig) -> int:
    if cfg.source is not None and cfg.source in g.index:
        return g.index[cfg.source]
    return max_degree_vertex(g)


def _solve_component(
    g: LabeledGraph, cfg: SolverConfig, budget: _Budget
) -> Verdict:
    if not g.edges:
        return SemiTransitive(Orientation(g, ()))
    triangles, longer = _cycle_inventory(g, cfg.cycle_len)
    cycles = triangles + longer
    source = _choose_source(g, cfg)
    po = fix_source(PartialOrientation(g), source)
    if not budget.spend():  # the root node
        return BudgetExceeded(budget.used)

    preamble = Preamble(None, g.labels[source])
    # deferred branches as (copy id, snapshot, arc to apply on resume);
    # ids grow from 2, so the front of the queue is the lowest pending id
    copies: deque[tuple[int, PartialOrientation, tuple[int, int]]] = deque()
    copy_ids = itertools.count(2)
    lines: list[TraceLine] = []
    opener: Root | MoveCopy = Root()
    steps: list[Orient | Branch] = []
    wlog_pending = cfg.wlog_rule

    while True:
        forced, witness = propagate(po, cfg.cycle_len)
        steps.extend(forced)
        if witness is not None:
            lines.append(
                TraceLine(len(lines) + 1, opener, tuple(steps), Shortcut(witness))
            )
            if not copies:
                trace = ProofTrace(preamble, tuple(lines))
                if __debug__:
                    assert verify_trace(g, trace).accepted, (
                        "emitted trace failed self-verification"
                    )
                return NonSemiTransitive(trace)
            if not budget.spend():
                return BudgetExceeded(budget.used)
            cid, po, (t, h) = copies.popleft()
            opener = MoveCopy(cid, (g.labels[t], g.labels[h]))
            steps = []
            po.set_arc(t, h)
            continue

        if po.fully_oriented():
            orientation = Orientation(g, tuple(po.arcs()))
            assert is_semitransitive(orientation)
            return SemiTransitive(orientation)

        lo, hi = _pick_branch_edge(po, cycles)
        if not budget.spend():
            return BudgetExceeded(budget.used)
        if wlog_pending:
            wlog_pending = False
            preamble = Preamble(
                (g.labels[lo], g.labels[hi]), preamble.source_vertex
            )
        else:
            cid = next(copy_ids)
            copies.append((cid, po.copy(), (hi, lo)))
            steps.append(Branch((g.labels[lo], g.labels[hi]), cid))
        po.set_arc(lo, hi)


def solve(g: LabeledGraph, cfg: SolverConfig | None = None) -> Verdict:
    """Decide semi-transitive orientability.

    SemiTransitive carries a checked orientation; NonSemiTransitive
    carries a proof trace that verify_trace accepts
    against ``g`` with the same preamble; BudgetExceeded reports the
    nodes consumed.  Disconnected graphs are solved per component.
    """
    cfg = cfg or SolverConfig()
    if cfg.source is not None and cfg.source not in g.index:
        raise ValueError(f"source label {cfg.source!r} is not a vertex")
    budget = _Budget(cfg.budget)

    comps = _components(g)
    if len(comps) <= 1:
        return _solve_component(g, cfg, budget)

    arcs_by_label: list[tuple[str, str]] = []
    for comp in comps:
        sub = induced_subgraph(g, comp)
        verdict = _solve_component(sub, cfg, budget)
        if isinstance(verdict, SemiTransitive):
            labels = sub.labels
            arcs_by_label.extend(
                (labels[t], labels[h]) for t, h in verdict.orientation.arcs
            )
        else:
            # NonSemiTransitive in any component settles the graph (its
            # trace replays against g unchanged); budget exhaustion stops
            # the scan
            return verdict
    arcs = tuple((g.index[a], g.index[b]) for a, b in arcs_by_label)
    return SemiTransitive(Orientation(g, arcs))

