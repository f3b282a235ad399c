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

Propagation reads counters instead of rescanning cycles.  Each cycle of
the inventory is numbered in scan order (triangles first, then longer
rings by length and ids), and each edge keeps a watch list of the cycles
it lies on, signed by the direction the ring takes it, in the manner of
Chaff's watched literals (Moskewicz et al., DAC 2001).  Setting an arc
walks only that edge's list, bumping each cycle's along or against count
(unset = ring length - along - against), and keeps the set of cycles
whose counts let the TriangleRule or the CycleRule fire.  The rules fire
the lowest-numbered cycle of that set, which is exactly the cycle the
in-order scans would find first, so every proof is unchanged; a ring is
walked only to find the unset steps of the cycle that fires.  The
PathRule is one reach-row bit test per unset edge, with a BFS only for
the edge it decides.  A banked copy holds the edge states and the counts
as bytes; its fire set is empty, because the search branches only at a
propagation fixpoint, and its arcs are rebuilt on resume.

The orientation also keeps one reach row and one co-reach row per
vertex, grown on each inserted arc as in Italiano's incremental
transitive closure (TCS 48, 1986): a new arc t->h closes a directed
cycle iff h reaches t; otherwise every vertex reaching t gains what h
reaches, and every vertex h reaches gains what reaches t.  A resume
rebuilds both rows once.  The PathRule reads the reach rows, and the
defect scan reads both.  The search abandons every dead state, so the
state at the last scan that found no defect was clean, as is every
banked state.  A violation under a closing arc u->v that is new since
then runs through an arc t->h set since then (the closing arc itself,
or one on the path), so u reaches t and h reaches v.  The scan tests
only those closing arcs, in sorted order, with ``find_shortcut``'s own
per-arc step.  Every other closing arc has no violation, so the first
witness is the one ``find_shortcut`` would report.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import LabeledGraph, induced_subgraph, max_degree_vertex
from .orientations import (
    BACKWARD,
    FORWARD,
    UNSET,
    Orientation,
    PartialOrientation,
    directed_cycle,
    find_shortcut,
    is_acyclic,
    is_semitransitive,
    reach_closure,
    shortcut_under,
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

# No code here calls ``find_shortcut`` or ``is_acyclic``.  The benchmark's
# perfbench/probe.py counts defect scans by wrapping these two names on
# this module, so they stay imported until the probe counts scans another
# way (ROADMAP item 6).

__all__ = [
    "SolverConfig",
    "SemiTransitive",
    "NonSemiTransitive",
    "BudgetExceeded",
    "fix_source",
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


@dataclass(frozen=True)
class _Inventory:
    """The cycles the rules reason over, numbered in scan order, and the
    cycles each edge lies on."""

    max_len: int
    rings: tuple[tuple[int, ...], ...]  # ring order, sorted by (length, ids)
    triangles: int  # rings[:triangles] are the triangles
    sizes: bytes  # ring lengths
    # watch[i] for edge index i: c when ring c steps along it lo -> hi,
    # ~c when ring c steps along it hi -> lo
    watch: tuple[array, ...]
    # printed rings, made when a ring first fires and shared by every
    # proof step it justifies
    prints: dict[int, tuple[str, ...]] = field(default_factory=dict)


@lru_cache(maxsize=32)
def _cycle_inventory(g: LabeledGraph, max_len: int) -> _Inventory:
    """Every triangle, and every non-clique simple cycle of length
    4..max_len, once per vertex set ring."""
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
                if len(ids) > 3 and _is_clique(g, ids):
                    continue  # clique rings never fire the CycleRule
                found.append(ids)
            elif w > start and w not in path and len(path) < max_len:
                path.append(w)
                extend(path)
                path.pop()

    for s in range(g.n):
        extend([s])
    found.sort(key=lambda ids: (len(ids), ids))
    edge_index = {e: i for i, e in enumerate(sorted(g.edges))}
    watch = [array("i") for _ in edge_index]
    for c, ids in enumerate(found):
        for t, h in zip(ids, ids[1:] + ids[:1]):
            if t < h:
                watch[edge_index[(t, h)]].append(c)
            else:
                watch[edge_index[(h, t)]].append(~c)
    triangles = sum(1 for ids in found if len(ids) == 3)
    return _Inventory(
        max_len, tuple(found), triangles, bytes(map(len, found)), tuple(watch)
    )


class _WatchedOrientation(PartialOrientation):
    """A partial orientation that counts, per inventory cycle, the ring
    steps its arcs point along and against, and keeps the set of cycles
    whose counts let the TriangleRule or the CycleRule fire.

    It also keeps the reach rows of its arcs (``reach[v]``: the vertices
    v reaches, v included) and of their transpose (``coreach[v]``: the
    vertices reaching v) while they are acyclic, the flag ``cyclic``, and
    the arcs set since the last scan that found no defect.

    Arcs are only ever added; the search goes back by ``restore``."""

    __slots__ = (
        "inventory", "along", "against", "fire",
        "reach", "coreach", "cyclic", "unscanned",
    )

    def __init__(self, po: PartialOrientation, inventory: _Inventory):
        super().__init__(po.graph)
        self.inventory = inventory
        self.along = bytearray(len(inventory.rings))
        self.against = bytearray(len(inventory.rings))
        self.fire: set[int] = set()
        self.reach = [1 << v for v in range(po.graph.n)]
        self.coreach = list(self.reach)
        self.cyclic = False
        self.unscanned: list[tuple[int, int]] = []
        for t, h in po.arcs():
            self.set_arc(t, h)

    def set_arc(self, tail: int, head: int) -> None:
        """Orient one edge and update the reach rows and the counts of
        every cycle on it."""
        i = self.edge_index[(tail, head) if tail < head else (head, tail)]
        fresh = self.state[i] == UNSET
        super().set_arc(tail, head)
        if not fresh:
            return
        self.unscanned.append((tail, head))
        if not self.cyclic:
            reach, coreach = self.reach, self.coreach
            if reach[head] >> tail & 1:
                self.cyclic = True
            else:
                # every vertex reaching tail now reaches what head
                # reaches, and every vertex head reaches is now reached
                # from what reaches tail
                below, above = reach[head], coreach[tail]
                rows = above
                while rows:
                    low = rows & -rows
                    reach[low.bit_length() - 1] |= below
                    rows ^= low
                rows = below
                while rows:
                    low = rows & -rows
                    coreach[low.bit_length() - 1] |= above
                    rows ^= low
        along, against, fire = self.along, self.against, self.fire
        sizes, triangles = self.inventory.sizes, self.inventory.triangles
        forward = tail < head
        for w in self.inventory.watch[i]:
            c = w if w >= 0 else ~w
            if (w >= 0) == forward:
                along[c] += 1
            else:
                against[c] += 1
            al, ag = along[c], against[c]
            unset = sizes[c] - al - ag
            if unset > 2:
                continue
            # a triangle fires with one edge unset and the other two
            # pointing the same way; a longer ring fires with one unset
            # and at most one against the rest, or two unset and none
            slack = (1 if c < triangles else 2) - unset
            if unset and (al if al < ag else ag) <= slack:
                fire.add(c)
            else:
                fire.discard(c)

    def unset_steps(self, c: int) -> list[tuple[int, int]]:
        """The ring steps of cycle ``c`` whose edges are unset."""
        ring = self.inventory.rings[c]
        return [
            (t, h)
            for t, h in zip(ring, ring[1:] + ring[:1])
            if self.direction(t, h) is None
        ]

    def forced_by(
        self, c: int
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[str, ...]]:
        """The force of a firing cycle: its unset ring steps, pointed
        against the way most of its arcs point, its ring and its print."""
        unset = self.unset_steps(c)
        if self.against[c] > self.along[c]:
            arcs = tuple(unset)
        else:
            arcs = tuple((h, t) for t, h in unset)
        ring, prints = self.inventory.rings[c], self.inventory.prints
        if c not in prints:
            prints[c] = _canonical_ring_print(self.graph, ring)
        return arcs, ring, prints[c]

    def snapshot(self) -> tuple[bytes, bytes, bytes]:
        """Edge states and cycle counts.  Snapshots are taken at a
        propagation fixpoint, where no cycle fires, scanned clean:
        ``restore`` keeps no arcs for the next scan to cover."""
        assert not self.fire, "snapshot of a state that still propagates"
        assert not self.unscanned, "snapshot of a state that owes a scan"
        return bytes(self.state), bytes(self.along), bytes(self.against)

    def restore(self, snapshot: tuple[bytes, bytes, bytes]) -> None:
        """Go back to a snapshot's state, which the search has scanned
        and found free of defects."""
        state, along, against = snapshot
        self.state = list(state)
        self.along = bytearray(along)
        self.against = bytearray(against)
        self.fire = set()
        out_adj = [0] * self.graph.n
        in_adj = [0] * self.graph.n
        for (lo, hi), s in zip(self.edge_order, self.state):
            if s == FORWARD:
                out_adj[lo] |= 1 << hi
                in_adj[hi] |= 1 << lo
            elif s == BACKWARD:
                out_adj[hi] |= 1 << lo
                in_adj[lo] |= 1 << hi
        self.out_adj = out_adj
        reach = reach_closure(out_adj)
        self.cyclic = reach is None
        if reach is not None:
            self.reach = reach
            self.coreach = reach_closure(in_adj)
        self.unscanned = []


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


def _scan_defect(po: _WatchedOrientation) -> tuple[str, ...] | None:
    """Printable terminal path if the state is dead, else None: the
    directed cycle, or the shortcut ``find_shortcut`` would report.

    Only the closing arcs u->v that an arc t->h set since the last clean
    scan can have changed are tested: u reaches t and h reaches v."""
    g = po.graph
    if po.cyclic:
        cyc = directed_cycle(po.out_adj)
        assert cyc is not None
        start = min(range(len(cyc)), key=lambda i: _label_key(g.labels[cyc[i]]))
        ring = cyc[start:] + cyc[:start]
        return tuple(g.labels[v] for v in ring)
    reach, coreach, out_adj = po.reach, po.coreach, po.out_adj
    heads: dict[int, int] = {}  # tail u -> the candidate closing arcs' heads
    for t, h in po.unscanned:
        below = reach[h]
        tails = coreach[t]
        while tails:
            low = tails & -tails
            tails ^= low
            u = low.bit_length() - 1
            hit = out_adj[u] & below
            if hit:
                heads[u] = heads.get(u, 0) | hit
    for u in sorted(heads):
        vs = heads[u]
        while vs:
            low = vs & -vs
            vs ^= low
            witness = shortcut_under(po, reach, coreach, u, low.bit_length() - 1)
            if witness is not None:
                return tuple(g.labels[v] for v in witness.path)
    po.unscanned = []
    return None


def _next_force(
    po: _WatchedOrientation,
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[str, ...]] | None:
    """The first force a rule allows in an acyclic state: its arcs (one,
    or the two of a paired force), the ids of the justifying cycle and its
    printed ring.

    The rules are tried in order, TriangleRule, PathRule, CycleRule, each
    scanning its cycles or edges in a fixed order."""
    inventory = po.inventory
    first = min(po.fire, default=None)
    if first is not None and first < inventory.triangles:
        return po.forced_by(first)

    # PathRule: an existing directed path decides an unset edge
    reach = po.reach
    for (a, b), s in zip(po.edge_order, po.state):
        if s != UNSET:
            continue
        if reach[a] >> b & 1:
            t, h = a, b
        elif reach[b] >> a & 1:
            t, h = b, a
        else:
            continue
        ids = tuple(shortest_path(po.out_adj, t, h))
        return ((t, h),), ids, _canonical_ring_print(po.graph, ids)

    if first is not None:
        return po.forced_by(first)
    return None


def propagate(
    po: _WatchedOrientation,
) -> tuple[list[Orient], tuple[str, ...] | None]:
    """Apply the three rules over ``po``'s cycle inventory to fixpoint,
    mutating ``po``.

    Returns the Orient steps applied, in order (the first arc of a
    two-arc force paired with the second), and the printable terminal
    path (a shortcut, or a directed cycle) as soon as the state is dead,
    else None.  No force is checked here: the verifier re-checks every
    Orient step when ``_solve_component`` replays the proof.
    """
    g = po.graph
    steps: list[Orient] = []
    while True:
        witness = _scan_defect(po)
        if witness is not None:
            return steps, witness
        hit = _next_force(po)
        if hit is None:
            return steps, None
        arcs, _, printed = hit
        for k, (t, h) in enumerate(arcs):
            po.set_arc(t, h)
            paired = k == 0 and len(arcs) == 2
            steps.append(Orient((g.labels[t], g.labels[h]), printed, paired))


# --------------------------------------------------------------------------
# branching


def _almost_forced_counts(po: _WatchedOrientation) -> dict[tuple[int, int], int]:
    """How many rule-usable cycles each unset edge could nearly fire."""
    counts: dict[tuple[int, int], int] = {}
    sizes = po.inventory.sizes
    for c, (m, al, ag) in enumerate(zip(sizes, po.along, po.against)):
        if m - al - ag == 3 and (al == 0 or ag == 0):
            for t, h in po.unset_steps(c):
                edge = (t, h) if t < h else (h, t)
                counts[edge] = counts.get(edge, 0) + 1
    return counts


def _pick_branch_edge(po: _WatchedOrientation) -> tuple[int, int]:
    """The unset edge on the most nearly-firing cycles, the lowest edge on
    ties; with none, the first unset edge in edge order."""
    counts = _almost_forced_counts(po)
    if counts:
        return min(counts.items(), key=lambda item: (-item[1], item[0]))[0]
    return po.edge_order[po.state.index(UNSET)]


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
    source = _choose_source(g, cfg)
    po = _WatchedOrientation(
        fix_source(PartialOrientation(g), source),
        _cycle_inventory(g, cfg.cycle_len),
    )
    if not budget.spend():  # the root node
        return BudgetExceeded(budget.used)

    preamble = Preamble(None, g.labels[source])
    # deferred branches as (copy id, snapshot, arc to apply on resume);
    # ids grow from 2, so the front of the queue is the lowest pending id
    copies: deque[tuple[int, tuple[bytes, bytes, bytes], tuple[int, int]]] = deque()
    copy_ids = itertools.count(2)
    lines: list[TraceLine] = []
    opener: Root | MoveCopy = Root()
    steps: list[Orient | Branch] = []
    wlog_pending = cfg.wlog_rule

    while True:
        forced, witness = propagate(po)
        steps.extend(forced)
        if witness is not None:
            lines.append(
                TraceLine(len(lines) + 1, opener, tuple(steps), Shortcut(witness))
            )
            if not copies:
                trace = ProofTrace(preamble, tuple(lines))
                # the verdict rests on this proof: replay it, under -O too
                if not verify_trace(g, trace).accepted:
                    raise RuntimeError("emitted trace failed its self-check")
                return NonSemiTransitive(trace)
            if not budget.spend():
                return BudgetExceeded(budget.used)
            cid, snapshot, (t, h) = copies.popleft()
            opener = MoveCopy(cid, (g.labels[t], g.labels[h]))
            steps = []
            po.restore(snapshot)
            po.set_arc(t, h)
            continue

        if po.fully_oriented():
            orientation = Orientation(g, tuple(po.arcs()))
            # checked under -O too: a positive verdict has no other proof
            if not is_semitransitive(orientation):
                raise RuntimeError("found orientation failed its self-check")
            return SemiTransitive(orientation)

        lo, hi = _pick_branch_edge(po)
        if not budget.spend():
            return BudgetExceeded(budget.used)
        if wlog_pending:
            wlog_pending = False
            preamble = Preamble(
                (g.labels[lo], g.labels[hi]), preamble.source_vertex
            )
        else:
            cid = next(copy_ids)
            copies.append((cid, po.snapshot(), (hi, lo)))
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

