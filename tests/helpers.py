"""Small functions that only the tests use.

They were part of the library, but no library code or command calls
them: DOT writers for eyeballing a graph or an orientation, the reversal
of an orientation, the alternation of two letters in a word and the
graph a word defines (the per-pair reference for ``words.represents``),
induced containment as a yes/no, the reduction of a LaTeX proof listing
to plain trace lines, a copy of a partial orientation with one vertex
made a source, its unset edges, the closing arc of a shortcut witness,
the host label an embedding maps a pattern label to, and a plain
recursive enumerator of the solver's cycle inventory, the reference for
its bitmask DFS.

``reference_verify_trace`` is the proof verifier as a plain replay that
checks every orient step from scratch, the reference for the verifier's
compiled force checks.  It replays on a ``PartialOrientation``, and the
verifier on arc rows of its own, so the two share no state code either.
``reference_rows`` builds reach and co-reach rows by a plain BFS from
each vertex, the reference for the rows ``add_arc_rows`` builds and
grows.  ``reference_is_semitransitive`` checks an orientation on those
rows alone, the check of the solver's positive verdicts that shares no
code with ``is_semitransitive``.  ``witness_fault`` checks a shortcut
witness against the definition, the reference for the terminal paths
the verifier checks on replay.

pytest rewrites the asserts of test modules only, and ``python -O``
strips the rest, so nothing here asserts: a check returns its finding
and the test asserts on it.
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
from wordrep.traces import (
    Arc,
    Branch,
    LineStatus,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    VerificationReport,
)
from wordrep.words import MissingLetter


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


def alternate(w, x: int, y: int) -> bool:
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


def reference_rows(out_adj: list[int]) -> tuple[list[int], list[int]] | None:
    """The reach and co-reach rows of the arcs (``reach[v]``: the vertices
    v reaches, ``coreach[v]``: the vertices reaching v, v included in
    both), by a plain BFS from each vertex; None on a directed cycle."""
    n = len(out_adj)
    heads = [[w for w in range(n) if out_adj[v] >> w & 1] for v in range(n)]
    reach = []
    for v in range(n):
        seen, frontier = {v}, [v]
        while frontier:
            frontier = [w for u in frontier for w in heads[u] if w not in seen]
            seen.update(frontier)
        if any(v in heads[w] for w in seen):
            return None  # v reaches a tail of an arc into v
        reach.append(sum(1 << w for w in seen))
    coreach = [sum(1 << u for u in range(n) if reach[u] >> v & 1) for v in range(n)]
    return reach, coreach


def reference_is_semitransitive(g: LabeledGraph, arcs) -> bool:
    """Whether ``arcs`` orient each edge of ``g`` once, with no directed
    cycle and no shortcut.  In an acyclic orientation every walk is a
    simple path, so an arc u->v has a shortcut exactly when some x and y
    with u ~> x ~> y ~> v are distinct and not adjacent: the path through
    them has at least four vertices, one pair of them not adjacent."""
    edges = sorted((t, h) if t < h else (h, t) for t, h in arcs)
    if edges != sorted(g.edges):
        return False
    out_adj = [0] * g.n
    for t, h in arcs:
        out_adj[t] |= 1 << h
    rows = reference_rows(out_adj)
    if rows is None:
        return False
    reach, coreach = rows
    for u, v in arcs:
        between = reach[u] & coreach[v]
        for x in range(g.n):
            if between >> x & 1 and between & reach[x] & ~(g.adj[x] | 1 << x):
                return False
    return True


def witness_fault(po: PartialOrientation, w: ShortcutWitness) -> str | None:
    """Why ``w`` is not a shortcut of ``po``, else None.  A shortcut is a
    path of at least three vertices, none repeated, each step and the
    closing arc from its first vertex to its last set in ``po``, with a
    violating pair of positions i < j other than the closing arc's ends:
    a non-edge, or an arc set backward."""
    path = w.path
    k = len(path) - 1
    if k < 2:
        return "fewer than three vertices"
    if len(set(path)) != len(path):
        return "a repeated vertex"
    if not all(po.has_arc(path[t], path[t + 1]) for t in range(k)):
        return "a path step that is not a set arc"
    if not po.has_arc(path[0], path[k]):
        return "no closing arc"
    i, j = w.violation
    if not 0 <= i < j <= k or (i, j) == (0, k):
        return "a violation that is not a pair of path positions"
    x, y = path[i], path[j]
    if po.graph.has_edge(x, y) and not po.has_arc(y, x):
        return "a violating pair that is an edge not set backward"
    return None


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


def reference_verify_trace(g: LabeledGraph, trace: ProofTrace) -> VerificationReport:
    """``verify_trace`` as a plain per-step replay: every orient step looks
    its labels up, rebuilds its ring and re-runs every test of its force.

    Overall acceptance requires every line to verify and every branch copy
    to be consumed exactly once (the case analysis is then exhaustive).
    """
    replay = _ReferenceReplay(g, trace.preamble)
    statuses = [replay.run_line(line) for line in trace.lines]
    ledger = {
        cid: (created, replay.consumed_at.get(cid))
        for cid, (_, _, created) in replay.copies.items()
    }
    # a zero-line trace eliminates no cases, so it proves nothing
    accepted = (
        bool(statuses)
        and all(s.accepted for s in statuses)
        and all(consumed is not None for _, consumed in ledger.values())
    )
    return VerificationReport(tuple(statuses), ledger, accepted)


class _ReferenceReplay:
    def __init__(self, g: LabeledGraph, preamble: Preamble):
        self.g = g
        self.preamble = preamble
        # copy id -> (snapshot, deferred arc in vertex ids, created line)
        self.copies: dict[int, tuple[PartialOrientation, tuple[int, int], int]] = {}
        self.consumed_at: dict[int, int] = {}
        self.po: PartialOrientation | None = None

    def vid(self, label: str) -> int:
        v = self.g.index.get(label)
        if v is None:
            raise _Reject(f"label {label!r} is not a vertex of the graph")
        return v

    def arc_ids(self, arc: Arc) -> tuple[int, int]:
        t, h = self.vid(arc[0]), self.vid(arc[1])
        if t == h:
            raise _Reject(f"arc {arc[0]}->{arc[1]} is a self-loop")
        if not self.g.has_edge(t, h):
            raise _Reject(f"{arc[0]}-{arc[1]} is not an edge of the graph")
        return t, h

    def set_arc(self, t: int, h: int) -> None:
        try:
            self.po.set_arc(t, h)
        except ValueError:
            raise _Reject(
                f"arc {self.g.labels[t]}->{self.g.labels[h]} conflicts with "
                "the existing orientation"
            ) from None

    def run_line(self, line: TraceLine) -> LineStatus:
        try:
            self._enter(line)
            self._steps(line)
            self._terminal(line.terminal)
        except _Reject as r:
            return LineStatus(line.line_number, False, str(r))
        return LineStatus(line.line_number, True)

    def _enter(self, line: TraceLine) -> None:
        if isinstance(line.opener, Root):
            if line.line_number != 1:
                raise _Reject("only line 1 may start from the root state")
            self.po = PartialOrientation(self.g)
            pre = self.preamble
            if pre.wlog_arc is not None:
                self.set_arc(*self.arc_ids(pre.wlog_arc))
            if pre.source_vertex is not None:
                s = self.vid(pre.source_vertex)
                for u in self.g.neighbors(s):
                    self.set_arc(s, u)
        else:
            entry = self.copies.get(line.opener.copy_id)
            if entry is None:
                raise _Reject(f"copy {line.opener.copy_id} does not exist")
            if line.opener.copy_id in self.consumed_at:
                raise _Reject(f"copy {line.opener.copy_id} already consumed")
            snapshot, deferred, _ = entry
            stated = self.arc_ids(line.opener.arc)
            if stated != deferred:
                t, h = deferred
                raise _Reject(
                    f"copy {line.opener.copy_id} resumes with "
                    f"{self.g.labels[t]}->{self.g.labels[h]}, "
                    f"not {line.opener.arc[0]}->{line.opener.arc[1]}"
                )
            self.consumed_at[line.opener.copy_id] = line.line_number
            self.po = snapshot.copy()
            self.set_arc(*deferred)

    def _steps(self, line: TraceLine) -> None:
        for step in line.steps:
            if isinstance(step, Branch):
                t, h = self.arc_ids(step.arc)
                if self.po.direction(t, h) is not None:
                    raise _Reject(
                        f"branch on already-oriented edge "
                        f"{step.arc[0]}-{step.arc[1]}"
                    )
                if step.copy_id in self.copies:
                    raise _Reject(f"copy {step.copy_id} created twice")
                self.copies[step.copy_id] = (
                    self.po.copy(),
                    (h, t),
                    line.line_number,
                )
                self.set_arc(t, h)
            else:
                for t, h in self._check_force(step.arcs, step.cycle):
                    self.set_arc(t, h)

    def _cycle_ids(
        self, cycle: tuple[str, ...]
    ) -> tuple[list[int], list[tuple[int, int]]]:
        """The cycle's vertex ids and its ring: the steps (a, b) of one
        traversal, closing step last."""
        ids = [self.vid(label) for label in cycle]
        if len(set(ids)) != len(ids):
            raise _Reject(f"cycle C{'-'.join(cycle)} repeats a vertex")
        if len(ids) < 3:
            raise _Reject(f"cycle C{'-'.join(cycle)} is too short")
        ring = list(zip(ids, ids[1:] + ids[:1]))
        for a, b in ring:
            if not self.g.has_edge(a, b):
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} uses the non-edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]}"
                )
        return ids, ring

    def _check_force(
        self, arcs: tuple[Arc, ...], cycle: tuple[str, ...]
    ) -> list[tuple[int, int]]:
        """The one or two arcs of an O step as vertex ids once ``cycle`` is
        shown to force them: a triangle by a directed path across it, a
        longer non-clique ring by m-2 of its other edges pointing one way
        round, the rest set, and the arcs the other way."""
        if not 1 <= len(arcs) <= 2:
            raise _Reject(f"an orient step forces one or two arcs, not {len(arcs)}")
        ids, ring = self._cycle_ids(cycle)
        pair = len(arcs) == 2
        if pair and len(ids) < 4:
            raise _Reject(
                f"two orientations need a cycle of length >= 4, got "
                f"C{'-'.join(cycle)}"
            )
        forced = [self.arc_ids(arc) for arc in arcs]
        for t, h in forced:
            if (t, h) not in ring and (h, t) not in ring:
                raise _Reject(
                    f"forced edges must lie on cycle C{'-'.join(cycle)}"
                    if pair
                    else f"forced edge {arcs[0][0]}-{arcs[0][1]} is not on "
                    f"cycle C{'-'.join(cycle)}"
                )
        edges = [step for t, h in forced for step in ((t, h), (h, t))]
        if pair and edges[0] in edges[2:]:
            raise _Reject("the two forced arcs name the same edge")
        has_arc = self.po.has_arc
        for (t, h), arc in zip(forced, arcs):
            if has_arc(h, t):
                raise _Reject(
                    f"edge {arc[0]}-{arc[1]} is already oriented the other way"
                )
        if len(ids) == 3:
            ((t, h),) = forced
            (w,) = [v for v in ids if v not in (t, h)]
            if not (has_arc(t, w) and has_arc(w, h)):
                raise _Reject(
                    f"triangle C{'-'.join(cycle)} lacks the directed path "
                    f"{arcs[0][0]}->{self.g.labels[w]}->{arcs[0][1]}"
                )
            return forced
        # every other ring edge is oriented, and with a single forced arc
        # one of them may point its way
        others = [(a, b) for a, b in ring if (a, b) not in edges]
        for a, b in others:
            if not (has_arc(a, b) or has_arc(b, a)):
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]} is not oriented"
                )
        along = sum(1 for a, b in others if has_arc(a, b))
        backward = sum(1 for t, h in forced if (h, t) in ring)
        m = len(ids)
        if not (
            (along >= m - 2 and backward == len(forced))
            or (len(others) - along >= m - 2 and not backward)
        ):
            both = "both " if pair else ""
            named = " and ".join(f"{a}->{b}" for a, b in arcs)
            raise _Reject(f"cycle C{'-'.join(cycle)} does not force {both}{named}")
        if all(self.g.has_edge(a, b) for a, b in itertools.combinations(ids, 2)):
            raise _Reject(
                "cycle vertices "
                + "-".join(self.g.labels[v] for v in ids)
                + " induce a clique, so the two-edges-opposite rule "
                "does not apply"
            )
        return forced

    def _terminal(self, terminal: Shortcut) -> None:
        ids = [self.vid(label) for label in terminal.path]
        if len(ids) < 3:
            raise _Reject("terminal path needs at least three vertices")
        if len(set(ids)) != len(ids):
            raise _Reject("terminal path repeats a vertex")
        for a, b in zip(ids, ids[1:]):
            if not self.po.has_arc(a, b):
                raise _Reject(
                    f"terminal path arc {self.g.labels[a]}->"
                    f"{self.g.labels[b]} is not oriented that way"
                )
        first, last = ids[0], ids[-1]
        if self.po.has_arc(last, first):
            # the path plus the backward closing arc is a directed cycle,
            # fatal on its own
            return
        if not self.po.has_arc(first, last):
            raise _Reject(
                f"closing arc {self.g.labels[first]}->"
                f"{self.g.labels[last]} is absent"
            )
        k = len(ids) - 1
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                if (i, j) == (0, k):
                    continue
                a, b = ids[i], ids[j]
                if not self.g.has_edge(a, b) or self.po.has_arc(b, a):
                    return
        raise _Reject(
            "terminal path has no violating pair (no non-edge or "
            "backward arc between path vertices)"
        )


class _Reject(Exception):
    pass
