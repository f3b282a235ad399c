"""Small functions that only the tests use.

They were part of the library, but no library code or command calls
them: DOT writers for eyeballing a graph or an orientation, the reversal
of an orientation, the graph a word defines, induced containment as a
yes/no, the reduction of a LaTeX proof listing to plain trace lines, a
copy of a partial orientation with one vertex made a source, its unset
edges, the closing arc of a shortcut witness, the host label an
embedding maps a pattern label to, and a plain recursive enumerator of
the solver's cycle inventory, the reference for its bitmask DFS.

``reference_verify_trace`` is the proof verifier as a plain replay that
checks every orient step from scratch, the reference for the verifier's
compiled force checks.  It replays on a ``PartialOrientation``, and the
verifier on arc rows of its own, so the two share no state code either.
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
    Orient,
    Preamble,
    ProofTrace,
    Root,
    Shortcut,
    TraceLine,
    VerificationReport,
)
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
        steps = line.steps
        i = 0
        while i < len(steps):
            step = steps[i]
            if isinstance(step, Branch):
                t, h = self.arc_ids(step.arc)
                if self.po.direction(t, h) is not None:
                    raise _Reject(
                        f"branch on already-oriented edge "
                        f"{step.arc[0]}-{step.arc[1]}"
                    )
                self.copies[step.copy_id] = (
                    self.po.copy(),
                    (h, t),
                    line.line_number,
                )
                self.set_arc(t, h)
                i += 1
                continue
            if step.paired_with_next:
                nxt = steps[i + 1] if i + 1 < len(steps) else None
                if not isinstance(nxt, Orient):
                    raise _Reject(
                        f"orient step {step.arc[0]}->{step.arc[1]} is paired "
                        "with no second orient step"
                    )
                forced = self._check_force((step.arc, nxt.arc), step.cycle)
                i += 2
            else:
                forced = self._check_force((step.arc,), step.cycle)
                i += 1
            for t, h in forced:
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
        """The arc of one O step, or the two of a pair, as vertex ids once
        ``cycle`` is shown to force them: a triangle by a directed path
        across it, a longer non-clique ring by m-2 of its other edges
        pointing one way round, the rest set, and the arcs the other way."""
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
