"""Proof traces for non-semi-transitivity: parse, verify, extract, emit.

A trace is a sequence of numbered lines over four instructions:

- ``B x->y (Copy k)``  branch: orient x->y now, snapshot the graph with
  y->x into a fresh copy k for later;
- ``MC k x->y``        move to copy k (only as a line opener): resume the
  snapshot and apply its deferred arc, which the text repeats as x->y;
- ``O x->y (C...)``    orient x->y, justified by the printed cycle: for a
  triangle the other two edges form a directed path, for longer cycles the
  two-edges-opposite rule on nearly-aligned cycles applies; two adjacent
  ``O`` steps may share one cycle annotation (both remaining edges forced);
- ``S:v0-v1-...-vk``   terminal: a directed path witnessing a dead end.
  Either the closing arc v0->vk is present while some intermediate pair
  is a non-edge or a backward arc (a shortcut), or the closing edge is
  oriented vk->v0 and the walk is a directed cycle.  Both defects are
  permanent: no completion of the partial orientation can repair them.

A trace whose lines all verify and whose branch copies are each resumed
exactly once is an exhaustive case analysis: no orientation with the given
preamble is semi-transitive, hence (source choice and reversal symmetry
being free) the graph has no semi-transitive orientation at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .graphs import LabeledGraph, build_graph
from .orientations import PartialOrientation

__all__ = [
    "LABEL_PATTERN",
    "TraceSyntaxError",
    "UnknownCopyReference",
    "Branch",
    "Orient",
    "Shortcut",
    "Root",
    "MoveCopy",
    "TraceLine",
    "Preamble",
    "ProofTrace",
    "LineStatus",
    "VerificationReport",
    "parse_trace",
    "emit_trace",
    "extract_graph",
    "verify_trace",
    "WITNESS_PREAMBLE",
    "load_witness_trace",
]

Arc = tuple[str, str]


class TraceSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownCopyReference(TraceSyntaxError):
    pass


@dataclass(frozen=True)
class Branch:
    arc: Arc
    copy_id: int


@dataclass(frozen=True)
class Orient:
    arc: Arc
    cycle: tuple[str, ...]
    # True on the first step of a two-O pair sharing this cycle annotation
    paired_with_next: bool = False


@dataclass(frozen=True)
class Shortcut:
    path: tuple[str, ...]


@dataclass(frozen=True)
class Root:
    pass


@dataclass(frozen=True)
class MoveCopy:
    copy_id: int
    arc: Arc


TraceStep = Branch | Orient


@dataclass(frozen=True)
class TraceLine:
    line_number: int
    opener: Root | MoveCopy
    steps: tuple[TraceStep, ...]
    terminal: Shortcut


@dataclass(frozen=True)
class Preamble:
    wlog_arc: Arc | None = None
    source_vertex: str | None = None


@dataclass(frozen=True)
class ProofTrace:
    preamble: Preamble
    lines: tuple[TraceLine, ...]


@dataclass(frozen=True)
class LineStatus:
    line_number: int
    accepted: bool
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    line_statuses: tuple[LineStatus, ...]
    # copy id -> (created at line, consumed at line or None)
    copy_ledger: dict[int, tuple[int, int | None]] = field(default_factory=dict)
    accepted: bool = False

    def failures(self) -> list[LineStatus]:
        return [s for s in self.line_statuses if not s.accepted]


# --------------------------------------------------------------------------
# surface text


# the vertex label grammar of the trace language; a graph whose labels do
# not fully match it cannot be named in a trace
LABEL_PATTERN = r"[A-Za-z0-9_]+"
_ARC = rf"({LABEL_PATTERN})\s*(?:->|\u2192)\s*({LABEL_PATTERN})"

_NUMBER_RE = re.compile(r"(\d+)\.\s*")
_MC_RE = re.compile(rf"MC\s*(\d+)\s+{_ARC}")
_BRANCH_RE = re.compile(rf"B\s*{_ARC}\s*\(\s*Copy\s+(\d+)\s*\)")
_ORIENT_RE = re.compile(rf"O\s*{_ARC}")
_CYCLE_RE = re.compile(rf"\(\s*C({LABEL_PATTERN}(?:-{LABEL_PATTERN})+)\s*\)")
_TERMINAL_RE = re.compile(rf"S:\s*({LABEL_PATTERN}(?:-{LABEL_PATTERN})+)")


class _LineScanner:
    def __init__(self, text: str, line_number: int):
        self.text = text
        self.line_number = line_number
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, prefix: str) -> bool:
        self.skip_ws()
        return self.text.startswith(prefix, self.pos)

    def take(self, regex: re.Pattern, what: str) -> re.Match:
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m is None:
            raise TraceSyntaxError(
                f"expected {what}", self.line_number, self.pos + 1
            )
        self.pos = m.end()
        return m

    def error(self, message: str) -> TraceSyntaxError:
        return TraceSyntaxError(message, self.line_number, self.pos + 1)


def _parse_line(
    raw: str, line_number: int, created: dict[int, int], consumed: dict[int, int]
) -> TraceLine:
    sc = _LineScanner(raw, line_number)
    if _NUMBER_RE.match(raw):
        m = sc.take(_NUMBER_RE, "line number")
        printed = int(m.group(1))
        if printed != line_number:
            raise sc.error(
                f"line numbered {printed} in position {line_number}"
            )
    opener: Root | MoveCopy
    if line_number == 1:
        if sc.peek("MC"):
            raise sc.error("line 1 cannot resume a copy")
        opener = Root()
    else:
        m = sc.take(_MC_RE, "an MC opener (every line after the first resumes a copy)")
        copy_id = int(m.group(1))
        if copy_id not in created:
            raise UnknownCopyReference(
                f"copy {copy_id} was never created", line_number, m.start(1) + 1
            )
        if copy_id in consumed:
            raise UnknownCopyReference(
                f"copy {copy_id} already consumed on line {consumed[copy_id]}",
                line_number,
                m.start(1) + 1,
            )
        consumed[copy_id] = line_number
        opener = MoveCopy(copy_id, (m.group(2), m.group(3)))

    steps: list[TraceStep] = []
    while True:
        if sc.peek("S:"):
            break
        if sc.at_end():
            raise sc.error("missing S: terminal")
        if sc.peek("B"):
            m = sc.take(_BRANCH_RE, "a branch step 'B x->y (Copy k)'")
            copy_id = int(m.group(3))
            if copy_id in created:
                raise TraceSyntaxError(
                    f"copy {copy_id} created twice", line_number, m.start(3) + 1
                )
            created[copy_id] = line_number
            steps.append(Branch((m.group(1), m.group(2)), copy_id))
        elif sc.peek("O"):
            m = sc.take(_ORIENT_RE, "an orient step 'O x->y'")
            first = (m.group(1), m.group(2))
            if sc.peek("O"):
                m2 = sc.take(_ORIENT_RE, "a second orient arc")
                second = (m2.group(1), m2.group(2))
                cyc = _parse_cycle(sc)
                steps.append(Orient(first, cyc, paired_with_next=True))
                steps.append(Orient(second, cyc))
            else:
                cyc = _parse_cycle(sc)
                steps.append(Orient(first, cyc))
        else:
            raise sc.error("expected a B, O, MC, or S: instruction")

    m = sc.take(_TERMINAL_RE, "an S: terminal path")
    terminal = Shortcut(tuple(m.group(1).split("-")))
    if not sc.at_end():
        raise sc.error("trailing text after the S: terminal")
    return TraceLine(line_number, opener, tuple(steps), terminal)


def _parse_cycle(sc: _LineScanner) -> tuple[str, ...]:
    m = sc.take(_CYCLE_RE, "a cycle annotation '(Cx-y-...)'")
    return tuple(m.group(1).split("-"))


def parse_trace(text: str) -> ProofTrace:
    """Parse instruction lines into a trace with an empty preamble.

    The preamble (W.L.O.G. arc, source vertex) travels outside the line
    syntax; callers attach it before verification.
    """
    raws = [raw for raw in text.splitlines() if raw.strip()]
    if not raws:
        raise TraceSyntaxError("empty trace", 1, 1)
    created: dict[int, int] = {}
    consumed: dict[int, int] = {}
    lines = [
        _parse_line(raw, i + 1, created, consumed) for i, raw in enumerate(raws)
    ]
    return ProofTrace(Preamble(), tuple(lines))


def emit_trace(trace: ProofTrace) -> str:
    """Numbered instruction lines; the preamble is not serialized."""
    out = []
    for line in trace.lines:
        parts = [f"{line.line_number}."]
        if isinstance(line.opener, MoveCopy):
            a, b = line.opener.arc
            parts.append(f"MC{line.opener.copy_id} {a}->{b}")
        steps = list(line.steps)
        i = 0
        while i < len(steps):
            step = steps[i]
            if isinstance(step, Branch):
                a, b = step.arc
                parts.append(f"B{a}->{b} (Copy {step.copy_id})")
                i += 1
            elif step.paired_with_next:
                a, b = step.arc
                nxt = steps[i + 1]
                c, d = nxt.arc
                parts.append(
                    f"O{a}->{b} O{c}->{d} (C{'-'.join(step.cycle)})"
                )
                i += 2
            else:
                a, b = step.arc
                parts.append(f"O{a}->{b} (C{'-'.join(step.cycle)})")
                i += 1
        parts.append(f"S:{'-'.join(line.terminal.path)}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# graph extraction


def extract_graph(trace: ProofTrace) -> LabeledGraph:
    """Union of all adjacency the trace asserts.

    Vertices are every label mentioned anywhere (preamble included),
    ordered lexicographically; edges come from arcs, from consecutive and
    closing pairs of printed cycles, and from consecutive plus (first,
    last) pairs of terminal paths.
    """
    labels: set[str] = set()
    edges: set[tuple[str, str]] = set()

    def arc_edge(arc: Arc) -> None:
        a, b = arc
        labels.update((a, b))
        edges.add((a, b))

    def ring(seq: tuple[str, ...], close: bool) -> None:
        labels.update(seq)
        for a, b in zip(seq, seq[1:]):
            edges.add((a, b))
        if close and len(seq) > 1:
            edges.add((seq[0], seq[-1]))

    if trace.preamble.wlog_arc is not None:
        arc_edge(trace.preamble.wlog_arc)
    if trace.preamble.source_vertex is not None:
        labels.add(trace.preamble.source_vertex)
    for line in trace.lines:
        if isinstance(line.opener, MoveCopy):
            arc_edge(line.opener.arc)
        for step in line.steps:
            arc_edge(step.arc)
            if isinstance(step, Orient):
                ring(step.cycle, close=True)
        ring(line.terminal.path, close=True)
    return build_graph(sorted(labels), sorted(edges))


# --------------------------------------------------------------------------
# verification


def verify_trace(g: LabeledGraph, trace: ProofTrace) -> VerificationReport:
    """Replay the trace against g and report per-line acceptance.

    Overall acceptance requires every line to verify and every branch copy
    to be consumed exactly once (the case analysis is then exhaustive).
    """
    replay = _Replay(g, trace.preamble)
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


class _Replay:
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
            elif step.paired_with_next:
                nxt = steps[i + 1]
                self._check_two_orient(step.arc, nxt.arc, step.cycle)
                self.set_arc(*self.arc_ids(step.arc))
                self.set_arc(*self.arc_ids(nxt.arc))
                i += 2
            else:
                self._check_one_orient(step.arc, step.cycle)
                self.set_arc(*self.arc_ids(step.arc))
                i += 1

    def _cycle_ids(self, cycle: tuple[str, ...]) -> list[int]:
        ids = [self.vid(label) for label in cycle]
        if len(set(ids)) != len(ids):
            raise _Reject(f"cycle C{'-'.join(cycle)} repeats a vertex")
        if len(ids) < 3:
            raise _Reject(f"cycle C{'-'.join(cycle)} is too short")
        for a, b in self._ring_edges(ids):
            if not self.g.has_edge(a, b):
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} uses the non-edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]}"
                )
        return ids

    @staticmethod
    def _ring_edges(ids: list[int]) -> list[tuple[int, int]]:
        return list(zip(ids, ids[1:])) + [(ids[-1], ids[0])]

    def _non_clique(self, ids: list[int]) -> None:
        if all(
            self.g.has_edge(a, b)
            for k, a in enumerate(ids)
            for b in ids[k + 1 :]
        ):
            raise _Reject(
                "cycle vertices "
                + "-".join(self.g.labels[v] for v in ids)
                + " induce a clique, so the two-edges-opposite rule "
                "does not apply"
            )

    def _check_one_orient(self, arc: Arc, cycle: tuple[str, ...]) -> None:
        ids = self._cycle_ids(cycle)
        t, h = self.arc_ids(arc)
        if {t, h} not in [{a, b} for a, b in self._ring_edges(ids)]:
            raise _Reject(
                f"forced edge {arc[0]}-{arc[1]} is not on cycle "
                f"C{'-'.join(cycle)}"
            )
        if self.po.has_arc(h, t):
            raise _Reject(
                f"edge {arc[0]}-{arc[1]} is already oriented the other way"
            )
        if len(ids) == 3:
            (w,) = [v for v in ids if v not in (t, h)]
            if not (self.po.has_arc(t, w) and self.po.has_arc(w, h)):
                raise _Reject(
                    f"triangle C{'-'.join(cycle)} lacks the directed path "
                    f"{arc[0]}->{self.g.labels[w]}->{arc[1]}"
                )
            return
        # longer cycle: every other edge is oriented, at least m-2 of them
        # along one traversal direction, and the forced arc goes against it
        others = [
            (a, b)
            for a, b in self._ring_edges(ids)
            if {a, b} != {t, h}
        ]
        for a, b in others:
            if self.po.direction(a, b) is None:
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]} is not oriented"
                )
        for ring in (self._ring_edges(ids), self._ring_edges(ids[::-1])):
            along = sum(1 for a, b in ring if self.po.has_arc(a, b))
            step = next((a, b) for a, b in ring if {a, b} == {t, h})
            if along >= len(ids) - 2 and step == (h, t):
                self._non_clique(ids)
                return
        raise _Reject(
            f"cycle C{'-'.join(cycle)} does not force {arc[0]}->{arc[1]}"
        )

    def _check_two_orient(
        self, arc1: Arc, arc2: Arc, cycle: tuple[str, ...]
    ) -> None:
        ids = self._cycle_ids(cycle)
        if len(ids) < 4:
            raise _Reject(
                f"two orientations need a cycle of length >= 4, got "
                f"C{'-'.join(cycle)}"
            )
        t1, h1 = self.arc_ids(arc1)
        t2, h2 = self.arc_ids(arc2)
        ring = self._ring_edges(ids)
        ring_sets = [{a, b} for a, b in ring]
        if {t1, h1} not in ring_sets or {t2, h2} not in ring_sets:
            raise _Reject(
                f"forced edges must lie on cycle C{'-'.join(cycle)}"
            )
        if {t1, h1} == {t2, h2}:
            raise _Reject("the two forced arcs name the same edge")
        for t, h, arc in ((t1, h1, arc1), (t2, h2, arc2)):
            if self.po.has_arc(h, t):
                raise _Reject(
                    f"edge {arc[0]}-{arc[1]} is already oriented the other way"
                )
        others = [
            (a, b)
            for a, b in ring
            if {a, b} != {t1, h1} and {a, b} != {t2, h2}
        ]
        for a, b in others:
            if self.po.direction(a, b) is None:
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]} is not oriented"
                )
        for oriented_ids in (ids, ids[::-1]):
            ring_d = self._ring_edges(oriented_ids)
            along = [
                (a, b)
                for a, b in ring_d
                if {a, b} not in ({t1, h1}, {t2, h2})
                and self.po.has_arc(a, b)
            ]
            steps = {
                frozenset((a, b)): (a, b)
                for a, b in ring_d
            }
            if (
                len(along) == len(ids) - 2
                and steps[frozenset((t1, h1))] == (h1, t1)
                and steps[frozenset((t2, h2))] == (h2, t2)
            ):
                self._non_clique(ids)
                return
        raise _Reject(
            f"cycle C{'-'.join(cycle)} does not force both "
            f"{arc1[0]}->{arc1[1]} and {arc2[0]}->{arc2[1]}"
        )

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


# --------------------------------------------------------------------------
# bundled corpus

WITNESS_PREAMBLE = Preamble(wlog_arc=None, source_vertex="13")


def load_witness_trace() -> ProofTrace:
    """The bundled 100-line proof that a certain 17-vertex graph (an
    induced subgraph of S(3,3)) has no semi-transitive orientation.

    The case analysis assumes only that vertex "13" (the unique
    maximum-degree vertex) is a source, so pair it with
    ``WITNESS_PREAMBLE`` for verification.
    """
    text = (
        resources.files("wordrep.data")
        .joinpath("s33_witness_trace.txt")
        .read_text(encoding="utf-8")
    )
    return ProofTrace(WITNESS_PREAMBLE, parse_trace(text).lines)
