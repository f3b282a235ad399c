"""Proof traces for non-semi-transitivity: parse, verify, extract, emit.

A trace is a sequence of numbered lines over four instructions:

- ``B x->y (Copy k)``  branch: orient x->y now, snapshot the graph with
  y->x into a fresh copy k for later;
- ``MC k x->y``        move to copy k (only as a line opener): resume the
  snapshot and apply its deferred arc, which the text repeats as x->y;
- ``O x->y (C...)``    orient x->y, justified by the printed cycle: for a
  triangle the other two edges form a directed path, for longer cycles the
  two-edges-opposite rule on nearly-aligned cycles applies;
  ``O x->y O u->v (C...)`` is one step that orients both remaining edges
  of a longer cycle;
- ``S:v0-v1-...-vk``   terminal: a directed path witnessing a dead end.
  Either the closing arc v0->vk is present while some intermediate pair
  is a non-edge or a backward arc (a shortcut), or the closing edge is
  oriented vk->v0 and the walk is a directed cycle.  Both defects are
  permanent: no completion of the partial orientation can repair them.

A trace whose lines all verify and whose branch copies are each resumed
exactly once is an exhaustive case analysis: no orientation with the given
preamble is semi-transitive, hence (source choice and reversal symmetry
being free) the graph has no semi-transitive orientation at all.

A force is an O step: its cycle with its one or two arcs. The verifier runs
the tests of a force that read only the graph (labels, ring edges, arcs on
the ring, the clique test) once per ``verify_trace`` call, when the force
first appears; each step runs only the tests that read the orientation.
The replay keeps its own orientation, one bitmask of arc heads per vertex,
and shares no state code with the solver.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import NamedTuple

from .graphs import LABEL_PATTERN, LabeledGraph, build_graph

__all__ = [
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


class Branch(NamedTuple):
    arc: Arc
    copy_id: int


class Orient(NamedTuple):
    arcs: tuple[Arc, ...]  # the one arc, or both arcs, that cycle forces
    cycle: tuple[str, ...]


class Shortcut(NamedTuple):
    path: tuple[str, ...]


class Root(NamedTuple):
    """Line 1's opener.  It is an empty tuple, so it is falsy: tell the
    openers apart with ``isinstance``."""


class MoveCopy(NamedTuple):
    copy_id: int
    arc: Arc


TraceStep = Branch | Orient


class TraceLine(NamedTuple):
    line_number: int
    opener: Root | MoveCopy
    steps: tuple[TraceStep, ...]
    terminal: Shortcut


class Preamble(NamedTuple):
    wlog_arc: Arc | None = None
    source_vertex: str | None = None


class ProofTrace(NamedTuple):
    preamble: Preamble
    lines: tuple[TraceLine, ...]


class LineStatus(NamedTuple):
    line_number: int
    accepted: bool
    reason: str | None = None


class VerificationReport(NamedTuple):
    line_statuses: tuple[LineStatus, ...]
    # copy id -> (created at line, consumed at line or None)
    copy_ledger: dict[int, tuple[int, int | None]]
    accepted: bool

    def failures(self) -> list[LineStatus]:
        return [s for s in self.line_statuses if not s.accepted]


# --------------------------------------------------------------------------
# surface text


_ARC = rf"({LABEL_PATTERN})\s*(?:->|\u2192)\s*({LABEL_PATTERN})"

# each token pattern also takes the whitespace after it, so a line's
# parser always stands at its next token, whose column an error names
_WS_RE = re.compile(r"\s*")
_NUMBER_RE = re.compile(r"(\d+)\.\s*")
_MC_RE = re.compile(rf"MC\s*(\d+)\s+{_ARC}\s*")
_BRANCH_RE = re.compile(rf"B\s*{_ARC}\s*\(\s*Copy\s+(\d+)\s*\)\s*")
_ORIENT_RE = re.compile(rf"O\s*{_ARC}\s*")
_CYCLE_RE = re.compile(rf"\(\s*C({LABEL_PATTERN}(?:-{LABEL_PATTERN})+)\s*\)\s*")
_TERMINAL_RE = re.compile(rf"S:\s*({LABEL_PATTERN}(?:-{LABEL_PATTERN})+)\s*")


def _parse_line(
    raw: str,
    line_number: int,
    created: dict[int, int],
    consumed: dict[int, int],
    cycles: dict[str, tuple[str, ...]],
) -> TraceLine:
    """One instruction line; ``cycles`` shares one tuple per cycle text
    across the lines of a trace."""

    def error(message: str, pos: int) -> TraceSyntaxError:
        return TraceSyntaxError(message, line_number, pos + 1)

    def take(regex: re.Pattern, pos: int, what: str) -> re.Match:
        m = regex.match(raw, pos)
        if m is None:
            raise error(f"expected {what}", pos)
        return m

    pos = _WS_RE.match(raw).end()
    m = _NUMBER_RE.match(raw, pos)
    if m:
        pos = m.end()
        printed = int(m.group(1))
        if printed != line_number:
            raise error(f"line numbered {printed} in position {line_number}", pos)
    opener: Root | MoveCopy
    if line_number == 1:
        if raw.startswith("MC", pos):
            raise error("line 1 cannot resume a copy", pos)
        opener = Root()
    else:
        m = take(
            _MC_RE, pos, "an MC opener (every line after the first resumes a copy)"
        )
        pos = m.end()
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
        opener = MoveCopy(copy_id, m.group(2, 3))

    steps: list[TraceStep] = []
    while True:
        c = raw[pos : pos + 1]
        if c == "O":
            m = take(_ORIENT_RE, pos, "an orient step 'O x->y'")
            arcs = (m.group(1, 2),)
            pos = m.end()
            if raw.startswith("O", pos):
                m = take(_ORIENT_RE, pos, "a second orient arc")
                arcs += (m.group(1, 2),)
                pos = m.end()
            m = take(_CYCLE_RE, pos, "a cycle annotation '(Cx-y-...)'")
            pos = m.end()
            cyc = cycles.get(m.group(1))
            if cyc is None:
                cyc = cycles[m.group(1)] = tuple(m.group(1).split("-"))
            steps.append(Orient(arcs, cyc))
        elif c == "B":
            m = take(_BRANCH_RE, pos, "a branch step 'B x->y (Copy k)'")
            pos = m.end()
            copy_id = int(m.group(3))
            if copy_id in created:
                raise TraceSyntaxError(
                    f"copy {copy_id} created twice", line_number, m.start(3) + 1
                )
            created[copy_id] = line_number
            steps.append(Branch(m.group(1, 2), copy_id))
        elif raw.startswith("S:", pos):
            break
        elif c:
            raise error("expected a B, O, MC, or S: instruction", pos)
        else:
            raise error("missing S: terminal", pos)

    m = take(_TERMINAL_RE, pos, "an S: terminal path")
    if m.end() < len(raw):
        raise error("trailing text after the S: terminal", m.end())
    terminal = Shortcut(tuple(m.group(1).split("-")))
    return TraceLine(line_number, opener, tuple(steps), terminal)


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
    cycles: dict[str, tuple[str, ...]] = {}
    lines = [
        _parse_line(raw, i + 1, created, consumed, cycles)
        for i, raw in enumerate(raws)
    ]
    return ProofTrace(Preamble(), tuple(lines))


def emit_trace(trace: ProofTrace) -> str:
    """Numbered instruction lines; the preamble is not serialized.

    Raises ``ValueError`` for an orient step with no arc or more than two,
    which no text can express and the verifier rejects.
    """
    out = []
    for line in trace.lines:
        parts = [f"{line.line_number}."]
        if isinstance(line.opener, MoveCopy):
            a, b = line.opener.arc
            parts.append(f"MC{line.opener.copy_id} {a}->{b}")
        for step in line.steps:
            if isinstance(step, Branch):
                a, b = step.arc
                parts.append(f"B{a}->{b} (Copy {step.copy_id})")
                continue
            if not 1 <= len(step.arcs) <= 2:
                raise ValueError(
                    f"line {line.line_number}: an orient step forces one or "
                    f"two arcs, not {len(step.arcs)}"
                )
            parts.extend(f"O{a}->{b}" for a, b in step.arcs)
            parts.append(f"(C{'-'.join(step.cycle)})")
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
            if isinstance(step, Branch):
                arc_edge(step.arc)
            else:
                for arc in step.arcs:
                    arc_edge(arc)
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
        for cid, created in replay.created_at.items()
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
        # copy id -> created line, and until an MC line resumes it, the
        # snapshot of ``out`` and its deferred arc in vertex ids
        self.created_at: dict[int, int] = {}
        self.snapshots: dict[int, tuple[list[int], tuple[int, int]]] = {}
        self.consumed_at: dict[int, int] = {}
        # O step -> the force after its tests that read only g: (the
        # arcs in vertex ids, a triangle's third vertex, a longer ring's
        # other steps, arcs against the ring, clique flag), or the reason
        # one of those tests gave; facts about g, so kept for one call
        self.forces: dict[tuple, tuple | str] = {}
        # the orientation: out[v] is the bitmask of the heads of v's arcs
        self.out: list[int] = []

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
        if self.out[h] >> t & 1:
            raise _Reject(
                f"arc {self.g.labels[t]}->{self.g.labels[h]} conflicts with "
                "the existing orientation"
            )
        self.out[t] |= 1 << h

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
            self.out = [0] * self.g.n
            pre = self.preamble
            if pre.wlog_arc is not None:
                self.set_arc(*self.arc_ids(pre.wlog_arc))
            if pre.source_vertex is not None:
                s = self.vid(pre.source_vertex)
                for u in self.g.neighbors(s):
                    self.set_arc(s, u)
        else:
            cid = line.opener.copy_id
            if cid not in self.created_at:
                raise _Reject(f"copy {cid} does not exist")
            if cid in self.consumed_at:
                raise _Reject(f"copy {cid} already consumed")
            snapshot, deferred = self.snapshots[cid]
            stated = self.arc_ids(line.opener.arc)
            if stated != deferred:
                t, h = deferred
                raise _Reject(
                    f"copy {cid} resumes with "
                    f"{self.g.labels[t]}->{self.g.labels[h]}, "
                    f"not {line.opener.arc[0]}->{line.opener.arc[1]}"
                )
            self.consumed_at[cid] = line.line_number
            del self.snapshots[cid]
            self.out = snapshot
            self.set_arc(*deferred)

    def _steps(self, line: TraceLine) -> None:
        for step in line.steps:
            if isinstance(step, Branch):
                t, h = self.arc_ids(step.arc)
                if (self.out[t] >> h | self.out[h] >> t) & 1:
                    raise _Reject(
                        f"branch on already-oriented edge "
                        f"{step.arc[0]}-{step.arc[1]}"
                    )
                if step.copy_id in self.created_at:
                    raise _Reject(f"copy {step.copy_id} created twice")
                self.created_at[step.copy_id] = line.line_number
                self.snapshots[step.copy_id] = (list(self.out), (h, t))
                self.set_arc(t, h)
            else:
                for t, h in self._check_force(step):
                    self.set_arc(t, h)

    def _check_force(self, step: Orient) -> tuple[tuple[int, int], ...]:
        """The one or two arcs of an O step as vertex ids once its cycle
        is shown to force them: a triangle by a directed path across it, a
        longer non-clique ring by m-2 of its other edges pointing one way
        round, the rest set, and the arcs the other way.

        Only the tests that read the orientation run on every step; the
        rest ran when the force was first compiled."""
        force = self.forces.get(step)
        if force is None:
            try:
                force = self._compile_force(*step)
            except _Reject as r:
                force = str(r)
            self.forces[step] = force
        if force.__class__ is str:
            raise _Reject(force)
        arcs, cycle = step
        forced, third, others, backward, clique = force
        out = self.out
        for (t, h), arc in zip(forced, arcs):
            if out[h] >> t & 1:
                raise _Reject(
                    f"edge {arc[0]}-{arc[1]} is already oriented the other way"
                )
        if others is None:
            ((t, h),) = forced
            if not (out[t] >> third & 1 and out[third] >> h & 1):
                raise _Reject(
                    f"triangle C{'-'.join(cycle)} lacks the directed path "
                    f"{arcs[0][0]}->{self.g.labels[third]}->{arcs[0][1]}"
                )
            return forced
        # every other ring edge is oriented, and with a single forced arc
        # one of them may point its way
        along = 0
        for a, b in others:
            if out[a] >> b & 1:
                along += 1
            elif not out[b] >> a & 1:
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]} is not oriented"
                )
        m = len(cycle)
        if not (
            (along >= m - 2 and backward == len(forced))
            or (len(others) - along >= m - 2 and not backward)
        ):
            both = "both " if len(arcs) == 2 else ""
            named = " and ".join(f"{a}->{b}" for a, b in arcs)
            raise _Reject(f"cycle C{'-'.join(cycle)} does not force {both}{named}")
        if clique:
            raise _Reject(
                f"cycle vertices {'-'.join(cycle)} induce a clique, so the "
                "two-edges-opposite rule does not apply"
            )
        return forced

    def _compile_force(
        self, arcs: tuple[Arc, ...], cycle: tuple[str, ...]
    ) -> tuple:
        """The tests of ``_check_force`` that read only g, in its order."""
        if not 1 <= len(arcs) <= 2:
            raise _Reject(f"an orient step forces one or two arcs, not {len(arcs)}")
        ids = [self.vid(label) for label in cycle]
        if len(set(ids)) != len(ids):
            raise _Reject(f"cycle C{'-'.join(cycle)} repeats a vertex")
        if len(ids) < 3:
            raise _Reject(f"cycle C{'-'.join(cycle)} is too short")
        # the steps (a, b) of one traversal, closing step last
        ring = list(zip(ids, ids[1:] + ids[:1]))
        for a, b in ring:
            if not self.g.has_edge(a, b):
                raise _Reject(
                    f"cycle C{'-'.join(cycle)} uses the non-edge "
                    f"{self.g.labels[a]}-{self.g.labels[b]}"
                )
        pair = len(arcs) == 2
        if pair and len(ids) < 4:
            raise _Reject(
                f"two orientations need a cycle of length >= 4, got "
                f"C{'-'.join(cycle)}"
            )
        forced = tuple(self.arc_ids(arc) for arc in arcs)
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
        if len(ids) == 3:
            ((t, h),) = forced
            (third,) = [v for v in ids if v not in (t, h)]
            return forced, third, None, 0, False
        others = tuple((a, b) for a, b in ring if (a, b) not in edges)
        backward = sum(1 for t, h in forced if (h, t) in ring)
        clique = all(self.g.has_edge(a, b) for a, b in combinations(ids, 2))
        return forced, None, others, backward, clique

    def _terminal(self, terminal: Shortcut) -> None:
        ids = [self.vid(label) for label in terminal.path]
        if len(ids) < 3:
            raise _Reject("terminal path needs at least three vertices")
        if len(set(ids)) != len(ids):
            raise _Reject("terminal path repeats a vertex")
        out = self.out
        for a, b in zip(ids, ids[1:]):
            if not out[a] >> b & 1:
                raise _Reject(
                    f"terminal path arc {self.g.labels[a]}->"
                    f"{self.g.labels[b]} is not oriented that way"
                )
        first, last = ids[0], ids[-1]
        if out[last] >> first & 1:
            # the path plus the backward closing arc is a directed cycle,
            # fatal on its own
            return
        if not out[first] >> last & 1:
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
                if not self.g.has_edge(a, b) or out[b] >> a & 1:
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
    from importlib import resources

    text = (
        resources.files("wordrep.data")
        .joinpath("s33_witness_trace.txt")
        .read_text(encoding="utf-8")
    )
    return ProofTrace(WITNESS_PREAMBLE, parse_trace(text).lines)
