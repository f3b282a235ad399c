"""Benchmark of the wordrep command line.

Drives ``python -m wordrep.cli`` from the checkout's ``src`` one process at
a time: one fresh process per graph and step, a single client in a closed
loop, nothing in parallel.  A fresh process per graph is required: the
solver caches its cycle inventory per graph, so repeated in-process solves
of one graph would skip work every command-line user pays for.

    python3 perfbench/run.py --workload refute_deep --seed 0 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics under plain ``python`` (the
debug self-checks on, as the CLI and the tests run).  Every step runs once,
then the short steps run again while ``--seconds`` lasts; a metric sums
each step's median time.  Times are rescaled to a fixed machine speed (see
``Clock``).  ``--trace 1`` instead splits time and work across the solver,
orientations, traces and cli modules with the hooks in ``probe.py``, per
graph, in separate processes.

Every verdict is checked against a known answer whose reason does not come
from the solver, every emitted proof must be accepted by ``verify-trace``,
and every positive verdict's orientation is re-checked here.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--seed 0`` uses the graphs as the CLI emits them.  Another seed renames
the vertices of every generated graph by a seeded permutation of its
labels, keeping each vertex's position in the ``labels`` array: the graphs,
verdicts and amount of search stay the same while every label, printed
cycle and proof text changes.  (Moving vertices to other positions changes
the search itself: S(2,5) then takes between 2.2 s and 5.8 s over seeds
0-5, which no regression bound could absorb.)
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import work as reference_work

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
WORK = ROOT / ".bench_work"

# A child still running at the deadline is killed and counts as failed, so
# a run ends within 180 s even when the program hangs.
DEADLINE = time.monotonic() + 170.0
SETUP_REPEATS = 5
START_REPEATS = 5
TRACE_ROUNDS = 2
# Steps shorter than this are sampled again while the run lasts.
SHORT_STEP_S = 1.0
# See Clock: the sampling period, the fewest samples a rescaling uses, and
# the time of one reference_work() call on a quiet core.
SAMPLE_PERIOD_S = 0.05
MIN_SAMPLES = 5
REFERENCE_S = 0.0015

NEGATIVE = "not-semi-transitive"
POSITIVE = "semi-transitive"

# Known answers.  Each reason holds without running the solver under test.
KNOWN: dict[str, tuple[str, str]] = {
    "w5": (NEGATIVE, "odd wheels are not word-representable"),
    "w9": (NEGATIVE, "odd wheels are not word-representable"),
    "s23": (NEGATIVE, "S(2,3) contains W5 as an induced subgraph"),
    "s24": (NEGATIVE, "S(2,4) contains S(2,3), which contains W5"),
    "s25": (NEGATIVE, "S(2,5) contains S(2,3), which contains W5"),
    "s33": (NEGATIVE, "S(3,3) contains the bundled witness at anchors 1->102, 2->210"),
    "witness": (NEGATIVE, "the bundled 100-line proof refutes it"),
    "bundled": (NEGATIVE, "the bundled 100-line proof refutes the witness"),
    "s62": (POSITIVE, "S(n,2) is 3-colourable, hence representable"),
    "s72": (POSITIVE, "S(n,2) is 3-colourable, hence representable"),
    "s82": (POSITIVE, "S(n,2) is 3-colourable, hence representable"),
}

# Inputs made by ``wordrep debruijn --n N --k K --simplified``.
DEBRUIJN = {"s23": (2, 3), "s24": (2, 4), "s25": (2, 5), "s33": (3, 3),
            "s62": (6, 2), "s72": (7, 2), "s82": (8, 2)}
WHEELS = {"w5": 5, "w9": 9}

# The bundled proof is verified, untouched, against the witness graph that
# ``extract-graph`` recovers from it, under its documented preamble.
BUNDLED_SOURCE = "13"

# W5's check -> verify-trace -> oracle round trip runs in every workload,
# so every end-to-end metric is measured (and never 0) on each of them.
W5_ROUND_TRIP = ("w5", ("check", "verify", "oracle"))

WORKLOADS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    # branch-heavy refutations: per-node cost, copies, self-check, verifier
    "refute_deep": (
        W5_ROUND_TRIP,
        ("witness", ("check", "verify")),
        ("s33", ("check", "verify")),
        ("bundled", ("verify",)),
    ),
    # few nodes, many cycles: inventory, rule scanning, branch choice
    "refute_dense": (
        W5_ROUND_TRIP,
        ("s23", ("check", "verify")),
        ("s24", ("check", "verify")),
        ("s25", ("check", "verify")),
    ),
    # positive verdicts: the search ends in an orientation, no proof
    "orient": (
        W5_ROUND_TRIP,
        ("s62", ("check",)),
        ("s72", ("check",)),
        ("s82", ("check",)),
    ),
    # the exhaustive oracle, pruned (CLI) and pure (W9: 2^18 leaves)
    "oracle": (
        W5_ROUND_TRIP,
        ("s23", ("oracle",)),
        ("w9", ("pure",)),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    seconds: float
    code: int | None  # None when killed at the timeout
    rss_kb: int
    stdout: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("PYTHONOPTIMIZE", "PYTHONINSPECT", "WORDREP_BUDGET"):
        env.pop(name, None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(args: list[str], work: Path, optimize: bool = False) -> Proc:
    """Run ``python [-O] *args`` to completion; wall time and max RSS."""
    out_path, err_path = work / "child.out", work / "child.err"
    argv = [sys.executable] + (["-O"] if optimize else []) + args
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), wr, 0o644),
    ]
    killed = threading.Event()

    def kill(pid: int) -> None:
        killed.set()
        os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, _child_env(), file_actions=actions)
    timer = threading.Timer(max(DEADLINE - time.monotonic(), 0.0), kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    code = None if killed.is_set() else os.waitstatus_to_exitcode(status)
    return Proc(seconds, code, usage.ru_maxrss, out_path.read_text(encoding="utf-8"))


class Clock:
    """Wall times of child processes, rescaled to a fixed machine speed.

    The machine is shared, and a core's speed flips between two states
    about 1.6x apart as other tenants come and go, independently per core.
    So this process, its children and a sampling thread share one core.
    Every SAMPLE_PERIOD_S the thread times a fixed piece of work
    (reference.py) while the children, at the lowest priority, wait.  A
    child's wall time is rescaled by the mean speed of the samples taken
    while it ran.  A change to the program moves the child and not the
    reference, so it moves the rescaled time as much as the raw one.  The
    sampling takes about 4% of the core, the same in every run.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.ends: list[float] = []
        self.spans: list[float] = []
        self.halt = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()
        # children inherit the spawning thread's niceness
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        time.sleep(0.2)

    def _sample(self) -> None:
        while not self.halt.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.spans.append(end - start)
            self.ends.append(end)

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self.halt.set()
        self.thread.join()

    def factor(self, start: float, end: float) -> float:
        """What to multiply the times of a span from ``start`` to ``end``
        by: REFERENCE_S times the span's mean speed, 1 / sample time, over
        at least MIN_SAMPLES samples (the nearest ones if too few ran).
        The mean, not the median: a span's time integrates the speed of
        both states."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.ends))
        return REFERENCE_S * statistics.fmean(1 / s for s in self.spans[lo:hi])

    def run(self, args: list[str], work: Path, optimize: bool = False) -> tuple[Proc, float]:
        """Spawn a child; its exit, output and rescaling factor."""
        start = time.perf_counter()
        proc = spawn(args, work, optimize)
        return proc, self.factor(start, time.perf_counter())


def cli(*args: str) -> list[str]:
    return ["-m", "wordrep.cli", *args]


def _json(text: str) -> dict | None:
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


# ---------------------------------------------------------------------------
# inputs


def relabel(graph: dict, seed: int, key: str) -> dict:
    """Rename the vertices by a seeded permutation of the labels; each
    vertex keeps its position in ``labels``, so the search is unchanged."""
    labels = list(graph["labels"])
    if seed == 0:
        return {"labels": labels, "edges": graph["edges"]}
    shuffled = labels[:]
    random.Random(f"{seed}:{key}").shuffle(shuffled)
    name = dict(zip(labels, shuffled))
    return {
        "labels": [name[v] for v in labels],
        "edges": [[name[a], name[b]] for a, b in graph["edges"]],
    }


def _needed(workload: str) -> set[str]:
    keys = {key for key, _ in WORKLOADS[workload]}
    if keys & {"witness", "bundled"}:
        keys |= {"witness", "bundled"}
    return keys


def make_inputs(workload: str, seed: int, dest: Path, work: Path) -> None:
    """Write ``<key>.json`` for every graph the workload needs (and
    ``bundled.txt``, ``witness0.json``) into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    keys = _needed(workload)

    def must(proc: Proc, what: str) -> Proc:
        if proc.code != 0:
            raise BenchError(f"set-up step {what} exited {proc.code}")
        return proc

    def write(key: str, graph: dict) -> None:
        (dest / f"{key}.json").write_text(json.dumps(relabel(graph, seed, key)))

    for key in sorted(keys & DEBRUIJN.keys()):
        n, k = DEBRUIJN[key]
        proc = must(spawn(cli("debruijn", "--n", str(n), "--k", str(k),
                              "--simplified"), work), f"debruijn {key}")
        write(key, json.loads(proc.stdout))
    wheels = [f"--wheel={WHEELS[key]}" for key in sorted(keys & WHEELS.keys())]
    must(spawn([str(PROBE), "inputs", "--out", str(dest), *wheels], work), "inputs")
    for key in keys & WHEELS.keys():
        write(key, json.loads((dest / f"{key}.json").read_text()))
    if "witness" in keys:
        raw = dest / "witness0.json"
        must(spawn(cli("extract-graph", "--trace", str(dest / "bundled.txt"),
                       "-o", str(raw)), work), "extract-graph")
        write("witness", json.loads(raw.read_text()))


def graph_path(dest: Path, key: str) -> Path:
    return dest / ("witness0.json" if key == "bundled" else f"{key}.json")


# ---------------------------------------------------------------------------
# correctness of outputs


def orientation_is_semitransitive(graph: dict, arcs: list) -> bool:
    """Independent check of a positive certificate: every edge oriented
    once, no directed cycle, and no shortcut (a directed path u ~> x ~> y
    ~> v under an arc u->v with x, y non-adjacent)."""
    index = {label: i for i, label in enumerate(graph["labels"])}
    n = len(index)
    edges = {frozenset((index[a], index[b])) for a, b in graph["edges"]}
    try:
        pairs = [(index[t], index[h]) for t, h in arcs]
    except (KeyError, TypeError, ValueError):
        return False
    if len(pairs) != len(edges) or {frozenset(p) for p in pairs} != edges:
        return False
    adj, out, indeg = [0] * n, [[] for _ in range(n)], [0] * n
    for t, h in pairs:
        adj[t] |= 1 << h
        adj[h] |= 1 << t
        out[t].append(h)
        indeg[h] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        return False
    reach, coreach = [1 << v for v in range(n)], [1 << v for v in range(n)]
    for v in reversed(order):
        for w in out[v]:
            reach[v] |= reach[w]
    for v in order:
        for w in out[v]:
            coreach[w] |= coreach[v]
    for u, v in pairs:
        between = reach[u] & coreach[v]
        rest = between
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if reach[x] & between & ~adj[x] & ~(1 << x):
                return False
    return True


def proof_counts(text: str) -> tuple[int, int, int]:
    """Lines, orient steps and branch steps of a proof's text."""
    lines = orients = branches = 0
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens:
            continue
        lines += 1
        after_mc = False
        for token in tokens:
            if not after_mc and "->" in token:
                orients += token.startswith("O")
                branches += token.startswith("B")
            after_mc = token.startswith("MC")
    return lines, orients, branches


@dataclass
class Judge:
    """Counts operations and the ones whose output is wrong."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    def check(self, key: str, code: int | None, out: dict | None,
              graph: Path, proof: Path) -> tuple[str, str | None, int] | None:
        """Judge one ``check``; the preamble and proof length when it
        emitted a refutation."""
        verdict = KNOWN[key][0]
        want = 1 if verdict == NEGATIVE else 0
        ok = code == want and out is not None and out.get("verdict") == verdict
        if ok and verdict == POSITIVE:
            ok = orientation_is_semitransitive(
                json.loads(graph.read_text()), out.get("orientation"))
        lines = 0
        if ok and verdict == NEGATIVE:
            lines = proof_counts(proof.read_text())[0] if proof.is_file() else 0
            ok = lines > 0 and out.get("lines") == lines and out.get("source")
        if not self.record(bool(ok), f"check {key}: exit {code}, {out}"):
            return None
        if verdict == POSITIVE:
            return None
        return out["source"], out.get("wlog"), lines

    def verify(self, key: str, code: int | None, out: dict | None, lines: int) -> None:
        ok = (code == 0 and out is not None and out.get("accepted") is True
              and out.get("lines") == lines)
        self.record(ok, f"verify-trace {key}: exit {code}, {out}")

    def oracle(self, key: str, code: int | None, out: dict | None) -> None:
        ok = code == 1 and out is not None and out.get("verdict") == "notexists"
        self.record(ok, f"oracle {key}: exit {code}, {out}")

    def pure(self, key: str, code: int | None, out: dict | None, edges: int) -> None:
        ok = (code == 0 and out is not None and out.get("verdict") == "notexists"
              and out.get("examined") == 2 ** edges)
        self.record(ok, f"pure oracle {key}: exit {code}, {out}")


# ---------------------------------------------------------------------------
# end-to-end run


class EndToEnd:
    """Samples of every step of one workload, judged as they are taken."""

    def __init__(self, workload: str, inputs: Path, work: Path, clock: Clock):
        self.workload, self.inputs, self.work, self.clock = workload, inputs, work, clock
        self.judge = Judge()
        self.seconds: dict[tuple[str, str], list[float]] = {}
        self.raw: dict[tuple[str, str], list[float]] = {}
        self.peak_kb = 0
        self.proof_lines: dict[str, int] = {}
        # key -> (source, wlog, lines) of the proof verify-trace checks
        bundled = inputs / "bundled.txt"
        self.preambles = {"bundled": (BUNDLED_SOURCE, None, proof_counts(bundled.read_text())[0])}

    def round(self, steps: set[tuple[str, str]] | None = None) -> None:
        """One sample of each step in workload order (of ``steps`` only,
        when given)."""
        for key, names in WORKLOADS[self.workload]:
            for step in names:
                if steps is None or (key, step) in steps:
                    self.sample(key, step)

    def _run(self, key: str, step: str, args: list[str]) -> Proc:
        proc, factor = self.clock.run(args, self.work)
        self.seconds.setdefault((key, step), []).append(proc.seconds * factor)
        self.raw.setdefault((key, step), []).append(proc.seconds)
        self.peak_kb = max(self.peak_kb, proc.rss_kb)
        return proc

    def proof(self, key: str) -> Path:
        return self.inputs / "bundled.txt" if key == "bundled" else self.work / f"{key}.proof"

    def sample(self, key: str, step: str) -> None:
        graph, proof, judge = graph_path(self.inputs, key), self.proof(key), self.judge
        if step == "check":
            args = ["check", "--graph", str(graph)]
            if KNOWN[key][0] == NEGATIVE:
                args += ["--trace", str(proof)]
            proof.unlink(missing_ok=True)
            proc = self._run(key, step, cli(*args))
            preamble = judge.check(key, proc.code, _json(proc.stdout), graph, proof)
            self.preambles.pop(key, None)
            if preamble is not None:
                self.preambles[key] = preamble
                self.proof_lines[key] = preamble[2]
        elif step == "verify":
            if key not in self.preambles:
                judge.record(False, f"verify-trace {key}: no proof to verify")
                return
            source, wlog, lines = self.preambles[key]
            args = ["verify-trace", "--graph", str(graph), "--trace", str(proof),
                    "--source", source] + (["--wlog", wlog] if wlog else [])
            proc = self._run(key, step, cli(*args))
            judge.verify(key, proc.code, _json(proc.stdout), lines)
        elif step == "oracle":
            proc = self._run(key, step, cli("oracle", "--graph", str(graph)))
            judge.oracle(key, proc.code, _json(proc.stdout))
        else:
            proc = self._run(key, step, [str(PROBE), "pure", "--graph", str(graph)])
            edges = len(json.loads(graph.read_text())["edges"])
            judge.pure(key, proc.code, _json(proc.stdout), edges)

    def total(self, steps: tuple[str, ...]) -> float:
        """Sum over the workload's steps of the median rescaled time."""
        return sum(statistics.median(times)
                   for (_, step), times in self.seconds.items() if step in steps)


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path,
                       clock: Clock) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        make_inputs(workload, seed, work / f"inputs{i}", work)
        end = time.perf_counter()
        setups.append((end - start) * clock.factor(start, end))
    bench = EndToEnd(workload, work / f"inputs{SETUP_REPEATS - 1}", work, clock)

    # Every step once; then, while the time lasts, more rounds of the short
    # steps only.  Their samples are spread over the run, so a slow spell
    # of the machine moves few of them.
    start = time.perf_counter()
    bench.round()
    short = {step for step, times in bench.raw.items() if times[0] < SHORT_STEP_S}
    rounds = [sum(bench.raw[step][0] for step in short)]
    while short and time.perf_counter() - start + statistics.median(rounds) <= seconds:
        began = time.perf_counter()
        bench.round(short)
        rounds.append(time.perf_counter() - began)

    judge = bench.judge
    metrics = {
        "check_s": (bench.total(("check",)), "s"),
        "verify_s": (bench.total(("verify",)), "s"),
        "oracle_s": (bench.total(("oracle", "pure")), "s"),
        "proof_lines": (sum(bench.proof_lines.values()), "count"),
        "peak_rss_mb": (bench.peak_kb / 1024, "MB"),
        "ok_ratio": ((judge.attempted - judge.failed) / judge.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(json.dumps({"rounds": len(rounds), "setup_s": setups,
                      "samples": {f"{k}.{s}": v for (k, s), v in bench.seconds.items()},
                      "raw": {f"{k}.{s}": v for (k, s), v in bench.raw.items()}}))
    return finish(judge, metrics)


# ---------------------------------------------------------------------------
# traced run


def _span(phases: dict, phase: str, name: str, part: str) -> float | int | None:
    """A span's calls or seconds; None when the hook is absent, 0 when the
    phase did not run."""
    if phase not in phases:
        return 0
    span = phases[phase]["spans"].get(name)
    return None if span is None else span[part]


def _plus(*values):
    return None if any(v is None for v in values) else sum(values)


def _minus(a, *rest):
    if a is None or any(b is None for b in rest):
        return None
    return a - sum(rest)


def layer_row(key: str, steps: tuple[str, ...], rounds: list[dict],
              plain: dict | None, untraced: float | None,
              proof_texts: list[str]) -> dict:
    """Per-layer metrics of one instance from its ``-O`` rounds, its plain
    round and its untraced check time."""
    phases = rounds[0]["phases"]

    def s(phase, name, part="seconds"):
        return _span(phases, phase, name, part)

    row: dict[str, float | int | None] = {}
    if "check" in steps:
        solve, prop = s("check", "solve"), s("check", "propagate")
        scans = s("check", "acyclic", "calls")
        scan_s = _plus(s("check", "acyclic"), s("check", "shortcut"))
        copy_s = s("check", "copy")
        nodes = s("check", "propagate", "calls")
        row.update({
            "trace.untraced_check_s": untraced,
            "trace.traced_check_s": phases["check"]["run_s"],
            "solver.solve_s": solve,
            "solver.nodes": nodes,
            "solver.propagate_s": prop,
            "solver.rules_s": _minus(prop, scan_s),
            "solver.search_self_s": _minus(solve, prop, copy_s),
            "solver.forces": _minus(scans, nodes),
            "orientations.scans": scans,
            "orientations.scan_s": scan_s,
            "orientations.copies": s("check", "copy", "calls"),
            "orientations.copy_s": copy_s,
            "traces.emit_s": s("check", "emit"),
        })
        if plain is not None:
            row["solver.solve_plain_s"] = _span(plain["phases"], "check", "solve", "seconds")
            row["solver.selfcheck_s"] = _span(plain["phases"], "check", "selfcheck", "seconds")
    if "verify" in steps:
        row["traces.parse_s"] = s("verify", "parse")
        row["traces.verify_s"] = s("verify", "verify")
    oracle_phase = "oracle" if "oracle" in steps else "pure" if "pure" in steps else None
    if oracle_phase:
        total, leaf = s(oracle_phase, "oracle"), s(oracle_phase, "leaf")
        out = _json(phases.get(oracle_phase, {}).get("stdout", "")) or {}
        row.update({
            "orientations.oracle_s": total,
            "orientations.oracle_leaves": out.get("examined"),
            "orientations.leaf_check_s": leaf,
            "orientations.oracle_self_s": _minus(total, leaf),
        })
    if "check" in steps and KNOWN[key][0] == NEGATIVE:
        lines, orients, branches = proof_counts(proof_texts[0])
        row.update({"traces.proof_lines": lines, "traces.orient_steps": orients,
                    "traces.branch_steps": branches})
    inner = {"check": ("solve", "emit"), "verify": ("parse", "verify"),
             "oracle": ("oracle",)}
    cli_self = 0.0
    for phase, names in inner.items():
        if phase in phases:
            cli_self = _minus(_plus(cli_self, phases[phase]["run_s"]),
                              *(s(phase, n) for n in names))
    row["cli.self_s"] = cli_self
    return row


STABLE_COUNTS = ("solver.nodes", "solver.forces", "orientations.copies",
                 "orientations.oracle_leaves", "traces.proof_lines")


def _rescaled(result: dict, factor: float) -> dict:
    for phase in result["phases"].values():
        phase["run_s"] *= factor
        for span in phase["spans"].values():
            if span is not None:
                span["seconds"] *= factor
    return result


def measure_layers(workload: str, seed: int, work: Path, clock: Clock) -> dict:
    inputs = work / "inputs"
    make_inputs(workload, seed, inputs, work)
    judge = Judge()
    starts = []
    for _ in range(START_REPEATS):
        proc, factor = clock.run(["-c", "import wordrep.cli"], work)
        starts.append(proc.seconds * factor)

    def probe(args: list[str], optimize: bool) -> dict:
        proc, factor = clock.run([str(PROBE), *args], work, optimize)
        result = _json(proc.stdout)
        if proc.code != 0 or result is None:
            raise BenchError(f"probe {' '.join(args)} exited {proc.code}")
        return _rescaled(result, factor) if "phases" in result else {
            name: value * factor for name, value in result.items()}

    rows = {}
    mismatches = 0
    for key, steps in WORKLOADS[workload]:
        graph = graph_path(inputs, key)
        layers = ["layers", "--graph", str(graph), *(f"--phase={p}" for p in steps)]
        if key == "bundled":
            layers += ["--source", BUNDLED_SOURCE]
        untraced = plain = None
        if "check" in steps:
            untraced = probe(["untraced", "--graph", str(graph), "--proof",
                              str(work / f"{key}.untraced.proof")], True)["check_s"]
        rounds, texts = [], []
        for r in range(TRACE_ROUNDS):
            proof = inputs / "bundled.txt" if key == "bundled" else work / f"{key}.r{r}.proof"
            if key != "bundled":
                proof.unlink(missing_ok=True)
            rounds.append(probe([*layers, "--proof", str(proof)], True))
            texts.append(proof.read_text() if proof.is_file() else "")
            judge_round(judge, key, steps, rounds[-1], graph, proof, texts[-1])
        if "check" in steps:
            plain = probe(["layers", "--graph", str(graph), "--phase=check", "--proof",
                           str(work / f"{key}.plain.proof")], False)
        row = layer_row(key, steps, rounds, plain, untraced, texts)
        again = layer_row(key, steps, rounds[1:], plain, untraced, texts[1:])
        for name in STABLE_COUNTS:
            if row.get(name) != again.get(name):
                mismatches += 1
                print(f"non-deterministic {name} on {key}: "
                      f"{row.get(name)} then {again.get(name)}", file=sys.stderr)
        if untraced is not None:
            traced = row["trace.traced_check_s"]
            row["trace.overhead_pct"] = 100 * (traced / untraced - 1)
        rows[key] = row
        print(json.dumps({"workload": workload, "instance": key,
                          "verdict": KNOWN[key][0], **row}))

    metrics: dict[str, tuple[float, str]] = {}
    absent = []
    for name in sorted({name for row in rows.values() for name in row}):
        values = [row[name] for row in rows.values() if name in row]
        if any(v is None for v in values):
            absent.append(name)
        elif name != "trace.overhead_pct":
            metrics[name] = (sum(values), "count" if _is_count(name) else "s")
    traced = metrics["trace.traced_check_s"][0]
    untraced = metrics["trace.untraced_check_s"][0]
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    metrics["cli.start_s"] = (statistics.median(starts), "s")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    if absent:
        print(json.dumps({"absent": absent}))
        print(f"hooks missing, metrics absent: {', '.join(absent)}", file=sys.stderr)
    return finish(judge, metrics)


def _is_count(name: str) -> bool:
    return not name.endswith("_s")


def judge_round(judge: Judge, key: str, steps: tuple[str, ...], result: dict,
                graph: Path, proof: Path, text: str) -> None:
    phases = result["phases"]
    lines = proof_counts(text)[0]
    if "check" in steps:
        done = phases["check"]
        judge.check(key, done["exit"], _json(done["stdout"]), graph, proof)
    if "verify" in steps:
        done = phases.get("verify")
        if done is None:
            judge.record(False, f"verify-trace {key}: no proof to verify")
        else:
            judge.verify(key, done["exit"], _json(done["stdout"]), lines)
    if "oracle" in steps:
        done = phases["oracle"]
        judge.oracle(key, done["exit"], _json(done["stdout"]))
    if "pure" in steps:
        done = phases["pure"]
        edges = len(json.loads(graph.read_text())["edges"])
        judge.pure(key, done["exit"], _json(done["stdout"]), edges)


# ---------------------------------------------------------------------------


def finish(judge: Judge, metrics: dict[str, tuple[float, str]]) -> dict:
    for reason in judge.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    # a stop request unwinds like Ctrl-C, so the running child is killed
    # and reaped and the scratch files are removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "wordrep" / "cli.py").is_file():
        print(f"error: no wordrep sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{ns.workload}-{os.getpid()}"
    work.mkdir()
    try:
        with Clock() as clock:
            if ns.trace:
                result = measure_layers(ns.workload, ns.seed, work, clock)
            else:
                result = measure_end_to_end(ns.workload, ns.seed, ns.seconds, work, clock)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
