"""The reproduction pipeline behind ``wordrep repro``.

Four stages re-derive the paper's small results, each with its own check:
verified 3-colorings of S(n,2) for n = 1..10; the solver's verdicts on W5
and S(2,3), each with a verified proof and confirmed by the exhaustive
oracle; the bundled 17-vertex proof, verified, embedded in S(3,3) and
re-derived by the solver; and solver/oracle agreement on sampled random
graphs.  Only the ``repro`` subcommand imports this module.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .coloring import color_s_n_2
from .debruijn import build_simplified
from .graphs import LabeledGraph, build_wheel, induced_subgraph, is_proper_coloring
from .orientations import brute_force_semitransitive
from .solver import NonSemiTransitive, SemiTransitive, solve
from .subiso import find_induced_embedding
from .traces import extract_graph, load_witness_trace, verify_trace

__all__ = ["stages"]


def stages(seed: int, samples: int, jobs: int) -> Iterator[tuple[str, bool, dict]]:
    """Run the stages in order, yielding (name, passed, detail) after each.

    ``jobs`` worker processes share the coloring stage; ``seed`` and
    ``samples`` drive the sampled stage.
    """
    yield ("3-coloring S(n,2) for n=1..10", *_stage_colorings(jobs))
    yield ("W5 and S(2,3) verdicts", *_stage_small_witnesses())
    yield ("bundled 17-vertex proof", *_stage_bundled_trace())
    yield ("sampled solver/oracle agreement", *_stage_sampled(seed, samples))


def _coloring(n: int) -> dict:
    s, colors = color_s_n_2(n)
    return {
        "n": n,
        "vertices": s.graph.n,
        "proper": is_proper_coloring(s.graph, colors),
    }


def _stage_colorings(jobs: int) -> tuple[bool, dict]:
    ns = range(1, 11)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_coloring, ns))
    else:
        rows = [_coloring(n) for n in ns]
    return all(r["proper"] for r in rows), {"instances": rows}


def _stage_small_witnesses() -> tuple[bool, dict]:
    detail = {}
    ok = True
    for name, g in (("W5", build_wheel(5)), ("S(2,3)", build_simplified(2, 3).graph)):
        verdict = solve(g)
        negative = isinstance(verdict, NonSemiTransitive)
        certified = negative and verify_trace(g, verdict.trace).accepted
        oracle = brute_force_semitransitive(g).verdict == "notexists"
        detail[name] = {
            "solver": "not-semi-transitive" if negative else "other",
            "trace_verified": certified,
            "oracle": "notexists" if oracle else "other",
        }
        ok = ok and negative and certified and oracle
    return ok, detail


def _stage_bundled_trace() -> tuple[bool, dict]:
    trace = load_witness_trace()
    witness = extract_graph(trace)
    verified = verify_trace(witness, trace).accepted

    s33 = build_simplified(3, 3).graph
    embedding = find_induced_embedding(witness, s33, {"1": "102", "2": "210"})
    embedded = embedding is not None

    reverified = False
    if embedded:
        image = induced_subgraph(s33, set(embedding.mapping))
        back = {host: pat for pat, host in embedding.as_label_map().items()}
        relabeled = LabeledGraph(
            [back[label] for label in image.labels], image.edge_list()
        )
        reverified = verify_trace(relabeled, trace).accepted

    verdict = solve(witness)
    solved = isinstance(verdict, NonSemiTransitive)
    resolved = solved and verify_trace(witness, verdict.trace).accepted

    detail = {
        "lines": len(trace.lines),
        "vertices": witness.n,
        "trace_verified": verified,
        "embedded_in_s33": embedded,
        "reverified_against_image": reverified,
        "solver_agrees": resolved,
    }
    return verified and embedded and reverified and resolved, detail


def _stage_sampled(seed: int, samples: int) -> tuple[bool, dict]:
    rng = random.Random(seed)
    agree = 0
    for _ in range(samples):
        n = rng.choice((5, 6))
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        g = LabeledGraph([str(v) for v in range(n)], edges)
        positive = isinstance(solve(g), SemiTransitive)
        expected = brute_force_semitransitive(g).verdict == "exists"
        if positive == expected:
            agree += 1
    return agree == samples, {"samples": samples, "agreed": agree}
