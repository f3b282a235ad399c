"""Fixed reference work: the benchmark's yardstick for machine speed.

``run.py`` times ``work()`` every few milliseconds while a measured
process runs and rescales the process's wall time by it, so that changes
in the speed of a shared machine cancel out.  It uses no wordrep code, so
no change to the program can move it.  The work is of the program's kind:
bitmask reachability, tuple-keyed dictionaries, small objects, JSON text.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class _Edge:
    tail: int
    head: int


def work(rounds: int = 2) -> int:
    n = 48
    adj = [(1 << ((v + 1) % n)) | (1 << ((v * 7 + 3) % n)) | (1 << ((v * 13 + 5) % n))
           for v in range(n)]
    total = 0
    for r in range(rounds):
        for s in range(r % 2, n, 2):
            seen, frontier = 1 << s, [s]
            while frontier:
                nxt = []
                for v in frontier:
                    new = adj[v] & ~seen
                    while new:
                        low = new & -new
                        nxt.append(low.bit_length() - 1)
                        seen |= low
                        new ^= low
                frontier = nxt
            total += seen.bit_count()
        index: dict[tuple[int, int], int] = {}
        edges = [_Edge(i % n, (i * 5 + 1) % n) for i in range(300)]
        for e in edges:
            key = (e.tail, e.head) if e.tail < e.head else (e.head, e.tail)
            index[key] = index.get(key, 0) + 1
        total += len(json.dumps(sorted(index.items())))
    return total
