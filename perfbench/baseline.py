"""Regenerate the seed-0 baseline table from traced runs of every workload.

    python3 perfbench/baseline.py            # print the table
    python3 perfbench/baseline.py --write    # also rewrite perfbench/baseline.json

Each row is one graph: its known verdict, the exact counts (search nodes,
forced arcs, copy snapshots, proof lines, oracle leaves) and the timings of
its layers, from ``run.py --trace 1 --seed 0``: ``solve()`` under
``python -O`` and under plain ``python``, ``verify_trace`` and the oracle
under ``-O``, all rescaled to the benchmark's fixed machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("refute_deep", "refute_dense", "orient", "oracle")

# The ROADMAP's fixed set of workloads, and where each is measured.  The
# pure oracle on S(2,3) (2^21 leaves, about a minute) is stood in for by
# the pure oracle on W9 (2^18 leaves), which runs the same code.
FIXED_SET = {
    "solve W5": ("refute_dense", "w5"),
    "solve S(2,3)": ("refute_dense", "s23"),
    "solve the bundled 17-vertex witness": ("refute_deep", "witness"),
    "solve S(2,4)": ("refute_dense", "s24"),
    "solve S(2,5)": ("refute_dense", "s25"),
    "solve S(3,3)": ("refute_deep", "s33"),
    "solve S(6,2)": ("orient", "s62"),
    "verify_trace on the bundled proof": ("refute_deep", "bundled"),
    "pruned oracle on S(2,3)": ("oracle", "s23"),
    "pure oracle on S(2,3)": ("oracle", "w9"),
}

COLUMNS = (
    ("nodes", "solver.nodes"),
    ("forces", "solver.forces"),
    ("copies", "orientations.copies"),
    ("proof lines", "traces.proof_lines"),
    ("leaves", "orientations.oracle_leaves"),
    ("solve -O (s)", "solver.solve_s"),
    ("solve plain (s)", "solver.solve_plain_s"),
    ("verify (s)", "traces.verify_s"),
    ("oracle (s)", "orientations.oracle_s"),
)


def collect() -> dict[str, dict]:
    rows: dict[str, dict] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        if not json.loads(lines[-1])["correct"]:
            raise SystemExit(f"{workload}: wrong outputs\n{proc.stderr}")
        for line in lines[:-1]:
            row = json.loads(line)
            if "instance" not in row:
                continue
            merged = rows.setdefault(row["instance"], {"workloads": []})
            merged["workloads"].append(workload)
            for key, value in row.items():
                if key not in ("workload", "instance"):
                    merged.setdefault(key, value)
    return rows


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def table(rows: dict[str, dict]) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        return f"{value:.3f}" if isinstance(value, float) else str(value)

    head = ["graph", "verdict", *(title for title, _ in COLUMNS)]
    out = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for name, row in rows.items():
        cells = [name, row["verdict"], *(cell(row.get(key)) for _, key in COLUMNS)]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite perfbench/baseline.json")
    ns = parser.parse_args()
    rows = collect()
    print(table(rows))
    if ns.write:
        record = {
            "python": platform.python_version(),
            "machine": f"{_cpu_model()}, {os.cpu_count()} cores, {platform.machine()}",
            "fixed_set": {item: {"workload": w, "graph": g}
                          for item, (w, g) in FIXED_SET.items()},
            "graphs": rows,
        }
        (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
