"""Work-count determinism and a held-out seed.

    python3 perfbench/determinism.py [--seed 1] [--held-out-seed 7919]

For every workload: two traced runs on ``--seed`` must report the same work
counts (LPs, tableau cells, facets, orbits, radius evaluations), and one
untraced run on ``--held-out-seed`` must check clean.  The held-out seed is
for confirming a claim after a change was written; do not tune on it.  Runs
last ``run_seconds`` from BENCHMARK.json.  Exits 0 when every check holds.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, invoke

# Work counts that must repeat exactly across runs of one seed.
WORK_COUNTS = ("linprog.calls", "linprog.tableau_cells", "polytope.facets", "bracket.orbits",
               "operators.radius_calls")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out-seed", type=int, default=7919)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        a, b = (invoke(ROOT, w, args.seed, spec["run_seconds"], 1) for _ in range(2))
        counts = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                  for k in WORK_COUNTS}
        same = all(x == y for x, y in counts.values())
        held = invoke(ROOT, w, args.held_out_seed, spec["run_seconds"])
        clean = held["correct"] and held["failed"] == 0
        ok &= same and clean and a["correct"] and b["correct"]
        print(f"{w:14s} counts {'repeat' if same else 'DIFFER'} "
              f"{ {k: v[0] for k, v in counts.items()} }; held-out seed {args.held_out_seed}: "
              f"{held['attempted']} attempted, {held['failed']} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
