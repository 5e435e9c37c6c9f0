"""Compare a parent checkout with a change, in alternating pairs of runs.

    python3 perfbench/compare.py --parent ../parent --change . --workload exact_bracket --pairs 10

Both checkouts must hold identical benchmark files.  Pair j runs seed
``--seed + j`` on both sides; even pairs run the parent first, odd pairs the
change.  For every end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither), and a
verdict by the bounds in BENCHMARK.json:

* gain: the change won at least 9 in 10 pairs and the medians differ by more
  than the parent's quartile spread;
* regression: the change's median is worse than the parent's by more than
  the bound;
* unresolved: the parent's own spread is wider than the bound and the change
  did not beat every parent run;
* no regression: otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import invoke


def verdict(spec, parent, change) -> str:
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > q[2] - q[0]:
        return f"gain ({wins}/{len(parent)} pairs)"
    if sign * (pm - cm) > spec["bound"] * abs(pm):
        return f"regression ({wins}/{len(parent)} pairs won)"
    if (q[2] - q[0]) > spec["bound"] * abs(pm) and not \
            all(sign * (c - p) > 0 for c in change for p in parent):
        return f"unresolved ({wins}/{len(parent)} pairs won)"
    return f"no regression ({wins}/{len(parent)} pairs won)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for j in range(args.pairs):
            order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(invoke(getattr(args, side), workload, args.seed + j,
                                         bench["run_seconds"]))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            print(f"{workload:14s} {name:16s} parent {qp[1]:.4g} [{qp[0]:.4g}, {qp[2]:.4g}]  "
                  f"change {qc[1]:.4g} [{qc[0]:.4g}, {qc[2]:.4g}] {spec['unit']}: "
                  f"{verdict(spec, p, c)}")
        failed = sum(r["failed"] for r in runs["change"]) - sum(r["failed"] for r in runs["parent"])
        print(f"{workload:14s} failed requests, change minus parent: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
