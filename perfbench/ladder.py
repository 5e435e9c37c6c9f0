"""Traced layer times of the ROADMAP baseline instances, one request each.

    python3 perfbench/ladder.py [--repeat 3]

Prints, per instance, the median over the repeats of validate, facets
(double description without its nested validate), lower, the LPs in lower
and the whole request, from the same spans the traced benchmark run uses.
This is the check that the benchmark's layer split agrees with the
ROADMAP's Baseline table; it is not part of the benchmark's metrics.
"""
from __future__ import annotations

import argparse
import statistics
import sys

import tracing
import worker
from workloads import Request, _doc

from polyindex import families


def instances():
    hexagon = families.irregular_hexagon()
    return [
        ("irregular_hexagon (Q)", _doc(hexagon)),
        ("bipyramid_square_prism (Q)", _doc(families.bipyramid_square_prism())),
        ("oblique_prism n=12 l=1/2", _doc(families.oblique_prism(12, 0.5))),
        ("regular_2n_gon n=40", _doc(families.regular_2n_gon(40))),
        ("linf_sum(hexagon, hexagon) (Q)", _doc(families.linf_sum(hexagon, hexagon))),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    columns = ("polytope.validate_s", "polytope.facets_s", "bracket.lower_s",
               "linprog.lower.calls")
    print(f"{'instance':32s} {'validate':>9s} {'facets':>9s} {'lower':>9s} {'LPs':>5s} "
          f"{'request':>9s}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, doc in instances():
            loop = worker.Loop([[Request(name, ["bound"], doc)]])
            runs = []
            for _ in range(args.repeat):
                loop.run(0, call=tracer.request)
                runs.append(tracing.layer_metrics(tracer.take()))
            med = {k: statistics.median(m[k] for m in runs) for k in columns}
            total = statistics.median(r[1] for r in loop.records)
            print(f"{name:32s} {med[columns[0]]:8.3f}s {med[columns[1]]:8.3f}s "
                  f"{med[columns[2]]:8.3f}s {med[columns[3]]:5.0f} {total:8.3f}s")
    finally:
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
