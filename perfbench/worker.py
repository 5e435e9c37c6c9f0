"""One workload process: set up, then drive ``polyindex.cli.main`` in a closed loop.

Started by run.py, never by hand.  It prints ``ready`` once the requests
are built, runs whole passes over the requests until ``--seconds`` have
elapsed, and prints one JSON line with every request's latency, exit code
and output.  Checking the outputs is left to run.py, so nothing here
competes with the timed loop.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced.

The "ready" line carries the set-up time, normalised and raw.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

# Set-up is timed from here, before polyindex is imported, to the "ready"
# line, and normalised by the reference kernel timed just before and after.
KERNEL_BEFORE_SET_UP = speed.kernel_seconds()
SET_UP_FROM = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyindex import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _chained_input(source_output: str, source_stdin: str) -> str:
    """Document for a request that reads an earlier request's output: the
    ``dual`` report's vertices as a polytope of the same scalar kind."""
    try:
        results = json.loads(source_output)["results"]
    except (ValueError, KeyError, TypeError):
        return ""
    return json.dumps({"dim": results["dim"], "scalar": json.loads(source_stdin)["scalar"],
                       "vertices": results["vertices"]})


class Loop:
    """Runs passes in order, cycling through the prebuilt ones."""

    def __init__(self, passes):
        self.passes = passes
        self.offsets = [sum(len(p) for p in passes[:k]) for k in range(len(passes))]
        self.next_pass = 0
        self.records = []     # [request index, wall s, exit code, output id, normalised s]
        self.outputs = {}     # output text -> id
        self.pass_speed = []  # per pass: normalised time / wall time of its requests

    def _one(self, req, stdin, call):
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(cli.main, req.argv + ["-i", "-"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
        sys.stdin = sys.__stdin__
        text = out.getvalue() if rc == 0 else "error:\n" + err.getvalue()
        return latency, rc, text

    def run(self, seconds, call=lambda fn, argv: fn(argv), after_pass=None, min_requests=0):
        """Whole passes until ``seconds`` have elapsed and at least
        ``min_requests`` requests are done; returns (requests, normalised
        seconds spent in them)."""
        start, done, total = time.perf_counter(), 0, 0.0
        kernel = speed.kernel_seconds()
        while True:
            k = self.next_pass % len(self.passes)
            self.next_pass += 1
            requests, texts, wall, norm = self.passes[k], [], 0.0, 0.0
            for i, req in enumerate(requests):
                stdin = req.stdin
                if req.chain_from >= 0:
                    stdin = _chained_input(texts[req.chain_from], requests[req.chain_from].stdin)
                latency, rc, text = self._one(req, stdin, call)
                kernel, before = speed.kernel_seconds(), kernel
                normalised = speed.normalise(latency, before, kernel)
                texts.append(text)
                oid = self.outputs.setdefault(text, len(self.outputs))
                self.records.append([self.offsets[k] + i, latency, rc, oid, normalised])
                wall += latency
                norm += normalised
            done += len(requests)
            total += norm
            self.pass_speed.append(norm / wall)
            if after_pass is not None:
                after_pass()
            if time.perf_counter() - start >= seconds and done >= min_requests:
                return done, total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-requests", type=int, default=0,
                    help="untraced run: keep going past --seconds until this many are done")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = ap.parse_args()

    loop = Loop(workloads.build(args.workload, args.seed))
    set_up = time.perf_counter() - SET_UP_FROM
    kernel = speed.kernel_seconds()
    print(f"ready {speed.normalise(set_up, KERNEL_BEFORE_SET_UP, kernel)!r} {set_up!r}", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if not args.trace:
        n, busy = loop.run(args.seconds, min_requests=args.min_requests)
        result.update(requests=n, busy_s=busy,
                      rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        n, busy = loop.run(args.seconds / 2)
        loop.next_pass = 0  # the traced passes start from the first, for repeatable counts
        tracer = tracing.Tracer()
        passes = []
        tracer.install()
        try:
            nt, busy_t = loop.run(args.seconds / 2, call=tracer.request,
                                  after_pass=lambda: passes.append(tracer.take()))
        finally:
            tracer.uninstall()
        # Counts and times both come from the first traced pass, which is the
        # same pass in every run of a seed; the later ones only serve the
        # traced throughput.
        first = passes[0]
        result.update(
            layers=tracing.layer_metrics(first, loop.pass_speed[-len(passes)]),
            untraced_rps=n / busy, traced_rps=nt / busy_t, traced_passes=len(passes),
            absent=tracer.absent)
        if args.spans:
            tracing.write_spans(args.spans, first)
    result.update(records=loop.records,
                  outputs=sorted(loop.outputs, key=loop.outputs.get))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
