"""Benchmark of the polyindex command line.

    python3 perfbench/run.py --workload exact_bracket --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, seed 1, run_seconds

Builds the workload's requests from the seed, drives ``polyindex.cli.main``
in-process with one client in a closed loop, checks every answer outside
the timed region, and prints as its last line one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Without ``--workload`` it runs every workload in turn and
the last line carries all their metrics, named ``<workload>.<metric>``.
Metric names, units and the default run length come from BENCHMARK.json.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_SAMPLES = 13         # fresh interpreters set up; the median is setup_s
TIMEOUT_S = 170
# The highest percentile with at least ten samples beyond it at run_seconds on
# this commit, fixed per workload so that runs stay comparable.  On a slow
# stretch of the host a run goes on past run_seconds until it has those ten.
TAIL_PERCENTILE = {"exact_bracket": 85, "float_bracket": 85, "search": 85, "hull": 80}
TAIL_SAMPLES = 10


def invoke(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """Run the benchmark of ``checkout`` on one workload in a child process;
    returns its result line.  Used by compare.py and determinism.py."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _spawn(args) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)


def _until_ready(proc: subprocess.Popen) -> tuple:
    """The set-up time the workload process reports, (normalised, raw)."""
    words = proc.stdout.readline().split()
    if len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"workload process did not start (exit code {proc.wait()})")
    return float(words[1]), float(words[2])


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def measure(workload, seed, seconds, trace, spans) -> tuple:
    """Run the set-up probes and the workload process; returns (set-up
    samples as (normalised, raw) pairs, the process's result)."""
    worker_args = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = _spawn(worker_args + ["--seconds", "0", "--setup-only"])
        try:
            setups.append(_until_ready(proc))
        finally:
            _finish(proc)
    extra = ["--spans", spans] if spans else []
    min_requests = math.ceil(TAIL_SAMPLES * 100 / (100 - TAIL_PERCENTILE[workload]))
    proc = _spawn(worker_args + ["--seconds", str(seconds), "--trace", str(trace),
                                 "--min-requests", str(min_requests)] + extra)
    try:
        setups.append(_until_ready(proc))
    finally:
        out = _finish(proc)
    return setups, json.loads(out.splitlines()[-1])


def check(requests, result) -> tuple:
    """Per-request verdicts; returns (ok flags, {request index: problems})."""
    import oracle
    orc = oracle.Oracle()
    verdicts, failures = {}, {}
    ok = []
    for i, _, rc, oid, _ in result["records"]:
        if (i, oid) not in verdicts:
            text = result["outputs"][oid]
            req = requests[i]
            if rc != 0:
                problems = [f"exit code {rc}: " + text.strip().splitlines()[-1]]
            else:
                vertices = req.expect.get("vertices")
                if vertices is None and req.stdin:
                    vertices = json.loads(req.stdin)["vertices"]
                try:
                    problems = orc.check(req.expect, json.loads(text)["results"], vertices)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems = [f"malformed report: {exc!r}"]
            verdicts[i, oid] = not problems
            if problems:
                failures.setdefault(i, problems)
        ok.append(verdicts[i, oid])
    return ok, failures


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * p // 100) - 1)]


def run_workload(spec, workload, seed, seconds, trace, spans=None) -> dict:
    """One workload: measure, check, print the readable lines; returns the
    result object (correct, attempted, failed, metrics)."""
    import workloads
    setups, result = measure(workload, seed, seconds, trace, spans)
    passes = workloads.build(workload, seed)
    requests = [req for p in passes for req in p]
    ok, failures = check(requests, result)
    attempted, failed = len(ok), ok.count(False)

    latencies = [r[4] for r in result["records"]]
    print(f"workload {workload}, seed {seed}: {len(passes[0])} requests per pass, "
          f"{attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.4g})")
    for i, problems in sorted(failures.items()):
        print(f"  FAILED {requests[i].name}: {'; '.join(problems[:3])}")

    if trace:
        values = dict(result["layers"])
        values["trace.overhead_ratio"] = result["untraced_rps"] / result["traced_rps"]
        kind = "per_layer"
        print(f"traced passes: {result['traced_passes']}; per-layer values are those of "
              "the first traced pass")
        if result["absent"]:
            print(f"absent wrap points (reported as 0): {', '.join(result['absent'])}")
    else:
        p = TAIL_PERCENTILE[workload]
        beyond = sum(1 for x in latencies if x > percentile(latencies, p))
        values = {
            "throughput_rps": ok.count(True) / result["busy_s"],
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": percentile(latencies, p),
            "correct_ratio": ok.count(True) / attempted,
            "setup_s": statistics.median(s[0] for s in setups),
            "rss_peak_mb": result["rss_peak_mb"],
        }
        kind = "end_to_end"
        print(f"latency_tail_s is p{p} of {len(latencies)} samples, {beyond} beyond it; "
              f"unnormalised p50 {statistics.median(r[1] for r in result['records']):.4g} s, "
              f"setup {statistics.median(s[1] for s in setups):.4g} s")
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(TAIL_PERCENTILE),
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="traced run of one workload: also write the spans of "
                                    "the first traced pass to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyindex" / "__init__.py").is_file():
        print(f"error: no polyindex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace,
                                         args.spans if args.workload else None)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
