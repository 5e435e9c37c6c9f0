"""Spans at polyindex module boundaries, kept in memory, aggregated per pass.

Each wrap point replaces one name *in the module that imports it*, so
``polyindex.bracket.solve_lp`` and ``polyindex.polytope.solve_lp`` are two
wrappers with two span names.  A name that no longer exists is recorded as
absent and skipped; it is not an error.

Timing rule.  A span on the request thread is measured in wall time.  At
this commit ``lower_bound`` maps its vertex orbits over a thread pool.  A
span opened on a pool thread is measured in that thread's CPU time, because
under the interpreter lock its wall interval also contains the time it waited
for the lock; when no span of its own thread is open, its parent is the
innermost span open on the request thread (``lower_bound``).  Self time is a
span's duration minus the busy time of its children.
"""
from __future__ import annotations

import importlib
import itertools
import json
import threading
import time

# (consumer module, attribute, span name).  The consumer is the module whose
# global is patched, i.e. the caller side of the boundary.  Only call sites
# that a workload reaches are listed.  The CLI does not import ``polar`` at
# the commit that added this benchmark, so that point is reported absent
# until it does.
WRAP_POINTS = (
    ("polyindex.cli", "polytope_from_document", "documents.parse"),
    ("polyindex.cli", "operator_from_document", "documents.parse"),
    ("polyindex.cli", "facet_enumeration", "polytope.facets"),
    ("polyindex.cli", "incidence", "polytope.incidence"),
    ("polyindex.cli", "polar", "dual.polar"),
    ("polyindex.polytope", "validate", "polytope.validate"),
    ("polyindex.polytope", "solve_lp", "linprog.solve"),
    ("polyindex.polytope", "rank", "linalg.rank"),
    ("polyindex.bracket", "facet_antipode_pairs", "polytope.antipode_pairs"),
    ("polyindex.bracket", "lower_bound", "bracket.lower"),
    ("polyindex.bracket", "upper_bound", "bracket.upper"),
    ("polyindex.bracket", "_search_candidates", "bracket.search"),
    ("polyindex.bracket", "solve_lp", "linprog.solve"),
    ("polyindex.bracket", "rank", "linalg.rank"),
    ("polyindex.bracket", "operator_norm", "operators.norm"),
    ("polyindex.bracket", "numerical_radius", "operators.radius"),
)


def _lp_cells(args, kwargs, result):
    """Rows x columns of the LP's standard form (free variables split, one
    slack per inequality), read from the LinearProgram's shape."""
    lp = args[0] if args else kwargs["lp"]
    n = len(lp.objective)
    free = n if lp.nonneg is None else n - sum(lp.nonneg)
    rows = len(lp.ineq_lhs) + len(lp.eq_lhs)
    return rows * (n + free + len(lp.ineq_lhs))


COUNTERS = {
    "linprog.solve": _lp_cells,
    "polytope.facets": lambda args, kwargs, result: len(result),
    "bracket.lower": lambda args, kwargs, result: len(result[1].entries),
}


class Span:
    __slots__ = ("name", "parent", "pool", "t0", "t1", "c0", "c1", "count")

    def __init__(self, name, parent, pool):
        self.name = name
        self.parent = parent
        self.pool = pool
        self.count = 0

    @property
    def busy(self) -> float:
        return self.c1 - self.c0 if self.pool else self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._request_thread = None
        self._request_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        pool = threading.get_ident() != self._request_thread
        if stack:
            parent = stack[-1]
        elif pool and self._request_stack:
            parent = self._request_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        span = Span(name, parent, pool)
        self.spans[sid] = span
        stack.append(sid)
        span.c0 = time.thread_time() if pool else 0.0
        span.t0 = time.perf_counter()
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time() if span.pool else 0.0
        self._stack().pop()

    def request(self, fn, *args):
        """Run one request as the root span ``cli``."""
        self._request_thread = threading.get_ident()
        self._request_stack = self._stack()
        span = self.open("cli")
        try:
            return fn(*args)
        finally:
            self.close(span)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> dict:
        """Hand over the spans recorded so far and start a fresh set."""
        spans, self.spans = self.spans, {}
        return spans


def layer_metrics(spans: dict, speed: float = 1.0) -> dict:
    """Per-layer totals over one set of spans: counts, and seconds scaled by
    ``speed`` (the host-speed normalisation of the pass they come from)."""
    children = {}
    for sid, s in spans.items():
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def child_busy(sid, names=None):
        return sum(c.busy for c in children.get(sid, ()) if names is None or c.name in names)

    def parent_name(s):
        return spans[s.parent].name if s.parent in spans else None

    m = dict.fromkeys(PER_LAYER_NAMES, 0)
    for sid, s in spans.items():
        n = s.name
        if n == "cli":
            m["cli.self_s"] += s.busy - child_busy(sid)
        elif n == "linprog.solve":
            m["linprog.calls"] += 1
            m["linprog.solve_s"] += s.busy
            m["linprog.tableau_cells"] += s.count
            scope = {"bracket.lower": "lower", "polytope.validate": "validate"}.get(parent_name(s))
            if scope:
                m[f"linprog.{scope}.calls"] += 1
                m[f"linprog.{scope}.solve_s"] += s.busy
        elif n == "polytope.validate":
            m["polytope.validate_s"] += s.busy
        elif n == "polytope.facets":
            m["polytope.facets_s"] += s.busy - child_busy(sid, ("polytope.validate",))
            m["polytope.facets"] += s.count
        elif n == "polytope.incidence":
            m["polytope.incidence_s"] += s.busy
        elif n == "polytope.antipode_pairs":
            m["polytope.antipode_pairs_calls"] += 1
            m["polytope.antipode_pairs_s"] += s.busy
        elif n == "bracket.lower":
            m["bracket.orbits"] += s.count
            m["bracket.lower_s"] += s.busy
            m["bracket.lower_self_s"] += s.busy - child_busy(sid)
        elif n == "bracket.upper":
            m["bracket.upper_s"] += s.busy
        elif n == "bracket.search":
            m["bracket.search_s"] += s.busy
            # Each evaluation of the search objective whose operator has a
            # nonzero norm takes one numerical radius.
            m["bracket.search_evals"] += sum(
                1 for c in children.get(sid, ()) if c.name == "operators.radius")
        elif n == "operators.norm":
            m["operators.norm_calls"] += 1
            m["operators.norm_s"] += s.busy
        elif n == "operators.radius":
            m["operators.radius_calls"] += 1
            m["operators.radius_s"] += s.busy
        elif n == "linalg.rank":
            m["linalg.rank_calls"] += 1
            m["linalg.rank_s"] += s.busy
        elif n == "dual.polar":
            m["dual.polar_s"] += s.busy
        elif n == "documents.parse":
            m["documents.parse_s"] += s.busy
    for k in m:
        if k.endswith("_s"):
            m[k] *= speed
    return m


PER_LAYER_NAMES = (
    "linprog.calls", "linprog.solve_s", "linprog.tableau_cells",
    "linprog.lower.calls", "linprog.lower.solve_s",
    "linprog.validate.calls", "linprog.validate.solve_s",
    "polytope.validate_s", "polytope.facets_s", "polytope.facets", "polytope.incidence_s",
    "polytope.antipode_pairs_calls", "polytope.antipode_pairs_s",
    "bracket.orbits", "bracket.lower_s", "bracket.lower_self_s", "bracket.upper_s",
    "bracket.search_s", "bracket.search_evals",
    "operators.norm_calls", "operators.norm_s", "operators.radius_calls", "operators.radius_s",
    "linalg.rank_calls", "linalg.rank_s",
    "dual.polar_s", "documents.parse_s", "cli.self_s",
)


def write_spans(path, spans: dict):
    """Write spans as JSON lines: id, name, parent, start, end, busy seconds."""
    with open(path, "w") as fh:
        for sid in sorted(spans):
            s = spans[sid]
            fh.write(json.dumps({"id": sid, "name": s.name, "parent": s.parent,
                                 "start": s.t0, "end": s.t1, "busy": s.busy,
                                 "pool_thread": s.pool}) + "\n")
