"""Answer checks that share no code with polyindex.

Facets of a rational ball come from qhull's float hull (scipy), made exact
by solving ``f . v = 1`` in Fractions on each hull simplex and confirming
``f . v <= 1`` for every vertex.  The lower bound is re-solved as float LPs
with scipy's HiGHS.  Each check returns a list of problems; empty means
the answer is right.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

FLOAT_TOL = 1e-7


def exact(x) -> Fraction:
    return Fraction(x)  # ints and "p/q" strings, as documents write them


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _solve(rows, rhs):
    """Exact Gaussian elimination; None when singular."""
    d = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(d):
        piv = next((i for i in range(col, d) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(d):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][d] for i in range(d))


class Ball:
    """A rational ball's exact facets and incidence, computed independently."""

    def __init__(self, vertices):
        self.vertices = [tuple(exact(x) for x in v) for v in vertices]
        d = len(self.vertices[0])
        if d == 1:
            simplices = [[i] for i in range(len(self.vertices))]
        else:
            simplices = ConvexHull(np.array(self.vertices, dtype=float)).simplices
        facets = set()
        for simplex in simplices:
            f = _solve([self.vertices[i] for i in simplex], [1] * d)
            if f is not None:
                facets.add(f)
        self.facets = sorted(facets)
        self.valid = all(_dot(f, v) <= 1 for f in self.facets for v in self.vertices)
        self.incident = [[k for k, f in enumerate(self.facets) if _dot(f, v) == 1]
                         for v in self.vertices]

    def gauge(self, x):
        return max(abs(_dot(f, x)) for f in self.facets)

    def highs_lower_bound(self) -> float:
        """min over vertices of the per-vertex min-max, each facet LP solved by HiGHS."""
        fl = [[float(c) for c in f] for f in self.facets]
        vl = np.array(self.vertices, dtype=float)
        members = [[j for j, v in enumerate(self.vertices) if _dot(f, v) == 1]
                   for f in self.facets]
        half = [k for k, f in enumerate(self.facets) if f > tuple(-c for c in f)]
        best = math.inf
        for i, v in enumerate(self.vertices):
            if v < tuple(-x for x in v):
                continue  # -v has the same bound
            funcs = np.array([fl[k] for k in self.incident[i]])
            for k in half:
                action = funcs @ vl[members[k]].T          # rows: functionals, cols: facet vertices
                n = action.shape[1]
                ones = -np.ones((action.shape[0], 1))
                a_ub = np.vstack([np.hstack([action, ones]), np.hstack([-action, ones])])
                res = linprog(c=[0.0] * n + [1.0], A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                              A_eq=[[1.0] * n + [0.0]], b_eq=[1.0],
                              bounds=[(0, None)] * n + [(None, None)], method="highs")
                if res.status != 0:
                    return math.nan
                best = min(best, res.fun)
        return best


class Oracle:
    def __init__(self):
        self._balls = {}

    def ball(self, vertices) -> Ball:
        key = tuple(tuple(str(x) for x in v) for v in vertices)
        if key not in self._balls:
            self._balls[key] = Ball(vertices)
        return self._balls[key]

    def check(self, expect: dict, results: dict, vertices) -> list:
        kind = expect["check"]
        if kind == "bracket_float":
            return _check_float(expect, results)
        ball = self.ball(vertices)
        if not ball.valid:
            return ["oracle: qhull facets failed the exact check"]
        if kind in ("bracket_rational", "search_rational"):
            return _check_rational(ball, expect, results, with_lp=kind == "bracket_rational")
        if kind == "hull":
            return _check_hull(ball, results)
        if kind == "dual":
            return _same_set("dual vertices", results["vertices"], ball.facets)
        if kind == "bipolar":
            return _same_set("bipolar vertices", results["vertices"], ball.vertices)
        return [f"unknown check {kind!r}"]


def _same_set(what, got_json, want) -> list:
    got = {tuple(exact(x) for x in v) for v in got_json}
    if got != set(want) or len(got_json) != len(want):
        return [f"{what}: {len(got_json)} returned, {len(got & set(want))} of {len(want)} match"]
    return []


def _check_float(expect, r) -> list:
    want = expect["value"]
    problems = [f"{key} {r[key]} differs from {want:.12g}" for key in ("lower", "upper")
                if not abs(r[key] - want) <= FLOAT_TOL]
    if r["status"] != "tight":
        problems.append(f"status {r['status']} is not tight")
    return problems


def _check_rational(ball: Ball, expect, r, with_lp: bool) -> list:
    problems = []
    lower, upper = exact(r["lower"]), exact(r["upper"])
    for key in ("lower", "upper"):
        if key in expect and exact(r[key]) != exact(expect[key]):
            problems.append(f"{key} {r[key]} != {expect[key]}")
    if "status" in expect and r["status"] != expect["status"]:
        problems.append(f"status {r['status']} != {expect['status']}")
    if r["status"] != ("tight" if lower == upper else "gap"):
        problems.append(f"status {r['status']} with lower {r['lower']}, upper {r['upper']}")
    if not lower <= upper <= 1:
        problems.append(f"bracket [{r['lower']}, {r['upper']}] is not inside [lower, 1]")

    # Vertex bounds: one entry per antipodal orbit, each minimizer on the
    # sphere and attaining its value exactly.
    covered, values = [], []
    for e in r["vertex_bounds"]:
        i, value = e["vertex"], exact(e["value"])
        values.append(value)
        covered += [i, e["antipode"]]
        if ball.vertices[e["antipode"]] != tuple(-x for x in ball.vertices[i]):
            problems.append(f"vertex {i}: antipode {e['antipode']} is not -v")
        if list(e["functionals"]) != ball.incident[i]:
            problems.append(f"vertex {i}: functionals {e['functionals']} != {ball.incident[i]}")
            continue
        x = tuple(exact(c) for c in e["minimizer"])
        if ball.gauge(x) != 1:
            problems.append(f"vertex {i}: minimizer has norm {ball.gauge(x)}, not 1")
        attained = max(abs(_dot(ball.facets[k], x)) for k in e["functionals"])
        if attained != value:
            problems.append(f"vertex {i}: minimizer attains {attained}, reported {value}")
    if sorted(covered) != list(range(len(ball.vertices))):
        problems.append("vertex bounds do not cover each vertex orbit once")
    if values and min(values) != lower:
        problems.append(f"lower {lower} is not the least vertex bound {min(values)}")
    if with_lp:
        ref = ball.highs_lower_bound()
        if not abs(float(lower) - ref) <= FLOAT_TOL * max(1.0, abs(ref)):
            problems.append(f"lower {float(lower):.12g} differs from HiGHS {ref:.12g}")

    # Witness: normalised to norm exactly 1, its radius is the upper bound,
    # and the certificate names an incident pair attaining it.
    w = [[exact(x) for x in row] for row in r["witness"]["matrix"]]
    images = [tuple(_dot(row, v) for row in w) for v in ball.vertices]
    norm = max(ball.gauge(tv) for tv in images)
    if norm != 1:
        problems.append(f"witness norm {norm} != 1")
    radius = max(abs(_dot(ball.facets[k], images[i]))
                 for i in range(len(images)) for k in ball.incident[i])
    if radius != upper:
        problems.append(f"witness radius {radius} != upper {upper}")
    c = r["radius_certificate"]
    i, k = c["vertex"], c["facet"]
    if k not in ball.incident[i] or abs(_dot(ball.facets[k], images[i])) != upper \
            or exact(c["value"]) != upper:
        problems.append(f"radius certificate (vertex {i}, facet {k}) does not attain {upper}")
    return problems


def _check_hull(ball: Ball, r) -> list:
    problems = _same_set("facets", r["facets"], ball.facets)
    if problems:
        return problems
    facets = [tuple(exact(x) for x in f) for f in r["facets"]]
    if r["facet_count"] != len(facets):
        problems.append(f"facet_count {r['facet_count']} != {len(facets)}")
    for i, ks in enumerate(r["vertex_to_facets"]):
        if sorted(facets[k] for k in ks) != [ball.facets[k] for k in ball.incident[i]]:
            problems.append(f"vertex {i}: wrong incident facets")
    for k, js in enumerate(r["facet_to_vertices"]):
        want = [j for j, v in enumerate(ball.vertices) if _dot(facets[k], v) == 1]
        if list(js) != want:
            problems.append(f"facet {k}: wrong incident vertices")
    return problems
