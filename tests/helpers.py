"""Independent oracles and random-instance generators for the test suite.

The facet oracle here deliberately re-implements hyperplane finding from
scratch (brute force over all d-subsets of vertices, with its own tiny
Gaussian solver) so it shares no code path with the library's incremental
enumeration.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction


def _solve_small(rows, rhs):
    """Gaussian elimination for the oracle; returns None when singular.

    Exact if fed Fractions, float otherwise.
    """
    d = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    exact = all(isinstance(x, (int, Fraction)) for r in rows for x in r)
    tol = 0 if exact else 1e-12
    for col in range(d):
        piv = None
        for i in range(col, d):
            if abs(a[i][col]) > tol:
                piv = i
                break
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


def brute_force_facets(vertices, tol=0.0):
    """All supporting hyperplanes {f . v = 1}: try every d-subset of
    vertices, keep the functionals with every vertex on the f <= 1 side
    and at least d tight vertices. Returns a sorted list of coefficient
    tuples (exact for rational input)."""
    vertices = [tuple(v) for v in vertices]
    d = len(vertices[0])
    found = []
    for subset in itertools.combinations(range(len(vertices)), d):
        rows = [vertices[i] for i in subset]
        f = _solve_small(rows, [1] * d)
        if f is None:
            continue
        vals = [sum(c * x for c, x in zip(f, v)) for v in vertices]
        if all(val <= 1 + tol for val in vals):
            if not any(all(abs(a - b) <= max(tol, 1e-12) for a, b in zip(f, g)) for g in found):
                found.append(tuple(f))
    return sorted(found)


def vertex_set(p):
    return frozenset(tuple(v) for v in p.vertices)


def random_symmetric_polytope(rng, dim, n_pairs, bound=5, cls=None):
    """Hull of random integer points and their antipodes, stripped to its
    extreme points; resamples until full-dimensional and valid."""
    from polyindex import Polytope, validate
    import warnings
    cls = cls or Polytope
    while True:
        pts = []
        for _ in range(n_pairs):
            v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
            if all(x == 0 for x in v):
                continue
            pts.append(v)
            pts.append(tuple(-x for x in v))
        if len(pts) < 2 * dim:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = cls(pts, backend="rational", permissive=True)
        if len(p.vertices) >= 2 * dim and validate(p).ok:
            return p


def scaled_random_polytope(d):
    """A random ball with one rational scale per coordinate: many facet and
    vertex denominators, and facets whose vertices differ in denominator."""
    from polyindex import Polytope
    rng = random.Random(d)
    ball = random_symmetric_polytope(rng, d, 8)
    scales = [Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(d)]
    return Polytope([[x * s for x, s in zip(v, scales)] for v in ball.vertices])


def random_rational_matrix(rng, d, bound=4, denom=3):
    return [[Fraction(rng.randint(-bound, bound), rng.randint(1, denom)) for _ in range(d)]
            for _ in range(d)]


def boundary_minimax_2d(polygon, functionals, n_points):
    """Sampling oracle for 2-D per-vertex bounds: distribute n_points over
    the polygon's edges (in vertex-adjacency order) and return the minimum
    over samples of max_r |f_r(x)|."""
    import numpy as np
    verts = np.array([[float(x) for x in v] for v in polygon.vertices])
    funcs = np.array([[float(c) for c in f] for f in functionals])
    order = np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))
    ring = verts[order]
    k = len(ring)
    per_edge = max(n_points // k, 2)
    best = math.inf
    for i in range(k):
        a, b = ring[i], ring[(i + 1) % k]
        t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        vals = np.abs(pts @ funcs.T).max(axis=1)
        best = min(best, float(vals.min()))
    return best


def reference_rank(rows):
    """Rank by Gauss-Jordan elimination on Fractions, the first nonzero
    entry of each column as pivot."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def reference_parse_rational(text):
    """A rational literal read by ``Fraction`` alone, as its whole text;
    ``("value", Fraction)`` or ``("error", message)`` with the message
    ``parse_rational`` gives."""
    try:
        return "value", Fraction(text.strip())
    except ZeroDivisionError:
        return "error", f"rational literal has zero denominator: {text!r}"
    except ValueError:
        return "error", f"malformed rational literal: {text!r}"


def reference_float_rank(rows, eps):
    """Rank by Gauss-Jordan elimination on floats: in each column the pivot
    is the first row of largest magnitude above ``eps``; it is divided by
    its pivot entry, and every other row with a nonzero entry in the
    column is eliminated."""
    work = [[float(x) for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        p, mag = None, eps
        for i in range(r, len(work)):
            if abs(work[i][col]) > mag:
                p, mag = i, abs(work[i][col])
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def _reference_pivot(rows, obj, basis, r, c):
    prow = rows[r]
    piv = prow[c]
    nonzero = [j for j, y in enumerate(prow) if y != 0]
    for j in nonzero:
        prow[j] = prow[j] / piv
    for row in rows + [obj]:
        f = row[c]
        if f != 0 and row is not prow:
            for j in nonzero:
                row[j] = row[j] - f * prow[j]
    basis[r] = c


def _reference_simplex(rows, obj, basis, max_pivots):
    for _ in range(max_pivots):
        enter = next((j for j in range(len(obj) - 1) if obj[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return "unbounded"
        _reference_pivot(rows, obj, basis, leave, enter)
    raise AssertionError("reference simplex exceeded its pivot budget")


def reference_solve_lp(lp):
    """The simplex of ``polyindex.linprog`` with every tableau entry a
    Fraction: the same slack basis and Bland's rule, but each pivot divides
    the pivot row by the pivot. Takes inequality rows with b >= 0 only.
    Returns an ``LPSolution`` to compare field by field."""
    from polyindex.linprog import LPSolution
    assert not lp.eq_lhs and all(Fraction(b) >= 0 for b in lp.ineq_rhs), lp
    n = lp.n_vars
    nonneg = lp.nonneg or (False,) * n
    zero, one = Fraction(0), Fraction(1)
    col_of_plus, col_of_minus, ncols = [], [], 0
    for j in range(n):
        col_of_plus.append(ncols)
        col_of_minus.append(None if nonneg[j] else ncols + 1)
        ncols += 1 if nonneg[j] else 2
    n_struct = ncols
    width = n_struct + len(lp.ineq_lhs)

    def expand(coeffs):
        row = [zero] * (width + 1)
        for j, a in enumerate(coeffs):
            row[col_of_plus[j]] = Fraction(a)
            if col_of_minus[j] is not None:
                row[col_of_minus[j]] = -Fraction(a)
        return row

    rows = []
    for i, (coeffs, rhs) in enumerate(zip(lp.ineq_lhs, lp.ineq_rhs)):
        row = expand(coeffs)
        row[n_struct + i], row[-1] = one, Fraction(rhs)
        rows.append(row)
    basis = list(range(n_struct, width))
    max_pivots = 40 * (width + 1) * (len(rows) + 1) + 1000
    if _reference_simplex(rows, expand(lp.objective), basis, max_pivots) == "unbounded":
        return LPSolution(status="unbounded")
    values = {b: rows[i][-1] for i, b in enumerate(basis)}
    point = []
    for j in range(n):
        x = values.get(col_of_plus[j], zero)
        if col_of_minus[j] is not None:
            x = x - values.get(col_of_minus[j], zero)
        point.append(x)
    point = tuple(point)
    value = sum(Fraction(c) * x for c, x in zip(lp.objective, point))
    return LPSolution(status="optimal", value=value, point=point, basis=tuple(sorted(basis)))


def _reference_normalize_ray(ray):
    denom = 1
    for x in ray:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = [int(x * denom) for x in ray]
    g = 0
    for n in ints:
        g = math.gcd(g, abs(n))
    if g == 0:
        return ray
    scale = Fraction(denom) / g
    return tuple(x * scale for x in ray)


def _reference_normalize_float_ray(ray):
    m = max(abs(x) for x in ray)
    return ray if m == 0 else tuple(x / m for x in ray)


def reference_double_description(rows, k, ctx=None):
    """The double description of ``polyindex.polytope`` written plainly:
    the same insertion order, lineality pivot and adjacency test, but every
    (plus, minus) pair goes to the zero-set scan and every product is taken
    by its own dot.

    By default every entry is a Fraction, each projection divides by
    ``a . l0`` and each ray is normalized by rescaling its Fractions. With
    a float ``ctx`` every entry is a float, signs are ``ctx.sign`` and each
    ray is divided by its largest magnitude, as the library's float backend
    does. Returns ``(rays, lineality)`` to compare."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    if ctx is None:
        scalar, normalize = Fraction, _reference_normalize_ray

        def sign(x):
            return (x > 0) - (x < 0)
    else:
        scalar, normalize, sign = float, _reference_normalize_float_ray, ctx.sign

    rows = [tuple(map(scalar, row)) for row in rows]
    lineality = [tuple(scalar(int(i == j)) for i in range(k)) for j in range(k)]
    rays = []
    for idx, a in enumerate(rows):
        if lineality:
            pivot = next((pos for pos, l in enumerate(lineality) if sign(dot(a, l)) != 0), None)
            if pivot is not None:
                l0 = lineality[pivot]
                if sign(dot(a, l0)) < 0:
                    l0 = tuple(-x for x in l0)
                al0 = dot(a, l0)

                def project(y):
                    s = dot(a, y) / al0
                    return tuple(x - z * s for x, z in zip(y, l0))

                lineality = [project(l) for pos, l in enumerate(lineality) if pos != pivot]
                rays = [(normalize(project(r)), zs | {idx}) for r, zs in rays]
                rays.append((normalize(l0), frozenset(range(idx))))
                continue
        plus, zero, minus = [], [], []
        for r, zs in rays:
            s = sign(dot(a, r))
            if s > 0:
                plus.append((r, zs))
            elif s == 0:
                zero.append((r, zs | {idx}))
            else:
                minus.append((r, zs))
        if not minus:
            rays = plus + zero
            continue
        zerosets = [zs for _, zs in rays]
        new = plus + zero
        for rp, zp in plus:
            sp = dot(a, rp)
            for rm, zm in minus:
                common = zp & zm
                if any(common <= zs for zs in zerosets if zs is not zp and zs is not zm):
                    continue
                sm = dot(a, rm)
                combined = tuple(sp * xm - sm * xp for xp, xm in zip(rp, rm))
                new.append((normalize(combined), common | {idx}))
        rays = new
    return rays, lineality


def reference_polar_cone(points, ctx=None):
    """:func:`reference_double_description` of the rows (-v, 1), on
    Fractions or, with a float ``ctx``, on floats."""
    scalar = Fraction if ctx is None else float
    rows = [tuple(-scalar(x) for x in v) + (scalar(1),) for v in points]
    return reference_double_description(rows, len(points[0]) + 1, ctx)


def reference_index_of(points, x, eq=operator.eq):
    """Index of the first point equal to x, by a scan over every point;
    coordinates are compared with ``eq``."""
    for j, w in enumerate(points):
        if all(eq(a, b) for a, b in zip(x, w)):
            return j
    return None


def reference_antipode_map(points, eq=operator.eq):
    return tuple(reference_index_of(points, tuple(-a for a in v), eq) for v in points)


def reference_vertex_flags(points, cone, ctx=None):
    """Whether each point is a vertex of the list, from a cone of
    :func:`reference_polar_cone`: the rays tight at the point and the
    lineality have rank d in their first d coordinates, and the point is
    listed once (found by a scan). With a float ``ctx`` the rank is
    :func:`reference_float_rank` with its tolerance and repeats are found
    with ``ctx.eq``."""
    rays, lineality = cone
    d = len(points[0])
    faces = [[l[:d] for l in lineality] for _ in points]
    for r, zs in rays:
        for i in zs:
            faces[i].append(r[:d])
    if ctx is None:
        flags, eq = [reference_rank(face) == d for face in faces], operator.eq
    else:
        flags, eq = [reference_float_rank(face, ctx.eps) == d for face in faces], ctx.eq
    for i, v in enumerate(points):
        j = reference_index_of(points, v, eq)
        if j != i:
            flags[i] = flags[j] = False
    return flags


def reference_strip(points, ctx=None):
    """What ``Polytope(points, permissive=True)`` keeps, and the warnings it
    gives, with repeats found by a scan: ``(kept points, messages)``. With a
    float ``ctx``, what the float backend keeps with that tolerance."""
    eq = operator.eq if ctx is None else ctx.eq

    def named(i):  # as validation names point i: str of a Fraction, repr of a float
        return f"vertex {i} ({', '.join(map(str if ctx is None else repr, points[i]))})"

    messages, kept, first = [], [], []
    for i, v in enumerate(points):
        if reference_index_of(kept, v, eq) is not None:
            messages.append(f"dropping duplicate {named(i)}")
        else:
            kept.append(v)
            first.append(i)
    extreme = []
    cone = reference_polar_cone(kept, ctx)
    for i, v, is_vertex in zip(first, kept, reference_vertex_flags(kept, cone, ctx)):
        if is_vertex:
            extreme.append(v)
        else:
            messages.append(f"dropping non-extreme {named(i)}")
    return tuple(extreme), messages


def _reference_maxima(p, value):
    """``(norm, profile, radius)`` of :func:`reference_operator_values` from
    ``value(i, k)``, the value |f_k(T v_i)| at vertex i and facet k."""
    from polyindex import facet_enumeration, incidence
    v2f = incidence(p).vertex_to_facets
    n_facets = len(facet_enumeration(p))
    norm, profile = None, []
    for i in range(len(p.vertices)):
        values = [value(i, k) for k in range(n_facets)]
        g = max(values)
        if norm is None or g > norm[0]:
            norm = (g, i)
        best = None
        for k in v2f[i]:
            if best is None or values[k] > best[0]:
                best = (values[k], k)
        profile.append(best)
    radius = None
    for i, (best, k) in enumerate(profile):
        if radius is None or best > radius[0]:
            radius = (best, i, k)
    return norm, tuple(profile), radius


def reference_operator_values(p, matrix):
    """Operator norm, radius profile and numerical radius of ``matrix`` on
    the ball ``p`` by brute force: one ``linalg.dot`` per (vertex, facet)
    pair, exact on Fractions and in the library's float order on floats.

    Returns ``(norm, profile, radius)``: ``norm`` is (value, first vertex
    attaining it), ``profile[i]`` is (max incident value at vertex i, first
    facet attaining it), and ``radius`` is (value, vertex, facet) of the
    first largest profile row.
    """
    from polyindex import facet_enumeration
    from polyindex.linalg import dot, matvec
    facets = [f.coeffs for f in facet_enumeration(p)]
    images = [matvec(matrix, v) for v in p.vertices]
    return _reference_maxima(p, lambda i, k: abs(dot(facets[k], images[i])))


def reference_orbit_pair_values(p, matrix):
    """:func:`reference_operator_values` over one vertex per antipodal orbit
    and one facet per antipodal facet pair: one ``linalg.matvec`` per orbit
    representative (the smaller index of its pair) and one ``linalg.dot``
    per (representative, first facet of a pair). Vertex i and facet k read
    the value of i's representative and k's pair.
    """
    from polyindex import facet_enumeration
    from polyindex.linalg import dot, matvec
    from polyindex.polytope import facet_antipode_pairs
    facets = facet_enumeration(p)
    pairs = facet_antipode_pairs(p)
    pair_of = {k: j for j, pair in enumerate(pairs) for k in pair}
    values = {}
    for i in p.orbit_representatives():
        tv = matvec(matrix, p.vertices[i])
        values[i] = [abs(dot(facets[k].coeffs, tv)) for k, _ in pairs]

    def value(i, k):
        return values[min(i, p.antipode_index(i))][pair_of[k]]

    return _reference_maxima(p, value)


def reference_flat_values(p, matrix):
    """The values :func:`reference_orbit_pair_values` reads, as one flat
    list: entry a * J + j is ``abs(dot(g_j, matvec(matrix, v_a)))`` for
    orbit representative a and the first facet g_j of facet pair j, with
    ``matrix`` as given (Fractions on a rational ball)."""
    from polyindex import facet_enumeration
    from polyindex.linalg import dot, matvec
    from polyindex.polytope import facet_antipode_pairs
    facets = facet_enumeration(p)
    pairs = facet_antipode_pairs(p)
    return [abs(dot(facets[k].coeffs, matvec(matrix, p.vertices[i])))
            for i in p.orbit_representatives() for k, _ in pairs]


def reference_gauge(p, x):
    """max |f(x)| over the facet functionals, one ``linalg.dot`` each."""
    from polyindex import facet_enumeration
    from polyindex.linalg import dot
    return max(abs(dot(f.coeffs, x)) for f in facet_enumeration(p))


def reference_half_table_value(p, matrix):
    """v(T/||T||) of ``matrix`` on the float ball ``p`` from
    :func:`reference_orbit_pair_values`: the numerical radius over the
    norm, or None when the norm is 0 (to eps) or not finite."""
    (norm, _), _, (radius, _, _) = reference_orbit_pair_values(p, matrix)
    if p.ctx.is_zero(norm) or not norm < math.inf:
        return None
    return radius / norm


def exact_copy(op):
    """The rational operator whose entries are the exact values of op's:
    the ``Fraction`` of each float's binary value."""
    from polyindex import Operator
    return Operator([[Fraction(x) for x in row] for row in op.matrix])


def reference_normalized_radius(p, op):
    """(radius certificate, unit operator) of op/||op|| by two evaluations,
    or None when ||op|| is 0: the norm of op, then the numerical radius of
    op scaled by 1 / ||op||."""
    from polyindex import numerical_radius, operator_norm
    norm, _ = operator_norm(p, op)
    if p.ctx.is_zero(norm):
        return None
    unit = op.scale(1 / norm)
    return numerical_radius(p, unit), unit
