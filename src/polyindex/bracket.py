"""Two-sided brackets on the numerical index.

Lower bound: at every vertex v of the ball, the supporting functionals of
the facets meeting at v pin down every norm-one operator — any T that
attains its norm at v satisfies v(T) >= min over the unit sphere of the
largest |f(x)| among those functionals. Those functionals cut out a
symmetric polytope Q_v, and the ball's norm is convex, so that minimum is
1 / max{||u|| : u a vertex of Q_v}, and no linear program is solved. At a
simple vertex, one on exactly d facets, Q_v is a parallelotope whose edges
run along the ball's own edges at v, so its vertices are written down
from v and its neighbours; at any other vertex one double description per
vertex orbit lists them. Minimizing over antipodal vertex orbits gives a
certified lower bound on the numerical index. A vertex bound rests on
Q_v's vertex list, each vertex with the functionals tight at it, and on
no LP dual.

Upper bound: any nonzero operator T gives n(X) <= v(T) / ||T||. Witness
operators are supplied by the caller (the family generators construct the
sharp ones) and can be supplemented by a seeded derivative-free local
search over matrix entries; the identity (v = 1) is the fallback. Both
v(T) and ||T|| are maxima of the values |g_j(T v_a)| over the ball's
vertex orbits and facet pairs (:func:`operators._orbit_pair_values`), so
each operator is evaluated once, and the search ranks its candidates on
the same values: exactly on rational balls, in floats on float balls. The
identity is written down, with no evaluation: v(I) = ||I|| = 1.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Mapping, Optional, Sequence

from .errors import ComputationError, InputError
from .linalg import column_dots
from .operators import (Operator, RadiusCertificate, _in_ball_arithmetic, _orbit_pair_values,
                        _radius_rows, _table_norm)
from .polytope import (Polytope, _double_description, evaluation_table, facet_enumeration,
                       incidence)
from .scalars import Scalar


@dataclass(frozen=True)
class VertexBound:
    """The minimum over the unit sphere of max_r |f_r(x)| for the chosen
    supporting functionals f_r at one vertex, with the minimizer."""

    vertex_index: int
    antipode_index: int
    value: Scalar
    functional_indices: tuple  # facet indices of the functionals used
    sphere_facet_index: int    # facet of the sphere containing the minimizer
    minimizer: tuple


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Per-orbit vertex bounds; their minimum is the certified lower bound."""

    entries: tuple

    @property
    def minimum(self) -> Scalar:
        return min(e.value for e in self.entries)


@dataclass(frozen=True)
class SearchConfig:
    """Budget-limited multi-start local search over operator entries."""

    budget: int = 0
    seed: int = 0


_STARTS = 6     # search starts: the witnesses, then random matrices up to this many
_STEP = 0.5     # initial standard deviation of a proposal's move in each entry


@dataclass(frozen=True)
class IndexBracket:
    lower: Scalar
    upper: Scalar
    lower_certificate: LowerBoundCertificate
    witness: Operator
    radius_certificate: RadiusCertificate
    status: str  # "tight" or "gap"


def _bound_rows(p: Polytope) -> tuple:
    """The facet rows the vertex bounds read: (rows, sphere, scale, s, columns).

    ``rows[r]`` is the row of facet functional f_r and ``scale`` its
    common scale: on rationals the evaluation table's ints F_r = L_F f_r
    with scale L_F, on floats s f_r with scale 1. ``sphere`` holds the
    first facet k of each antipodal pair, in ascending order, and
    ``columns`` their rows' columns. ``s`` is 1 on rationals; on floats it is
    the largest power of two not above the largest vertex coordinate in
    absolute value (see :func:`vertex_minimax`).
    """
    ev = evaluation_table(p)
    if p.ctx.exact:
        rows, scale, s = ev.facets, ev.facet_scale, 1
    else:
        s = math.ldexp(0.5, math.frexp(max(abs(x) for v in p.vertices for x in v))[1])
        rows, scale = tuple(tuple(s * x for x in f) for f in ev.facets), 1
    columns = tuple(zip(*[rows[k] for k in ev.pair_facets]))
    return rows, ev.pair_facets, scale, s, columns


def vertex_minimax(p: Polytope, vertex_index: int,
                   subset: Optional[Sequence[int]] = None) -> VertexBound:
    """Exact min over the unit sphere of max_r |f_r(x)|.

    ``subset`` selects which supporting functionals at the vertex to use
    (facet indices, all of which must be incident); by default all
    incident facets are used. The chosen functionals must have trivial
    common kernel, otherwise the minimum would be 0 and useless.

    With trivial common kernel, phi(x) = max_r |f_r(x)| is a norm, and its
    unit ball Q_v = {u : |f_r(u)| <= 1 for every r} is a symmetric
    polytope. phi and the ball's norm are both positively homogeneous, so
    the minimum of phi over the sphere is the least phi(u) / ||u|| over
    u != 0, which is 1 / max{||u|| : u in Q_v}. The norm is convex, so
    that maximum is attained at a vertex of Q_v.

    In general Q_v's vertices come from one double description
    (:func:`polytope._double_description`) of the cone
    C = {(u, t) : -t <= f_r(u) <= t}, with the rows (-f_r, 1) and (f_r, 1)
    for each chosen r. The lineality of C is the common kernel of the f_r
    (at t = 0), so a nontrivial kernel is read off it. Once C is pointed,
    t > 0 on every nonzero (u, t) in C, since t = 0 forces u into the
    kernel; C is then the cone over {1} x Q_v, and its extreme rays are
    the (u, t) with u / t a vertex of Q_v. Q_v is symmetric, so the rays
    come in pairs (u, t), (-u, t), each tight at the other's rows with the
    two rows of every functional swapped; only the ray whose first tight
    row is a row (-f_r, 1) is kept.

    ||u|| is the largest |g_k(u)| over the sphere's facet functionals, one
    g_k per antipodal facet pair (k, k'), so the value is the least
    (t / |g_k(u)|, k) over the kept rays (u, t) and the facets k: at each
    ray the first k that attains ||u||, across the rays the first least
    pair. A ray's g_k(u) are one :func:`linalg.column_dots` over the
    columns of the sphere's facet rows, built once per :func:`lower_bound`
    call. The minimizer u / g_k(u) has g_k = 1 and norm 1, so it lies on
    the sphere, on facet k. This is also the least (value, facet index)
    of the minimum of phi over each facet of the sphere: if x on facet
    k'' attains the value, then x / phi(x) is a point of Q_v of largest
    norm with g_k'' = ||.||, so g_k'' reaches that norm at a vertex of Q_v
    too, and k <= k''.

    On rationals the rows are the evaluation table's ints, (-F_r, L_F) and
    (F_r, L_F), so every ray is an int vector; rays are compared by
    cross-multiplying positive ints, and the value and each coordinate of
    the minimizer are one ``ctx.quotient``, a ``Fraction``, taken for the
    least ray only. On floats they are
    (-s f_r, 1) and (s f_r, 1), where s is the largest power of two not
    above the largest vertex coordinate in absolute value; the vertex of
    Q_v is then s u / t. The double description compares against an
    absolute tolerance, so it needs rows near the size of 1: the
    functionals of a small ball are large, and s f_r is not. Scaling the
    ball by 2^j multiplies s by 2^j, so wherever its facet functionals come
    out divided by exactly 2^j, the double description gets the same
    numbers and the values are the same.

    At a simple vertex, with the functionals its d incident facets
    f_1, ..., f_d in incidence order (the default, or that tuple as
    ``subset``), no double description runs: Q_v is a parallelotope read
    off the ball's own edges at v (:func:`_parallelotope_rays`). The
    normals of the f_i form a basis; with b_j its dual basis
    (f_i(b_j) = 1 if i = j, else 0), Q_v = {sum y_j b_j : |y_j| <= 1}, whose
    vertices are the sums sum s_j b_j over sign vectors s, and
    sum b_j = v since every f_i(v) = 1. At a simple vertex any m of its
    facets meet in a face of dimension d - m (Ziegler, *Lectures on
    Polytopes*, 1995), so the d - 1 facets other than f_j meet in an edge
    of the ball from v to exactly one neighbour w_j, the one vertex other
    than v on all of them. Along that edge only f_j changes, so
    v - w_j = (1 - f_j(w_j)) b_j, and 1 - f_j(w_j) > 0. The kept rays are
    those with s_1 = +1 (their first tight row is then (-f_1, 1)), the
    points v - 2 sum of b_j over the j with s_j = -1. They come in the
    double description's order for the rows (-f_1, 1), (f_1, 1), ...,
    (-f_d, 1), (f_d, 1): v first, then for j = 2, ..., d the list so far
    followed by each of its points minus 2 b_j, so (s_2, ..., s_d) counts
    in binary, s_2 fastest, + before -, and ties in (value, k) go to the
    same ray. No b_1 and no w_1 is needed: at d = 1 the one kept ray is v.
    On rationals v and each 2 b_j are an int vector D over a positive int
    c, from the evaluation table's rows: D = L_F W_v over c = L_F L_W, and
    D = 2 L_F (W_v - W_w) over c = L_F L_W - F_j . W_w. With C the lcm of
    the c's, each ray is (sum of the D (C // c), C); it need not be
    primitive, since the value and the minimizer are ``Fraction``s. On
    floats the ray is (v / s - 2 sum b_j / s, 1), computed from v / s and
    w_j / s, which s, a power of two, scales exactly. A reordered or proper
    subset, and any vertex on more than d facets, keeps the double
    description: there the functionals are no basis, and the edges of the
    ball at v do not list Q_v's vertices. So does a float ball whose
    tolerant incidence gives some edge no single other end, or some
    1 - f_j(w_j) that is not a positive finite float.

    A :class:`ComputationError` of the double description is raised again
    with ``vertex i`` in front of its message.
    """
    return _vertex_minimax(p, _bound_rows(p), vertex_index, subset)


def _parallelotope_rays(p, bound_rows, vertex_index, facets):
    """Q_v's kept rays (u, t) at the simple vertex ``vertex_index`` with
    its incident ``facets``, in the double description's order, read off
    the ball's edges at the vertex (see :func:`vertex_minimax`); None when
    the facets other than some f_j have no single other vertex in common,
    or c for its edge is not a positive finite number. On rationals the
    terms D / c go over the lcm of the c's as int rows, with no
    ``Fraction`` built; floats divide."""
    rows, _, scale, s, _ = bound_rows
    ev = evaluation_table(p)
    vertices, vertex_scale = ev.vertices, ev.vertex_scale
    # Vertex a over s; s is 1 on rationals, whose rows stay ints.
    point = vertices.__getitem__ if s == 1 else lambda a: tuple(x / s for x in vertices[a])
    all_facets = facet_enumeration(p)
    members = [all_facets[k].incident_vertices for k in facets]
    v = point(vertex_index)
    terms = [([scale * x for x in v], scale * vertex_scale)]  # (D, c) with D / c = v
    for j in range(1, len(facets)):
        ends = frozenset.intersection(*members[:j], *members[j + 1:]) - {vertex_index}
        if len(ends) != 1:
            return None
        w = point(*ends)
        c = scale * vertex_scale - sum(map(mul, rows[facets[j]], w))
        if not 0 < c < math.inf:
            return None
        terms.append(([2 * scale * (x - y) for x, y in zip(v, w)], c))  # D / c = 2 b_j
    if p.ctx.exact:
        t = math.lcm(*[c for _, c in terms])
        basis = [[x * (t // c) for x in e] for e, c in terms]
    else:
        t = 1
        basis = [[x / c for x in e] for e, c in terms]
    us = basis[:1]
    for b in basis[1:]:
        us += [list(map(sub, u, b)) for u in us]
    return [(u, t) for u in us]


def _enumerated_rays(p, bound_rows, vertex_index, chosen):
    """Q_v's kept rays (u, t) for the ``chosen`` facets, read off one double
    description (see :func:`vertex_minimax`)."""
    rows, _, scale, _, _ = bound_rows
    cone = []
    for r in chosen:
        cone += [tuple(-a for a in rows[r]) + (scale,), tuple(rows[r]) + (scale,)]
    try:
        rays, lineality = _double_description(cone, p.dim + 1, p.ctx)
    except ComputationError as exc:
        raise ComputationError(f"vertex {vertex_index}: {exc}") from exc
    if lineality:
        raise InputError(
            f"functionals at vertex {vertex_index} have a nontrivial common kernel; "
            "the min-max over the sphere would be 0")
    # Of each antipodal pair, the ray whose first tight row is a (-f_r, 1) row.
    return [(ray[:-1], ray[-1]) for ray, zs in rays if not min(zs) % 2]


def _vertex_minimax(p, bound_rows, vertex_index, subset) -> VertexBound:
    exact = p.ctx.exact
    _, sphere, scale, s, columns = bound_rows
    incident = incidence(p).vertex_to_facets[vertex_index]
    if subset is None:
        chosen = incident
    else:
        chosen = tuple(subset)
        bad = [k for k in chosen if k not in incident]
        if bad:
            raise InputError(f"facets {bad} are not incident to vertex {vertex_index}")
        if not chosen:
            raise InputError("functional subset must be nonempty")
    rays = None
    if chosen == incident and len(incident) == p.dim:
        rays = _parallelotope_rays(p, bound_rows, vertex_index, incident)
    if rays is None:
        rays = _enumerated_rays(p, bound_rows, vertex_index, chosen)

    best = None  # (t, m, j, u, g_j(u)) of the least ray so far; its value is t * scale / m
    for u, t in rays:
        dots = list(column_dots(columns, map(repeat, u)))
        sizes = list(map(abs, dots))
        m = max(sizes)
        j = sizes.index(m)  # the first largest; sphere is ascending, so j orders as k
        # (t * scale / m, j) against the best's; on rationals t, m and scale
        # are positive ints, so no Fraction is needed.
        if best is None or ((t * best[1], j) < (best[0] * m, best[2]) if exact else
                            (t * scale / m, j) < (best[0] * scale / best[1], best[2])):
            best = (t, m, j, u, dots[j])

    t, m, j, u, g = best
    minimizer = tuple(p.ctx.quotient(c * scale, g) for c in u)
    if s != 1:  # a float ball's rows were scaled by s
        minimizer = tuple(x * s for x in minimizer)
    return VertexBound(vertex_index=vertex_index,
                       antipode_index=p.antipode_index(vertex_index),
                       value=p.ctx.quotient(t * scale, m), functional_indices=chosen,
                       sphere_facet_index=sphere[j], minimizer=minimizer)


def lower_bound(p: Polytope, subsets: Optional[Mapping[int, Sequence[int]]] = None):
    """Certified lower bound on the numerical index: min over vertex orbits
    of the per-vertex min-max (:func:`vertex_minimax`). Antipodal vertices
    share the same bound and are computed once, and the facet rows are
    built once for all orbits.

    ``subsets`` optionally maps vertex indices to explicit functional
    subsets (the same subset, negated, is implied at the antipode).
    """
    bound_rows = _bound_rows(p)
    entries = tuple(_vertex_minimax(p, bound_rows, i, None if subsets is None else subsets.get(i))
                    for i in p.orbit_representatives())
    cert = LowerBoundCertificate(entries=entries)
    return cert.minimum, cert


def _normalized_radius(p, op):
    """(radius certificate, unit operator) of op/||op||, or None when ||op|| is 0.

    Both maxima are read off one evaluation of op
    (:func:`operators._orbit_pair_values`): the norm is its largest entry,
    and the radius its first largest incident entry, ties to the lowest
    vertex and then the lowest facet, as :func:`operators.numerical_radius`
    breaks them. The certificate names that (vertex, facet) with the value
    v(op) / ||op||. On rationals both are ints over one scale, so the value
    is their exact quotient, and the pair the one v(op/||op||) names; on
    floats it is one rounded division. op is evaluated in the ball's
    arithmetic (:func:`operators._in_ball_arithmetic`), and the unit
    operator is that copy scaled by 1 / ||op||: exact on rational balls.
    """
    op = _in_ball_arithmetic(p, op)
    values, scale = _orbit_pair_values(p, op.matrix)
    norm, _ = _table_norm(p, values)
    if p.ctx.is_zero(norm):
        return None
    i, radius, k = max(_radius_rows(p, values), key=itemgetter(1))
    value, norm = p.ctx.quotient(radius, norm), p.ctx.quotient(norm, scale)
    return RadiusCertificate(value=value, vertex_index=i, facet_index=k), op.scale(1 / norm)


def _search_value(p, entries) -> Optional[float]:
    """v(T/||T||) of the matrix ``entries`` as a float, or None when ||T|| is
    0 or not finite: the largest |g_j(T v_a)| at the incident (orbit, pair)
    entries of the evaluation table over the largest at all of them.

    On a rational ball the float ``entries`` are scaled straight to ints
    (:func:`scalars.scaled_integer_row`), at their exact values, so both
    maxima are ints over one common scale, and ``int / int`` rounds their
    quotient as ``float`` of a ``Fraction`` does: the value is float(v) of
    the exact evaluation bit for bit. On a float ball both are floats.
    """
    values, _ = _orbit_pair_values(p, entries)
    radius = max(map(values.__getitem__, evaluation_table(p).incident_entries))
    norm = max(values)
    if p.ctx.is_zero(norm) or not norm < math.inf:
        return None
    return radius / norm


def _search_candidates(p, witnesses, cfg: SearchConfig):
    """Multi-start hill climbing on v(T/||T||) over float matrix entries.

    Only ever tightens the upper bound; carries no optimality claim.
    Deterministic for a fixed seed.

    The search accepts a proposal whose value is below the current point's
    and keeps the start that ends lowest. Every candidate is evaluated once
    (:func:`_search_value`): on a rational ball that value is float(v) of
    the exact evaluation, on a float ball v itself. The winner alone is
    evaluated again through :func:`_normalized_radius`, by the same
    evaluator, for the returned value, unit witness and certificate.
    """
    rng = random.Random(cfg.seed)
    d = p.dim

    starts = []
    for w in witnesses:
        try:
            starts.append([list(map(float, row)) for row in w.matrix])
        except OverflowError:
            continue  # no float start; upper_bound evaluates the witness exactly
    while len(starts) < _STARTS:
        starts.append([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])

    budget = cfg.budget
    best = None  # (value, entries) of the lowest start so far
    per_start = max(budget // len(starts), 1)
    for entries in starts:
        if budget <= 0:
            break
        current = _search_value(p, entries)
        budget -= 1
        if current is None:
            continue
        step = _STEP
        fails = 0
        spent = 1
        while budget > 0 and spent < per_start and step > 1e-9:
            proposal = [[x + step * rng.gauss(0, 1) for x in row] for row in entries]
            value = _search_value(p, proposal)
            budget -= 1
            spent += 1
            if value is not None and value < current:
                entries, current = proposal, value
                fails = 0
            else:
                fails += 1
                if fails >= 8:
                    step *= 0.5
                    fails = 0
        if best is None or current < best[0]:
            best = (current, entries)
    if best is None:
        return []
    cert, unit = _normalized_radius(p, Operator(best[1]))
    return [(cert.value, unit, cert)]


def upper_bound(p: Polytope, witnesses: Sequence[Operator] = (),
                search: Optional[SearchConfig] = None):
    """Upper bound on the numerical index: min of v(T/||T||) over the
    provided witnesses, the identity (implicit fallback), and the outcome
    of the optional local search.

    Each witness is evaluated once (:func:`_normalized_radius`). The
    identity is written down, not evaluated: ||I|| = 1, and every incident
    pair has f(v) = 1, so v(I) = 1, attained first at vertex 0 and its
    first facet; on floats this is the true 1, not a rounded one.

    Returns (value, normalized witness, radius certificate). A provided
    witness with norm 0 is rejected, and a ComputationError or InputError
    on witness k is raised again with ``witness k`` in front of its
    message.
    """
    candidates = []
    for k, w in enumerate(witnesses):
        try:
            result = _normalized_radius(p, w)
        except ComputationError as exc:
            raise ComputationError(f"witness {k}: {exc}") from exc
        except InputError as exc:
            raise InputError(f"witness {k}: {exc}") from exc
        if result is None:
            raise InputError(f"witness {k}: operator has norm 0")
        cert, unit = result
        candidates.append((cert.value, unit, cert))
    one = p.ctx.coerce(1)
    candidates.append((one, Operator.identity(p.dim, exact=p.ctx.exact),
                       RadiusCertificate(value=one, vertex_index=0,
                                         facet_index=incidence(p).vertex_to_facets[0][0])))
    if search is not None and search.budget > 0:
        candidates.extend(_search_candidates(p, witnesses, search))

    return min(candidates, key=itemgetter(0))  # the first of equal values


def index_bracket(p: Polytope, witnesses: Sequence[Operator] = (),
                  search: Optional[SearchConfig] = None,
                  subsets: Optional[Mapping[int, Sequence[int]]] = None) -> IndexBracket:
    """Combined two-sided bracket on the numerical index.

    Status is "tight" when the endpoints agree (exactly on the rational
    backend, within eps on floats); otherwise "gap".
    """
    lo, cert = lower_bound(p, subsets=subsets)
    hi, witness, rcert = upper_bound(p, witnesses=witnesses, search=search)
    status = "tight" if p.ctx.eq(lo, hi) else "gap"
    return IndexBracket(lower=lo, upper=hi, lower_certificate=cert,
                        witness=witness, radius_certificate=rcert, status=status)
