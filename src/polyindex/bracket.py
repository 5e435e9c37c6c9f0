"""Two-sided brackets on the numerical index.

Lower bound: at every vertex v of the ball, the supporting functionals of
the facets meeting at v pin down every norm-one operator — any T that
attains its norm at v satisfies v(T) >= min over the unit sphere of the
largest |f(x)| among those functionals. That per-vertex minimum is an
exact linear-programming quantity: the sphere is the union of the facets,
and on a single facet (a convex set parameterized by its vertices) the
min-max is one LP. Minimizing over antipodal vertex orbits gives a
certified lower bound on the numerical index.

Upper bound: any norm-one operator T gives n(X) <= v(T). Witness
operators are supplied by the caller (the family generators construct the
sharp ones) and can be supplemented by a seeded derivative-free local
search over matrix entries; the identity (v = 1) is the fallback. The
search ranks its candidates on half the ball's evaluation table, exactly
on rational balls and in floats on float balls, and only its winner is
evaluated by the backend.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Mapping, Optional, Sequence

from .errors import ComputationError, InputError
from .linalg import rank, scaled_integer_rows
from .linprog import LinearProgram, solve_lp
from .operators import Operator, RadiusCertificate, numerical_radius, operator_norm
from .polytope import (Polytope, evaluation_table, facet_antipode_pairs, facet_enumeration,
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


@dataclass(frozen=True)
class _SphereFacet:
    """One facet of an antipodal facet pair, with the data its LPs need.

    ``rows`` and ``floors`` are keyed by facet index r and hold an entry
    only for the functionals f_r that some chosen set reads (the ``used``
    argument of :func:`_sphere_facets`). On the exact backend ``rows[r]``
    is a row of ints with its positive int scale; on floats it is the row
    of float values with scale 1.
    """

    index: int      # facet index k
    members: tuple  # sorted indices of the vertices on facet k
    rows: dict      # rows[r] = (row, scale): f_r(w_a) = row[a] / scale at member w_a
    floors: dict    # floors[r] = min of |f_r| over facet k


def _sphere_facets(p: Polytope, used) -> tuple:
    """The facet table of the sphere, one entry per antipodal facet pair,
    in ascending facet index, tabulated for the facet functionals ``used``.

    f_r is affine on a facet, so over the facet it takes exactly the convex
    combinations of its values at the facet's vertices: when those values
    share a strict sign, the minimum of |f_r| is the least of them in
    absolute value, and otherwise it is 0.

    The values are dot products of the rows of the ball's evaluation table
    (:func:`polytope.evaluation_table`), summed in the same order as
    ``linalg.dot``. On the exact backend f_r(w_a) = F_r . W_a / (L_F L_W),
    and each row of those ints is divided, with the scale L_F L_W, by their
    gcd. That leaves the one primitive pair of the row's values, which is
    ``linalg.scaled_integer_row`` of them: the ints that the facet LPs take
    as they are. A floor is one ``Fraction`` per row. Floats have scale 1.
    """
    ctx = p.ctx
    zero = 0 if ctx.exact else ctx.coerce(0)
    facets = facet_enumeration(p)
    ev = evaluation_table(p)
    used = sorted(used)
    scale = ev.facet_scale * ev.vertex_scale
    table = []
    for k, _ in facet_antipode_pairs(p):
        members = tuple(sorted(facets[k].incident_vertices))
        wrows = [ev.vertices[j] for j in members]
        rows, floors = {}, {}
        for r in used:
            row, row_scale = [sum(map(mul, ev.facets[r], w)) for w in wrows], 1
            if ctx.exact:
                g = math.gcd(*row, scale)
                row, row_scale = [x // g for x in row], scale // g
            lo, hi = min(row), max(row)
            floor = lo if ctx.sign(lo) > 0 else -hi if ctx.sign(hi) < 0 else zero
            floors[r] = Fraction(floor, row_scale) if ctx.exact else floor
            rows[r] = (row, row_scale)
        table.append(_SphereFacet(index=k, members=members, rows=rows, floors=floors))
    return tuple(table)


def vertex_minimax(p: Polytope, vertex_index: int,
                   subset: Optional[Sequence[int]] = None) -> VertexBound:
    """Exact min over the unit sphere of max_r |f_r(x)|.

    ``subset`` selects which supporting functionals at the vertex to use
    (facet indices, all of which must be incident); by default all
    incident facets are used. The chosen functionals must have trivial
    common kernel, otherwise the minimum would be 0 and useless.

    One LP per antipodal facet pair of the sphere. On the facet
    conv(w_1..w_k) the min-max is: minimize t subject to x = sum lam_j w_j,
    sum lam_j = 1, lam >= 0 and -t <= f_r(x) <= t for every r. As x != 0
    and the f_r have trivial common kernel, t > 0, and mu = lam / t
    (Charnes and Cooper) turns it into: maximize sum mu_j subject to
    mu >= 0 and -1 <= f_r(sum mu_j w_j) <= 1, each row times its scale. A
    feasible mu != 0 gives the point x = sum mu_j w_j / sum mu_j of the
    facet with max_r |f_r(x)| <= 1 / sum mu_j, and lam / t gives mu back,
    so t* = 1/s* for the maximum s*, attained at sum mu*_j w_j / s*. The
    simplex starts at mu = 0, as every right-hand side is positive, and
    the LP is bounded: a ray would give a point of the facet where every
    f_r vanishes, which is 0.

    A facet's LP value is at least its bound: the largest, over the chosen
    r, of the minimum of |f_r| on the facet (see :func:`_sphere_facets`),
    which needs no LP. The facets are visited in ascending
    (bound, facet index) order, and the result is the least
    (value, facet index) among the LPs solved. On rationals the loop stops
    at the first facet whose (bound, facet index) exceeds the best
    (value, facet index) so far: that facet, and every later one, has
    (value, index) >= (bound, index) > best, so none of them could replace
    the best. A facet whose bound ties the best value but whose index is
    higher is skipped with the rest. So a skipped facet is certified by its
    floor and its index alone, with no LP. On floats the loop stops only
    once the best value is below the bound by more than eps; a bound that
    ties the best within eps is still solved, as its LP value may round
    below the best. Either way the value, the sphere facet and the
    minimizer are the least (value, facet index) over all facets, which is
    the first strict minimum in facet index order that solving every LP
    gives.

    The facet table is tabulated only for the facets incident to the
    vertex; :func:`lower_bound` builds one table for all orbits.
    """
    sphere = _sphere_facets(p, incidence(p).vertex_to_facets[vertex_index])
    return _vertex_minimax(p, sphere, vertex_index, subset)


def _vertex_minimax(p, sphere, vertex_index, subset) -> VertexBound:
    ctx = p.ctx
    incident = incidence(p).vertex_to_facets[vertex_index]
    if subset is None:
        chosen = tuple(incident)
    else:
        chosen = tuple(subset)
        bad = [k for k in chosen if k not in incident]
        if bad:
            raise InputError(f"facets {bad} are not incident to vertex {vertex_index}")
        if not chosen:
            raise InputError("functional subset must be nonempty")
    if rank([evaluation_table(p).facets[k] for k in chosen], ctx) < p.dim:
        raise InputError(
            f"functionals at vertex {vertex_index} have a nontrivial common kernel; "
            "the min-max over the sphere would be 0")

    bounds = [max(sf.floors[r] for r in chosen) for sf in sphere]
    best = None
    for s in sorted(range(len(sphere)), key=bounds.__getitem__):
        sf = sphere[s]
        if best is not None and (best[:2] < (bounds[s], sf.index) if ctx.exact
                                 else ctx.lt(best[0], bounds[s])):
            break  # no later facet can beat the best
        # variables mu_1..mu_nl >= 0; -scale <= row . mu <= scale for every r
        ineq_lhs, ineq_rhs = [], []
        for r in chosen:
            row, scale = sf.rows[r]
            ineq_lhs += [row, [-a for a in row]]
            ineq_rhs += [scale, scale]
        lp = LinearProgram(objective=(-1,) * len(sf.members), ineq_lhs=ineq_lhs,
                           ineq_rhs=ineq_rhs, nonneg=(True,) * len(sf.members))
        try:
            sol = solve_lp(lp, ctx)
        except ComputationError as exc:
            raise ComputationError(f"vertex {vertex_index}, sphere facet {sf.index}: {exc}") from exc
        if not sol.is_optimal or ctx.sign(sol.value) >= 0:
            raise ComputationError(f"vertex {vertex_index}, sphere facet {sf.index}: facet LP "
                                   f"is {sol.status}, with value {sol.value} (not negative)")
        s_max = -sol.value  # s* = max sum mu
        value = 1 / s_max  # t* = 1/s*
        if best is None or (value, sf.index) < best[:2]:
            best = (value, sf.index, sf.members, sol.point, s_max)

    value, facet_k, members, mu, s_max = best
    x = tuple(sum(mu[a] * p.vertices[j][c] for a, j in enumerate(members)) / s_max
              for c in range(p.dim))
    return VertexBound(vertex_index=vertex_index,
                       antipode_index=p.antipode_index(vertex_index),
                       value=value, functional_indices=chosen,
                       sphere_facet_index=facet_k, minimizer=x)


def lower_bound(p: Polytope, subsets: Optional[Mapping[int, Sequence[int]]] = None):
    """Certified lower bound on the numerical index: min over vertex orbits
    of the per-vertex min-max. Antipodal vertices share the same bound and
    are computed once, and the facet table of the sphere is built once for
    all orbits, tabulated for the facets incident to some orbit
    representative.

    ``subsets`` optionally maps vertex indices to explicit functional
    subsets (the same subset, negated, is implied at the antipode).
    """
    reps = p.orbit_representatives()
    v2f = incidence(p).vertex_to_facets
    sphere = _sphere_facets(p, {r for i in reps for r in v2f[i]})
    entries = tuple(_vertex_minimax(p, sphere, i, None if subsets is None else subsets.get(i))
                    for i in reps)
    cert = LowerBoundCertificate(entries=entries)
    return cert.minimum, cert


def _normalized_radius(p, op):
    """(radius certificate, unit operator) of op/||op||, or None when ||op|| is 0."""
    norm, _ = operator_norm(p, op)
    if p.ctx.is_zero(norm):
        return None
    unit = op.scale(1 / norm)
    return numerical_radius(p, unit), unit


class _HalfTable:
    """Half the ball's evaluation table, built once per search.

    ``vertices`` holds one row W_a of :func:`polytope.evaluation_table` per
    antipodal vertex orbit and ``functionals`` one facet row G_j per
    antipodal facet pair. The ball is symmetric, so |g(T(-v))| = |g(T v)|
    = |(-g)(T v)|: the norm of T is the largest |g_j(T v_a)|, and its
    numerical radius the largest over ``incident``, the pairs (a, j) where
    v_a or -v_a lies on a facet of pair j. On a rational ball the rows are
    ints over the table's common scales; on a float ball they are the
    coordinates.
    """

    def __init__(self, p: Polytope):
        self.ctx = p.ctx
        inc, table = incidence(p), evaluation_table(p)
        pairs = facet_antipode_pairs(p)
        pair_of = {k: j for j, pair in enumerate(pairs) for k in pair}
        reps = p.orbit_representatives()
        self.vertices = tuple(table.vertices[i] for i in reps)
        self.functionals = tuple(table.facets[k] for k, _ in pairs)
        self.incident = tuple(
            (a, j) for a, i in enumerate(reps)
            for j in sorted({pair_of[k] for k in inc.vertex_to_facets[i]
                             + inc.vertex_to_facets[p.antipode_index(i)]}))

    def value(self, entries) -> Optional[float]:
        """v(T/||T||) as a float, or None when ||T|| is 0 or not finite.

        On a rational ball T is scaled once to ints, M = L_T T: the radius
        and the norm are then ints over one common scale, and ``int / int``
        rounds their quotient as ``float`` of a ``Fraction`` does, so the
        value is float(v) of the exact evaluation bit for bit. On a float
        ball the same loop runs on the float rows.
        """
        matrix = entries
        if self.ctx.exact:
            matrix, _ = scaled_integer_rows([[Fraction(x) for x in row] for row in entries])
        images = [[sum(map(mul, row, v)) for row in matrix] for v in self.vertices]
        pairs = [[abs(sum(map(mul, g, tv))) for g in self.functionals] for tv in images]
        radius, norm = max(pairs[a][j] for a, j in self.incident), max(map(max, pairs))
        if self.ctx.is_zero(norm) or not norm < math.inf:
            return None
        return radius / norm


def _search_candidates(p, witnesses, cfg: SearchConfig):
    """Multi-start hill climbing on v(T/||T||) over float matrix entries.

    Only ever tightens the upper bound; carries no optimality claim.
    Deterministic for a fixed seed.

    The search accepts a proposal whose value is below the current point's
    and keeps the start that ends lowest. Every candidate is evaluated once,
    on half the ball's evaluation table (:meth:`_HalfTable.value`): on a
    rational ball that value is float(v) of the exact evaluation, on a
    float ball v over the float half table. The winner alone is
    re-evaluated through :func:`_normalized_radius`, which gives the
    returned value, unit witness and certificate, so the reported bound
    comes from the backend. Its norm is not 0: on the same rows the full
    norm is at least the half one.
    """
    rng = random.Random(cfg.seed)
    d = p.dim
    table = _HalfTable(p)

    starts = [[list(map(float, row)) for row in w.matrix] for w in witnesses]
    while len(starts) < _STARTS:
        starts.append([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])

    budget = cfg.budget
    best = None  # (value, entries) of the lowest start so far
    per_start = max(budget // len(starts), 1)
    for entries in starts:
        if budget <= 0:
            break
        current = table.value(entries)
        budget -= 1
        if current is None:
            continue
        step = _STEP
        fails = 0
        spent = 1
        while budget > 0 and spent < per_start and step > 1e-9:
            proposal = [[x + step * rng.gauss(0, 1) for x in row] for row in entries]
            value = table.value(proposal)
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
    backend = "rational" if p.ctx.exact else "float"
    cert, unit = _normalized_radius(p, Operator(best[1], backend=backend))
    return [(cert.value, unit, cert)]


def upper_bound(p: Polytope, witnesses: Sequence[Operator] = (),
                search: Optional[SearchConfig] = None):
    """Upper bound on the numerical index: min of v(T/||T||) over the
    provided witnesses, the identity (implicit fallback, v = 1), and the
    outcome of the optional local search.

    Returns (value, normalized witness, radius certificate). A provided
    witness with norm 0 is rejected, and a ComputationError on witness k
    is raised again with ``witness k`` in front of its message.
    """
    candidates = []
    for k, w in enumerate(witnesses):
        if w.dim != p.dim:
            raise InputError(f"witness dimension {w.dim} does not match space dimension {p.dim}")
        try:
            result = _normalized_radius(p, w)
        except ComputationError as exc:
            raise ComputationError(f"witness {k}: {exc}") from exc
        if result is None:
            raise InputError("witness operator has norm 0")
        cert, unit = result
        candidates.append((cert.value, unit, cert))
    ident = Operator.identity(p.dim, exact=p.ctx.exact)
    cert, unit = _normalized_radius(p, ident)
    candidates.append((cert.value, unit, cert))
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
