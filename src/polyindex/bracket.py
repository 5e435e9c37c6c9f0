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
search over matrix entries; the identity (v = 1) is the fallback.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import ComputationError, InputError
from .linalg import dot, rank
from .linprog import LinearProgram, solve_lp
from .operators import Operator, RadiusCertificate, numerical_radius, operator_norm
from .polytope import (FacetFunctional, Incidence, Polytope, facet_antipode_pairs,
                       facet_enumeration, incidence)
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

    @property
    def argmin(self) -> VertexBound:
        best = self.entries[0]
        for e in self.entries[1:]:
            if e.value < best.value:
                best = e
        return best


@dataclass(frozen=True)
class SearchConfig:
    """Budget-limited multi-start local search over operator entries."""

    budget: int = 0
    seed: int = 0
    starts: int = 6
    step: float = 0.5


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
    """One facet of an antipodal facet pair, with the data its LPs need."""

    index: int      # facet index k
    members: tuple  # sorted indices of the vertices on facet k
    values: tuple   # values[r][a] = f_r(w_a) for every facet functional f_r, member w_a
    floors: tuple   # floors[r] = min of |f_r| over facet k


def _sphere_facets(p: Polytope, facets: Sequence[FacetFunctional]) -> tuple:
    """The facet table of the sphere, one entry per antipodal facet pair.

    f_r is affine on a facet, so over the facet it takes exactly the convex
    combinations of its values at the facet's vertices: when those values
    share a strict sign, the minimum of |f_r| is the least of them, and
    otherwise it is 0.
    """
    ctx = p.ctx
    zero = ctx.coerce(0)
    table = []
    for k, _ in facet_antipode_pairs(facets, ctx):
        members = tuple(sorted(facets[k].incident_vertices))
        values = tuple(tuple(dot(f.coeffs, p.vertices[j]) for j in members) for f in facets)
        floors = []
        for row in values:
            signs = {ctx.sign(v) for v in row}
            floors.append(min(map(abs, row)) if signs in ({1}, {-1}) else zero)
        table.append(_SphereFacet(index=k, members=members, values=values, floors=tuple(floors)))
    return tuple(table)


def vertex_minimax(p: Polytope, facets: Sequence[FacetFunctional], inc: Incidence,
                   vertex_index: int, subset: Optional[Sequence[int]] = None) -> VertexBound:
    """Exact min over the unit sphere of max_r |f_r(x)|.

    ``subset`` selects which supporting functionals at the vertex to use
    (facet indices, all of which must be incident); by default all
    incident facets are used. The chosen functionals must have trivial
    common kernel, otherwise the minimum would be 0 and useless.

    One LP per antipodal facet pair of the sphere: on the facet
    conv(w_1..w_k), minimize t subject to x = sum lam_j w_j,
    sum lam_j = 1, lam >= 0 and -t <= f_r(x) <= t for every r.

    A facet's LP is skipped when it cannot win. Its value is at least the
    largest, over the chosen r, of the minimum of |f_r| on the facet
    (see :func:`_sphere_facets`), which needs no LP. The loop keeps the
    first strict minimum, so a facet whose bound exceeds the best value so
    far (exactly on rationals, by more than eps on floats) could never
    replace it, and its LP is skipped. A bound that ties the best within
    eps is still solved: on floats its LP value may round below the best.
    So the value, the sphere facet and the minimizer are the ones that
    solving every LP gives.
    """
    return _vertex_minimax(p, _sphere_facets(p, facets), facets, inc, vertex_index, subset)


def _vertex_minimax(p, sphere, facets, inc, vertex_index, subset) -> VertexBound:
    ctx = p.ctx
    incident = inc.vertex_to_facets[vertex_index]
    if subset is None:
        chosen = tuple(incident)
    else:
        chosen = tuple(subset)
        bad = [k for k in chosen if k not in incident]
        if bad:
            raise InputError(f"facets {bad} are not incident to vertex {vertex_index}")
        if not chosen:
            raise InputError("functional subset must be nonempty")
    funcs = [facets[k].coeffs for k in chosen]
    if rank(funcs, ctx) < p.dim:
        raise InputError(
            f"functionals at vertex {vertex_index} have a nontrivial common kernel; "
            "the min-max over the sphere would be 0")

    best = None
    for sf in sphere:
        if best is not None and ctx.lt(best[0], max(sf.floors[r] for r in chosen)):
            continue
        members = sf.members
        nl = len(members)
        # variables: lam_1..lam_nl, t
        ineq_lhs, ineq_rhs = [], []
        for r in chosen:
            row = sf.values[r]
            ineq_lhs.append(list(row) + [-1])
            ineq_rhs.append(0)
            ineq_lhs.append([-a for a in row] + [-1])
            ineq_rhs.append(0)
        lp = LinearProgram(objective=(0,) * nl + (1,),
                           ineq_lhs=ineq_lhs, ineq_rhs=ineq_rhs,
                           eq_lhs=[[1] * nl + [0]], eq_rhs=[1],
                           nonneg=(True,) * (nl + 1))
        sol = solve_lp(lp, ctx)
        if not sol.is_optimal:
            raise ComputationError(f"facet LP unexpectedly {sol.status}")
        if best is None or sol.value < best[0]:
            lams = sol.point[:nl]
            x = tuple(sum(lams[a] * p.vertices[j][c] for a, j in enumerate(members))
                      for c in range(p.dim))
            best = (sol.value, sf.index, x)

    value, facet_k, x = best
    if ctx.sign(value) <= 0:
        raise ComputationError("vertex bound is not positive despite trivial common kernel")
    return VertexBound(vertex_index=vertex_index,
                       antipode_index=p.antipode_index(vertex_index),
                       value=value, functional_indices=chosen,
                       sphere_facet_index=facet_k, minimizer=x)


def lower_bound(p: Polytope, facets: Sequence[FacetFunctional], inc: Incidence,
                subsets: Optional[Mapping[int, Sequence[int]]] = None):
    """Certified lower bound on the numerical index: min over vertex orbits
    of the per-vertex min-max. Antipodal vertices share the same bound and
    are computed once, and the facet table of the sphere is built once for
    all orbits.

    ``subsets`` optionally maps vertex indices to explicit functional
    subsets (the same subset, negated, is implied at the antipode).
    """
    sphere = _sphere_facets(p, facets)
    entries = tuple(_vertex_minimax(p, sphere, facets, inc, i,
                                    None if subsets is None else subsets.get(i))
                    for i in p.orbit_representatives())
    cert = LowerBoundCertificate(entries=entries)
    return cert.minimum, cert


def _normalized_radius(p, facets, inc, op):
    norm, _ = operator_norm(p, facets, op)
    if p.ctx.is_zero(norm):
        raise InputError("witness operator has norm 0")
    unit = op.scale(1 / norm)
    return numerical_radius(p, facets, inc, unit), unit


def _search_candidates(p, facets, inc, witnesses, cfg: SearchConfig):
    """Multi-start hill climbing on v(T/||T||) over float matrix entries.

    Only ever tightens the upper bound; carries no optimality claim.
    Deterministic for a fixed seed.
    """
    rng = random.Random(cfg.seed)
    d = p.dim
    backend = "rational" if p.ctx.exact else "float"

    def evaluate(entries):
        op = Operator([row[:] for row in entries], backend=backend,
                      eps=None if p.ctx.exact else p.ctx.eps)
        norm, _ = operator_norm(p, facets, op)
        if p.ctx.is_zero(norm):
            return None
        cert, unit = _normalized_radius(p, facets, inc, op)
        return float(cert.value), cert, unit

    starts = [[list(map(float, row)) for row in w.matrix] for w in witnesses]
    while len(starts) < max(cfg.starts, 1):
        starts.append([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])

    budget = cfg.budget
    best = None
    per_start = max(budget // len(starts), 1)
    for entries in starts:
        if budget <= 0:
            break
        current = evaluate(entries)
        budget -= 1
        if current is None:
            continue
        step = cfg.step
        fails = 0
        spent = 1
        while budget > 0 and spent < per_start and step > 1e-9:
            proposal = [[x + step * rng.gauss(0, 1) for x in row] for row in entries]
            cand = evaluate(proposal)
            budget -= 1
            spent += 1
            if cand is not None and cand[0] < current[0]:
                entries, current = proposal, cand
                fails = 0
            else:
                fails += 1
                if fails >= 8:
                    step *= 0.5
                    fails = 0
        if best is None or current[0] < best[0]:
            best = current
    if best is None:
        return []
    return [(best[1].value, best[2], best[1])]


def upper_bound(p: Polytope, facets: Sequence[FacetFunctional], inc: Incidence,
                witnesses: Sequence[Operator] = (), search: Optional[SearchConfig] = None):
    """Upper bound on the numerical index: min of v(T/||T||) over the
    provided witnesses, the identity (implicit fallback, v = 1), and the
    outcome of the optional local search.

    Returns (value, normalized witness, radius certificate). A provided
    witness with norm 0 is rejected.
    """
    candidates = []
    for w in witnesses:
        if w.dim != p.dim:
            raise InputError(f"witness dimension {w.dim} does not match space dimension {p.dim}")
        cert, unit = _normalized_radius(p, facets, inc, w)
        candidates.append((cert.value, unit, cert))
    ident = Operator.identity(p.dim, exact=p.ctx.exact)
    cert, unit = _normalized_radius(p, facets, inc, ident)
    candidates.append((cert.value, unit, cert))
    if search is not None and search.budget > 0:
        candidates.extend(_search_candidates(p, facets, inc, witnesses, search))

    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] < best[0]:
            best = cand
    return best[0], best[1], best[2]


def index_bracket(p: Polytope, facets: Optional[Sequence[FacetFunctional]] = None,
                  inc: Optional[Incidence] = None, witnesses: Sequence[Operator] = (),
                  search: Optional[SearchConfig] = None,
                  subsets: Optional[Mapping[int, Sequence[int]]] = None) -> IndexBracket:
    """Combined two-sided bracket on the numerical index.

    Status is "tight" when the endpoints agree (exactly on the rational
    backend, within eps on floats); otherwise "gap".
    """
    if facets is None:
        facets = facet_enumeration(p)
    if inc is None:
        inc = incidence(p, facets)
    lo, cert = lower_bound(p, facets, inc, subsets=subsets)
    hi, witness, rcert = upper_bound(p, facets, inc, witnesses=witnesses, search=search)
    status = "tight" if p.ctx.eq(lo, hi) else "gap"
    return IndexBracket(lower=lo, upper=hi, lower_certificate=cert,
                        witness=witness, radius_certificate=rcert, status=status)
