import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import polyindex.bracket as bracket_module
import polyindex.linprog as linprog_module
import polyindex.operators as operators_module
import polyindex.polytope as polytope_module
from polyindex import (ComputationError, InputError, LinearProgram, Operator, Polytope,
                       RadiusCertificate, SearchConfig, bipyramid_square_prism,
                       facet_enumeration, gauge, incidence, index_bracket, irregular_hexagon,
                       linf_sum, lower_bound, numerical_radius, oblique_prism, operator_norm,
                       polygon_witness_operator, prism_with_pyramids,
                       prism_with_pyramids_witness, prism_witness_operator,
                       pyramid_witness_operator, regular_2n_gon, solve_lp, upper_bound,
                       vertex_minimax)
from polyindex.linalg import dot, rank
from polyindex.polytope import evaluation_table, facet_antipode_pairs
from helpers import (boundary_minimax_2d, exact_copy, random_rational_matrix,
                     random_symmetric_polytope, reference_half_table_value,
                     reference_normalized_radius, reference_orbit_pair_values)


def test_hexagon_vertex_bounds_exact(hexagon):
    lo, cert = lower_bound(hexagon)
    assert [e.value for e in cert.entries] == [Fraction(5, 17), Fraction(4, 7), Fraction(9, 13)]
    assert lo == Fraction(5, 17)


def test_hexagon_minimizer_re_evaluates(hexagon, hexagon_facets):
    _, cert = lower_bound(hexagon)
    for e in cert.entries:
        attained = max(abs(sum(c * x for c, x in zip(hexagon_facets[k].coeffs, e.minimizer)))
                       for k in e.functional_indices)
        assert attained == e.value
        # The minimizer lies on the sphere, on the reported facet.
        assert gauge(hexagon, e.minimizer) == Fraction(1)
        f = hexagon_facets[e.sphere_facet_index]
        assert sum(c * x for c, x in zip(f.coeffs, e.minimizer)) == Fraction(1)


def test_square_vertex_bound_is_one(square):
    i = square.vertices.index((Fraction(1), Fraction(1)))
    entry = vertex_minimax(square, i)
    assert entry.value == Fraction(1)


def test_bipyramid_lower_bound(bipyramid):
    lo, cert = lower_bound(bipyramid)
    assert lo == Fraction(1, 2)
    assert all(e.value > 0 for e in cert.entries)


def test_prism_lower_bound_float():
    p = oblique_prism(3, 0.0)
    lo, _ = lower_bound(p)
    assert abs(lo - 0.5) < 1e-9


def test_vertex_bounds_positive_on_random_instances():
    rng = random.Random(314)
    for trial in range(6):
        p = random_symmetric_polytope(rng, 2 + trial % 2, n_pairs=5)
        _, cert = lower_bound(p)
        assert all(e.value > 0 for e in cert.entries)


def test_subset_with_common_kernel_rejected():
    p = oblique_prism(2, 0.0)
    inc = incidence(p)
    i = 0
    with pytest.raises(InputError, match="kernel"):
        vertex_minimax(p, i, subset=inc.vertex_to_facets[i][:1])


def test_subset_must_be_incident(square):
    facets = facet_enumeration(square)
    inc = incidence(square)
    not_incident = [k for k in range(len(facets)) if k not in inc.vertex_to_facets[0]]
    with pytest.raises(InputError, match="not incident"):
        vertex_minimax(square, 0, subset=(not_incident[0],))


def test_all_incident_dominates_subsets(bipyramid, bipyramid_incidence):
    # max over a superset dominates pointwise, hence also after the min.
    d = bipyramid.dim
    for i in bipyramid.orbit_representatives():
        incident = bipyramid_incidence.vertex_to_facets[i]
        full = vertex_minimax(bipyramid, i).value
        for sub in combinations(incident, d):
            try:
                e = vertex_minimax(bipyramid, i, subset=sub)
            except InputError:
                continue  # sub has a common kernel
            assert full >= e.value


def test_antipodal_orbits_share_value(hexagon):
    for i in range(len(hexagon.vertices)):
        a = hexagon.antipode_index(i)
        vi = vertex_minimax(hexagon, i).value
        va = vertex_minimax(hexagon, a).value
        assert vi == va


def test_sampling_oracle_2d(hexagon, hexagon_facets):
    _, cert = lower_bound(hexagon)
    for e in cert.entries:
        funcs = [hexagon_facets[k].coeffs for k in e.functional_indices]
        sampled = boundary_minimax_2d(hexagon, funcs, 20000)
        assert float(e.value) <= sampled + 1e-9
        assert sampled - float(e.value) < 1e-3


def test_upper_bound_identity_fallback(hexagon):
    val, witness, cert = upper_bound(hexagon)
    assert val == Fraction(1)
    assert witness.matrix == Operator.identity(2).matrix
    assert cert.value == Fraction(1)


def test_upper_bound_rejects_zero_witness(hexagon):
    with pytest.raises(InputError, match="norm 0"):
        upper_bound(hexagon, witnesses=[Operator.zero(2)])


def test_zero_witness_is_named_by_its_index(hexagon):
    with pytest.raises(InputError, match=r"^witness 1: operator has norm 0$"):
        upper_bound(hexagon, witnesses=[Operator.identity(2), Operator.zero(2)])


def test_upper_bound_normalizes_witness(bipyramid):
    # A scaled witness yields the same bound: the search space is T/||T||.
    w = pyramid_witness_operator()
    for lam in (Fraction(1), Fraction(3), Fraction(1, 7)):
        val, unit, cert = upper_bound(bipyramid, witnesses=[w.scale(lam)])
        assert val == Fraction(1, 2)
        assert operator_norm(bipyramid, unit)[0] == Fraction(1)
        assert cert.value == val


def test_bracket_tight_on_bipyramid(bipyramid):
    br = index_bracket(bipyramid, witnesses=[pyramid_witness_operator()])
    assert (br.lower, br.upper, br.status) == (Fraction(1, 2), Fraction(1, 2), "tight")


def test_bracket_gap_without_witness(hexagon):
    br = index_bracket(hexagon)
    assert br.lower == Fraction(5, 17)
    assert br.upper == Fraction(1)
    assert br.status == "gap"
    assert 0 < br.lower <= br.upper <= 1


@pytest.mark.parametrize("l", [0.0, 0.5])
def test_bracket_prism_even_n(l):
    n = 4
    p = oblique_prism(n, l)
    br = index_bracket(p, witnesses=[prism_witness_operator(n, l)])
    want = math.tan(math.pi / (2 * n))
    assert abs(br.lower - want) < 1e-9
    assert abs(br.upper - want) < 1e-9
    assert br.status == "tight"


def test_search_tightens_hexagon_upper_bound(hexagon):
    br = index_bracket(hexagon, search=SearchConfig(budget=300, seed=1))
    assert br.lower == Fraction(5, 17)
    assert br.lower <= br.upper < Fraction(1)


def test_search_is_deterministic(hexagon):
    cfg = SearchConfig(budget=120, seed=9)
    a = index_bracket(hexagon, search=cfg)
    b = index_bracket(hexagon, search=cfg)
    assert a.upper == b.upper
    assert a.witness.matrix == b.witness.matrix


def test_lower_bound_bounds_every_operator(hexagon, bipyramid):
    rng = random.Random(2718)
    for p, d in ((hexagon, 2), (bipyramid, 3)):
        lo, _ = lower_bound(p)
        for _ in range(20):
            m = random_rational_matrix(rng, d)
            op = Operator(m)
            norm, _ = operator_norm(p, op)
            if norm == 0:
                continue
            assert lo <= numerical_radius(p, op).value / norm


def _cube(d):
    return Polytope(list(product((-1, 1), repeat=d)))


def _cube4():
    return _cube(4)


def _cross4(backend=None):
    return Polytope([tuple(s if k == j else 0 for k in range(4))
                     for j in range(4) for s in (1, -1)], backend=backend)


def _reference_minimax(p, facets, chosen):
    """Every per-pair LP solved, keeping the first strict minimum:
    (value, sphere facet). Each LP is the min-max on facet k with
    mu = lam/t: maximize sum mu subject to -1 <= f(sum mu_j w_j) <= 1 for
    every f, and the facet's minimum is 1 / max."""
    funcs = [facets[k].coeffs for k in chosen]
    best = None
    for k, _ in facet_antipode_pairs(p):
        members = sorted(facets[k].incident_vertices)
        nl = len(members)
        ineq_lhs = []
        for f in funcs:
            row = [dot(f, p.vertices[j]) for j in members]
            ineq_lhs.append(row)
            ineq_lhs.append([-a for a in row])
        sol = solve_lp(LinearProgram(objective=(-1,) * nl, ineq_lhs=ineq_lhs,
                                     ineq_rhs=[1] * len(ineq_lhs), nonneg=(True,) * nl), p.ctx)
        assert sol.is_optimal
        if best is None or -1 / sol.value < best[0]:
            best = (-1 / sol.value, k)
    return best


def _check_vertex_bound(p, facets, i, chosen):
    """vertex_minimax against every facet LP: on rationals the same value
    and sphere facet, on floats the value within 1e-12 relative; the
    minimizer on the sphere, on its facet, attaining the value."""
    e = vertex_minimax(p, i, subset=chosen)
    want_value, want_facet = _reference_minimax(p, facets, e.functional_indices)
    x = e.minimizer
    got = (gauge(p, x), dot(facets[e.sphere_facet_index].coeffs, x),
           max(abs(dot(facets[k].coeffs, x)) for k in e.functional_indices))
    if p.ctx.exact:
        assert (e.value, e.sphere_facet_index) == (want_value, want_facet)
        assert got == (1, 1, e.value)
    else:
        assert math.isclose(e.value, want_value, rel_tol=1e-12)
        for a, b in zip(got, (1, 1, e.value)):
            assert math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.parametrize("make", [irregular_hexagon, bipyramid_square_prism,
                                  lambda: linf_sum(irregular_hexagon(), irregular_hexagon()),
                                  lambda: regular_2n_gon(40),
                                  lambda: oblique_prism(5, 0.5),
                                  lambda: prism_with_pyramids(4),
                                  lambda: random_symmetric_polytope(random.Random(3), 3, 6),
                                  lambda: random_symmetric_polytope(random.Random(4), 4, 6),
                                  _cube4, _cross4],
                         ids=["hexagon", "bipyramid", "linf_hexagons", "80-gon",
                              "oblique_prism(5,1/2)", "prism_with_pyramids(4)",
                              "random_d3", "random_d4", "4-cube", "4-cross-polytope"])
def test_skipped_facet_lps_change_nothing(make):
    # The vertex enumeration solves no facet LP; solving every one of them
    # gives the same bound.
    p = make()
    facets = facet_enumeration(p)
    inc = incidence(p)
    reps = p.orbit_representatives()
    # Every orbit, and one vertex that is not an orbit representative.
    for i in reps + (p.antipode_index(reps[0]),):
        incident = inc.vertex_to_facets[i]
        # A different functional order, and a proper subset where one exists.
        subset = next(tuple(reversed(sub)) for sub in combinations(incident, p.dim)
                      if rank([facets[k].coeffs for k in sub], p.ctx) == p.dim)
        for chosen in (None, subset):
            _check_vertex_bound(p, facets, i, chosen)


def test_vertex_bounds_match_every_facet_lp_on_random_balls():
    rng = random.Random(1996)
    for trial in range(102):
        d = 2 + trial % 3
        p = random_symmetric_polytope(rng, d, n_pairs=d + 1)
        facets = facet_enumeration(p)
        for i in p.orbit_representatives():
            _check_vertex_bound(p, facets, i, None)


def _first_least_ray(p, i, chosen):
    """((value, sphere facet, minimizer), ties) at vertex i over the
    ``chosen`` facets, from Q_v's kept rays (u, t) in their order: the first
    ray with the least (t / |g_k(u)|, k), k its first largest sphere facet,
    one ``Fraction`` and one ``linalg.dot`` per ray and facet; ``ties`` is
    how many rays share that least pair."""
    facets = facet_enumeration(p)
    sphere = [k for k, _ in facet_antipode_pairs(p)]
    bound_rows = bracket_module._bound_rows(p)
    rays = None
    if chosen == incidence(p).vertex_to_facets[i] and len(chosen) == p.dim:
        rays = bracket_module._parallelotope_rays(p, bound_rows, i, chosen)
    if rays is None:
        rays = bracket_module._enumerated_rays(p, bound_rows, i, chosen)
    keyed = []
    for u, t in rays:
        dots = [dot(facets[k].coeffs, u) for k in sphere]
        j = max(range(len(dots)), key=lambda j: abs(dots[j]))
        keyed.append(((Fraction(t) / abs(dots[j]), sphere[j]), tuple(c / dots[j] for c in u)))
    least = min(key for key, _ in keyed)
    minimizer = next(x for key, x in keyed if key == least)
    return least + (minimizer,), sum(key == least for key, _ in keyed)


def test_exact_vertex_bound_keeps_the_first_ray_on_a_tie(square):
    # At (1, 1) both kept rays of Q_v, v and v - 2 b_2, have norm 1, first
    # attained on facet 0 (x = -1): the minimizer comes from the first ray,
    # (-1, -1), not (-1, 1). Reordering the functionals runs the double
    # description, with a tie of its own.
    incident = incidence(square).vertex_to_facets[0]
    for chosen in (incident, incident[::-1]):
        want, ties = _first_least_ray(square, 0, chosen)
        assert ties == 2
        e = vertex_minimax(square, 0, subset=chosen)
        assert (e.value, e.sphere_facet_index, e.minimizer) == want
    assert vertex_minimax(square, 0).minimizer == (-1, -1)
    rng = random.Random(26)
    balls = [irregular_hexagon(), bipyramid_square_prism(), _cube4(), _cross4()]
    balls += [random_symmetric_polytope(rng, 2 + k % 3, n_pairs=4 + k % 3) for k in range(12)]
    for p in balls:
        v2f = incidence(p).vertex_to_facets
        for i in p.orbit_representatives():
            for chosen in (v2f[i], v2f[i][::-1]):
                e = vertex_minimax(p, i, subset=chosen)
                want, _ = _first_least_ray(p, i, chosen)
                assert (e.value, e.sphere_facet_index, e.minimizer) == want
                assert type(e.value) is Fraction


def test_lower_bound_work_counts(monkeypatch):
    pairings, runs = [], []
    real_pairs, real_simplex = polytope_module.facet_antipode_pairs, linprog_module._simplex

    def recording(*args):
        pairings.append(real_pairs(*args))
        return pairings[-1]

    def counting(*args):
        runs.append(args)
        return real_simplex(*args)

    monkeypatch.setattr(polytope_module, "facet_antipode_pairs", recording)
    monkeypatch.setattr(linprog_module, "_simplex", counting)
    p = regular_2n_gon(40)
    br = index_bracket(p, search=SearchConfig(budget=100, seed=1))
    # The lower bound's facet rows, the operator maxima and the search all
    # read the pairing off the ball's evaluation table, built once.
    assert len(pairings) == 1
    assert not hasattr(bracket_module, "facet_antipode_pairs")
    assert (len(br.lower_certificate.entries), len(facet_enumeration(p)) // 2) == (40, 40)
    # Each vertex bound is read off a vertex enumeration: no LP is solved.
    assert not hasattr(bracket_module, "solve_lp")
    assert runs == []


def _unimodular_image(seed, p):
    """p under a seeded signed permutation times a unit upper triangular
    integer matrix (entries in {-1, 0, 1})."""
    rng = random.Random(seed)
    d = p.dim
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(d)]
             for i in range(d)]
    order = rng.sample(range(d), d)
    matrix = [[rng.choice((1, -1)) * x for x in upper[i]] for i in order]
    return Polytope([tuple(dot(row, v) for row in matrix) for v in p.vertices])


def _linf_random_2d(seed):
    rng = random.Random(seed)
    return linf_sum(random_symmetric_polytope(rng, 2, 4), random_symmetric_polytope(rng, 2, 3))


_SIMPLE_BALLS = {
    "hexagon": irregular_hexagon,
    "80-gon": lambda: regular_2n_gon(40),
    "oblique_prism(5,1/2)": lambda: oblique_prism(5, 0.5),
    "linf_hexagons": lambda: linf_sum(irregular_hexagon(), irregular_hexagon()),
    **{f"cube_d{d}": (lambda d=d: _cube(d)) for d in range(2, 6)},
    **{f"cube_d{d}_image": (lambda d=d: _unimodular_image(d, _cube(d))) for d in range(2, 6)},
    **{f"linf_random_2d_{seed}": (lambda seed=seed: _linf_random_2d(seed)) for seed in (5, 6)},
}


@pytest.mark.parametrize("make", list(_SIMPLE_BALLS.values()), ids=list(_SIMPLE_BALLS))
def test_parallelotope_matches_double_description(make, monkeypatch):
    # At a simple vertex Q_v's rays are written down from the ball's edges:
    # positive multiples of the double description's kept rays, in its
    # order, giving the same vertex bound.
    p = make()
    bound_rows = bracket_module._bound_rows(p)
    v2f = incidence(p).vertex_to_facets
    simple = [i for i, facets in enumerate(v2f) if len(facets) == p.dim]
    assert simple
    written = {i: bracket_module._parallelotope_rays(p, bound_rows, i, v2f[i]) for i in simple}
    closed = {i: vertex_minimax(p, i) for i in simple}
    monkeypatch.setattr(bracket_module, "_parallelotope_rays", lambda *args: None)
    for i in simple:
        kept = bracket_module._enumerated_rays(p, bound_rows, i, v2f[i])
        assert len(written[i]) == len(kept) == 2 ** (p.dim - 1)
        for (u, t), (u2, t2) in zip(written[i], kept):
            if p.ctx.exact:
                assert t > 0 and t2 > 0
                assert [x * t2 for x in u] == [y * t for y in u2]
            else:
                a, b = [x / t for x in u], [y / t2 for y in u2]
                size = max(map(abs, b))
                assert all(abs(x - y) <= 1e-12 * size for x, y in zip(a, b))
        enumerated = vertex_minimax(p, i)
        if p.ctx.exact:
            assert closed[i] == enumerated
        else:
            e = closed[i]
            assert e.functional_indices == enumerated.functional_indices
            assert math.isclose(e.value, enumerated.value, rel_tol=1e-12)
            facet = facet_enumeration(p)[e.sphere_facet_index]
            for got, want in ((gauge(p, e.minimizer), 1), (dot(facet.coeffs, e.minimizer), 1)):
                assert math.isclose(got, want, rel_tol=1e-12)


def _square_on(backend):
    return Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)], backend=backend)


def _no_single_end(on_f1, on_f2, i, n):
    # One more vertex on f_1: the facets other than f_2 meet in two ends.
    return on_f1 | {min(set(range(n)) - on_f1)}


def _end_on_the_other_facet(on_f1, on_f2, i, n):
    # f_1's other vertex moved to one on f_2 too: 1 - f_2(w) is 0.
    return frozenset({i, min(on_f2 - {i})})


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("vertex_set", [_no_single_end, _end_on_the_other_facet],
                         ids=["no_single_end", "end_on_the_other_facet"])
def test_parallelotope_fallback_gives_the_double_description_bound(backend, vertex_set,
                                                                   monkeypatch):
    # When a simple vertex's edges do not give Q_v, the bound is the double
    # description's. The incidence the double description reads is built
    # first, so only the facet's vertex set that the edges read is changed.
    with monkeypatch.context() as m:
        m.setattr(bracket_module, "_parallelotope_rays", lambda *args: None)
        want = vertex_minimax(_square_on(backend), 0)
    p = _square_on(backend)
    evaluation_table(p)
    facets = incidence(p).vertex_to_facets[0]
    assert len(facets) == p.dim
    f1, f2 = (facet_enumeration(p)[k] for k in facets)
    object.__setattr__(f1, "incident_vertices",
                       vertex_set(f1.incident_vertices, f2.incident_vertices, 0, len(p)))
    assert bracket_module._parallelotope_rays(p, bracket_module._bound_rows(p), 0, facets) is None
    assert vertex_minimax(p, 0) == want


@pytest.mark.parametrize("make, runs", [
    (irregular_hexagon, 0), (lambda: regular_2n_gon(40), 0), (lambda: oblique_prism(5, 0.5), 0),
    (_cube4, 0), (lambda: linf_sum(irregular_hexagon(), irregular_hexagon()), 0),
    (bipyramid_square_prism, 5), (lambda: prism_with_pyramids(4), 9), (_cross4, 4)],
    ids=["hexagon", "80-gon", "oblique_prism(5,1/2)", "4-cube", "linf_hexagons", "bipyramid",
         "prism_with_pyramids(4)", "4-cross-polytope"])
def test_double_descriptions_run_only_at_non_simple_orbits(make, runs, monkeypatch):
    calls = []
    real = bracket_module._double_description

    def counting(*args):
        calls.append(args)
        return real(*args)

    p = make()
    facet_enumeration(p)
    monkeypatch.setattr(bracket_module, "_double_description", counting)
    lower_bound(p)
    v2f = incidence(p).vertex_to_facets
    non_simple = sum(len(v2f[i]) != p.dim for i in p.orbit_representatives())
    assert len(calls) == non_simple == runs
    assert not hasattr(bracket_module, "rank")


def test_lower_bound_failures_name_vertex_and_facet(bipyramid, monkeypatch):
    # A failure inside one vertex's enumeration names the vertex. Vertex 0
    # of the bipyramid lies on 4 facets in d = 3, so it runs one.

    def failing(rows, k, ctx):
        raise ComputationError("double description: a ray overflowed to a non-finite float")

    monkeypatch.setattr(bracket_module, "_double_description", failing)
    with pytest.raises(ComputationError) as exc:
        lower_bound(bipyramid)
    assert str(exc.value) == "vertex 0: double description: a ray overflowed to a non-finite float"
    assert isinstance(exc.value.__cause__, ComputationError)


@pytest.mark.parametrize("make", [bipyramid_square_prism, _cube4, _cross4],
                         ids=["bipyramid", "4-cube", "4-cross-polytope"])
def test_float_vertex_bounds_are_scale_equivariant(make):
    # The facet rows are scaled by a power of two that follows the ball, so
    # a copy scaled by 2^j gives its vertex enumerations the same numbers.
    # Validation compares against an absolute eps, which at 2^40 has to be
    # small; these balls' facets scale exactly, so the bounds must too.
    vertices = [tuple(map(float, v)) for v in make().vertices]

    def bound(j):
        p = Polytope([[math.ldexp(x, j) for x in v] for v in vertices], backend="float",
                     eps=1e-15)
        lo, cert = lower_bound(p)
        facets = [tuple(math.ldexp(x, j) for x in f.coeffs) for f in facet_enumeration(p)]
        return facets, lo, [(e.value, e.sphere_facet_index,
                             tuple(math.ldexp(x, -j) for x in e.minimizer))
                            for e in cert.entries]

    base = bound(0)
    for j in (40, -40):
        assert bound(j) == base, j


def _reference_search(p, witnesses, budget, seed):
    """The search loop with every candidate evaluated by a plain reference:
    on a rational ball an exact Operator, its norm and its normalized
    radius, compared as floats; on a float ball v over half the table in
    floats (:func:`helpers.reference_half_table_value`). The winner T is
    reported as v(T) / ||T|| from one brute-force evaluation of T
    (:func:`helpers.reference_orbit_pair_values`), in the ball's arithmetic."""
    rng = random.Random(seed)
    d = p.dim
    backend = "rational" if p.ctx.exact else "float"

    def unit_radius(entries):
        op = Operator([row[:] for row in entries], backend=backend)
        norm, _ = operator_norm(p, op)
        if p.ctx.is_zero(norm):
            return None
        unit = op.scale(1 / norm)
        return numerical_radius(p, unit), unit

    def evaluate(entries):
        if not p.ctx.exact:
            return reference_half_table_value(p, entries)
        result = unit_radius(entries)
        return None if result is None else float(result[0].value)

    starts = [[list(map(float, row)) for row in w.matrix] for w in witnesses]
    while len(starts) < 6:
        starts.append([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(d)])
    best = None
    per_start = max(budget // len(starts), 1)
    for entries in starts:
        if budget <= 0:
            break
        current = evaluate(entries)
        budget -= 1
        if current is None:
            continue
        step, fails, spent = 0.5, 0, 1
        while budget > 0 and spent < per_start and step > 1e-9:
            proposal = [[x + step * rng.gauss(0, 1) for x in row] for row in entries]
            cand = evaluate(proposal)
            budget -= 1
            spent += 1
            if cand is not None and cand < current:
                entries, current = proposal, cand
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
    op = Operator(best[1], backend=backend)
    (norm, _), _, (radius, i, k) = reference_orbit_pair_values(p, op.matrix)
    value = radius / norm
    return [(value, op.scale(1 / norm), RadiusCertificate(value, i, k))]


def _scaled_hexagon(scale):
    return Polytope([[x * scale for x in v] for v in irregular_hexagon().vertices])


# Two starts on the rational hexagon whose values differ in the last bit:
# only the exact evaluation picks the second.
_NEAR_TIE_STARTS = ([[1.089, 1.646], [0.482, -1.194]],
                    [[1.089, 1.6460000000000008], [0.482, -1.194]])

_SEARCH_CASES = {
    **{f"hexagon-{seed}": (irregular_hexagon, (), 100, seed)
       for seed in (1, 266658282, 334269678, 931280680)},
    "hexagon-near-tie-starts": (irregular_hexagon, _NEAR_TIE_STARTS, 2, 0),
    "bipyramid+witness": (bipyramid_square_prism, (pyramid_witness_operator(),), 40, 5),
    "oblique_prism(5,1/2)": (lambda: oblique_prism(5, 0.5),
                             (prism_witness_operator(5, 0.5),), 100, 3),
    "regular_2n_gon(12)": (lambda: regular_2n_gon(12), (polygon_witness_operator(12),),
                           100, 4),
    "hexagon*10^400": (lambda: _scaled_hexagon(Fraction(10) ** 400), (), 40, 1),
    "hexagon*10^-400": (lambda: _scaled_hexagon(Fraction(10) ** -400), (), 40, 2),
    # Float balls with subnormal coordinates, ranked in floats.
    "square+1e-310": (lambda: Polytope([(1.0, 1e-310), (-1.0, -1e-310), (0.0, 1.0), (0.0, -1.0)],
                                       backend="float"), (), 60, 1),
    "hexagon+5e-324": (lambda: Polytope([(1.0, 5e-324), (-1.0, -5e-324), (0.3, 1.0),
                                         (-0.3, -1.0), (0.7, -0.6), (-0.7, 0.6)],
                                        backend="float"), (), 60, 2),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_search_decides_as_exact_evaluation(case):
    make, starts, budget, seed = _SEARCH_CASES[case]
    p = make()
    witnesses = [w if isinstance(w, Operator) else Operator(w, backend="rational")
                 for w in starts]
    got = bracket_module._search_candidates(p, witnesses, SearchConfig(budget=budget, seed=seed))
    want = _reference_search(p, witnesses, budget, seed)
    assert len(got) == len(want) == 1
    (value, unit, cert), (want_value, want_unit, want_cert) = got[0], want[0]
    assert type(value) is type(want_value) and value == want_value
    assert unit.matrix == want_unit.matrix
    assert cert == want_cert


# Matrices with one entry solved for, in floats, to tie the two largest
# pairs |g(T v)|: their float order is the reverse of their exact order.
_TIED_PAIRS = {
    "hexagon": [[[-0.003528833050657449, 0.005927779969126383],
                 [0.018988217523005512, 0.00811829825948183]],
                [[-1.3248313657118442, 1.2897537391956708],
                 [-1.2138442451896687, 2.3082469231232703]]],
    "bipyramid": [[[-0.9093099372055086, 0.3122874840703231, -0.6181196995653467],
                   [1.8826518363765958, 0.3121974604141179, 0.07449423254277826],
                   [-0.16101178998898913, -1.0398061184119658, -2.2339220386037537]],
                  [[0.5456401772617849, 0.5627087421456689, -1.684926668599903],
                   [0.39787230011631275, -2.313729697011483, -0.08167359087956093],
                   [2.3156308262253456, 1.0130711254858107, 0.3031211264239911]]],
    "hexagon/10^30": [],
}


def _probe_matrices(d, rng):
    """Random matrices; signed permutations, at which pairs tie exactly; and
    the same with a 2^-60 entry, which parts the tied pairs by less than
    floats resolve."""
    matrices = [[[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)] for _ in range(60)]
    for _ in range(20):
        perm = rng.sample(range(d), d)
        signed = [[rng.choice((1.0, -1.0)) if j == perm[i] else 0.0 for j in range(d)]
                  for i in range(d)]
        nudged = [row[:] for row in signed]
        i = rng.randrange(d)
        nudged[i][(perm[i] + 1) % d] = rng.choice((1.0, -1.0)) * 2.0 ** -60
        matrices += [signed, nudged]
    return matrices


@pytest.mark.parametrize("make,name", [
    (irregular_hexagon, "hexagon"), (bipyramid_square_prism, "bipyramid"),
    (lambda: _scaled_hexagon(Fraction(7, 3 * 10 ** 30)), "hexagon/10^30")],
    ids=list(_TIED_PAIRS))
def test_rational_value_is_the_normalized_radius(make, name):
    # On a rational ball the search evaluates every candidate on the ints of
    # the evaluation table, and gets float(v) of the exact evaluation bit for
    # bit.
    p = make()
    for entries in _probe_matrices(p.dim, random.Random(77)) + _TIED_PAIRS[name]:
        want = bracket_module._normalized_radius(p, Operator(entries, backend="rational"))[0].value
        assert bracket_module._search_value(p, entries) == float(want)


def test_search_evaluates_only_the_winner_exactly(hexagon, monkeypatch):
    calls = []
    real = bracket_module._normalized_radius

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bracket_module, "_normalized_radius", counting)
    prism = oblique_prism(5, 0.5)
    for p, witnesses, seed in ((hexagon, (), 1),
                               (prism, (prism_witness_operator(5, 0.5),), 3)):
        calls.clear()
        upper_bound(p, witnesses=witnesses, search=SearchConfig(budget=100, seed=seed))
        # The witnesses and the winner; the identity is written down, and
        # evaluating every candidate through the backend takes about one per
        # candidate.
        assert len(calls) == len(witnesses) + 1


def _float_copy(p):
    return Polytope([[float(x) for x in v] for v in p.vertices], backend="float")


def _normalized_radius_cases():
    """(ball, operator) pairs: the fixtures with their witnesses and the
    identity, rational operators on seeded random balls in d = 2-4, their
    float copies, and a float operator on a rational ball."""
    hexagon = irregular_hexagon()
    cases = [(hexagon, Operator([[Fraction(1, 2), -1], [2, Fraction(3, 4)]])),
             (hexagon, Operator.identity(2)),
             (bipyramid_square_prism(), pyramid_witness_operator()),
             (prism_with_pyramids(4), prism_with_pyramids_witness(4)),
             (oblique_prism(5, 0.5), prism_witness_operator(5, 0.5)),
             (oblique_prism(3, 0.0), prism_witness_operator(3, 0.0)),
             (regular_2n_gon(12), polygon_witness_operator(12)),
             (regular_2n_gon(7), Operator.identity(2, exact=False)),
             (hexagon, Operator([[0.3, -1.7], [2.1, 0.25]]))]
    rng = random.Random(2023)
    for trial in range(12):
        d = 2 + trial % 3
        p = random_symmetric_polytope(rng, d, n_pairs=d + 2)
        matrix = random_rational_matrix(rng, d)
        cases.append((p, Operator(matrix)))
        cases.append((_float_copy(p), Operator([[float(x) for x in row] for row in matrix])))
    return cases


def test_normalized_radius_matches_two_evaluations():
    for p, op in _normalized_radius_cases():
        cert, unit = bracket_module._normalized_radius(p, op)
        if p.ctx.exact:
            # A float operator is evaluated exactly, as its exact copy.
            want, want_unit = reference_normalized_radius(p, exact_copy(op))
            assert cert == want
            assert type(cert.value) is Fraction
            assert unit.matrix == want_unit.matrix
            assert all(type(x) is Fraction for row in unit.matrix for x in row)
            continue
        want, want_unit = reference_normalized_radius(p, op)
        assert math.isclose(cert.value, want.value, rel_tol=4e-15, abs_tol=0)
        assert unit.matrix == want_unit.matrix
        # The named pair is the first incident pair attaining v(op), and the
        # value is v(op) / ||op||, on a brute-force evaluation of op.
        (norm, _), _, (radius, i, k) = reference_orbit_pair_values(p, op.matrix)
        assert (cert.vertex_index, cert.facet_index) == (i, k)
        assert cert.value == radius / norm


@pytest.mark.parametrize("make", [bipyramid_square_prism, irregular_hexagon],
                         ids=["bipyramid", "hexagon"])
def test_float_witness_on_rational_ball_is_exact(make):
    # The upper bound, its certificate and the unit witness are those of the
    # witness's exact copy, so the witness re-evaluates to norm exactly 1.
    p = make()
    rng = random.Random(25)
    for _ in range(40):
        w = Operator([[rng.uniform(-2, 2) for _ in range(p.dim)] for _ in range(p.dim)])
        value, unit, cert = upper_bound(p, witnesses=[w])
        want, want_unit = reference_normalized_radius(p, exact_copy(w))
        assert value == want.value and type(value) is Fraction
        assert cert == want
        assert unit.ctx.exact and unit.matrix == want_unit.matrix
        assert operator_norm(p, unit)[0] == 1
        assert numerical_radius(p, unit).value == value


def test_normalized_radius_of_zero_is_none():
    for p in (irregular_hexagon(), bipyramid_square_prism(), oblique_prism(5, 0.5)):
        for exact in (True, False):
            zero = Operator.zero(p.dim, exact=exact)
            assert bracket_module._normalized_radius(p, zero) is None
            assert reference_normalized_radius(p, zero) is None


@pytest.mark.parametrize("make, witness", [
    (irregular_hexagon, lambda: Operator([[Fraction(1, 2), -1], [2, Fraction(3, 4)]])),
    (bipyramid_square_prism, pyramid_witness_operator),
    (lambda: oblique_prism(5, 0.5), lambda: prism_witness_operator(5, 0.5)),
    (lambda: regular_2n_gon(40), lambda: polygon_witness_operator(40))],
    ids=["hexagon", "bipyramid", "oblique_prism(5,1/2)", "regular_2n_gon(40)"])
def test_bracket_evaluates_each_witness_once(make, witness, monkeypatch):
    calls = []
    real = operators_module._orbit_pair_values

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(operators_module, "_orbit_pair_values", counting)
    monkeypatch.setattr(bracket_module, "_orbit_pair_values", counting)
    p, w = make(), witness()
    index_bracket(p)
    assert len(calls) == 0  # the identity is written down
    index_bracket(p, witnesses=[w])
    assert len(calls) == 1


def test_identity_is_written_down():
    rng = random.Random(4)
    rational = [irregular_hexagon(), bipyramid_square_prism(), _cube4(), _cross4()]
    rational += [random_symmetric_polytope(rng, 2 + k % 3, n_pairs=5) for k in range(6)]
    for p in rational:
        value, unit, cert = upper_bound(p)
        assert cert == numerical_radius(p, Operator.identity(p.dim))
        assert value == Fraction(1) and type(value) is Fraction
        assert unit.matrix == Operator.identity(p.dim).matrix
    floats = [oblique_prism(5, 0.5), regular_2n_gon(7), regular_2n_gon(40),
              prism_with_pyramids(4), _float_copy(irregular_hexagon())]
    for p in floats:
        value, unit, cert = upper_bound(p)
        first = incidence(p).vertex_to_facets[0][0]
        assert (value, type(value)) == (1.0, float)
        assert cert == RadiusCertificate(value=1.0, vertex_index=0, facet_index=first)
        assert unit.matrix == Operator.identity(p.dim, exact=False).matrix


def test_tiny_float_hexagon_bracket():
    # Facet coefficients near 1e8: pairing facets by coordinates within the
    # absolute eps found no antipodal facet here.
    p = Polytope([[float(x) * 1e-8 for x in v] for v in irregular_hexagon().vertices],
                 backend="float")
    br = index_bracket(p)
    assert abs(br.lower - 5 / 17) <= 1e-12 * (5 / 17)
    assert br.lower <= br.upper
