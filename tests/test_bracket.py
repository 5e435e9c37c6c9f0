import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

import polyindex.bracket as bracket_module
import polyindex.linprog as linprog_module
from polyindex import (ComputationError, InputError, LinearProgram, Operator, Polytope,
                       SearchConfig, bipyramid_square_prism, facet_enumeration, gauge,
                       incidence, index_bracket, irregular_hexagon, linf_sum, lower_bound,
                       numerical_radius, oblique_prism, operator_norm, polygon_witness_operator,
                       prism_with_pyramids, prism_witness_operator, pyramid_witness_operator,
                       regular_2n_gon, scale_coordinate, solve_lp, upper_bound,
                       vertex_minimax)
from polyindex.linalg import dot, rank, scaled_integer_row
from polyindex.polytope import evaluation_table, facet_antipode_pairs
from helpers import (boundary_minimax_2d, random_rational_matrix, random_symmetric_polytope,
                     reference_half_table_value, reference_solve_lp, scaled_random_polytope)


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


def _cube4(backend=None):
    return Polytope(list(product((-1, 1), repeat=4)), backend=backend)


def _cross4(backend=None):
    return Polytope([tuple(s if k == j else 0 for k in range(4))
                     for j in range(4) for s in (1, -1)], backend=backend)


def _reference_minimax(p, facets, chosen):
    """Every per-pair LP solved, keeping the first strict minimum:
    (value, sphere facet, minimizer). Each LP is the min-max with mu = lam/t:
    maximize sum mu subject to -1 <= f(sum mu_j w_j) <= 1 for every f."""
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
            x = tuple(sum(sol.point[a] * p.vertices[j][c] for a, j in enumerate(members))
                      / -sol.value for c in range(p.dim))
            best = (-1 / sol.value, k, x)
    return best


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
    p = make()
    facets = facet_enumeration(p)
    inc = incidence(p)
    reps = p.orbit_representatives()
    # Every orbit, and one vertex that is not an orbit representative: the
    # facet table vertex_minimax builds for it holds only its own functionals.
    for i in reps + (p.antipode_index(reps[0]),):
        incident = inc.vertex_to_facets[i]
        # A different functional order, and a proper subset where one exists.
        subset = next(tuple(reversed(sub)) for sub in combinations(incident, p.dim)
                      if rank([facets[k].coeffs for k in sub], p.ctx) == p.dim)
        for chosen in (None, subset):
            e = vertex_minimax(p, i, subset=chosen)
            want = _reference_minimax(p, facets, incident if chosen is None else chosen)
            assert (e.value, e.sphere_facet_index, e.minimizer) == want


def test_lower_bound_work_counts(monkeypatch):
    results = {"solve_lp": [], "facet_antipode_pairs": []}
    for name in results:
        real = getattr(bracket_module, name)

        def recording(*args, _real=real, _name=name):
            results[_name].append(_real(*args))
            return results[_name][-1]

        monkeypatch.setattr(bracket_module, name, recording)
    p = regular_2n_gon(40)
    br = index_bracket(p, search=SearchConfig(budget=100, seed=1))
    # The lower bound's facet table and the search's half table both read
    # the pairing, which is computed once for the ball.
    pairings = results["facet_antipode_pairs"]
    assert len(pairings) == 2 and pairings[1] is pairings[0]
    orbits, pairs = len(br.lower_certificate.entries), len(facet_enumeration(p)) // 2
    assert (orbits, pairs) == (40, 40)
    # Facets are visited by their bound, and the loop stops at the first
    # one that cannot beat the best value so far.
    assert 0 < len(results["solve_lp"]) <= 2 * orbits


@pytest.mark.parametrize("make", [_cube4, _cross4], ids=["4-cube", "4-cross-polytope"])
def test_tied_floors_cost_no_exact_lp(make, monkeypatch):
    # Every floor of these balls ties the vertex bound. On rationals the
    # first facet visited decides each orbit, and every later one is skipped
    # by its (bound, facet index); floats still solve every eps-tie.
    calls = []

    def counting(lp, ctx):
        calls.append(lp)
        return solve_lp(lp, ctx)

    monkeypatch.setattr(bracket_module, "solve_lp", counting)
    for backend in ("rational", "float"):
        p = make(backend)
        orbits, pairs = len(p.orbit_representatives()), len(facet_antipode_pairs(p))
        assert orbits * pairs == 32
        calls.clear()
        lower_bound(p)
        assert len(calls) == (orbits if backend == "rational" else 32), backend


def test_bound_tying_the_best_value_is_solved_at_a_lower_index(square):
    # A hand-made table on the square's vertex 0 and its two functionals
    # f, g. Facet 1 has floor 0 and value 1/2 (f falls 1 -> 0 as g rises
    # 0 -> 1); facet 0 has floor = value = 1/2 (f = 1/2 throughout). Facet
    # 1 is solved first; facet 0 ties its value at a lower index, so it
    # must be solved and win, and a stop on the value alone would miss it.
    f, g = incidence(square).vertex_to_facets[0]
    sphere = (bracket_module._SphereFacet(index=0, members=(0, 1),
                                          rows={f: ([1, 1], 2), g: ([0, 0], 1)},
                                          floors={f: Fraction(1, 2), g: 0}),
              bracket_module._SphereFacet(index=1, members=(0, 3),
                                          rows={f: ([1, 0], 1), g: ([0, 1], 1)},
                                          floors={f: 0, g: 0}))
    e = bracket_module._vertex_minimax(square, sphere, 0, None)
    assert (e.value, e.sphere_facet_index) == (Fraction(1, 2), 0)


def test_lower_bound_failures_name_vertex_and_facet(hexagon, monkeypatch):

    def failing(lp, ctx):
        raise ComputationError("simplex exceeded its pivot budget (cycling?)")

    monkeypatch.setattr(bracket_module, "solve_lp", failing)
    with pytest.raises(ComputationError) as exc:
        lower_bound(hexagon)
    # The first LP attempted is on the sphere facet with the least bound
    # for vertex 0 (the largest floor of its functionals), ties to the
    # lowest facet index.
    facets = facet_enumeration(hexagon)
    chosen = incidence(hexagon).vertex_to_facets[0]

    def bound(k):
        floors = []
        for r in chosen:
            vals = [dot(facets[r].coeffs, hexagon.vertices[j]) for j in facets[k].incident_vertices]
            floors.append(min(map(abs, vals)) if min(vals) > 0 or max(vals) < 0 else 0)
        return max(floors)

    first = min((bound(k), k) for k, _ in facet_antipode_pairs(hexagon))[1]
    assert str(exc.value) == (f"vertex 0, sphere facet {first}: "
                              "simplex exceeded its pivot budget (cycling?)")
    assert isinstance(exc.value.__cause__, ComputationError)


@pytest.mark.parametrize("make", [irregular_hexagon, bipyramid_square_prism, _cross4,
                                  lambda: regular_2n_gon(12), lambda: oblique_prism(5, 0.5)],
                         ids=["hexagon", "bipyramid", "4-cross-polytope", "24-gon",
                              "oblique_prism(5,1/2)"])
def test_facet_lps_start_at_the_slack_basis(make, monkeypatch):
    # Every facet LP maximizes sum mu over mu >= 0 with no equality row and a
    # positive right-hand side on every row, so mu = 0 is a feasible start
    # and the simplex runs once per LP.
    solved, runs = [], []

    def recording(lp, ctx):
        solved.append(lp)
        return solve_lp(lp, ctx)

    def counting(*args):
        runs.append(args)
        return real_simplex(*args)

    real_simplex = linprog_module._simplex
    monkeypatch.setattr(bracket_module, "solve_lp", recording)
    monkeypatch.setattr(linprog_module, "_simplex", counting)
    lower_bound(make())
    assert solved and len(runs) == len(solved)
    for lp in solved:
        assert lp.eq_lhs == () and lp.eq_rhs == ()
        assert lp.ineq_rhs and all(b > 0 for b in lp.ineq_rhs), lp
        assert lp.objective == (-1,) * lp.n_vars and lp.nonneg == (True,) * lp.n_vars


def test_facet_lps_match_fraction_simplex(monkeypatch, hexagon, bipyramid):
    # Every facet LP of the lower bound, solved on integer rows, has the
    # status, value, point and basis of the Fraction simplex. On a rational
    # ball the LPs reach solve_lp with int coefficients only.
    solved = []

    def recording(lp, ctx):
        sol = solve_lp(lp, ctx)
        solved.append((lp, sol))
        return sol

    monkeypatch.setattr(bracket_module, "solve_lp", recording)
    cube, cross = _cube4(), _cross4()
    # Facets whose vertices differ in denominator: each member's values are
    # brought to the facet's common vertex scale by its own factor.
    mixed = (scale_coordinate(bipyramid_square_prism(), 0, Fraction(1, 3)),
             scaled_random_polytope(3))
    for p in mixed:
        own = [scaled_integer_row(v)[1] for v in p.vertices]
        assert any(len({own[j] for j in f.incident_vertices}) > 1 for f in facet_enumeration(p))
    for p in (hexagon, bipyramid, linf_sum(hexagon, hexagon), cube, cross) + mixed:
        solved.clear()
        lower_bound(p)
        assert solved
        for lp, sol in solved:
            assert sol == reference_solve_lp(lp), lp
            coeffs = chain(lp.objective, lp.ineq_rhs, *lp.ineq_lhs)
            assert all(type(x) is int for x in coeffs), lp
            # Each row -1 <= f_r(sum mu_j w_j) <= 1 comes times its scale (its
            # right-hand side); over that scale it is the LP of Fraction values.
            unscaled = LinearProgram(
                objective=lp.objective, ineq_rhs=[1] * len(lp.ineq_rhs), nonneg=lp.nonneg,
                ineq_lhs=[[Fraction(x, b) for x in row]
                          for row, b in zip(lp.ineq_lhs, lp.ineq_rhs)])
            assert sol == reference_solve_lp(unscaled), lp


@pytest.mark.parametrize("make", [
    irregular_hexagon, bipyramid_square_prism,
    lambda: linf_sum(irregular_hexagon(), irregular_hexagon()), _cube4, _cross4,
    # Facets whose members differ in denominator.
    lambda: scale_coordinate(bipyramid_square_prism(), 0, Fraction(1, 3)),
    lambda: scaled_random_polytope(3),
])
def test_sphere_facet_rows_are_scaled_integer_rows(make):
    # Every row of the sphere's facet table is scaled_integer_row of the
    # Fraction values f_r(w_a) over the facet's members, and its floor is
    # the least |f_r| there when they share a strict sign, else 0. The facet
    # LPs take these ints as they are.
    p = make()
    facets = facet_enumeration(p)
    sphere = bracket_module._sphere_facets(p, range(len(facets)))
    assert [sf.index for sf in sphere] == [k for k, _ in facet_antipode_pairs(p)]
    for sf in sphere:
        assert sf.members == tuple(sorted(facets[sf.index].incident_vertices))
        assert sorted(sf.rows) == list(range(len(facets)))
        for r, (row, scale) in sf.rows.items():
            values = [dot(facets[r].coeffs, p.vertices[j]) for j in sf.members]
            assert (row, scale) == scaled_integer_row(values)
            sign = min(values) > 0 or max(values) < 0
            assert sf.floors[r] == (min(map(abs, values)) if sign else 0)


def _reference_search(p, witnesses, budget, seed):
    """The search loop with every candidate evaluated by a plain reference:
    on a rational ball an exact Operator, its norm and its normalized
    radius, compared as floats; on a float ball v over half the table in
    floats (:func:`helpers.reference_half_table_value`). The winner alone
    is evaluated by the backend."""
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
    cert, unit = unit_radius(best[1])
    return [(cert.value, unit, cert)]


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
    # the half table, and gets float(v) of the exact evaluation bit for bit.
    p = make()
    table = bracket_module._HalfTable(p)
    for entries in _probe_matrices(p.dim, random.Random(77)) + _TIED_PAIRS[name]:
        want = bracket_module._normalized_radius(p, Operator(entries, backend="rational"))[0].value
        assert table.value(entries) == float(want)


def test_search_evaluates_only_the_winner_exactly(hexagon, monkeypatch):
    calls = []
    real = bracket_module.operator_norm

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bracket_module, "operator_norm", counting)
    prism = oblique_prism(5, 0.5)
    for p, witnesses, seed in ((hexagon, (), 1),
                               (prism, (prism_witness_operator(5, 0.5),), 3)):
        calls.clear()
        upper_bound(p, witnesses=witnesses, search=SearchConfig(budget=100, seed=seed))
        # The witnesses, the identity fallback and the winner; evaluating
        # every candidate through the backend takes about one per candidate.
        assert len(calls) <= len(witnesses) + 2


def test_tiny_float_hexagon_bracket():
    # Facet coefficients near 1e8: pairing facets by coordinates within the
    # absolute eps found no antipodal facet here.
    p = Polytope([[float(x) * 1e-8 for x in v] for v in irregular_hexagon().vertices],
                 backend="float")
    br = index_bracket(p)
    assert abs(br.lower - 5 / 17) <= 1e-12 * (5 / 17)
    assert br.lower <= br.upper
