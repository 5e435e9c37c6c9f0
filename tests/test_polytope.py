import itertools
import math
import random
import warnings
from fractions import Fraction
from operator import truediv

import pytest
from hypothesis import given, settings, strategies as st

import polyindex.polytope as polytope_module
from polyindex import (InputError, Operator, Polytope, ValidationError,
                       bipyramid_square_prism, facet_enumeration, gauge, incidence,
                       irregular_hexagon, linf_sum, oblique_prism, prism_with_pyramids,
                       regular_2n_gon, scale_coordinate, segment, validate)
import polyindex.linalg as linalg_module
import polyindex.scalars as scalars_module
from polyindex.linalg import column_dots, dot, rank, vsub
from polyindex.polytope import (_PointIndex, _double_description, _polar_cone, _vertex_flags,
                                evaluation_table, facet_antipode_pairs)
from polyindex.scalars import (EXACT, Context, float_context, integer_row, scaled_integer_row,
                               scaled_integer_rows)
from helpers import (brute_force_facets, random_symmetric_polytope, reference_antipode_map,
                     reference_double_description, reference_index_of, reference_polar_cone,
                     reference_strip, reference_vertex_flags, scaled_random_polytope)


def coeff_set(facets):
    return sorted(f.coeffs for f in facets)


def test_square_facets(square):
    facets = facet_enumeration(square)
    assert coeff_set(facets) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_hexagon_facets_contain_known_functional(hexagon, hexagon_facets):
    assert (Fraction(2, 3), Fraction(1, 3)) in coeff_set(hexagon_facets)
    assert len(hexagon_facets) == 6


def test_prism_n2_facet_count():
    # Right prism over the rotated square: 4 side rectangles plus top and
    # bottom squares. Frozen from the all-subsets oracle.
    p = oblique_prism(2, 0.0)
    assert len(p.vertices) == 8
    facets = facet_enumeration(p)
    assert len(facets) == 6


def test_facets_match_oracle_on_exact_prism():
    # Same solid with exact coordinates; oracle agreement is exact.
    verts = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
             (1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)]
    p = Polytope(verts)
    assert coeff_set(facet_enumeration(p)) == brute_force_facets(verts)


def test_repr_names_the_backend():
    assert repr(Polytope([(1,), (-1,)])) == "Polytope(dim=1, vertices=2, backend=rational)"
    assert repr(regular_2n_gon(3)) == "Polytope(dim=2, vertices=6, backend=float)"


def test_unknown_backend_rejected():
    with pytest.raises(InputError, match=r"^unknown backend 'quadratic' \(expected 'rational' "
                                         r"or 'float'\)$"):
        Polytope([(1,), (-1,)], backend="quadratic")


@pytest.mark.parametrize("make", [irregular_hexagon, lambda: oblique_prism(3, 0.5)],
                         ids=["hexagon", "oblique_prism(3,1/2)"])
def test_facet_functional_call_is_its_dot_product(make):
    p = make()
    x = p.vertices[1]
    for f in facet_enumeration(p):
        assert f(x) == dot(f.coeffs, x)
        assert p.ctx.eq(f(x), 1) == (1 in f.incident_vertices)


@pytest.mark.parametrize("make", [irregular_hexagon, lambda: regular_2n_gon(5),
                                  lambda: oblique_prism(3, 0.5)],
                         ids=["hexagon", "10-gon", "oblique_prism(3,1/2)"])
def test_both_backends_keep_rows_over_one_scale(make):
    # A ball's vertex rows and facet rows over their scales are its vertices
    # and facet coefficients: ints over L_W and L_F on rationals, the rows
    # themselves over 1 on floats; the evaluation table reads them as they are.
    p = make()
    facets = facet_enumeration(p)
    (w, vertex_scale), (rows, facet_scale) = p._scaled, p._facet_rows
    if not p.ctx.exact:
        assert (vertex_scale, facet_scale) == (1, 1)
        assert w is p.vertices and rows == tuple(f.coeffs for f in facets)
    over = Fraction if p.ctx.exact else truediv
    assert [tuple(over(x, vertex_scale) for x in v) for v in w] == list(p.vertices)
    assert [tuple(over(x, facet_scale) for x in r) for r in rows] == [f.coeffs for f in facets]
    table = evaluation_table(p)
    assert (table.facets, table.facet_scale, table.vertices, table.vertex_scale) == \
        (rows, facet_scale, w, vertex_scale)


def test_square_incidence(square):
    facets = facet_enumeration(square)
    inc = incidence(square)
    i_vertex = square.vertices.index((Fraction(1), Fraction(1)))
    mine = {facets[k].coeffs for k in inc.vertex_to_facets[i_vertex]}
    assert mine == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}


def test_bipyramid_incidence_counts(bipyramid, bipyramid_facets, bipyramid_incidence):
    inc = bipyramid_incidence
    v1 = bipyramid.vertices.index((Fraction(1), Fraction(1), Fraction(1)))
    apex = bipyramid.vertices.index((Fraction(0), Fraction(0), Fraction(2)))
    assert len(inc.vertex_to_facets[v1]) == 4
    assert len(inc.vertex_to_facets[apex]) == 4
    # The four facets at the apex are the four upper triangles, whose
    # functionals have last coefficient 1/2.
    apex_facets = {bipyramid_facets[k].coeffs for k in inc.vertex_to_facets[apex]}
    assert apex_facets == {
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(0), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(0), Fraction(1, 2)),
    }


def test_gauge_examples(square, hexagon):
    assert gauge(square, (2, 0)) == Fraction(2)
    assert gauge(hexagon, (Fraction(1, 2), Fraction(2))) == Fraction(1)


def test_gauge_is_one_on_every_vertex(hexagon, bipyramid):
    for p in (hexagon, bipyramid):
        for v in p.vertices:
            assert gauge(p, v) == Fraction(1)


def test_gauge_dimension_mismatch(hexagon):
    with pytest.raises(InputError):
        gauge(hexagon, (1, 2, 3))


def test_validate_passes_on_square(square):
    report = validate(square)
    assert report.ok and not report.violations


def test_validate_rejects_interior_point(square):
    p = Polytope(list(square.vertices) + [(0, 0)])
    report = validate(p)
    assert not report.ok
    assert any("not extreme" in v for v in report.violations)
    # A vertex listed twice: both copies lie in the hull of the others, and
    # the point is reported once.
    report = validate(Polytope(list(square.vertices) + [(1, 1)]))
    assert [v for v in report.violations if "not extreme" in v] == [
        "vertex 0 (1, 1) is not extreme (lies in the hull of the others)"]


def test_validate_rejects_collinear():
    p = Polytope([(1, 0), (-1, 0), (2, 0), (-2, 0)])
    report = validate(p)
    msgs = " ".join(report.violations)
    assert "full-dimensional" in msgs
    assert "not extreme" in msgs


def test_validate_rejects_asymmetric():
    p = Polytope([(1, 0), (-1, 0), (0, 1), (0, -2)])
    report = validate(p)
    assert any("antipode" in v for v in report.violations)


def test_exact_symmetric_validation_takes_no_rank(monkeypatch):
    # A symmetric rational set is full-dimensional exactly when its polar
    # cone has no lineality; sets that are not symmetric, and floats, keep
    # the rank.
    hexagon = irregular_hexagon()
    balls = [Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)]), hexagon, bipyramid_square_prism(),
             linf_sum(hexagon, hexagon), scaled_random_polytope(3)]
    rng = random.Random(11)
    balls += [random_symmetric_polytope(rng, d, n_pairs=d + 3) for d in (2, 3, 4, 5)]
    calls = []
    real = polytope_module.rank

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope_module, "rank", counting)
    for p in balls:
        assert validate(Polytope(p.vertices)).ok
    assert calls == []
    validate(Polytope([(1, 0), (-1, 0), (0, 1), (0, -2)]))
    assert len(calls) == 1
    validate(Polytope([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]))
    assert len(calls) > 1


@pytest.mark.parametrize("points, violations", [
    ([(1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0)],
     ("not full-dimensional: vertices span less than 3 dimensions",)),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, -1), (1, 1, 1), (-1, -1, -1), (0, 0, 0)],
     ("not full-dimensional: vertices span less than 3 dimensions",
      "vertex 6 (0, 0, 0) is not extreme (lies in the hull of the others)")),
    ([(1, 2), (-1, -2), (2, 4), (-2, -4)],
     ("not full-dimensional: vertices span less than 2 dimensions",
      "vertex 0 (1, 2) is not extreme (lies in the hull of the others)",
      "vertex 1 (-1, -2) is not extreme (lies in the hull of the others)")),
    ([(0, 0)], ("not full-dimensional: vertices span less than 2 dimensions",)),
], ids=["flat-square", "flat-with-origin", "line", "origin"])
def test_symmetric_flat_rational_set_is_not_full_dimensional(points, violations):
    assert validate(Polytope(points)).violations == violations


def test_facet_enumeration_raises_on_invalid():
    p = Polytope([(1, 0), (-1, 0), (2, 0), (-2, 0)])
    with pytest.raises(ValidationError) as exc:
        facet_enumeration(p)
    assert "full-dimensional" in str(exc.value)


def test_permissive_strips_with_warning(square):
    with pytest.warns(UserWarning, match="non-extreme"):
        p = Polytope(list(square.vertices) + [(0, 0)], permissive=True)
    assert set(p.vertices) == set(square.vertices)
    with pytest.warns(UserWarning, match="duplicate"):
        p = Polytope(list(square.vertices) + [(1, 1)], permissive=True)
    assert len(p.vertices) == 4


def _in_hull_of(points, x):
    """Independent oracle: is x a convex combination of points? (scipy HiGHS)"""
    import numpy as np
    from scipy.optimize import linprog
    a = np.array(points, dtype=float).T
    a_eq = np.vstack([a, np.ones(len(points))])
    b_eq = np.append(np.array(x, dtype=float), 1.0)
    res = linprog(np.zeros(len(points)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _random_bad_input(rng):
    """Small integer point sets, each drawn to break a unit-ball invariant
    some of the time: asymmetric, rank-deficient, duplicated, with the origin."""
    dim = rng.choice((2, 3))
    pts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:  # flatten onto a coordinate hyperplane
        pts = [v[:-1] + (0,) for v in pts]
    if rng.random() < 0.6:
        pts += [tuple(-x for x in v) for v in pts]
    if rng.random() < 0.3:
        pts.append(rng.choice(pts))
    if rng.random() < 0.3:
        pts.insert(rng.randrange(len(pts) + 1), (0,) * dim)
    rng.shuffle(pts)
    return pts


def test_validation_matches_lp_oracle():
    import numpy as np
    rng = random.Random(2024)
    # The 4-D cross-polytope with an edge midpoint: the midpoint lies on d = 4
    # facets whose functionals have rank 3, so counting facets is not enough.
    cross = [tuple(2 * s if k == j else 0 for k in range(4)) for j in range(4) for s in (1, -1)]
    cases = [_random_bad_input(rng) for _ in range(80)] + [cross + [(1, 1, 0, 0), (-1, -1, 0, 0)]]
    for pts in cases:
        dim = len(pts[0])
        for backend in ("rational", "float"):
            p = Polytope(pts, backend=backend)
            show = str if backend == "rational" else (lambda x: repr(float(x)))

            def named(i, v):
                return f"vertex {i} ({', '.join(map(show, v))})"

            expected = [f"not symmetric: {named(i, v)} has no antipode"
                        for i, v in enumerate(pts) if tuple(-x for x in v) not in pts]
            if np.linalg.matrix_rank(np.array(pts, dtype=float)) < dim:
                expected.append(f"not full-dimensional: vertices span less than {dim} dimensions")
            flagged = {}  # point -> its first index
            for i, v in enumerate(pts):
                others = pts[:i] + pts[i + 1:]
                if others and _in_hull_of(others, v):
                    flagged.setdefault(v, i)
            expected += [f"{named(i, v)} is not extreme (lies in the hull of the others)"
                         for v, i in flagged.items()]
            assert list(validate(p).violations) == expected, (pts, backend)

            kept = list(dict.fromkeys(pts))
            survivors = [v for i, v in enumerate(kept)
                         if not (len(kept) > 1 and _in_hull_of(kept[:i] + kept[i + 1:], v))]
            with warnings.catch_warnings(record=True) as dropped:
                warnings.simplefilter("always")
                stripped = Polytope(pts, backend=backend, permissive=True)
            assert len(dropped) == len(pts) - len(survivors)
            assert stripped.vertices == Polytope(survivors, backend=backend).vertices, pts


def test_one_double_description_per_polytope(monkeypatch, square):
    import polyindex.polytope as polytope_module
    calls = []
    real = polytope_module._double_description

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytope_module, "_double_description", counting)
    p = Polytope(square.vertices)
    assert validate(p).ok
    facet_enumeration(p)
    facet_enumeration(p)
    assert len(calls) == 1
    facet_enumeration(Polytope(square.vertices))
    assert len(calls) == 2


@pytest.mark.parametrize("make", [
    lambda: Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)]),
    irregular_hexagon,
    bipyramid_square_prism,
    lambda: linf_sum(irregular_hexagon(), irregular_hexagon()),
    lambda: Polytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                      (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]),
    *[lambda n=n: regular_2n_gon(n) for n in (2, 3, 7, 40)],
    *[lambda n=n, l=l: oblique_prism(n, l) for n in (2, 3, 5, 8) for l in (0, 0.25, 0.5, 1)],
    *[lambda n=n: prism_with_pyramids(n) for n in (2, 3, 6)],
])
def test_incidence_from_double_description_matches_dot_products(make):
    # The facets' vertex sets come from the zero sets of the double
    # description; they must be the vertices v with f(v) = 1.
    p = make()
    for f in facet_enumeration(p):
        on_facet = {i for i, v in enumerate(p.vertices) if p.ctx.eq(dot(f.coeffs, v), 1)}
        assert f.incident_vertices == on_facet


@pytest.mark.parametrize("backend", [None, "float", "rational"])
def test_non_finite_coordinates_rejected(backend):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError):
            Polytope([(bad, 0), (-bad, 0), (0, 1), (0, -1)], backend=backend)
    with pytest.raises(InputError, match="finite"):
        Operator([[math.nan, 0], [0, 1]])


def test_strict_mode_keeps_input_for_validation(square):
    p = Polytope(list(square.vertices) + [(0, 0)])
    assert len(p.vertices) == 5  # left in place; validation reports it


def test_facets_match_oracle_on_random_instances():
    rng = random.Random(42)
    for trial in range(12):
        dim = 2 if trial % 2 == 0 else 3
        p = random_symmetric_polytope(rng, dim, n_pairs=rng.randint(dim + 1, 6))
        assert len(p.vertices) <= 12
        assert coeff_set(facet_enumeration(p)) == brute_force_facets(p.vertices)


def test_hull_round_trip_random():
    # Original extreme points have gauge exactly 1; stripped interior
    # points have gauge < 1... at most 1.
    rng = random.Random(99)
    for _ in range(6):
        p = random_symmetric_polytope(rng, 2, n_pairs=5)
        for v in p.vertices:
            assert gauge(p, v) == Fraction(1)
        # random hull points stay inside
        for _ in range(10):
            w = rng.choices(range(len(p.vertices)), k=2)
            t = Fraction(rng.randint(0, 10), 10)
            x = tuple(t * a + (1 - t) * b for a, b in zip(p.vertices[w[0]], p.vertices[w[1]]))
            assert gauge(p, x) <= Fraction(1)


def test_incident_sets_span_facet_dimension(bipyramid, bipyramid_facets):
    for f in bipyramid_facets:
        members = sorted(f.incident_vertices)
        base = bipyramid.vertices[members[0]]
        diffs = [vsub(bipyramid.vertices[j], base) for j in members[1:]]
        assert rank(diffs, bipyramid.ctx) == bipyramid.dim - 1


def test_every_vertex_on_at_least_dim_facets(bipyramid, bipyramid_incidence):
    for facet_list in bipyramid_incidence.vertex_to_facets:
        assert len(facet_list) >= bipyramid.dim
    for vertex_list in bipyramid_incidence.facet_to_vertices:
        assert len(vertex_list) >= bipyramid.dim


def test_incidence_bidirectionally_consistent(hexagon):
    inc = incidence(hexagon)
    for i, ks in enumerate(inc.vertex_to_facets):
        for k in ks:
            assert i in inc.facet_to_vertices[k]
    for k, js in enumerate(inc.facet_to_vertices):
        for j in js:
            assert k in inc.vertex_to_facets[j]


coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(coords, coords, coords, coords, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_gauge_norm_axioms(hexagon, x0, x1, y0, y1, lam):
    x, y = (x0, x1), (y0, y1)
    gx = gauge(hexagon, x)
    gy = gauge(hexagon, y)
    assert gauge(hexagon, (x0 + y0, x1 + y1)) <= gx + gy
    assert gauge(hexagon, (lam * x0, lam * x1)) == abs(lam) * gx
    assert (gx == 0) == (x == (0, 0))


def test_float_backend_facets_close_to_exact():
    # The same octagon on both backends: facet sets agree within 1e-9.
    n = 4
    float_verts = [(math.cos(j * math.pi / n), math.sin(j * math.pi / n))
                   for j in range(2 * n)]
    pf = Polytope(float_verts, backend="float")
    facets = facet_enumeration(pf)
    oracle = brute_force_facets(float_verts, tol=1e-9)
    assert len(facets) == len(oracle) == 8
    for mine in coeff_set(facets):
        dist = min(max(abs(a - b) for a, b in zip(mine, ref)) for ref in oracle)
        assert dist < 1e-9


def test_segment_dimension_one():
    from polyindex import segment
    s = segment()
    facets = facet_enumeration(s)
    assert coeff_set(facets) == [(-1,), (1,)]


def _reference_facet_pairs(facets, ctx):
    """The coordinate scan that paired facets before they were paired by
    vertex sets: each facet, in order, with the first unused facet whose
    coefficients equal its negation within the context's tolerance."""
    pairs = []
    used = set()
    for k, f in enumerate(facets):
        if k in used:
            continue
        neg = tuple(-c for c in f.coeffs)
        partner = None
        for j in range(len(facets)):
            if j != k and j not in used and all(ctx.eq(a, b) for a, b in zip(facets[j].coeffs, neg)):
                partner = j
                break
        assert partner is not None, f"facet {f.coeffs} has no antipodal facet"
        used.update((k, partner))
        pairs.append((k, partner))
    return tuple(pairs)


def _antipode_cases():
    yield from (Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)]), irregular_hexagon(),
                bipyramid_square_prism(), linf_sum(irregular_hexagon(), irregular_hexagon()))
    for n in range(2, 13):
        for l in (0.0, 0.25, 0.5, 1.0):
            yield oblique_prism(n, l)
        yield regular_2n_gon(n)
        yield prism_with_pyramids(n)
    rng = random.Random(4242)
    for trial in range(40):
        yield random_symmetric_polytope(rng, 2 + trial % 2, n_pairs=rng.randint(3, 7))


def test_facet_antipodes_match_coordinates():
    for p in _antipode_cases():
        want = _reference_facet_pairs(facet_enumeration(p), p.ctx)
        assert facet_antipode_pairs(p) == want, p


def test_combinatorics_computed_once_per_ball():
    p = irregular_hexagon()
    assert facet_enumeration(p) is facet_enumeration(p)
    assert incidence(p) is incidence(p)
    assert facet_antipode_pairs(p) is facet_antipode_pairs(p)
    assert evaluation_table(p) is evaluation_table(p)
    q = irregular_hexagon()
    assert facet_enumeration(q) == facet_enumeration(p)
    assert facet_enumeration(q) is not facet_enumeration(p)


@pytest.mark.parametrize("make", [
    irregular_hexagon, bipyramid_square_prism,
    lambda: scale_coordinate(irregular_hexagon(), 1, Fraction(3, 7)),
    lambda: linf_sum(irregular_hexagon(), scale_coordinate(segment(), 0, Fraction(5, 2))),
    lambda: oblique_prism(3, 0.5), lambda: regular_2n_gon(6),
    lambda: scaled_random_polytope(4),
])
def test_evaluation_table_rows(make):
    p = make()
    table = evaluation_table(p)
    coeffs = [f.coeffs for f in facet_enumeration(p)]
    if not p.ctx.exact:
        assert (table.facets, table.facet_scale, table.vertices, table.vertex_scale) == \
            (tuple(coeffs), 1, p.vertices, 1)
        return
    for rows, scale, want in ((table.facets, table.facet_scale, coeffs),
                              (table.vertices, table.vertex_scale, p.vertices)):
        assert all(type(x) is int for row in rows for x in row)
        assert [tuple(Fraction(x, scale) for x in row) for row in rows] == list(want)
        # The least common scale: the lcm of the denominators.
        assert scale == math.lcm(*[x.denominator for row in want for x in row])
        # Each row and the scale divided by their gcd is the row's own
        # scaled_integer_row: the one primitive pair of its values.
        assert [([x // math.gcd(*row, scale) for x in row], scale // math.gcd(*row, scale))
                for row in rows] == [scaled_integer_row(w) for w in want]


@pytest.mark.parametrize("values", [
    [5e-324], [-0.0], [1e308], [-5e-324, 1e308],
    [0.1, -0.0, 3, Fraction(1, 3), 5e-324, 1e308, -2.5],
], ids=["subnormal", "-0.0", "1e308", "extremes", "mixed"])
def test_scaled_integer_row_reads_floats_at_their_exact_values(values):
    # The same ints and scale as the Fractions of the floats' binary values.
    want = scaled_integer_row([Fraction(x) for x in values])
    got = scaled_integer_row(values)
    assert got == want and all(type(x) is int for x in got[0])
    assert scaled_integer_rows([values, values[::-1]]) == \
        scaled_integer_rows([[Fraction(x) for x in row] for row in (values, values[::-1])])


def test_dot_adds_left_to_right():
    # 1e16 + 1 rounds to 1e16, so a plain left-to-right sum is 0.0; a
    # compensated sum (the float sum() of Python 3.12 on) would give 1.0.
    a, b = (1e16, 1.0, -1e16), (1.0, 1.0, 1.0)
    assert dot(a, b) == 0.0
    assert list(column_dots([(x,) for x in a], [(y,) for y in b])) == [0.0]
    assert list(column_dots([(1, 2), (3, 4)], [(5, 6), (7, 8)])) == [26, 44]


@pytest.mark.parametrize("make", [
    irregular_hexagon, bipyramid_square_prism,
    lambda: scale_coordinate(irregular_hexagon(), 1, Fraction(3, 7)),
    lambda: scaled_random_polytope(4),
])
def test_rational_vertices_scaled_to_ints_once_per_ball(make, monkeypatch):
    vertices = make().vertices
    scalings, row_calls = [], []
    real = scalars_module.scaled_integer_rows

    def counting(rows):
        scalings.append(rows)
        return real(rows)

    def recording(values):
        row_calls.append(values)
        return integer_row(values)

    monkeypatch.setattr(scalars_module, "scaled_integer_rows", counting)
    monkeypatch.setattr(scalars_module, "integer_row", recording)
    monkeypatch.setattr(linalg_module, "integer_row", recording)
    # The ball scales its vertex list when it is built, and nothing after.
    p = Polytope(vertices)
    assert validate(p).ok
    facet_enumeration(p)
    assert [p.antipode_index(i) for i in range(len(p))] == list(reference_antipode_map(p.vertices))
    table = evaluation_table(p)
    assert [list(map(tuple, rows)) for rows in scalings] == [list(vertices)]
    assert (table.vertices, table.vertex_scale) == real(p.vertices)
    assert row_calls == []


@pytest.mark.parametrize("make", [
    lambda: regular_2n_gon(12), lambda: oblique_prism(5, 0.25), lambda: prism_with_pyramids(3),
    lambda: Polytope(bipyramid_square_prism().vertices, backend="float"),
])
def test_float_ball_builds_one_point_index_and_ranks_without_coerce(make, monkeypatch):
    vertices = make().vertices
    indexes, coerced, ranks, in_rank = [], [], [], [False]
    real_coerce = Context.coerce

    class CountingIndex(_PointIndex):
        def __init__(self, points, ctx):
            indexes.append(tuple(points))
            super().__init__(points, ctx)

    def coerce(self, value):
        if in_rank[0]:
            coerced.append(value)
        return real_coerce(self, value)

    def ranking(rows, ctx):
        ranks.append(rows)
        in_rank[0] = True
        try:
            return rank(rows, ctx)
        finally:
            in_rank[0] = False

    monkeypatch.setattr(polytope_module, "_PointIndex", CountingIndex)
    monkeypatch.setattr(Context, "coerce", coerce)
    monkeypatch.setattr(polytope_module, "rank", ranking)
    p = Polytope(vertices, backend="float")
    assert validate(p).ok
    facet_enumeration(p)
    evaluation_table(p)
    # One index, of the vertices, for the antipodes and the repeat check.
    assert indexes == [p.vertices]
    # A rank per vertex face and one of the vertices, none coercing a row.
    assert len(ranks) == len(p) + 1 and coerced == []
    assert p.orbit_representatives() is p.orbit_representatives()


def test_rational_facets_and_table_build_no_fraction(monkeypatch):
    # Facet rows, sort keys and report text all come from the int rays; a
    # facet's Fractions are built only when its coeffs are read.
    balls = [irregular_hexagon(), bipyramid_square_prism(), scaled_random_polytope(3),
             linf_sum(irregular_hexagon(), segment())]
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    for module in (polytope_module, scalars_module):
        monkeypatch.setattr(module, "Fraction", Counting)
    balls.append(Polytope([(2, 1, 0), (-2, -1, 0), (0, 3, 1), (0, -3, -1), (1, 0, 5), (-1, 0, -5)]))
    for p in balls:
        facet_enumeration(p)
        evaluation_table(p)
    assert built == []
    assert balls[0].vertices[1] == (Fraction(1, 2), Fraction(2)) and built


def test_facet_antipodes_of_a_tiny_float_hexagon():
    # Facet coefficients near 1e8 differ from their exact negations by far
    # more than the absolute eps; the vertex sets still pair them.
    p = Polytope([[float(x) * 1e-8 for x in v] for v in irregular_hexagon().vertices],
                 backend="float")
    facets = facet_enumeration(p)
    pairs = facet_antipode_pairs(p)
    assert len(pairs) == 3
    for k, k2 in pairs:
        assert facets[k2].incident_vertices == {p.antipode_index(i)
                                                for i in facets[k].incident_vertices}
        f, g = facets[k].coeffs, facets[k2].coeffs
        assert max(abs(a + b) for a, b in zip(f, g)) <= 1e-12 * max(map(abs, f))


def _rational_balls():
    hexagon = irregular_hexagon()
    yield Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    yield hexagon
    yield bipyramid_square_prism()
    yield segment()
    yield linf_sum(hexagon, hexagon)
    yield linf_sum(hexagon, segment())
    yield scale_coordinate(hexagon, 0, Fraction(3, 7))
    yield Polytope([tuple(s * (k == j) for k in range(4)) for j in range(4) for s in (1, -1)])
    yield Polytope(list(itertools.product((1, -1), repeat=4)))
    # Float families with their binary coordinates taken exactly, denominators
    # near 2^52; the antipodes are exact negations of one vertex per pair.
    for q in (regular_2n_gon(5), oblique_prism(3, 0.5), prism_with_pyramids(2)):
        yield Polytope([w for i in q.orbit_representatives()
                        for w in (q.vertices[i], tuple(-x for x in q.vertices[i]))],
                       backend="rational")


def _assert_same_lineality(lineality, reference):
    """Each lineality vector is a positive multiple of the reference's."""
    assert len(lineality) == len(reference)
    for l, m in zip(lineality, reference):
        i = next(i for i, y in enumerate(m) if y != 0)
        c = Fraction(l[i]) / Fraction(m[i])
        assert c > 0 and all(Fraction(x) == c * Fraction(y) for x, y in zip(l, m)), (l, m)


def _assert_cone_matches_reference(points):
    rays, lineality = _polar_cone(points, EXACT)
    ref_rays, ref_lineality = reference_polar_cone(points)
    assert all(type(x) is int for r, _ in rays for x in r)
    assert [(tuple(map(Fraction, r)), zs) for r, zs in rays] == ref_rays
    _assert_same_lineality(lineality, ref_lineality)


def test_integer_double_description_matches_fraction_reference():
    for p in _rational_balls():
        _assert_cone_matches_reference(p.vertices)
        coeffs = [f.coeffs for f in facet_enumeration(p)]
        assert all(type(c) is Fraction for f in coeffs for c in f), p
        assert coeffs == sorted(coeffs), p


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_huge = st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 12)


@st.composite
def rational_point_sets(draw):
    """Rational points in d = 2..5: symmetric or not, sometimes flat (a
    nonempty lineality), with repeated and interior points, and with
    denominators up to 10^12."""
    d = draw(st.integers(2, 5))
    coord = draw(st.sampled_from((_small, _huge, st.one_of(_small, _huge))))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 3))
    if draw(st.booleans()):
        pts += [tuple(-x for x in v) for v in pts]
    if draw(st.integers(0, 3)) == 0:
        pts = [v[:-1] + (Fraction(0),) for v in pts]
    for _ in range(draw(st.integers(0, 2))):
        pts.append(draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        v, w = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((a + b) / 2 for a, b in zip(v, w)))
    return draw(st.permutations(pts))


@settings(max_examples=80, deadline=None)
@given(rational_point_sets())
def test_integer_double_description_matches_fraction_reference_on_random_points(pts):
    pts = Polytope(pts, backend="rational").vertices
    _assert_cone_matches_reference(pts)
    assert (_vertex_flags(pts, _polar_cone(pts, EXACT), EXACT)
            == reference_vertex_flags(pts, reference_polar_cone(pts)))


def _sphere_ball(rng, d, r2, pairs):
    """Random antipodal pairs of integer points on |x|^2 = r2, redrawn until
    they span R^d: the balls of perfbench's hull workload."""
    m = math.isqrt(r2)
    candidates = [v for v in itertools.product(range(-m, m + 1), repeat=d)
                  if sum(x * x for x in v) == r2 and v > tuple(-x for x in v)]
    while True:
        chosen = rng.sample(candidates, pairs)
        if rank([tuple(map(Fraction, v)) for v in chosen], EXACT) == d:
            return [w for v in chosen for w in (v, tuple(-x for x in v))]


# Pairs of rays that pass the bit-count prefilter, neither of them simple,
# that are not adjacent: the run must scan them, or it adds rays that are
# not extreme.
_NON_SIMPLE_3D = [(2, -1, 0), (1, -1, 0), (-2, 1, 2), (0, 2, 1), (2, -1, -2), (-2, -2, -1)]


def test_integer_double_description_matches_fraction_reference_on_degenerate_cones():
    # The 5-D cross-polytope's polar cone has simple rays only, so the
    # simple-ray rule decides every pair; the others also run the scan.
    cell_24 = [v for v in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, v)) == 2]
    cross_5 = [tuple(s * (i == j) for i in range(5)) for j in range(5) for s in (1, -1)]
    balls = [_sphere_ball(random.Random(seed), 5, 4, 8) for seed in (1, 2)]
    non_simple = _NON_SIMPLE_3D + [tuple(-x for x in v) for v in _NON_SIMPLE_3D]
    for pts in [cell_24, cross_5, *balls, non_simple]:
        _assert_cone_matches_reference(pts)


def _repeated_point_sets(rng):
    """Random symmetric rational point sets with some points repeated two
    and three times, and sometimes one antipode removed."""
    for trial in range(30):
        dim = 2 + trial % 3
        pts = []
        for _ in range(rng.randint(dim, dim + 3)):
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            pts += [v, tuple(-x for x in v)]
        for times in (2, 3):
            pts += [rng.choice(pts)] * (times - 1)
        if trial % 2:
            pts.remove(rng.choice(pts))
        rng.shuffle(pts)
        yield pts


def test_hashed_lookups_match_linear_scan():
    for pts in _repeated_point_sets(random.Random(808)):
        p = Polytope(pts, backend="rational")
        assert p._antipode_map() == reference_antipode_map(p.vertices)
        assert (_vertex_flags(p.vertices, _polar_cone(p.vertices, p.ctx), p.ctx)
                == reference_vertex_flags(p.vertices, reference_polar_cone(p.vertices)))
        kept, messages = reference_strip(p.vertices)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stripped = Polytope(pts, backend="rational", permissive=True)
        assert stripped.vertices == kept
        assert [str(w.message) for w in caught] == messages


_NUDGES = (-2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2)
_TINY = (0.0, -0.0, 5e-324, -5e-324, 2.5e-323, 1e-310, -1e-310, 1e-300, -1e-300)
_HUGE = (1e300, -1e300, 1.7e308)


def _float_coordinate(rng, extremes):
    """A float near one of the extremes (a few ulps off), an extreme itself,
    or an ordinary value."""
    r = rng.random()
    if r < 0.25:
        return rng.choice(extremes)
    if r < 0.45:
        x = rng.choice(extremes)
        for _ in range(rng.randint(1, 3)):
            x = math.nextafter(x, rng.choice((math.inf, -math.inf)))
        return x
    return rng.choice((1.0, -1.0, 0.5)) if r < 0.55 else rng.uniform(-2, 2)


def _float_lookup_sets(rng, eps):
    """Float point sets in d = 2..4 with exact repeats, copies nudged by
    +-0.5 to +-2 eps per coordinate (chains of nudges, so a ~ b ~ c with
    a !~ c), points sharing a first coordinate, antipodes, and coordinates
    near 1e-300, subnormal and both zeros; every other set also near
    +-1e300."""
    # Deterministic edges: (-5e-324, 0) matches its nudge (eps, eps) though
    # their first coordinates lie just over eps apart (the difference rounds
    # to eps), and (1 + eps/2, 2) matches a query near (1, 2) at a lower
    # index than (1, 2), which comes first in window order.
    yield [(-5e-324, 0.0), (1.0 + eps / 2, 2.0), (1.0, 2.0), (eps, 0.0), (-0.0, 1e-300),
           (0.0, -1e-300), (1e300, 1.0), (math.nextafter(1e300, 0.0), 1.0)]
    for trial in range(40):
        d = 2 + trial % 3
        extremes = _TINY + _HUGE if trial % 2 else _TINY

        def coordinate():
            return _float_coordinate(rng, extremes)

        pts = [tuple(coordinate() for _ in range(d)) for _ in range(rng.randint(2, 6))]
        x0 = rng.choice(pts)[0]
        pts += [(x0,) + tuple(coordinate() for _ in range(d - 1))
                for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4)):
            v = rng.choice(pts)
            step = rng.choice(_NUDGES)
            for _ in range(rng.randint(1, 3)):
                v = tuple(x + (step if rng.random() < 0.7 else rng.choice(_NUDGES)) * eps
                          for x in v)
                pts.append(v)
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 3))]
        pts += [tuple(-x for x in rng.choice(pts)) for _ in range(2)]
        rng.shuffle(pts)
        yield pts


def _float_queries(rng, v, eps):
    yield v
    yield tuple(-x for x in v)
    for c in _NUDGES:
        yield tuple(x + c * eps for x in v)
    for _ in range(4):
        yield tuple(x + rng.choice(_NUDGES) * eps for x in v)


def test_float_lookups_match_linear_scan():
    rng = random.Random(1313)
    for eps in (1e-9, 1e-3, 1e-300):
        ctx = float_context(eps)
        for pts in _float_lookup_sets(rng, eps):
            index = _PointIndex(pts, ctx)
            for v in pts:
                for q in _float_queries(rng, v, eps):
                    assert index.find(q) == reference_index_of(pts, q, ctx.eq), (q, pts)
            p = Polytope(pts, backend="float", eps=eps)
            assert p._antipode_map() == reference_antipode_map(p.vertices, ctx.eq)
            # A lineality spanning every direction makes each point's face
            # rank d, so only the duplicate marking sets a flag False.
            d = len(pts[0])
            spanning = ([], [tuple(float(i == j) for i in range(d + 1)) for j in range(d + 1)])
            assert (_vertex_flags(p.vertices, spanning, ctx)
                    == reference_vertex_flags(p.vertices, spanning, ctx))
            if max(abs(x) for v in pts for x in v) >= 1e150:
                continue  # the double description overflows to nan this far out
            kept, messages = reference_strip(p.vertices, ctx)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stripped = Polytope(pts, backend="float", eps=eps, permissive=True)
            assert stripped.vertices == kept
            assert [str(w.message) for w in caught] == messages


def _random_float_point_sets(rng):
    """Seeded float point sets in d = 2..4: symmetric or not, some flat (a
    nonempty lineality), with repeated and midpoint points."""
    for trial in range(60):
        d = 2 + trial % 3
        pts = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d + 4))]
        if trial % 2:
            pts += [tuple(-x for x in v) for v in pts]
        if trial % 5 < 2:
            pts = [v[:-1] + (0.0,) for v in pts]
        if trial % 7 == 0:
            pts = [v[:-2] + (0.0, 0.0) for v in pts]
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        if trial % 3 == 0:
            v, w = rng.choice(pts), rng.choice(pts)
            pts.append(tuple((a + b) / 2 for a, b in zip(v, w)))
        rng.shuffle(pts)
        yield pts


def _float_balls():
    for n in range(2, 41):
        yield regular_2n_gon(n).vertices
    for n, l in ((2, 0.0), (3, 0.5), (5, 0.25), (11, 0.5)):
        yield oblique_prism(n, l).vertices
    for n in (2, 3, 4):
        yield prism_with_pyramids(n).vertices
    yield scale_coordinate(prism_with_pyramids(3), 2, 0.37).vertices
    yield from _random_float_point_sets(random.Random(2027))


def test_float_double_description_matches_plain_reference():
    ctx = float_context()
    flat = 0
    for pts in _float_balls():
        rays, lineality = _polar_cone(pts, ctx)
        ref_rays, ref_lineality = reference_polar_cone(pts, ctx)
        assert rays == ref_rays, pts
        assert lineality == ref_lineality, pts
        flat += bool(lineality)
    assert flat >= 10


# A 14-point 4-D float set with nudged near-repeats, a few eps apart at eps
# 1e-9, where zero sets taken within eps are not exact faces.
_NUDGED_4D = [
    (3.0000000000000004e-09, -0.7093631379586193, 3.0000000000000004e-09, 1.000000002),
    (-5e-10, 0.8121323804994113, -5e-10, 0.8722710073702075),
    (-0.0, 0.8121323814994112, 1.0000000000001e-310, 0.8722710058702074),
    (5e-10, -0.8121323804994113, 5e-10, -0.8722710073702075),
    (-1e-310, 0.7093631364586193, 1e-310, -1.0),
    (-0.0, 1.484721200676164, -1.1965900090577826, 1.3672763856250616),
    (3.0000000000000004e-09, -0.7093631384586193, 2.5e-09, 1.0000000004999998),
    (-0.0, 0.8121323814994112, 1.0000000000001e-310, 0.8722710058702074),
    (1.5000000000000002e-09, -0.7093631369586193, 1.5000000000000002e-09, 1.0000000015),
    (-0.0, -1e-300, -5e-324, -9.999999999999999e-301),
    (-0.0, -9.999999999999999e-301, 0.9235693276581105, 5e-324),
    (2e-09, 1.484721199676164, -1.1965900070577826, 1.3672763861250616),
    (1e-310, -0.7093631364586193, -1e-310, 1.0),
    (-0.0, 1.3068271362795536, 1.0, 5e-324),
]


def _float_rows_with_repeats(rng):
    """Float polar-cone rows (-v, 1) of random point sets in d = 2..4, with
    exact repeats of some rows; and the nudged 4-D set above."""
    for trial in range(30):
        d = 2 + trial % 3
        pts = [tuple(rng.uniform(-2, 2) for _ in range(d)) for _ in range(rng.randint(d, d + 4))]
        if trial % 2:
            pts += [tuple(-x for x in v) for v in pts]
        pts += [rng.choice(pts) for _ in range(rng.randint(1, 3))]
        rng.shuffle(pts)
        yield [tuple(-x for x in v) + (1.0,) for v in pts]
    yield [tuple(-x for x in v) + (1.0,) for v in _NUDGED_4D]


def _rational_rows_with_multiples(rng):
    """Int rows in k = 3..5 with some rows repeated as positive multiples of
    themselves, some of them rows of a polar cone (-W_i, L)."""
    for trial in range(40):
        k = 3 + trial % 3
        rows = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(rng.randint(k, k + 5))]
        if trial % 2:
            rows = [r[:-1] + (rng.randint(1, 3),) for r in rows]
        rows += [tuple(x * rng.randint(1, 5) for x in rng.choice(rows))
                 for _ in range(rng.randint(1, 4))]
        rng.shuffle(rows)
        yield rows


def test_hit_count_adjacency_matches_reference():
    # The run counts the rays whose zero set contains a pair's common one;
    # the reference skips the pair's own two zero sets by identity.
    eps = 1e-9
    ctx = float_context(eps)
    for rows in _float_rows_with_repeats(random.Random(2424)):
        rays, lineality = _double_description(rows, len(rows[0]), ctx)
        assert (rays, lineality) == reference_double_description(rows, len(rows[0]), ctx), rows
        assert len({zs for _, zs in rays}) == len(rays)
    for pts in _float_lookup_sets(random.Random(1313), eps):
        if max(abs(x) for v in pts for x in v) < 1e150:
            assert _polar_cone(pts, ctx) == reference_polar_cone(pts, ctx), pts
    for rows in _rational_rows_with_multiples(random.Random(2525)):
        rays, lineality = _double_description(rows, len(rows[0]), EXACT)
        ref_rays, ref_lineality = reference_double_description(rows, len(rows[0]))
        assert [(tuple(map(Fraction, r)), zs) for r, zs in rays] == ref_rays, rows
        assert len({zs for _, zs in rays}) == len(rays)
        _assert_same_lineality(lineality, ref_lineality)


def test_common_scale_polar_cone_matches_per_row_scaling():
    # Rows (-W_i, L) under one scale for the whole list, against each row
    # (-v_i, 1) scaled by the lcm of its own denominators.
    point_sets = [p.vertices for p in _rational_balls()]
    point_sets += [Polytope(pts, backend="rational").vertices
                   for pts in _repeated_point_sets(random.Random(909))]
    for pts in point_sets:
        per_row = [tuple(integer_row([-x for x in v] + [Fraction(1)])) for v in pts]
        rays, lineality = _polar_cone(pts, EXACT)
        ref_rays, ref_lineality = _double_description(per_row, len(pts[0]) + 1, EXACT)
        assert rays == ref_rays, pts
        _assert_same_lineality(lineality, ref_lineality)
