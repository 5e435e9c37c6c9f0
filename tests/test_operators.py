import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import polyindex.operators as operators_module
from polyindex import (InputError, Operator, Polytope, facet_enumeration,
                       gauge, numerical_radius, oblique_prism, operator_norm,
                       polygon_witness_operator, prism_witness_operator,
                       pyramid_witness_operator, radius_profile, regular_2n_gon)
from helpers import (random_rational_matrix, random_symmetric_polytope, reference_flat_values,
                     reference_gauge, reference_operator_values, reference_orbit_pair_values)


@pytest.mark.parametrize("op, backend", [
    (Operator([[1, 0], [0, 1]]), "rational"),
    (Operator([[1.0, 0], [0, 1]]), "float"),
    (Operator([[1, 0], [0, 1]], backend="float"), "float"),
    (Operator.identity(2), "rational"),
    (Operator.identity(2, exact=False), "float"),
    (Operator.zero(2, exact=False), "float"),
    (pyramid_witness_operator(), "rational"),
    (prism_witness_operator(3), "float"),
], ids=["ints", "floats", "ints_as_floats", "identity", "float_identity", "float_zero",
        "pyramid_witness", "prism_witness"])
def test_operator_context_names_its_backend(op, backend, bipyramid):
    # An operator built in another's arithmetic keeps that backend.
    assert op.ctx.backend == backend
    assert op.scale(2).ctx.backend == backend
    balls = {2: (regular_2n_gon(2), Polytope([(1, 0), (0, 1), (-1, 0), (0, -1)])),
             3: (oblique_prism(2), bipyramid)}
    for ball in balls[op.dim]:
        same = operators_module._in_ball_arithmetic(ball, op)
        assert same.ctx.backend == ball.ctx.backend
        assert same is op if backend == ball.ctx.backend else same.matrix == op.matrix


def test_operator_repr_and_unknown_backend():
    assert repr(Operator([[1, "1/2"], [0, 2]])) == (
        "Operator(dim=2, matrix=((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), "
        "Fraction(2, 1))))")
    assert repr(Operator([[0.5]])) == "Operator(dim=1, matrix=((0.5,),))"
    with pytest.raises(InputError, match=r"^unknown backend 'decimal' \(expected 'rational' "
                                         r"or 'float'\)$"):
        Operator([[1]], backend="decimal")


def test_identity_norm_and_radius(hexagon):
    ident = Operator.identity(2)
    norm, _ = operator_norm(hexagon, ident)
    assert norm == Fraction(1)
    assert numerical_radius(hexagon, ident).value == Fraction(1)


def test_zero_operator(hexagon):
    z = Operator.zero(2)
    norm, _ = operator_norm(hexagon, z)
    assert norm == 0
    assert numerical_radius(hexagon, z).value == 0
    assert all(r.value == 0 for r in radius_profile(hexagon, z))


def test_apex_collapse_operator_norm(bipyramid):
    op = pyramid_witness_operator()
    norm, vertex = operator_norm(bipyramid, op)
    assert norm == Fraction(1)
    assert bipyramid.vertices[vertex] == (Fraction(0), Fraction(0), Fraction(2))


def test_apex_collapse_numerical_radius(bipyramid, bipyramid_facets):
    cert = numerical_radius(bipyramid, pyramid_witness_operator())
    assert cert.value == Fraction(1, 2)
    # Certificate re-evaluates: the named facet supports the named vertex.
    f = bipyramid_facets[cert.facet_index]
    v = bipyramid.vertices[cert.vertex_index]
    assert cert.vertex_index in f.incident_vertices
    tv = pyramid_witness_operator()(v)
    assert abs(sum(a * b for a, b in zip(f.coeffs, tv))) == cert.value


def test_quarter_turn_on_square(square):
    # Oracle: enumerate the 8 incident pairs by hand. Vertices (+-1, +-1),
    # facets +-e_0, +-e_1; the quarter turn sends (x, y) to (-y, x), and
    # every incident pair evaluates to |e_i . R v| = 1, so v(R) = 1.
    facets = facet_enumeration(square)
    rot = Operator([(0, -1), (1, 0)])
    by_hand = []
    for i, v in enumerate(square.vertices):
        rv = rot(v)
        for k, f in enumerate(facets):
            if sum(a * b for a, b in zip(f.coeffs, v)) == 1:
                by_hand.append(abs(sum(a * b for a, b in zip(f.coeffs, rv))))
    assert len(by_hand) == 8
    assert max(by_hand) == Fraction(1)
    assert numerical_radius(square, rot).value == Fraction(1)


def test_radius_profile_identity_rows(hexagon):
    rows = radius_profile(hexagon, Operator.identity(2))
    assert len(rows) == len(hexagon.vertices)
    assert all(r.value == Fraction(1) for r in rows)


def test_radius_profile_prism_witness_rows():
    n = 3
    p = oblique_prism(n, 0.0)
    op = prism_witness_operator(n, 0.0)
    norm, _ = operator_norm(p, op)
    assert abs(norm - 1) < 1e-9
    want = math.sin(math.pi / (2 * n))
    rows = radius_profile(p, op)
    attaining = [r for r in rows if abs(gauge(p, op(p.vertices[r.vertex_index])) - 1) < 1e-9]
    assert attaining
    for r in attaining:
        assert abs(r.value - want) < 1e-9
    assert max(r.value for r in rows) == numerical_radius(p, op).value


def test_profile_max_equals_radius(bipyramid, hexagon, square):
    rng = random.Random(31)
    for p in (bipyramid, hexagon, square):
        d = p.dim
        ops = [Operator(random_rational_matrix(rng, d)) for _ in range(5)]
        # Signed permutations tie many pairs, so the tie-break decides.
        for _ in range(10):
            perm = rng.sample(range(d), d)
            ops.append(Operator([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(d)]
                                 for i in range(d)]))
        for op in ops:
            rows = radius_profile(p, op)
            cert = numerical_radius(p, op)
            assert max(r.value for r in rows) == cert.value
            _, _, want = reference_operator_values(p, op.matrix)
            assert (cert.value, cert.vertex_index, cert.facet_index) == want


def test_radius_at_most_norm(hexagon, bipyramid):
    rng = random.Random(17)
    cases = [(hexagon, 2), (bipyramid, 3)]
    for p, d in cases:
        for _ in range(25):
            op = Operator(random_rational_matrix(rng, d))
            norm, _ = operator_norm(p, op)
            assert numerical_radius(p, op).value <= norm


def test_radius_homogeneity(hexagon):
    rng = random.Random(23)
    for _ in range(10):
        op = Operator(random_rational_matrix(rng, 2))
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        v = numerical_radius(hexagon, op).value
        v_scaled = numerical_radius(hexagon, op.scale(lam)).value
        assert v_scaled == abs(lam) * v
        v_neg = numerical_radius(hexagon, op.scale(-1)).value
        assert v_neg == v


def test_isometry_conjugation_on_square(square):
    # The quarter turn permutes the square's vertices, so conjugating by it
    # preserves both the norm and the radius exactly.
    s = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    s_inv = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    rng = random.Random(41)

    def matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    for _ in range(10):
        m = random_rational_matrix(rng, 2)
        op = Operator(m)
        conj = Operator(matmul(s_inv, matmul(m, s)))
        assert numerical_radius(square, conj).value == \
            numerical_radius(square, op).value
        assert operator_norm(square, conj)[0] == operator_norm(square, op)[0]


def test_radius_vs_dense_boundary_sampling(hexagon, hexagon_facets):
    # 2-D sampling oracle: boundary points with their supporting
    # functionals never beat the enumerated radius.
    import numpy as np
    rng = random.Random(77)
    funcs = np.array([[float(c) for c in f.coeffs] for f in hexagon_facets])
    verts = np.array([[float(x) for x in v] for v in hexagon.vertices])
    order = np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))
    ring = verts[order]
    for _ in range(5):
        m = random_rational_matrix(rng, 2)
        op = Operator(m)
        vt = numerical_radius(hexagon, op).value
        mf = np.array([[float(x) for x in row] for row in m])
        best = 0.0
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            t = np.linspace(0, 1, 400, endpoint=False)
            pts = a[None, :] + t[:, None] * (b - a)[None, :]
            vals = pts @ funcs.T                      # f(x) for every facet
            tvals = (pts @ mf.T) @ funcs.T            # f(Tx)
            supporting = np.abs(vals - 1) < 1e-9      # f(x) = 1: supporting at x
            if supporting.any():
                best = max(best, float(np.abs(tvals[supporting]).max()))
        # Sampling never beats the enumerated value, and since the samples
        # include the vertices themselves it also attains it.
        assert best <= float(vt) + 1e-9
        assert best >= float(vt) - 1e-6


def test_dimension_mismatch(square):
    with pytest.raises(InputError):
        operator_norm(square, Operator.identity(3))
    with pytest.raises(InputError):
        Operator.identity(2)((1, 2, 3))


def test_operator_document_shapes():
    with pytest.raises(InputError):
        Operator([(1, 0), (1,)])
    with pytest.raises(InputError):
        Operator([])


def _assert_matches_reference(p, op, reference=reference_operator_values):
    """Values, their types and every tie-break equal the brute-force ones."""
    norm, profile, radius = reference(p, op.matrix)
    got = operator_norm(p, op)
    assert got == norm and type(got[0]) is type(norm[0])
    rows = radius_profile(p, op)
    assert [r.vertex_index for r in rows] == list(range(len(p.vertices)))
    assert [(r.value, r.facet_index) for r in rows] == list(profile)
    assert all(type(r.value) is type(want) for r, (want, _) in zip(rows, profile))
    cert = numerical_radius(p, op)
    assert (cert.value, cert.vertex_index, cert.facet_index) == radius
    assert type(cert.value) is type(radius[0])


def _float_bits(values):
    return [struct.pack("<d", x) for x in values]


def _assert_flat_table_is_dots(p, matrix):
    """The flat table of ``matrix`` (in the ball's arithmetic, or floats on a
    rational ball) holds, at entry a * J + j, the value of one ``linalg.dot``
    per image coordinate and per pairing: the same ints over the table's
    scale on a rational ball, the same float bits on a float ball."""
    values, scale = operators_module._orbit_pair_values(p, matrix)
    if not p.ctx.exact:
        assert _float_bits(values) == _float_bits(reference_flat_values(p, matrix))
    else:
        want = reference_flat_values(p, [[Fraction(x) for x in row] for row in matrix])
        assert all(type(x) is int for x in values)
        assert values == [x * scale for x in want]


_SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1.0, -0.75)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4))
def test_flat_table_is_one_dot_per_entry_on_random_balls(seed, dim):
    rng = random.Random(seed)
    ball = random_symmetric_polytope(rng, dim, rng.randint(dim, dim + 2))
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dim)]
    rational = Polytope([[x * s for x, s in zip(v, scales)] for v in ball.vertices])
    float_scales = [rng.choice((1.0, 0.1, 3.7)) for _ in range(dim)]
    floating = Polytope([[float(x) * s for x, s in zip(v, float_scales)]
                         for v in ball.vertices], backend="float")
    matrices = [
        [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(dim)],
        [[rng.choice(_SPECIAL) for _ in range(dim)] for _ in range(dim)],  # -0.0, subnormals
        [[-0.0] * dim for _ in range(dim)],
    ]
    for m in matrices:
        _assert_flat_table_is_dots(floating, m)
        _assert_flat_table_is_dots(rational, m)  # at the floats' exact values
    _assert_flat_table_is_dots(rational, random_rational_matrix(rng, dim))


def test_flat_table_of_a_segment():
    # One orbit and one pair: a table of one entry, with nothing to spread.
    for p, m in ((Polytope([(Fraction(2, 3),), (Fraction(-2, 3),)]), [[Fraction(-5, 7)]]),
                 (Polytope([(2.5,), (-2.5,)]), [[-0.0]]), (Polytope([(2.5,), (-2.5,)]), [[0.3]])):
        _assert_flat_table_is_dots(p, m)
        assert len(operators_module._orbit_pair_values(p, m)[0]) == 1


def _reference_of_exact_values(p, matrix):
    return reference_operator_values(p, [[Fraction(x) for x in row] for row in matrix])


def _assert_gauge_matches_reference(p, x):
    got, want = gauge(p, x), reference_gauge(p, x)
    assert got == want and type(got) is type(want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4))
def test_operators_match_brute_force_on_random_balls(seed, dim):
    rng = random.Random(seed)
    ball = random_symmetric_polytope(rng, dim, rng.randint(dim, dim + 2))
    # A rational scale per coordinate gives the vertex and facet rows
    # denominators of their own.
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dim)]
    p = Polytope([[x * s for x, s in zip(v, scales)] for v in ball.vertices])
    u = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)]
    w = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)]
    matrices = [
        random_rational_matrix(rng, dim),
        [[0] * dim for _ in range(dim)],     # every pair ties at 0
        [[a * b for b in w] for a in u],     # rank one: ties across vertices and facets
        [[int(i == j) for j in range(dim)] for i in range(dim)],
    ]
    for m in matrices:
        _assert_matches_reference(p, Operator(m))
        # A float operator on a rational ball is evaluated exactly, on the
        # Fractions of its binary entries.
        _assert_matches_reference(p, Operator([[float(x) for x in row] for row in m]),
                                  reference=_reference_of_exact_values)
    points = [tuple(u), tuple(rng.randint(-3, 3) for _ in range(dim)), p.vertices[0],
              (0,) * dim, (float(u[0]),) + tuple(u[1:])]
    for x in points:
        _assert_gauge_matches_reference(p, x)


@pytest.mark.parametrize("make", [
    lambda: (oblique_prism(3, 0.0), prism_witness_operator(3, 0.0)),
    lambda: (oblique_prism(5, 0.5), prism_witness_operator(5, 0.5)),
    lambda: (oblique_prism(4, 0.25), prism_witness_operator(4, 0.25)),
    lambda: (regular_2n_gon(6), polygon_witness_operator(6)),
    lambda: (regular_2n_gon(40), polygon_witness_operator(40)),
], ids=["oblique_prism(3,0)", "oblique_prism(5,1/2)", "oblique_prism(4,1/4)",
        "regular_2n_gon(6)", "regular_2n_gon(40)"])
def test_float_results_equal_dot_products(make):
    p, witness = make()
    rng = random.Random(p.dim * 1000 + len(p.vertices))
    d = p.dim
    ops = [witness, Operator.identity(d, exact=False), Operator.zero(d, exact=False),
           Operator(random_rational_matrix(rng, d))]  # a rational operator on a float ball
    ops += [Operator([[rng.uniform(-2, 2) for _ in range(d)] for _ in range(d)])
            for _ in range(4)]
    for op in ops:
        _assert_flat_table_is_dots(p, operators_module._in_ball_arithmetic(p, op).matrix)
        # The float values are those over the orbit representatives and the
        # facet pairs; a float ball is symmetric up to rounding, so they stay
        # within rounding of the maxima over every vertex and facet.
        _assert_matches_reference(p, op, reference=reference_orbit_pair_values)
        norm, profile, radius = reference_operator_values(p, op.matrix)
        got = ([operator_norm(p, op)[0], numerical_radius(p, op).value]
               + [r.value for r in radius_profile(p, op)])
        want = [norm[0], radius[0]] + [value for value, _ in profile]
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))
    for _ in range(5):
        _assert_gauge_matches_reference(p, tuple(rng.uniform(-3, 3) for _ in range(d)))
    _assert_gauge_matches_reference(p, (Fraction(1, 3),) + (0.7,) * (d - 1))


def test_mixed_backend_values_pinned(hexagon):
    # `polyindex radius --operator` can pair a rational ball with a float
    # operator; it is evaluated in the ball's exact arithmetic, on the
    # Fractions of its binary entries (0.3 is not 3/10).
    op = Operator([[0.3, -1.25], [0.5, 2.0]])
    want = Fraction(314351253990460621, 90071992547409920)
    norm, vertex = operator_norm(hexagon, op)
    assert (norm, vertex) == (want, 1) and type(norm) is Fraction
    cert = numerical_radius(hexagon, op)
    assert (cert.value, cert.vertex_index, cert.facet_index) == (want, 1, 2)
    assert type(cert.value) is Fraction
    op = Operator([[Fraction(1, 3), Fraction(-5, 4)], [Fraction(1, 2), 2]])
    assert operator_norm(hexagon, op) == (Fraction(209, 60), 1)
    cert = numerical_radius(hexagon, op)
    assert (cert.value, cert.vertex_index, cert.facet_index) == (Fraction(209, 60), 1, 2)
    value = gauge(hexagon, (Fraction(1, 3), 0.7))
    assert value == 0.4555555555555555 and type(value) is float
