import math
import random
from fractions import Fraction

import pytest

from polyindex import (ComputationError, InputError, Operator, facet_enumeration, gauge,
                       incidence, numerical_radius, oblique_prism, operator_norm,
                       prism_witness_operator, pyramid_witness_operator, radius_profile)
from polyindex.linalg import dot
from helpers import random_rational_matrix


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


def _reference_radius_pair(p, op):
    """(value, vertex, facet) of the first incident pair, in (vertex, facet)
    order, at which |f(T v)| is largest."""
    facets, inc = facet_enumeration(p), incidence(p)
    best = None
    for i, v in enumerate(p.vertices):
        tv = op(v)
        for k in inc.vertex_to_facets[i]:
            val = abs(dot(facets[k].coeffs, tv))
            if best is None or val > best[0]:
                best = (val, i, k)
    return best


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
            want = _reference_radius_pair(p, op)
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
    from polyindex.linalg import matmul
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


def test_from_action_singular():
    with pytest.raises(ComputationError):
        Operator.from_action([(1, 0), (2, 0)], [(1, 0), (0, 1)])


def test_operator_document_shapes():
    with pytest.raises(InputError):
        Operator([(1, 0), (1,)])
    with pytest.raises(InputError):
        Operator([])
