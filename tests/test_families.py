import math
from fractions import Fraction

import pytest

from polyindex import (InputError, bipyramid_square_prism,
                       facet_enumeration, gauge, index_bracket,
                       irregular_hexagon, linf_sum, numerical_radius, oblique_prism,
                       operator_norm, polygon_witness_operator, prism_with_pyramids,
                       prism_with_pyramids_witness, prism_witness_operator,
                       pyramid_witness_operator, regular_2n_gon, scale_coordinate,
                       scale_witness, segment, validate)
from polyindex.families import FAMILIES, Family
from helpers import vertex_set


def close(a, b, tol=1e-9):
    return abs(a - b) < tol


def vec_close(v, w, tol=1e-9):
    return max(abs(a - b) for a, b in zip(v, w)) < tol


def test_2n_gon_n2_is_rotated_square():
    p = regular_2n_gon(2)
    want = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert len(p.vertices) == 4
    for v, w in zip(p.vertices, want):
        assert vec_close(v, w)


def test_2n_gon_counts():
    assert len(regular_2n_gon(3).vertices) == 6
    assert len(regular_2n_gon(4).vertices) == 8


def test_2n_gon_vertices_on_unit_circle():
    for n in (2, 3, 5):
        for v in regular_2n_gon(n).vertices:
            assert close(v[0] ** 2 + v[1] ** 2, 1.0)


def test_octagon_bracket_tan_pi_8():
    br = index_bracket(regular_2n_gon(4), witnesses=[polygon_witness_operator(4)])
    want = FAMILIES["regular_2n_gon"].index(n=4)
    assert close(br.lower, want, 1e-7) and close(br.upper, want, 1e-7)


def test_prism_n2_vertices():
    p = oblique_prism(2, 0.0)
    want = {(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1),
            (1, 0, -1), (0, 1, -1), (-1, 0, -1), (0, -1, -1)}
    assert len(p.vertices) == 8
    for v in p.vertices:
        assert any(vec_close(v, w) for w in want)


def test_prism_vertex_formula_n3_l_half():
    p = oblique_prism(3, 0.5)
    assert len(p.vertices) == 12
    assert any(vec_close(v, (1.5, 0.0, 1.0)) for v in p.vertices)
    assert any(vec_close(v, (1.0, math.sqrt(3) / 2, 1.0)) for v in p.vertices)


def test_prism_parameter_errors():
    with pytest.raises(InputError):
        oblique_prism(1, 0.0)
    with pytest.raises(InputError):
        oblique_prism(3, math.inf)
    with pytest.raises(InputError):
        regular_2n_gon(0)


def test_prism_with_pyramids_counts():
    assert len(prism_with_pyramids(2).vertices) == 10
    assert len(prism_with_pyramids(3).vertices) == 14
    assert len(prism_with_pyramids(4).vertices) == 18


def test_prism_with_pyramids_apexes_extreme():
    p = prism_with_pyramids(3)
    assert validate(p).ok
    assert close(gauge(p, (0.0, 0.0, 2.0)), 1.0)


def test_bipyramid_vertices_and_facets(bipyramid, bipyramid_facets):
    assert len(bipyramid.vertices) == 10
    assert len(bipyramid_facets) == 12
    assert gauge(bipyramid, (Fraction(0), Fraction(0), Fraction(2))) == Fraction(1)


def test_hexagon_fixture_is_exact(hexagon):
    assert hexagon.ctx.exact
    assert vertex_set(hexagon) == {
        (1, 1), (Fraction(1, 2), 2), (-1, 1), (-1, -1), (Fraction(-1, 2), -2), (1, -1)}


def test_families_validate_across_parameters():
    for n in (2, 3, 5, 8):
        for l in (0.0, 0.5, 1.0):
            assert validate(oblique_prism(n, l)).ok
        assert validate(regular_2n_gon(n)).ok
        assert validate(prism_with_pyramids(n)).ok
    assert validate(bipyramid_square_prism()).ok
    assert validate(irregular_hexagon()).ok
    assert validate(segment()).ok


def test_pyramid_witness_exact_values(bipyramid):
    t = pyramid_witness_operator()
    assert t((Fraction(0), Fraction(0), Fraction(2))) == (1, 0, 0)
    for v in bipyramid.vertices:
        if abs(v[2]) == 1:
            assert t(v) == (v[2] * Fraction(1, 2), 0, 0)
    assert numerical_radius(bipyramid, t).value == \
        Fraction(1, 2)


def test_prism_witness_images_n3():
    t = prism_witness_operator(3, 0.0)
    assert vec_close(t((1.0, 0.0, 1.0)), (0.0, math.sqrt(3) / 2, 0.5))


def test_prism_witness_norm_one_and_radius():
    for n in (3, 5):
        for l in (0.0, 0.5):
            p = oblique_prism(n, l)
            t = prism_witness_operator(n, l)
            norm, _ = operator_norm(p, t)
            assert close(norm, 1.0)
            assert close(numerical_radius(p, t).value, FAMILIES["oblique_prism"].index(n=n))


def test_prism_witness_general_image_formula():
    # Every top-ring vertex maps to the rotated-and-flattened image.
    for n, l in ((3, 0.0), (4, 0.5), (5, 0.25)):
        t = prism_witness_operator(n, l)
        c, s = math.cos(math.pi / (2 * n)), math.sin(math.pi / (2 * n))
        for j in range(2 * n):
            th = j * math.pi / n
            v = (math.cos(th) + l, math.sin(th), 1.0)
            want = (-math.sin(th) * c + l * s, math.cos(th) * c, s)
            assert vec_close(t(v), want)


@pytest.mark.parametrize("n,l", [(2, 0.0), (3, 0.5), (5, 0.25), (12, 1.0)])
def test_prism_witness_closed_form_images(n, l):
    # The closed form misses the images of all 2n top-ring vertices by a
    # rounding error or two, not by the error of a solved 3x3 system.
    t = prism_witness_operator(n, l)
    c, s = math.cos(math.pi / (2 * n)), math.sin(math.pi / (2 * n))
    for j in range(2 * n):
        th = j * math.pi / n
        v = (math.cos(th) + l, math.sin(th), 1.0)
        want = (-math.sin(th) * c + l * s, math.cos(th) * c, s)
        assert vec_close(t(v), want, 1e-14)


def test_prism_witness_images_land_on_side_facets_odd_n():
    # For odd n the image of the j-th top vertex lies on the side facet
    # whose top edge joins ring positions (n+2j-1)/2 and (n+2j+1)/2.
    for n, l in ((3, 0.0), (5, 0.5)):
        p = oblique_prism(n, l)
        facets = facet_enumeration(p)
        t = prism_witness_operator(n, l)
        for j in range(1, 2 * n + 1):
            k = ((n + 2 * j - 1) // 2 - 1) % (2 * n)   # 0-based ring position
            a, b = k, (k + 1) % (2 * n)                # top-ring vertex indices
            side = [f for f in facets
                    if a in f.incident_vertices and b in f.incident_vertices
                    and len(f.incident_vertices) == 4]
            assert len(side) == 1
            image = t(p.vertices[j - 1])
            val = sum(c * x for c, x in zip(side[0].coeffs, image))
            assert close(val, 1.0)


def test_pyramided_prism_witnesses():
    for n in (3, 4):
        p = prism_with_pyramids(n)
        t = prism_with_pyramids_witness(n)
        want = FAMILIES["prism_with_pyramids"].index(n=n)
        norm, _ = operator_norm(p, t)
        cert = numerical_radius(p, t.scale(1 / norm))
        assert close(cert.value, want)


def test_pyramided_prism_n2_matches_exact_solid():
    # The n = 2 member is the rational bipyramid solid in another base;
    # its bracket must come out at the same exact value 1/2.
    p = prism_with_pyramids(2)
    br = index_bracket(p, witnesses=[prism_with_pyramids_witness(2)])
    want = FAMILIES["prism_with_pyramids"].index(n=2)
    assert want == FAMILIES["bipyramid_square_prism"].index() == Fraction(1, 2)
    assert close(br.lower, want, 1e-7) and close(br.upper, want, 1e-7)
    assert br.status == "tight"


def test_linf_sum_cube(square):
    cube = linf_sum(square, segment())
    assert cube.ctx.exact
    assert len(cube.vertices) == 8
    facets = facet_enumeration(cube)
    want = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert {f.coeffs for f in facets} == {tuple(map(Fraction, w)) for w in want}


def test_linf_sum_reproduces_right_prism():
    for n in (2, 3):
        a = linf_sum(regular_2n_gon(n), segment())
        b = oblique_prism(n, 0.0)
        assert vertex_set(a) == vertex_set(b)


def test_linf_sum_facets_are_padded_summands(square):
    # Facet functionals of the sum: those of each summand padded with zeros.
    cube = linf_sum(square, segment())
    sq_facets = {f.coeffs + (Fraction(0),) for f in facet_enumeration(square)}
    seg_facets = {(Fraction(0), Fraction(0)) + f.coeffs for f in facet_enumeration(segment())}
    assert {f.coeffs for f in facet_enumeration(cube)} == sq_facets | seg_facets


def test_height_invariance():
    base = index_bracket(oblique_prism(3, 0.0), witnesses=[prism_witness_operator(3, 0.0)])
    for h in (0.5, 2.0):
        p = scale_coordinate(oblique_prism(3, 0.0), 2, h)
        w = scale_witness(prism_witness_operator(3, 0.0), 2, h)
        br = index_bracket(p, witnesses=[w])
        assert close(br.lower, base.lower, 1e-7)
        assert close(br.upper, base.upper, 1e-7)


def test_scale_coordinate_errors(square):
    with pytest.raises(InputError):
        scale_coordinate(square, 5, 2)
    with pytest.raises(InputError):
        scale_coordinate(square, 0, 0)


def test_family_indices_match_the_concrete_values():
    # Criterion 3's concrete numbers for sin/tan(pi/2n), n = 2..5, except
    # the n = 2 pyramided prism, which is the bipyramid solid at index 1/2.
    concrete = {2: 1.0, 3: 0.5, 4: math.tan(math.pi / 8), 5: math.sin(math.pi / 10)}
    for kind, family in FAMILIES.items():
        if "n" not in family.params:
            continue
        for n in (2, 3, 4, 5):
            want = 0.5 if (kind, n) == ("prism_with_pyramids", 2) else concrete[n]
            assert abs(family.index(n=n) - want) < 1e-12, (kind, n)
    assert FAMILIES["bipyramid_square_prism"].index() == Fraction(1, 2)
    assert FAMILIES["irregular_hexagon"].index is None


def test_linf_sum_is_a_row_of_the_family_table():
    # Two balls as parameters, no sharp witness and no closed-form index.
    assert FAMILIES["linf_sum"] == Family(("a", "b"), linf_sum, None, None)


def test_scale_witness_keeps_rational_witness_exact():
    w = scale_witness(pyramid_witness_operator(), 2, Fraction(3))
    assert w.ctx.exact
    assert w.matrix[0][2] == Fraction(1, 6)
    assert scale_witness(w, 2, Fraction(1, 3)).matrix == pyramid_witness_operator().matrix
