import random
from fractions import Fraction

import pytest

from polyindex import (InputError, dual_norm, facet_enumeration, gauge,
                       oblique_prism, polar, validate)
from helpers import random_symmetric_polytope, vertex_set


def test_square_polar_is_cross_polytope(square):
    d = polar(square)
    assert vertex_set(d) == {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                             (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}


def test_hexagon_polar_contains_known_functionals(hexagon):
    d = polar(hexagon)
    vs = vertex_set(d)
    for f in ((Fraction(2, 3), Fraction(1, 3)), (Fraction(-2, 3), Fraction(-1, 3)),
              (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))):
        assert f in vs


def test_bipolar_round_trip_on_fixtures(square, hexagon, bipyramid):
    for p in (square, hexagon, bipyramid):
        assert vertex_set(polar(polar(p))) == vertex_set(p)


def test_bipolar_round_trip_random():
    rng = random.Random(12345)
    for trial in range(10):
        p = random_symmetric_polytope(rng, 2 + trial % 2, n_pairs=5)
        assert vertex_set(polar(polar(p))) == vertex_set(p)


def test_polar_result_validates(hexagon, bipyramid):
    for p in (hexagon, bipyramid):
        report = validate(polar(p))
        assert report.ok, report.violations


def test_dual_vertices_are_extreme_with_dual_norm_one(bipyramid):
    d = polar(bipyramid)
    assert validate(d).ok
    for f in d.vertices:
        assert dual_norm(bipyramid, f) == Fraction(1)


def test_dual_norm_examples(square, hexagon):
    assert dual_norm(square, (1, 1)) == Fraction(2)
    assert dual_norm(hexagon, (Fraction(2, 3), Fraction(1, 3))) == Fraction(1)
    assert dual_norm(square, (0, 0)) == 0


def test_dual_norm_dimension_mismatch(square):
    with pytest.raises(InputError):
        dual_norm(square, (1, 2, 3))


def test_pairing_inequality(hexagon):
    rng = random.Random(5)
    for _ in range(50):
        f = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        lhs = abs(sum(a * b for a, b in zip(f, x)))
        assert lhs <= dual_norm(hexagon, f) * gauge(hexagon, x)


def test_pairing_equality_on_incident_pairs(hexagon):
    facets = facet_enumeration(hexagon)
    for f in facets:
        for i in f.incident_vertices:
            v = hexagon.vertices[i]
            assert sum(a * b for a, b in zip(f.coeffs, v)) == Fraction(1)
            assert dual_norm(hexagon, f.coeffs) * gauge(hexagon, v) == Fraction(1)


def test_float_bipolar_within_tolerance():
    p = oblique_prism(3, 0.5)
    dd = polar(polar(p))
    # Hausdorff-style check: every vertex of the round trip is close to an
    # original vertex and vice versa.
    def close(v, w):
        return max(abs(a - b) for a, b in zip(v, w)) < 1e-7
    assert len(dd.vertices) == len(p.vertices)
    for v in p.vertices:
        assert any(close(v, w) for w in dd.vertices)
    for w in dd.vertices:
        assert any(close(w, v) for v in p.vertices)
