"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. Every tolerance and runtime budget is pinned here.
"""
import math
import random
import time
from fractions import Fraction

from polyindex import (Operator, Polytope, bipyramid_square_prism, facet_enumeration,
                       index_bracket, irregular_hexagon, linf_sum,
                       lower_bound, numerical_radius, oblique_prism, operator_norm,
                       polar, prism_witness_operator, scale_coordinate, scale_witness,
                       segment, vertex_minimax)
from polyindex.families import FAMILIES, HEXAGON_DUAL_VERTEX, HEXAGON_VERTEX_BOUNDS
from helpers import (boundary_minimax_2d, brute_force_facets, random_rational_matrix,
                     random_symmetric_polytope, vertex_set)


def report(number, ok, detail, elapsed):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {number} — {detail} ({elapsed:.2f}s)"
    print(line)
    assert ok, line


def test_criterion_1_hexagon_exact_reproduction():
    t0 = time.perf_counter()
    hexagon = irregular_hexagon()
    lo, cert = lower_bound(hexagon)
    values = [e.value for e in cert.entries]
    ok = values == list(HEXAGON_VERTEX_BOUNDS)
    ok = ok and lo == min(HEXAGON_VERTEX_BOUNDS)
    dual_vertices = vertex_set(polar(hexagon))
    ok = ok and HEXAGON_DUAL_VERTEX in dual_vertices
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"hexagon bounds {values}, lower {lo}, dual functional present", elapsed)


def test_criterion_2_bipyramid_exact_reproduction():
    t0 = time.perf_counter()
    family = FAMILIES["bipyramid_square_prism"]
    p, witness, want = family.ball(), family.witness(), family.index()
    lo, _ = lower_bound(p)
    norm, _ = operator_norm(p, witness)
    radius = numerical_radius(p, witness).value
    bracket = index_bracket(p, witnesses=[witness])
    ok = (want == Fraction(1, 2) and lo == want and norm == Fraction(1) and radius == want
          and bracket.status == "tight" and bracket.lower == bracket.upper == want)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"lower {lo}, witness norm {norm}, radius {radius}, {bracket.status}",
           elapsed)


def test_criterion_3_prism_families():
    t0 = time.perf_counter()
    tol = 1e-7
    concrete = {2: 1.0, 3: 0.5, 4: math.tan(math.pi / 8), 5: math.sin(math.pi / 10)}
    family = FAMILIES["oblique_prism"]
    ok = True
    for n in (2, 3, 4, 5):
        for l in (0.0, 0.5):
            want = family.index(n=n, l=l)
            assert abs(want - concrete[n]) < 1e-12
            p = family.ball(n=n, l=l)
            assert p.ctx.eps == 1e-9
            br = index_bracket(p, witnesses=[family.witness(n=n, l=l)])
            ok = ok and abs(br.lower - want) < tol and abs(br.upper - want) < tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(3, ok, "prism brackets at sin/tan(pi/2n) for n in 2..5, l in {0, 1/2}", elapsed)


def test_criterion_4_pyramided_prisms():
    t0 = time.perf_counter()
    tol = 1e-7
    family = FAMILIES["prism_with_pyramids"]
    ok = True
    for n in (3, 4):
        want = family.index(n=n)
        p = family.ball(n=n)
        br = index_bracket(p, witnesses=[family.witness(n=n)])
        ok = ok and abs(br.lower - want) < tol and abs(br.upper - want) < tol
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(4, ok, "pyramided prisms n=3 -> 1/2, n=4 -> tan(pi/8)", elapsed)


def test_criterion_5_height_invariance():
    t0 = time.perf_counter()
    base = index_bracket(oblique_prism(3, 0.0), witnesses=[prism_witness_operator(3, 0.0)])
    ok = True
    for h in (0.5, 2.0):
        p = scale_coordinate(oblique_prism(3, 0.0), 2, h)
        w = scale_witness(prism_witness_operator(3, 0.0), 2, h)
        br = index_bracket(p, witnesses=[w])
        ok = ok and abs(br.lower - base.lower) < 1e-7 and abs(br.upper - base.upper) < 1e-7
    elapsed = time.perf_counter() - t0
    report(5, ok, "bracket unchanged under height rescaling by 1/2 and 2", elapsed)


def test_criterion_6_bipolar_suite():
    t0 = time.perf_counter()
    square = Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    fixtures = [irregular_hexagon(), bipyramid_square_prism(), square,
                linf_sum(square, segment()), segment()]
    ok = all(vertex_set(polar(polar(p))) == vertex_set(p) for p in fixtures)
    rng = random.Random(1729)
    count = 0
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        p = random_symmetric_polytope(rng, dim, n_pairs=rng.randint(dim + 1, 6))
        if vertex_set(polar(polar(p))) != vertex_set(p):
            ok = False
            break
        count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and count == 100 and elapsed < 30.0
    report(6, ok, f"bipolar identity on fixtures and {count} random polytopes", elapsed)


def test_criterion_7_radius_norm_properties():
    t0 = time.perf_counter()
    rng = random.Random(404)
    square = Polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    fixtures = [irregular_hexagon(), square, bipyramid_square_prism(),
                random_symmetric_polytope(rng, 2, 5), random_symmetric_polytope(rng, 3, 5)]
    ok = True
    per_fixture = 40  # 5 fixtures x 40 = 200 operators
    for p in fixtures:
        lo, _ = lower_bound(p)
        ident = Operator.identity(p.dim)
        ok = ok and numerical_radius(p, ident).value == Fraction(1)
        for _ in range(per_fixture):
            op = Operator(random_rational_matrix(rng, p.dim))
            norm, _ = operator_norm(p, op)
            v = numerical_radius(p, op).value
            ok = ok and v <= norm
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            ok = ok and numerical_radius(p, op.scale(lam)).value == abs(lam) * v
            if norm != 0:
                ok = ok and lo <= v / norm
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    report(7, ok, "v <= norm, homogeneity, v(I) = 1, lower <= v/norm on 200 operators",
           elapsed)


def test_criterion_8_oracle_equivalence_2d():
    t0 = time.perf_counter()
    rng = random.Random(808)
    ok = True
    worst_gap = 0.0
    for _ in range(20):
        p = random_symmetric_polytope(rng, 2, n_pairs=rng.randint(3, 5))
        assert len(p.vertices) <= 10
        facets = facet_enumeration(p)
        ok = ok and sorted(f.coeffs for f in facets) == brute_force_facets(p.vertices)
        for i in p.orbit_representatives():
            entry = vertex_minimax(p, i)
            funcs = [facets[k].coeffs for k in entry.functional_indices]
            sampled = boundary_minimax_2d(p, funcs, 100000)
            gap = sampled - float(entry.value)
            worst_gap = max(worst_gap, gap)
            ok = ok and gap > -1e-9 and gap < 1e-3
    elapsed = time.perf_counter() - t0
    report(8, ok, f"facets match subset oracle; sampled-minus-bound gap <= {worst_gap:.2e}",
           elapsed)


def test_criterion_9_certificates_on_general_inputs():
    # The exact index of a general space is out of reach; what is promised
    # is the bracket contract plus certificates that re-evaluate exactly.
    t0 = time.perf_counter()
    rng = random.Random(909)
    ok = True
    for trial in range(6):
        p = random_symmetric_polytope(rng, 2 + trial % 2, n_pairs=5)
        facets = facet_enumeration(p)
        witnesses = []
        while len(witnesses) < 2:
            m = random_rational_matrix(rng, p.dim)
            if any(x != 0 for row in m for x in row):
                witnesses.append(Operator(m))
        br = index_bracket(p, witnesses=witnesses)
        ok = ok and 0 < br.lower <= br.upper <= 1
        # Witness is normalized and its certificate re-evaluates.
        norm, _ = operator_norm(p, br.witness)
        ok = ok and norm == Fraction(1)
        c = br.radius_certificate
        f = facets[c.facet_index]
        v = p.vertices[c.vertex_index]
        ok = ok and c.vertex_index in f.incident_vertices
        ok = ok and abs(sum(a * b for a, b in zip(f.coeffs, br.witness(v)))) == c.value
        ok = ok and c.value == br.upper
        # Vertex-bound certificates re-evaluate too.
        for e in br.lower_certificate.entries:
            attained = max(abs(sum(c2 * x for c2, x in zip(facets[k].coeffs, e.minimizer)))
                           for k in e.functional_indices)
            ok = ok and attained == e.value
    elapsed = time.perf_counter() - t0
    report(9, ok, "bracket contract and exact certificate re-evaluation on random inputs",
           elapsed)
