"""Seeded request lists for the four workloads.

A request is one ``polyindex.cli.main`` call: its argv, the JSON document it
reads on stdin (or the index of an earlier request in the same pass whose
output it reads, for the bipolar round trip), and what the answer must be.
The same seed gives the same passes of requests.  Instances are never filtered by
whether polyindex handles them; a failure counts against the run.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from polyindex import Polytope, documents, families
from polyindex.linalg import rank
from polyindex.scalars import Context


@dataclass
class Request:
    name: str
    argv: list
    stdin: str = ""           # JSON text; empty when ``chain_from`` is set
    chain_from: int = -1      # index of the request whose output becomes the input
    expect: dict = field(default_factory=dict)


def _closed_form(n: int) -> float:
    """Index of the regular 2n-gon family: sin(pi/2n) for odd n, tan(pi/2n) for even n."""
    return math.sin(math.pi / (2 * n)) if n % 2 else math.tan(math.pi / (2 * n))


def _doc(p, witness=None) -> str:
    return json.dumps(documents.polytope_to_document(p, witness=witness))


def _vertices_json(p) -> list:
    return documents.polytope_to_document(p)["vertices"]


def _sphere_pairs(d: int, r2: int) -> list:
    """One point of each antipodal pair of integer points with |x|^2 = r2."""
    m = math.isqrt(r2)
    return [v for v in itertools.product(range(-m, m + 1), repeat=d)
            if sum(x * x for x in v) == r2 and v > tuple(-x for x in v)]


def random_ball(rng: random.Random, d: int, r2: int, pairs: int) -> Polytope:
    """Symmetric rational ball on ``pairs`` random antipodal pairs of integer
    points of the sphere |x|^2 = r2.  Points on a sphere are all extreme, so
    every draw is a valid unit ball once it spans R^d; only rank-deficient
    draws (not a unit ball at all) are redrawn."""
    candidates = _sphere_pairs(d, r2)
    while True:
        chosen = rng.sample(candidates, pairs)
        if rank(chosen, Context()) == d:
            break
    vertices = []
    for v in chosen:
        vertices += [v, tuple(-x for x in v)]
    return Polytope(vertices, backend="rational")


def _cube(d: int) -> Polytope:
    p = families.segment()
    for _ in range(d - 1):
        p = families.linf_sum(p, families.segment())
    return p


def _cross_polytope(d: int) -> Polytope:
    return Polytope([tuple(s if j == i else 0 for j in range(d))
                     for i in range(d) for s in (1, -1)], backend="rational")


def exact_bracket(rng: random.Random) -> list:
    """The named fixtures and seeded random balls.  Sorted by cost, ten
    requests (the hexagons) sit below the seven ten-vertex d = 2 balls and
    ten above them, so the median falls in the middle of those seven draws
    and not on the edge of a cluster.  The p85 falls in the middle of the
    three runs of the 4-D cube: repeating that one request gives the tail
    three times as many samples as a single one, and nothing seeded crosses
    it in cost.  (At p80 the tail sat low in that cluster and spread twice
    as much from seed to seed.)"""
    hexagon = families.irregular_hexagon()
    reqs = [
        Request("irregular_hexagon", ["bound"], _doc(hexagon),
                expect={"check": "bracket_rational", "lower": "5/17", "upper": "1",
                        "status": "gap"}),
        Request("bipyramid_square_prism+witness", ["bound"],
                _doc(families.bipyramid_square_prism(), families.pyramid_witness_operator()),
                expect={"check": "bracket_rational", "lower": "1/2", "upper": "1/2",
                        "status": "tight"}),
        Request("linf_sum(hexagon,hexagon)", ["bound"],
                _doc(families.linf_sum(hexagon, hexagon)),
                expect={"check": "bracket_rational", "lower": "5/17", "upper": "1",
                        "status": "gap"}),
        *(Request(f"cube4#{k}", ["bound"], _doc(_cube(4)),
                  expect={"check": "bracket_rational", "lower": "1", "upper": "1",
                          "status": "tight"}) for k in range(3)),
        Request("cross_polytope4", ["bound"], _doc(_cross_polytope(4)),
                expect={"check": "bracket_rational", "lower": "1", "upper": "1",
                        "status": "tight"}),
    ]
    for d, r2, pairs, count in EXACT_RANDOM:
        for i in range(count):
            reqs.append(Request(f"random_ball(d={d},|V|={2 * pairs})#{i}", ["bound"],
                                _doc(random_ball(rng, d, r2, pairs)),
                                expect={"check": "bracket_rational"}))
    return reqs


# (d, |x|^2 of the integer sphere, antipodal pairs, balls per pass).  Four
# pairs in d = 4 make a random lattice cross-polytope: ten-vertex 4-D draws
# range from 3 to 10 s per request, which no run length would average out.
EXACT_RANDOM = ((2, 325, 3, 9), (2, 325, 5, 7), (3, 27, 4, 3), (4, 9, 4, 1))


def float_bracket(rng: random.Random) -> list:
    """Seeded n (and shear l) on seven light and four heavy requests around a
    fixed middle one, oblique_prism(8, 1/2), on which the median falls; the
    three heaviest are fixed too (the 76-, 78- and 80-gon), so the p85 falls
    inside their cluster, a quarter of the way up.  A seeded request never
    crosses the fixed ones in cost."""
    reqs = []

    def gon(n):
        reqs.append(Request(f"regular_2n_gon(n={n})", ["bound"],
                            _doc(families.regular_2n_gon(n), families.polygon_witness_operator(n)),
                            expect={"check": "bracket_float", "value": _closed_form(n)}))

    def prism(n, l):
        reqs.append(Request(f"oblique_prism(n={n},l={l})", ["bound"],
                            _doc(families.oblique_prism(n, l),
                                 families.prism_witness_operator(n, l)),
                            expect={"check": "bracket_float", "value": _closed_form(n)}))

    def pyramids(n):
        reqs.append(Request(f"prism_with_pyramids(n={n})", ["bound"],
                            _doc(families.prism_with_pyramids(n),
                                 families.prism_with_pyramids_witness(n)),
                            expect={"check": "bracket_float",
                                    "value": 0.5 if n == 2 else _closed_form(n)}))

    def shear():
        return rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))

    gon(6 + rng.randint(0, 2))
    gon(9 + rng.randint(0, 1))
    gon(12 + rng.randint(0, 1))
    prism(3 + rng.randint(0, 1), shear())
    prism(5 + rng.randint(0, 1), shear())
    pyramids(2 + rng.randint(0, 1))
    pyramids(3 + rng.randint(0, 1))
    prism(8, 0.5)
    gon(20 + rng.randint(0, 1))
    gon(28 + rng.randint(0, 1))
    prism(11 + rng.randint(0, 1), shear())
    pyramids(6 + rng.randint(0, 1))
    gon(38)
    gon(39)
    gon(40)  # the 80-gon of the ROADMAP baseline
    return reqs


def search(rng: random.Random) -> list:
    balls = (
        ("irregular_hexagon", _doc(families.irregular_hexagon()), 100,
         {"check": "search_rational", "lower": "5/17"}),
        ("bipyramid_square_prism+witness",
         _doc(families.bipyramid_square_prism(), families.pyramid_witness_operator()), 40,
         {"check": "search_rational", "lower": "1/2", "upper": "1/2", "status": "tight"}),
        ("oblique_prism(n=5,l=0.5)",
         _doc(families.oblique_prism(5, 0.5), families.prism_witness_operator(5, 0.5)), 100,
         {"check": "bracket_float", "value": _closed_form(5)}),
        ("regular_2n_gon(n=12)",
         _doc(families.regular_2n_gon(12), families.polygon_witness_operator(12)), 100,
         {"check": "bracket_float", "value": _closed_form(12)}),
    )
    reqs = []
    for _ in range(2):
        for name, doc, budget, expect in balls:
            s = rng.randrange(1 << 30)
            reqs.append(Request(f"{name} --search {budget} --seed {s}",
                                ["bound", "--search", str(budget), "--seed", str(s)], doc,
                                expect=expect))
    return reqs


def _unimodular_image(rng: random.Random, p: Polytope) -> Polytope:
    """p under a random signed permutation times a random unit upper
    triangular integer matrix (entries in {-1, 0, 1}), vertices shuffled."""
    d = p.dim
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(d)]
             for i in range(d)]
    rows = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    matrix = [[signs[i] * upper[rows[i]][j] for j in range(d)] for i in range(d)]
    vertices = [tuple(sum(a * x for a, x in zip(row, v)) for row in matrix) for v in p.vertices]
    rng.shuffle(vertices)
    return Polytope(vertices, backend="rational")


def hull(rng: random.Random) -> list:
    """Per pass: nine single requests, each on its own random ball,
    alternating hull and dual; then eight bipolar round trips.  Sorted by
    cost, the first ``dual`` of each trip and the d = 3 single come first,
    the d = 4 and 5 singles (where the median falls) next, and the second
    ``dual`` of each trip, which validates the polar, last: the p80 falls
    near the middle of that cluster.  The round trips run on random
    unimodular images of one fixed ball, so every polar has the same vertex
    count; on free draws that count varies and the p80 swung by 20% from
    seed to seed."""
    reqs = []
    for j, (d, r2, pairs) in enumerate(HULL_BALLS):
        p = random_ball(rng, d, r2, pairs)
        cmd = ("hull", "dual")[j % 2]
        reqs.append(Request(f"{cmd} random_ball(d={d},|V|={2 * pairs})", [cmd], _doc(p),
                            expect={"check": cmd, "vertices": _vertices_json(p)}))
    base = random_ball(random.Random("hull round trip"), *ROUND_TRIP_BALL)
    for _ in range(8):
        p = _unimodular_image(rng, base)
        verts = _vertices_json(p)
        name = f"unimodular image of a fixed ball (d={p.dim},|V|={len(p)})"
        reqs.append(Request(f"dual {name}", ["dual"], _doc(p),
                            expect={"check": "dual", "vertices": verts}))
        reqs.append(Request(f"dual dual {name}", ["dual"], chain_from=len(reqs) - 1,
                            expect={"check": "bipolar", "vertices": verts}))
    return reqs


# (d, |x|^2 of the integer sphere, antipodal pairs)
HULL_BALLS = ((3, 27, 8),) + ((4, 9, 8), (5, 4, 8)) * 4
ROUND_TRIP_BALL = (3, 27, 8)

WORKLOADS = {
    "exact_bracket": exact_bracket,
    "float_bracket": float_bracket,
    "search": search,
    "hull": hull,
}


# Distinct passes built per run; the worker cycles through them.  Each pass
# redraws the seeded instances, so that percentiles and throughput average
# over many draws.  exact_bracket keeps one: its median and tail sit on
# fixtures, and redrawn balls of d = 3 straddle them from pass to pass.
PASSES = {"exact_bracket": 1, "float_bracket": 6, "search": 6, "hull": 3}


def build(workload: str, seed: int) -> list:
    """The run's passes, each a list of requests."""
    rng = random.Random(f"{workload}:{seed}")
    return [WORKLOADS[workload](rng) for _ in range(PASSES[workload])]
