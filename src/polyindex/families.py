"""Generators for the built-in families of unit balls and their witness operators.

Trigonometric coordinates put a family on the float backend; the two
fully rational solids (the irregular hexagon and the square prism with
glued pyramids) are exact so that their index computations reproduce the
known rational values bit-exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError
from .operators import Operator
from .polytope import Polytope


def _check_n(n: int):
    if not isinstance(n, int) or n < 2:
        raise InputError(f"family parameter n must be an integer >= 2, got {n!r}")


def regular_2n_gon(n: int) -> Polytope:
    """Regular polygon with 2n vertices on the unit circle, at angles (j-1)*pi/n."""
    _check_n(n)
    verts = [(math.cos(j * math.pi / n), math.sin(j * math.pi / n)) for j in range(2 * n)]
    return Polytope(verts, backend="float")


def oblique_prism(n: int, l: float = 0.0) -> Polytope:
    """Prism over a regular 2n-gon, sheared by l: vertices
    (cos(j-1)pi/n + l, sin(j-1)pi/n, 1) and (cos(j-1)pi/n - l, sin(j-1)pi/n, -1).

    l = 0 gives the right prism.
    """
    _check_n(n)
    l = float(l)
    if not math.isfinite(l):
        raise InputError(f"shear parameter must be finite, got {l!r}")
    top = [(math.cos(j * math.pi / n) + l, math.sin(j * math.pi / n), 1.0)
           for j in range(2 * n)]
    bottom = [(math.cos(j * math.pi / n) - l, math.sin(j * math.pi / n), -1.0)
              for j in range(2 * n)]
    return Polytope(top + bottom, backend="float")


def prism_with_pyramids(n: int) -> Polytope:
    """Right prism over a regular 2n-gon with a pyramid glued on each base:
    the 4n prism vertices plus apexes (0, 0, +/-2)."""
    _check_n(n)
    p = oblique_prism(n, 0.0)
    verts = list(p.vertices) + [(0.0, 0.0, 2.0), (0.0, 0.0, -2.0)]
    return Polytope(verts, backend="float")


def bipyramid_square_prism() -> Polytope:
    """Exact rational solid: the cube [-1,1]^3 with pyramids glued on the
    z = +/-1 faces, apexes (0, 0, +/-2). 10 vertices, 12 facets."""
    one = Fraction(1)
    two = Fraction(2)
    zero = Fraction(0)
    verts = [(one, one, one), (-one, one, one), (-one, -one, one), (one, -one, one),
             (zero, zero, two),
             (-one, -one, -one), (one, -one, -one), (one, one, -one), (-one, one, -one),
             (zero, zero, -two)]
    return Polytope(verts, backend="rational")


def irregular_hexagon() -> Polytope:
    """Exact rational fixture: the hexagon with vertices
    +/-(1,1), +/-(1/2,2), +/-(-1,1)."""
    h = Fraction(1, 2)
    verts = [(1, 1), (h, 2), (-1, 1), (-1, -1), (-h, -2), (1, -1)]
    return Polytope(verts, backend="rational")


def segment() -> Polytope:
    """The 1-dimensional ball [-1, 1], mainly a building block for linf sums."""
    return Polytope([(1,), (-1,)], backend="rational")


def linf_sum(p: Polytope, q: Polytope) -> Polytope:
    """Unit ball of the maximum-norm direct sum: the product of the two
    balls, so the vertex set is every concatenated pair of vertices."""
    exact = p.ctx.exact and q.ctx.exact
    backend = "rational" if exact else "float"
    eps = None if exact else max(p.ctx.eps, q.ctx.eps) or None
    verts = [tuple(v) + tuple(w) for v in p.vertices for w in q.vertices]
    return Polytope(verts, backend=backend, eps=eps)


def scale_coordinate(p: Polytope, axis: int, factor) -> Polytope:
    """Rescale one coordinate of every vertex (e.g. the height of a prism)."""
    if not 0 <= axis < p.dim:
        raise InputError(f"axis {axis} out of range for dimension {p.dim}")
    factor = p.ctx.coerce(factor)
    if p.ctx.is_zero(factor):
        raise InputError("scale factor must be nonzero")
    verts = [tuple(x * factor if c == axis else x for c, x in enumerate(v))
             for v in p.vertices]
    backend = "rational" if p.ctx.exact else "float"
    return Polytope(verts, backend=backend, eps=None if p.ctx.exact else p.ctx.eps)


def prism_witness_operator(n: int, l: float = 0.0) -> Operator:
    """Sharp witness for the oblique prism: the unique linear map sending
    the first three top-ring vertices to

        (1+l, 0, 1)                  -> (l s, c, s)
        (cos(pi/n)+l, sin(pi/n), 1)  -> (-sin(pi/n) c + l s, cos(pi/n) c, s)
        (cos(2pi/n)+l, sin(2pi/n), 1)-> (-sin(2pi/n) c + l s, cos(2pi/n) c, s)

    with c = cos(pi/2n), s = sin(pi/2n). In unsheared coordinates it
    rotates the base polygon a quarter turn and scales it by c while
    flattening the height to s, so every top vertex lands on the sphere
    for odd n and the normalized map certifies tan(pi/2n) for even n.
    """
    _check_n(n)
    l = float(l)
    c = math.cos(math.pi / (2 * n))
    s = math.sin(math.pi / (2 * n))
    inputs = []
    images = []
    for j in range(3):
        th = j * math.pi / n
        inputs.append((math.cos(th) + l, math.sin(th), 1.0))
        images.append((-math.sin(th) * c + l * s, math.cos(th) * c, s))
    from .scalars import float_context
    return Operator.from_action(inputs, images, ctx=float_context())


def polygon_witness_operator(n: int) -> Operator:
    """Height-zero reduction of the prism witness: on the regular 2n-gon,
    the quarter-turn rotation scaled by cos(pi/2n)."""
    _check_n(n)
    c = math.cos(math.pi / (2 * n))
    return Operator([(0.0, -c), (c, 0.0)], backend="float")


def pyramid_witness_operator() -> Operator:
    """Sharp witness for the rational bipyramid solid: (x, y, z) -> (z/2, 0, 0).

    Sends the apex (0,0,2) to (1,0,0) on the sphere and every base vertex
    to (1/2, 0, 0); its numerical radius is exactly 1/2.
    """
    h = Fraction(1, 2)
    z = Fraction(0)
    return Operator([(z, z, h), (z, z, z), (z, z, z)], backend="rational")


def prism_with_pyramids_witness(n: int) -> Operator:
    """Sharp witness for the pyramided prism family.

    For n >= 3 the prism witness already works on the larger ball. The
    n = 2 solid has the strictly smaller index 1/2; its witness is the
    apex-collapse map conjugated into this base orientation:
    (x, y, z) -> (z/4, -z/4, 0).
    """
    _check_n(n)
    if n == 2:
        return Operator([(0.0, 0.0, 0.25), (0.0, 0.0, -0.25), (0.0, 0.0, 0.0)],
                        backend="float")
    return prism_witness_operator(n, 0.0)


FAMILIES = {
    "regular_2n_gon": {"builder": lambda n, l: regular_2n_gon(n),
                       "witness": lambda n, l: polygon_witness_operator(n),
                       "needs_n": True},
    "oblique_prism": {"builder": lambda n, l: oblique_prism(n, l),
                      "witness": lambda n, l: prism_witness_operator(n, l),
                      "needs_n": True},
    "prism_with_pyramids": {"builder": lambda n, l: prism_with_pyramids(n),
                            "witness": lambda n, l: prism_with_pyramids_witness(n),
                            "needs_n": True},
    "bipyramid_square_prism": {"builder": lambda n, l: bipyramid_square_prism(),
                               "witness": lambda n, l: pyramid_witness_operator(),
                               "needs_n": False},
    "irregular_hexagon": {"builder": lambda n, l: irregular_hexagon(),
                          "witness": None,
                          "needs_n": False},
}
