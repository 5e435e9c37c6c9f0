"""Generators for the built-in families of unit balls and their witness operators.

Trigonometric coordinates put a family on the float backend; the two
fully rational solids (the irregular hexagon and the square prism with
glued pyramids) are exact so that their index computations reproduce the
known rational values bit-exactly.

:data:`FAMILIES` is the one table of them: the parameters each takes, its
ball, its sharp witness and its known index, all in closed form.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import InputError
from .operators import Operator
from .polytope import Polytope


def _check_n(n: int):
    if not isinstance(n, int) or n < 2:
        raise InputError(f"family parameter n must be an integer >= 2, got {n!r}")


def regular_index(n: int) -> float:
    """sin(pi/2n) for odd n, tan(pi/2n) for even n: the index of the regular
    2n-gon (Martin and Meri) and of the paper's prisms over it."""
    _check_n(n)
    return math.sin(math.pi / (2 * n)) if n % 2 else math.tan(math.pi / (2 * n))


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
    verts = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 0, 2),
             (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1), (0, 0, -2)]
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


def linf_sum(a: Polytope, b: Polytope) -> Polytope:
    """Unit ball of the maximum-norm direct sum: the product of the two
    balls, so the vertex set is every concatenated pair of vertices."""
    exact = a.ctx.exact and b.ctx.exact
    backend = "rational" if exact else "float"
    eps = None if exact else max(a.ctx.eps, b.ctx.eps) or None
    verts = [tuple(v) + tuple(w) for v in a.vertices for w in b.vertices]
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
    return Polytope(verts, backend=p.ctx.backend, eps=p.ctx.eps)


def scale_witness(t: Operator, axis: int, factor) -> Operator:
    """The operator ``t`` conjugated by the rescaling of :func:`scale_coordinate`:
    row ``axis`` times ``factor`` and column ``axis`` divided by it, in the
    operator's own arithmetic. A sharp witness of a ball stays sharp for the
    rescaled ball. ``axis`` and ``factor`` are as :func:`scale_coordinate`
    accepts them."""
    factor = t.ctx.coerce(factor)
    m = [list(row) for row in t.matrix]
    for j in range(t.dim):
        m[axis][j] *= factor
        m[j][axis] /= factor
    return Operator(m, backend=t.ctx.backend)


def prism_witness_operator(n: int, l: float = 0.0) -> Operator:
    """Sharp witness for the oblique prism, in closed form.

    With c = cos(pi/2n) and s = sin(pi/2n), let T0 be the map
    (x, y, z) -> (-c y, c x, s z): a quarter turn of the base polygon scaled
    by c, with the height flattened to s. Let S be the shear
    (x, y, z) -> (x + l z, y, z), which carries the right prism onto the
    oblique one. The witness is S T0 S^-1, the matrix

        [[0, -c,  l s],
         [c,  0, -c l],
         [0,  0,  s  ]],

    so the top-ring vertex (cos t + l, sin t, 1) goes to
    (-c sin t + l s, c cos t, s). Every top vertex lands on the sphere for
    odd n, and the normalized map certifies tan(pi/2n) for even n.
    """
    _check_n(n)
    l = float(l)
    c = math.cos(math.pi / (2 * n))
    s = math.sin(math.pi / (2 * n))
    return Operator([(0.0, -c, l * s), (c, 0.0, -c * l), (0.0, 0.0, s)], backend="float")


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
    return Operator([(0, 0, Fraction(1, 2)), (0, 0, 0), (0, 0, 0)], backend="rational")


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


class Family(NamedTuple):
    """A built-in family. ``ball``, ``witness`` and ``index`` take the
    parameters named in ``params`` as keywords; ``witness`` and ``index`` are
    None where no sharp witness or no closed-form index is known."""

    params: tuple
    ball: Callable[..., Polytope]
    witness: Optional[Callable[..., Operator]]
    index: Optional[Callable]


FAMILIES = {
    "regular_2n_gon": Family(("n",), regular_2n_gon, polygon_witness_operator,
                             regular_index),
    "oblique_prism": Family(("n", "l"), oblique_prism, prism_witness_operator,
                            lambda n, l=0.0: regular_index(n)),
    "prism_with_pyramids": Family(("n",), prism_with_pyramids, prism_with_pyramids_witness,
                                  lambda n: 0.5 if n == 2 else regular_index(n)),
    "bipyramid_square_prism": Family((), bipyramid_square_prism, pyramid_witness_operator,
                                     lambda: Fraction(1, 2)),
    "irregular_hexagon": Family((), irregular_hexagon, None, None),
    "linf_sum": Family(("a", "b"), linf_sum, None, None),
}

# The irregular hexagon's worked example: the exact bounds of its three vertex
# orbits, whose minimum 5/17 is its lower bound, and a vertex of its dual ball.
# Its index needs an exact method the package does not have yet.
HEXAGON_VERTEX_BOUNDS = (Fraction(5, 17), Fraction(4, 7), Fraction(9, 13))
HEXAGON_DUAL_VERTEX = (Fraction(2, 3), Fraction(1, 3))
