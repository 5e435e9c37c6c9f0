"""Operator norm and numerical radius on a polyhedral space.

Both quantities reduce to finite maxima: the operator norm is attained at
a vertex of the ball, and the numerical radius only needs the extreme
points of the primal and dual balls, i.e. the incident (vertex, facet)
pairs. Everything here is exhaustive enumeration — no optimization, so
the results are exact on the rational backend.

Both read the ball's evaluation table (:func:`polytope.evaluation_table`).
On a rational ball with a rational operator T, the matrix is scaled once to
ints, M = L_T T, and each vertex row becomes the int image M W_a. Then
f_r(T v_a) = F_r . M W_a / (L_F L_T L_W): every comparison is between ints
over one common positive denominator, and the answer is built as one
``Fraction``. On floats the same loops run on the coefficient tuples,
summing the same products in the same order as ``linalg.dot``, so every
float result is the one a ``dot`` per pair gives. A mixed pair (a float
operator on a rational ball, or the reverse) uses the facet coefficients
and vertices as they are, in float arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Optional

from .errors import ComputationError, InputError
from .linalg import matvec, scaled_integer_rows
from .polytope import Polytope, evaluation_table, facet_enumeration, incidence
from .scalars import DEFAULT_EPS, Context, EXACT, Scalar, infer_exact

# The context of every float operator. It only coerces entries: the norm and
# radius compare on the ball's context, so its tolerance is never read.
_FLOAT = Context(DEFAULT_EPS)


class Operator:
    """A linear operator on the space, given by its d x d coordinate matrix."""

    def __init__(self, matrix, backend: Optional[str] = None):
        matrix = [tuple(row) for row in matrix]
        d = len(matrix)
        if d == 0 or any(len(row) != d for row in matrix):
            raise InputError("operator matrix must be square and nonempty")
        if backend is None:
            exact = infer_exact(matrix)
        elif backend in ("rational", "float"):
            exact = backend == "rational"
        else:
            raise InputError(f"unknown backend {backend!r}")
        self.ctx = EXACT if exact else _FLOAT
        self.matrix = tuple(tuple(self.ctx.coerce(x) for x in row) for row in matrix)
        self.dim = d

    def __call__(self, x):
        if len(x) != self.dim:
            raise InputError(f"dimension mismatch: operator is {self.dim}x{self.dim}, "
                             f"point has {len(x)} coordinates")
        return matvec(self.matrix, x)

    def scale(self, s) -> "Operator":
        return Operator([[x * s for x in row] for row in self.matrix],
                        backend="rational" if self.ctx.exact else "float")

    def __repr__(self):
        return f"Operator(dim={self.dim}, matrix={self.matrix!r})"

    @classmethod
    def identity(cls, d: int, exact: bool = True) -> "Operator":
        return cls([[int(i == j) for j in range(d)] for i in range(d)],
                   backend="rational" if exact else "float")

    @classmethod
    def zero(cls, d: int, exact: bool = True) -> "Operator":
        z = 0 if exact else 0.0
        return cls([[z] * d for _ in range(d)], backend="rational" if exact else "float")


@dataclass(frozen=True)
class RadiusCertificate:
    """A (vertex, facet) incidence pair attaining the numerical radius.

    The named facet supports the named vertex (f(v) = 1) and
    ``|f(T v)| == value``.
    """

    value: Scalar
    vertex_index: int
    facet_index: int


@dataclass(frozen=True)
class ProfileRow:
    vertex_index: int
    value: Scalar
    facet_index: Optional[int]


def _check_dims(p: Polytope, op: Operator):
    if op.dim != p.dim:
        raise InputError(f"dimension mismatch: operator is {op.dim}x{op.dim}, "
                         f"space has dimension {p.dim}")


def _evaluation(p: Polytope, op: Operator):
    """``(facet rows, images, scale)``: images[a] is T v_a as a row that the
    facet rows dot with, and f_r(T v_a) is that dot product divided by
    ``scale``, or the dot product itself when ``scale`` is None."""
    _check_dims(p, op)
    if p.ctx.exact != op.ctx.exact:
        # A mixed pair: the coefficients and vertices as they are, in floats.
        rows = [f.coeffs for f in facet_enumeration(p)]
        matrix, vertices, scale = op.matrix, p.vertices, None
    else:
        table = evaluation_table(p)
        rows, vertices = table.facets, table.vertices
        matrix, scale = op.matrix, None
        if p.ctx.exact:
            matrix, op_scale = scaled_integer_rows(op.matrix)
            scale = table.facet_scale * op_scale * table.vertex_scale
    images = [tuple(sum(map(mul, row, v)) for row in matrix) for v in vertices]
    return rows, images, scale


def _value(x, scale):
    return x if scale is None else Fraction(x, scale)


def operator_norm(p: Polytope, op: Operator):
    """(norm, attaining vertex index); the norm is max over vertices of gauge(T v).

    Ties go to the lowest vertex index. In floats a |f(T v)| that is not
    finite (T v or its pairing overflowed) raises ComputationError naming
    the vertex: the norm would be inf, and T/||T|| the zero operator.
    """
    rows, images, scale = _evaluation(p, op)
    best, best_i = None, None
    for i, tv in enumerate(images):
        values = [abs(sum(map(mul, f, tv))) for f in rows]
        if scale is None and not all(map(math.isfinite, values)):
            raise ComputationError(f"operator norm: |f(T v)| is not finite at vertex {i}")
        g = max(values)
        if best is None or g > best:
            best, best_i = g, i
    return _value(best, scale), best_i


def _radius_rows(p: Polytope, op: Operator):
    """Per vertex (index, max incident |f(T v)| unscaled, its facet), ties to
    the lowest facet index, and the scale of the values."""
    rows, images, scale = _evaluation(p, op)
    table = []
    for i, (tv, facets) in enumerate(zip(images, incidence(p).vertex_to_facets)):
        best, best_k = None, None
        for k in facets:
            val = abs(sum(map(mul, rows[k], tv)))
            if best is None or val > best:
                best, best_k = val, k
        table.append((i, best, best_k))
    return table, scale


def numerical_radius(p: Polytope, op: Operator) -> RadiusCertificate:
    """max of |f(T v)| over all incident vertex-facet pairs, with certificate.

    The first row of :func:`radius_profile` with the largest value, so ties
    are broken by lowest (vertex index, facet index).
    """
    table, scale = _radius_rows(p, op)
    i, best, k = max(table, key=itemgetter(1))
    return RadiusCertificate(value=_value(best, scale), vertex_index=i, facet_index=k)


def radius_profile(p: Polytope, op: Operator) -> tuple:
    """Per-vertex table of max incident |f(T v)|, ties to the lowest facet
    index; its overall max is the radius."""
    table, scale = _radius_rows(p, op)
    return tuple(ProfileRow(vertex_index=i, value=_value(best, scale), facet_index=k)
                 for i, best, k in table)
