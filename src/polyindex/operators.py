"""Operator norm and numerical radius on a polyhedral space.

Both quantities reduce to finite maxima: the operator norm is attained at
a vertex of the ball, and the numerical radius only needs the extreme
points of the primal and dual balls, i.e. the incident (vertex, facet)
pairs. Everything here is exhaustive enumeration — no optimization, so
the results are exact on the rational backend.

One evaluator, :func:`_orbit_pair_values`, computes |g_j(T v_a)| for each
antipodal vertex orbit a and antipodal facet pair j of the ball's
evaluation table (:func:`polytope.evaluation_table`), as one flat list
with entry a * J + j for J pairs. The norm (:func:`_table_norm`, every
entry) and the radius (:func:`_radius_rows`, the incident entries) each
read a given table, so one evaluation serves both:
:func:`norm_and_profile` for the ``radius`` command, and the upper bound
and search of :mod:`polyindex.bracket`, which read v(T) / ||T|| off one
table per operator. The ball is symmetric,
|f(T(-v))| = |f(T v)| = |(-f)(T v)|, so on rationals these are the full
table's maxima, first attained at an orbit representative (the smaller
index of its pair). T is put over one scale by the ball's context
(``ctx.over_one_scale``): a rational T is scaled once to ints,
M = L_T T, and g_j(T v_a) = G_j . M W_a / (L_F L_T L_W), so every
comparison is between ints over one common denominator, and each answer
is one ``Fraction`` (``ctx.quotient``). On floats every scale is 1, and
the quotient is the float itself, bit for bit.

The table is filled column by column (:func:`linalg.column_dots`): a few
``map`` passes over the table's vertex and pair columns, with no Python
loop per entry. Each entry gets the products and sums of one
``linalg.dot`` per image coordinate and per pairing, in its order, so the
ints are those of a ``dot`` per (representative, pair), and so are the
floats, bit for bit, after the final ``abs``. A float ball is symmetric
only up to rounding, and so are these maxima to the full table's. Each
entry point takes T in the ball's arithmetic (:func:`_in_ball_arithmetic`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat
from operator import itemgetter
from typing import Optional

from .errors import ComputationError, InputError
from .linalg import column_dots, matvec
from .polytope import Polytope, evaluation_table, incidence
from .scalars import DEFAULT_EPS, Context, EXACT, Scalar, _exact_backend

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
        self.ctx = EXACT if _exact_backend(backend, matrix) else _FLOAT
        self.matrix = tuple(tuple(self.ctx.coerce(x) for x in row) for row in matrix)
        self.dim = d

    def __call__(self, x):
        if len(x) != self.dim:
            raise InputError(f"dimension mismatch: operator is {self.dim}x{self.dim}, "
                             f"point has {len(x)} coordinates")
        return matvec(self.matrix, x)

    def scale(self, s) -> "Operator":
        return Operator([[x * s for x in row] for row in self.matrix], backend=self.ctx.backend)

    def __repr__(self):
        return f"Operator(dim={self.dim}, matrix={self.matrix!r})"

    @classmethod
    def identity(cls, d: int, exact: bool = True) -> "Operator":
        return cls([[int(i == j) for j in range(d)] for i in range(d)],
                   backend="rational" if exact else "float")

    @classmethod
    def zero(cls, d: int, exact: bool = True) -> "Operator":
        return cls([[0] * d for _ in range(d)], backend="rational" if exact else "float")


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


def _in_ball_arithmetic(p: Polytope, op: Operator) -> Operator:
    """op with its entries in the ball's arithmetic (``p.ctx.coerce``): on a
    rational ball a float entry is the ``Fraction`` of its binary value, on
    a float ball a rational entry is rounded to a float. An entry beyond the
    float range, or a dimension other than the ball's, raises InputError.
    An operator already in the ball's arithmetic is returned as it is, with
    no entry coerced again."""
    if op.dim != p.dim:
        raise InputError(f"dimension mismatch: operator is {op.dim}x{op.dim}, "
                         f"space has dimension {p.dim}")
    if op.ctx.exact == p.ctx.exact:
        return op
    for i, j in product(range(op.dim), repeat=2):
        try:
            p.ctx.coerce(op.matrix[i][j])
        except InputError:
            raise InputError(f"operator: matrix[{i}][{j}] is beyond the float range") from None
    return Operator(op.matrix, backend=p.ctx.backend)


def _orbit_pair_values(p: Polytope, matrix):
    """``(values, scale)``: the flat list whose entry a * J + j is
    |g_j(T v_a)| for orbit a and facet pair j of
    :func:`polytope.evaluation_table` (J pairs), times ``scale``, which is
    1 on floats. ``matrix`` is T's matrix in the ball's arithmetic and
    dimension (:func:`_in_ball_arithmetic`); on a rational ball its entries
    may also be floats, taken at their exact values
    (:func:`scalars.scaled_integer_row`). Each coordinate of the images
    T v_a is one :func:`linalg.column_dots` over the table's vertex
    columns, spread to the flat layout, and the pairings are one over the
    pair columns."""
    table = evaluation_table(p)
    matrix, op_scale = p.ctx.over_one_scale(matrix)
    scale = table.facet_scale * op_scale * table.vertex_scale
    images = [table.spread(list(column_dots(map(repeat, row), table.vertex_columns)))
              for row in matrix]
    return list(map(abs, column_dots(table.pair_columns, images))), scale


def _table_norm(p: Polytope, values):
    """(largest entry of ``values``, as it is, and the orbit representative
    of its first entry). On floats an entry that is not finite (T v or its
    pairing overflowed) raises ComputationError naming the representative
    of the first such entry: the norm would be inf, and T/||T|| the zero
    operator."""
    table = evaluation_table(p)
    n_pairs = len(table.pair_facets)
    if not p.ctx.finite(values):
        first = list(map(math.isfinite, values)).index(False)
        i = table.representatives[first // n_pairs]
        raise ComputationError(f"operator norm: |f(T v)| is not finite at vertex {i}")
    norm = max(values)
    return norm, table.representatives[values.index(norm) // n_pairs]


def _radius_rows(p: Polytope, values) -> list:
    """Per vertex (index, max incident entry of ``values`` as it is, its
    facet), ties to the lowest facet index: vertex i reads its orbit's
    entries at the pairs of its facets."""
    table = evaluation_table(p)
    n_pairs, pair_of = len(table.pair_facets), table.pair_of
    rows = []
    for i, facets in enumerate(incidence(p).vertex_to_facets):
        base = table.orbit_of[i] * n_pairs
        incident = [values[base + pair_of[k]] for k in facets]
        best = max(incident)
        rows.append((i, best, facets[incident.index(best)]))
    return rows


def _profile(p: Polytope, rows, scale) -> tuple:
    return tuple(ProfileRow(vertex_index=i, value=p.ctx.quotient(best, scale), facet_index=k)
                 for i, best, k in rows)


def operator_norm(p: Polytope, op: Operator):
    """(norm, attaining vertex index); the norm is max over vertices of gauge(T v).

    The vertex is the first orbit representative attaining the norm. In
    floats a |f(T v)| that is not finite raises ComputationError naming
    the representative (:func:`_table_norm`).
    """
    values, scale = _orbit_pair_values(p, _in_ball_arithmetic(p, op).matrix)
    norm, i = _table_norm(p, values)
    return p.ctx.quotient(norm, scale), i


def numerical_radius(p: Polytope, op: Operator) -> RadiusCertificate:
    """max of |f(T v)| over all incident vertex-facet pairs, with certificate.

    The first row of :func:`radius_profile` with the largest value, so ties
    are broken by lowest (vertex index, facet index).
    """
    values, scale = _orbit_pair_values(p, _in_ball_arithmetic(p, op).matrix)
    i, best, k = max(_radius_rows(p, values), key=itemgetter(1))
    return RadiusCertificate(value=p.ctx.quotient(best, scale), vertex_index=i, facet_index=k)


def radius_profile(p: Polytope, op: Operator) -> tuple:
    """Per-vertex table of max incident |f(T v)|, ties to the lowest facet
    index; its overall max is the radius."""
    values, scale = _orbit_pair_values(p, _in_ball_arithmetic(p, op).matrix)
    return _profile(p, _radius_rows(p, values), scale)


def norm_and_profile(p: Polytope, op: Operator):
    """(norm, attaining vertex index, radius profile) off one evaluation:
    what :func:`operator_norm` and :func:`radius_profile` return."""
    values, scale = _orbit_pair_values(p, _in_ball_arithmetic(p, op).matrix)
    norm, i = _table_norm(p, values)
    return p.ctx.quotient(norm, scale), i, _profile(p, _radius_rows(p, values), scale)
