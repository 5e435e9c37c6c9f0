"""Dense simplex with Bland's pivot rule, started at the slack basis.

The solver is deliberately small: no package code calls it yet, and the
programs it is kept for, the exact index's LPs over operator entries
(d² free variables, every right-hand side 1), have at most a few dozen
variables, but they are routinely degenerate and — on the rational
backend — must be solved bit-exactly. Bland's smallest-index rule
guarantees termination on degenerate instances.

On the float backend the tableau holds floats and each pivot divides the
pivot row by the pivot. On the rational backend it holds Python ints and
no ``Fraction`` is built while pivoting (fraction-free pivoting, as in
lrs and Bareiss elimination). Each constraint row is stored as a
*positive* multiple of the row the Fraction tableau would hold, and its
scale is its own entry in its basic column. A pivot on (r, c) turns every
other row into ``row*piv - f*prow`` divided by the gcd of its entries
(:func:`polyindex.linalg.eliminate`), with ``piv > 0``. The objective row
is a positive multiple too. So every sign that Bland's rule reads is the
sign of the Fraction entry, and every ratio ``b_i / a_i`` is the same
number, compared by cross-multiplication. The pivots are therefore those
of the Fraction simplex, and so are the final basis, the optimal point and
its value, which are read off as ``ctx.quotient(row[-1], row[basis[i]])``.
Each row goes into the tableau over its own scale (``ctx.over_one_scale``):
times the lcm of its denominators, so a row of integral values keeps its
ints. The value and the point are ``Fraction``s all the same.

Problem form::

    minimize    c . x
    subject to  A x <= b        (inequality rows, b >= 0)
                x_j >= 0        for j with nonneg[j] (others are free)

Free variables are split internally as x = u - w with u, w >= 0.

As b >= 0, the slack basis (x = 0) is feasible, so there is no phase 1:
the simplex runs once and the program is optimal or unbounded. Equality
rows and negative right-hand sides are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ComputationError, InputError
from .linalg import dot, eliminate
from .scalars import Context, EXACT, Scalar

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to ineq_lhs x <= ineq_rhs; eq_lhs, eq_rhs must be empty."""

    objective: tuple
    ineq_lhs: tuple = ()
    ineq_rhs: tuple = ()
    eq_lhs: tuple = ()
    eq_rhs: tuple = ()
    nonneg: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(self, "ineq_lhs", tuple(map(tuple, self.ineq_lhs)))
        object.__setattr__(self, "ineq_rhs", tuple(self.ineq_rhs))
        object.__setattr__(self, "eq_lhs", tuple(map(tuple, self.eq_lhs)))
        object.__setattr__(self, "eq_rhs", tuple(self.eq_rhs))
        if self.nonneg is not None:
            object.__setattr__(self, "nonneg", tuple(map(bool, self.nonneg)))
        n = len(self.objective)
        if n < 1:
            raise InputError("linear program needs at least one variable")
        if len(self.ineq_lhs) != len(self.ineq_rhs):
            raise InputError("inequality rows and right-hand sides differ in count")
        for row in self.ineq_lhs:
            if len(row) != n:
                raise InputError(f"constraint row has {len(row)} coefficients, expected {n}")
        if self.nonneg is not None and len(self.nonneg) != n:
            raise InputError("nonneg flags must match the variable count")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPSolution:
    """status is 'optimal' or 'unbounded'.

    When optimal, ``point`` satisfies every constraint (exactly on the
    rational backend) and ``value == objective . point``. ``basis`` lists
    the basic column indices of the internal standard form at termination.
    """

    status: str
    value: Optional[Scalar] = None
    point: Optional[tuple] = None
    basis: tuple = ()

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _pivot_float(rows, objs, r, c):
    """Pivot on entry (r, c) of float rows, in place. Only the columns where
    the pivot row is nonzero can change, so the update visits just those."""
    prow = rows[r]
    piv = prow[c]
    nonzero = [j for j, y in enumerate(prow) if y != 0]
    for j in nonzero:
        prow[j] = prow[j] / piv
    for row in rows + objs:
        f = row[c]
        if f != 0 and row is not prow:
            for j in nonzero:
                row[j] = row[j] - f * prow[j]


def _pivot_integer(rows, objs, r, c):
    """Fraction-free pivot on entry (r, c) of integer rows, in place. The
    entry is positive (:func:`_leaving_row`), so every row stays a positive
    multiple of its Fraction counterpart, and the new scale of row r is its
    entry at c."""
    prow = rows[r]
    piv = prow[c]
    for table in (rows, objs):
        for i, row in enumerate(table):
            if row[c] != 0 and row is not prow:
                table[i] = eliminate(row, prow, piv, c)


def _leaving_row(rows, basis, enter, tol, exact):
    """Bland's ratio test: the row with the least b_i / a_i over the rows
    with a_i > 0, ties to the lowest basic column; None when there is none.

    Integer rows compare the ratios by cross-multiplication, which keeps
    their order because every a_i compared is positive.
    """
    leave = None
    for i, row in enumerate(rows):
        a = row[enter]
        if a > tol:
            if leave is not None:
                if exact:
                    lhs, rhs = row[-1] * best_a, best_b * a
                else:
                    lhs, rhs = row[-1] / a, best_b / best_a
                if not (lhs < rhs or (lhs == rhs and basis[i] < basis[leave])):
                    continue
            leave, best_b, best_a = i, row[-1], a
    return leave


def _simplex(rows, objs, basis, ctx, max_pivots):
    """Run Bland-rule simplex on objs[0]; returns 'optimal' or 'unbounded'.

    ``objs`` holds the objective row alone, in a list so that an integer
    pivot can replace it. Every column but the right-hand side may enter."""
    tol = ctx.eps or 0  # obj[j] < -tol is ctx.sign(obj[j]) < 0, without the call
    for _ in range(max_pivots):
        obj = objs[0]
        enter = next((j for j in range(len(obj) - 1) if obj[j] < -tol), None)
        if enter is None:
            return OPTIMAL
        leave = _leaving_row(rows, basis, enter, tol, ctx.exact)
        if leave is None:
            return UNBOUNDED
        (_pivot_integer if ctx.exact else _pivot_float)(rows, objs, leave, enter)
        basis[leave] = enter
    raise ComputationError("simplex exceeded its pivot budget (cycling?)")


def solve_lp(lp: LinearProgram, ctx: Context = EXACT) -> LPSolution:
    """Solve a linear program on the backend selected by ``ctx``.

    One simplex run from the slack basis, with Bland's rule, so the method
    terminates on degenerate input. Every right-hand side must be
    nonnegative, which makes the slack basis feasible; an equality row or
    a negative right-hand side raises ``InputError`` naming the row.

    Every coefficient is coerced to the backend's type (``ctx.coerce``); on
    the exact backend ``value`` and ``point`` are ``Fraction``s. Scaling an
    inequality row by a positive factor only scales its slack column, so
    the pivots, basis, point and value stay the same. On floats a pivot
    that overflows raises ``ComputationError``: a tableau holding an
    inf or a nan cannot be trusted for a sign, so neither an optimum nor
    unboundedness read off it is reported.
    """
    if lp.eq_lhs or lp.eq_rhs:
        raise InputError("equality row 0: solve_lp takes inequality rows only")
    n = lp.n_vars
    nonneg = lp.nonneg or (False,) * n
    zero, one = ctx.coerce(0), ctx.coerce(1)

    # Structural columns: x_j (and its negative part when the variable is free).
    col_of_plus, col_of_minus, n_struct = [], [], 0
    for j in range(n):
        col_of_plus.append(n_struct)
        col_of_minus.append(None if nonneg[j] else n_struct + 1)
        n_struct += 1 if nonneg[j] else 2
    width = n_struct + len(lp.ineq_lhs)  # the tableau's columns before the RHS

    def expand(coeffs):
        row = [zero] * (width + 1)
        for j, a in enumerate(coeffs):
            a = ctx.coerce(a)
            row[col_of_plus[j]] = a
            if col_of_minus[j] is not None:
                row[col_of_minus[j]] = -a
        return row

    # Each row goes over its own scale: on the rational backend a positive
    # multiple of the row in ints, which leaves every pivot alone; on floats
    # the row itself.
    rows = []
    for i, (coeffs, rhs) in enumerate(zip(lp.ineq_lhs, lp.ineq_rhs)):
        row = expand(coeffs)
        row[-1] = ctx.coerce(rhs)
        if row[-1] < 0:
            raise InputError(f"inequality row {i}: right-hand side {rhs} is negative")
        row[n_struct + i] = one
        rows += ctx.over_one_scale([row])[0]
    basis = list(range(n_struct, width))

    objective = tuple(map(ctx.coerce, lp.objective))
    objs = list(ctx.over_one_scale([expand(objective)])[0])
    max_pivots = 40 * (width + 1) * (len(rows) + 1) + 1000
    status = _simplex(rows, objs, basis, ctx, max_pivots)
    # An inf or a nan that a float pivot leaves in the tableau stays there (a
    # pivot turns none finite), so one check after the run finds any overflow.
    if not ctx.finite(x for row in rows + objs for x in row):
        raise ComputationError("linear program: a pivot overflowed to a non-finite float; "
                               "the coefficients span too wide a range")
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED)

    # While a float tableau stays finite, a row's entry in its basic column
    # is exactly 1.0, so its quotient is its right-hand side, bit for bit.
    values = {b: ctx.quotient(row[-1], row[b]) for row, b in zip(rows, basis)}
    nonbasic = ctx.coerce(0)  # the value of a column that is not basic
    point = tuple(values.get(plus, nonbasic) if minus is None else
                  values.get(plus, nonbasic) - values.get(minus, nonbasic)
                  for plus, minus in zip(col_of_plus, col_of_minus))
    value = dot(objective, point)
    return LPSolution(status=OPTIMAL, value=value, point=point, basis=tuple(sorted(basis)))
