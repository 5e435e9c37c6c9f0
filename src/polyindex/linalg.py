"""Small dense linear algebra over either scalar backend: dot products,
matrix-vector products, and the rank of a matrix.

Vectors are tuples, matrices tuples of row tuples. :func:`dot` adds its
products left to right, one rounding per float addition on every Python
version (``sum`` compensates float sums from 3.12 on), and
:func:`column_dots` makes many such dot products in ``map`` passes.
Dimensions here are tiny (2 to 5), so :func:`rank` is plain Gaussian
elimination with exact pivoting on the rational backend and max-magnitude
pivoting on floats. It eliminates only the rows below each pivot, the rows
a later pivot search reads, and nothing after the last possible pivot. Its
intake is the same on both backends: a row of finite floats is taken as it
is, any other row is read through ``ctx.coerce``, and the rows then go over
one scale (``ctx.over_one_scale``).
There is no linear solve: every built-in witness operator is written down
in closed form (:mod:`polyindex.families`).

:func:`rank` on the rational backend eliminates fraction-free. The rows
are int rows over one common scale, which leaves the rank alone; rows of
ints, such as the evaluation table's facet rows, keep their ints. An
elimination step replaces a row by ``row*piv - f*prow``, where ``piv`` is
the pivot and ``f`` the row's entry in the pivot column, and then divides
it by the gcd of its entries (:func:`eliminate`). So no ``Fraction`` is
built while eliminating, and the entries stay small. The simplex of
:mod:`polyindex.linprog` pivots with the same two helpers. The pivot
search and the elimination step fork on the backend: they are different
algorithms, exact pivoting and fraction-free steps against max-magnitude
pivoting and float division.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import add, mul

from .errors import InputError
from .scalars import Context, finite_floats


def dot(a, b):
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return reduce(add, map(mul, a, b), 0)


def column_dots(left, right):
    """Iterator over the dot products of matching rows of two matrices given
    by their columns (iterables, such as ``repeat(x)`` for a constant; the
    shortest ends it): one ``map`` pass per product column and per
    addition, the products and sums of :func:`dot` in its order. Only the
    sign of a zero sum can differ, as :func:`dot` starts from 0."""
    terms = map(map, repeat(mul), left, right)
    total = next(terms)
    for term in terms:
        total = map(add, total, term)
    return total


def vneg(a):
    return tuple(-x for x in a)


def matvec(m, x):
    return tuple(dot(row, x) for row in m)


def _pivot_row(rows, col, start, ctx):
    """Index of the pivot row for `col`, or None if the column is (near) zero."""
    if ctx.exact:
        for i in range(start, len(rows)):
            if rows[i][col] != 0:
                return i
        return None
    best, best_mag = None, ctx.eps
    for i in range(start, len(rows)):
        mag = abs(rows[i][col])
        if mag > best_mag:
            best, best_mag = i, mag
    return best


def eliminate(row, prow, piv, col) -> list:
    """``row*piv - row[col]*prow`` divided by the gcd of its entries.

    One fraction-free elimination step on integer rows: the result is zero
    at ``col`` and, when ``piv > 0``, a positive multiple of the row that
    Fraction elimination by the normalized pivot row gives.
    """
    f = row[col]
    new = [x * piv - f * y for x, y in zip(row, prow)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def rank(rows, ctx: Context) -> int:
    """Rank of a (not necessarily square) matrix given as an iterable of rows.

    Forward elimination: a pivot eliminates the rows below it only, the
    only rows a later pivot search reads, and the last pivot (in the last
    column or the last row) eliminates nothing. The pivots are those of
    Gauss-Jordan elimination, and on floats so is every value a pivot
    search compares: Gauss-Jordan changes the rows above the pivot only.
    """
    work = list(ctx.over_one_scale([row if finite_floats(row) else tuple(map(ctx.coerce, row))
                                    for row in rows])[0])
    if not work:
        return 0
    n, last = len(work), len(work[0]) - 1
    r = 0
    for col in range(last + 1):
        p = _pivot_row(work, col, r, ctx)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        r += 1
        if r == n or col == last:
            break
        prow = work[r - 1]
        piv = prow[col]
        if ctx.exact:
            for i in range(r, n):
                if work[i][col] != 0:
                    work[i] = eliminate(work[i], prow, piv, col)
        else:
            prow = [x / piv for x in prow]
            for i in range(r, n):
                factor = work[i][col]
                if factor != 0:
                    work[i] = [x - factor * y for x, y in zip(work[i], prow)]
    return r
