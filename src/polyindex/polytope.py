"""Symmetric polytopal unit balls in V-representation.

A :class:`Polytope` stores the full vertex list (antipodal pairs included)
of a symmetric, full-dimensional polytope with the origin in its interior
— the unit ball of a polyhedral norm. One incremental double-description
run per polytope converts the vertex half-space system into the extreme
rays of its homogenization. :func:`validate` reads extremality of every
input point off those rays (:func:`_vertex_flags`): on the rational
backend point i is a vertex exactly when the zero sets of the rays tight
at it intersect in {i}, so no rank is taken; floats keep a tolerant rank
per point. On the rational backend a symmetric vertex set is also
full-dimensional exactly when the cone has no lineality, so no rank is
taken there either.
:func:`facet_enumeration` normalizes the rays into the
supporting functionals of the facets, scaled so each facet lies on
``{f = 1}``. The facets, their incidence with the vertices and their
antipodal pairs are computed once per ball and kept on it.

A ball keeps its vertices as rows over one positive scale, as lrs does:
W_i = L_W v_i. On the rational backend the rows are ints and L_W the lcm
of every denominator among the coordinates, scaled when the ball is
built; a float ball keeps its rows as they are, over a scale of 1, and so
do its facet rows. Validation, the facets and the evaluation table read
these rows, the same way on both backends. The
double description runs on Python ints, on the rows (-W_i, L_W), and
keeps each ray as the primitive integer vector on it (entries with gcd
1). A rational ray has exactly one such vector, so these are the rays
that ``Fraction`` arithmetic reaches, in the same order and with the same
zero sets. :func:`facet_enumeration` sorts the facets on ints and keeps
each one's ray (x, t). The ``Fraction``s of a vertex or a facet are built
on first access only. The arithmetic itself is the context's
(:class:`~polyindex.scalars.Context`): ``over_one_scale`` scales the
rows, ``primitive`` normalizes a ray, ``quotient`` gives a vertex its
values and ``finite`` checks a float run for overflow; what stays forked
here is algorithm, each fork with its reason.

The permissive strip's duplicates and the antipodal vertices are looked up
in one point index per ball (:func:`_point_index`), with ``add`` and
``find`` on both backends. Under one common scale equal points have equal
rows and -v_i has the row -W_i, so on the rational backend a dict of
first indices on the int rows answers each lookup; on floats the points
are sorted by first coordinate (:class:`_PointIndex`), testing only those
in a window around the query that is wider than any difference the
tolerant equality accepts. A ball builds one such index, for its
antipodes, and validation's float repeat check reads it too; it takes a
row of finite floats as it is. While a double description runs, each zero
set is an int bitmask, one bit per row.

The Minkowski gauge of the ball (the norm itself) is then the maximum of
``|f(x)|`` over the facet functionals.

The operator maxima evaluate the facet functionals from one table per ball
(:func:`evaluation_table`), built on first use. On the rational backend it
holds every facet row and every vertex row as Python ints with one common
scale per table, f_r = F_r / L_F and v_a = W_a / L_W (the facets' sort
keys and the ball's one scaling of its vertices), so a value f_r(x) is an
int dot product and a maximum over many of them is an int comparison; a
``Fraction`` is built once per answer. On floats it holds the coefficient
tuples and vertices as they are, over a scale of 1. It also indexes the
ball's symmetry: one representative per antipodal vertex orbit, one facet
per antipodal facet pair, and which pairs each orbit meets, in the
columns an operator's flat table of values is computed from. The operator
norm, numerical radius and local search of :mod:`polyindex.operators` and
:mod:`polyindex.bracket`, and the vertex bounds of the lower bound, read it.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Optional

from .errors import ComputationError, InputError, ValidationError
from .linalg import dot, rank, vneg
from .scalars import (Context, EXACT, Scalar, _exact_backend, finite_floats, float_context,
                      format_rational)


class Polytope:
    """V-representation of a symmetric polytopal unit ball.

    The ball is built as ``_scaled`` = (W, L_W), the vertices as rows over
    one scale (``ctx.over_one_scale``). On the rational backend they are
    read off each coordinate's ``as_integer_ratio()`` (ints and Fractions
    as they are, anything else after ``ctx.coerce``), and the read-only
    ``vertices`` builds the Fractions W_i / L_W on first access; a float
    ball's rows are its vertices, over 1.

    Args:
        vertices: full vertex list, each a length-d sequence of scalars.
            Rational/int entries select the exact backend unless floats
            are present (or ``backend`` forces a choice).
        backend: "rational" or "float"; inferred from the entries if None.
        eps: comparison tolerance for the float backend (ignored when
            exact); defaults to the global configuration.
        permissive: when True, duplicate and non-extreme input points are
            stripped with a warning instead of being left in place for
            validation to reject; the scaling is then that of the points kept.
    """

    def __init__(self, vertices, backend: Optional[str] = None, eps: Optional[float] = None,
                 permissive: bool = False):
        vertices = [tuple(v) for v in vertices]
        if not vertices:
            raise InputError("a polytope needs at least one vertex")
        d = len(vertices[0])
        if d < 1:
            raise InputError("vertices must have at least one coordinate")
        if any(len(v) != d for v in vertices):
            raise InputError("all vertices must have the same dimension")
        self.ctx = ctx = EXACT if _exact_backend(backend, vertices) else float_context(eps)
        if ctx.exact:
            rows = [tuple(x if isinstance(x, (int, Fraction)) else ctx.coerce(x) for x in v)
                    for v in vertices]
        else:
            rows = [v if finite_floats(v) else tuple(map(ctx.coerce, v)) for v in vertices]
        if permissive:
            rows = [rows[i] for i in _kept_points(rows, ctx)]
        self._scaled = ctx.over_one_scale(rows)
        # A float ball's rows, over 1, are its vertices: no copy.
        self._vertices = None if ctx.exact else self._scaled[0]
        self.dim = d
        self._antipodes = self._index = self._representatives = None
        self._cone = None  # polar cone (rays, lineality), stored once validation passes
        self._facets = self._facet_rows = self._incidence = self._facet_pairs = self._table = None

    @property
    def vertices(self) -> tuple:
        """The vertex list, one tuple of scalars per vertex. On the rational
        backend the ``Fraction``s W_i / L_W, built on first access."""
        if self._vertices is None:
            rows, scale = self._scaled
            self._vertices = tuple(tuple(self.ctx.quotient(x, scale) for x in w) for w in rows)
        return self._vertices

    def __len__(self):
        return len(self._scaled[0])

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self)}, backend={self.ctx.backend})"

    def _antipode_map(self) -> tuple:
        """Per vertex v, the index of the first listed -v, or None if -v is missing.

        The row of -v_i is -W_i, so the lookups go to the ball's one point
        index of its rows (:func:`_point_index`), kept as ``_index`` for the
        repeat check of :func:`validate`."""
        if self._antipodes is None:
            rows = self._scaled[0]
            self._index = index = _point_index(rows, self.ctx)
            self._antipodes = tuple(index.find(vneg(w)) for w in rows)
        return self._antipodes

    def antipode_index(self, i: int) -> int:
        """Index of the vertex -v for vertex i (requires symmetry)."""
        j = self._antipode_map()[i]
        if j is None:
            raise ValidationError([f"not symmetric: {_vertex_text(i, self.vertices[i])} "
                                   "has no antipode"])
        return j

    def orbit_representatives(self) -> tuple:
        """One vertex index per antipodal pair, the smaller index of each.
        Computed once per ball."""
        if self._representatives is None:
            self._representatives = tuple(i for i in range(len(self))
                                          if i < self.antipode_index(i))
        return self._representatives


@dataclass(frozen=True)
class FacetFunctional:
    """Supporting functional of a facet, normalized so the facet lies on {f = 1}.

    ``incident_vertices`` collects the indices of the vertices v with f(v) = 1.
    A rational facet (:meth:`of_ray`) keeps ``ray``, the primitive int ray
    (x_1, ..., x_d, t) of the double description, t > 0, and builds
    ``coeffs``, the Fractions x_i / t, on first access. A float facet
    (:meth:`of_coeffs`) keeps its ``coeffs``, and ``ray`` is None.
    """

    coeffs: tuple
    incident_vertices: frozenset
    ray = None

    @classmethod
    def of_ray(cls, ray, incident_vertices) -> "FacetFunctional":
        f = object.__new__(cls)
        f.__dict__.update(ray=ray, incident_vertices=incident_vertices)
        return f

    @classmethod
    def of_coeffs(cls, coeffs, incident_vertices) -> "FacetFunctional":
        """A float facet, built as :meth:`of_ray` builds a rational one."""
        f = object.__new__(cls)
        f.__dict__.update(coeffs=coeffs, incident_vertices=incident_vertices)
        return f

    def __getattr__(self, name):  # an attribute not set: a rational facet's coeffs
        if name != "coeffs" or self.ray is None:
            raise AttributeError(name)
        *x, t = self.ray
        self.__dict__["coeffs"] = tuple([EXACT.quotient(c, t) for c in x])
        return self.coeffs

    def __call__(self, x) -> Scalar:
        return dot(self.coeffs, x)


@dataclass(frozen=True)
class Incidence:
    """Bidirectional vertex-facet incidence."""

    vertex_to_facets: tuple  # tuple of sorted tuples of facet indices
    facet_to_vertices: tuple  # tuple of sorted tuples of vertex indices


@dataclass(frozen=True)
class EvaluationTable:
    """The facet functionals and the vertices as rows for dot products,
    indexed by the ball's antipodal symmetry.

    On the rational backend ``facets[r]`` is F_r = L_F f_r and
    ``vertices[i]`` is W_i = L_W v_i, tuples of Python ints, where the
    scales L_F and L_W are the lcm of every denominator among the facet
    coefficients and among the vertex coordinates: f_r(v_i) is
    F_r . W_i / (L_F L_W). F_r is x (L_F // t) for the facet's ray (x, t),
    its sort key (:func:`facet_enumeration`): a primitive ray's reduced
    denominators t / gcd(x_i, t) have lcm t, so L_F is the lcm of the t's.
    On floats the rows are the coefficient tuples and the vertices as they
    are, and both scales are 1.

    Orbit a is vertex ``representatives[a]``, the smaller index of its
    antipodal pair, and its antipode; pair j is facet ``pair_facets[j]``,
    the smaller index, and its antipodal facet. ``orbit_of[i]`` is vertex
    i's orbit and ``pair_of[k]`` facet k's pair.

    With A orbits and J pairs, an operator's values |g_j(T v_a)| form one
    flat list, entry a * J + j (:func:`operators._orbit_pair_values`).
    ``vertex_columns[c]`` holds coordinate c of the representatives' rows,
    and ``pair_columns[c]`` coefficient c of the pairs' first facet rows,
    repeated A times, so its entry a * J + j is pair j's. ``spread`` takes
    A values, one per orbit, to the A * J with entry a * J + j value a.
    ``incident_entries`` are the entries a * J + j, ascending, where pair j
    has a facet through the vertices of orbit a.
    """

    facets: tuple
    facet_scale: int
    vertices: tuple
    vertex_scale: int
    representatives: tuple
    pair_facets: tuple
    orbit_of: tuple
    pair_of: tuple
    vertex_columns: tuple
    pair_columns: tuple
    spread: object
    incident_entries: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationError(self.violations)


def _vertex_text(i: int, v) -> str:
    """Vertex i for a message: its index and its coordinates as a document
    writes them, ``p/q`` for a rational and the repr of a float."""
    coords = ", ".join(format_rational(x) if isinstance(x, Fraction) else repr(x) for x in v)
    return f"vertex {i} ({coords})"


def _point_index(points, ctx: Context):
    """An index of the points, rows over one common scale, with ``add(v)``
    and ``find(x)``, the index of the first point added equal to x, or None.
    On floats a :class:`_PointIndex`. On the rational backend equal points
    have equal int rows, so a :class:`_RowIndex` hashes them: one dict
    lookup where the float window tests every point with an equal first
    coordinate."""
    return _RowIndex(points) if ctx.exact else _PointIndex(points, ctx)


class _RowIndex(dict):
    """Each distinct int row added, mapped to the index of its first copy."""

    def __init__(self, points):
        for i, w in enumerate(points):
            self.setdefault(w, i)
        self.size = len(points)

    def add(self, w):
        self.setdefault(w, self.size)
        self.size += 1

    find = dict.get


class _PointIndex:
    """The float points added so far, looked up by value within eps.

    A float ball builds one index of its vertices, in
    :meth:`Polytope._antipode_map`, and the repeat check of
    :func:`_vertex_flags` reads the same one; the permissive strip hands on
    its index of the points it keeps.

    ``find(x)`` is the index of the first point equal to x, or None.
    Equality within eps is not transitive, so the points cannot hash (the
    rational backend hashes int rows instead, :class:`_RowIndex`); the
    index keeps ``(first coordinate, index)`` pairs sorted and tests only
    the points whose first coordinate y0 lies in the window
    [x0 - 2 eps, x0 + 2 eps] around the query's x0, both ends rounded,
    returning the lowest matching index (the first match of a scan over
    every point). Each coordinate is compared as ``ctx.eq`` compares it,
    with the test written inline: ``-eps <= a - b <= eps``. The points are
    finite, so a - b is never nan, the one value on which the two differ.
    The window holds every match: rounding is monotone and 2 eps is a float
    (or inf), so y0 below the rounded x0 - 2 eps is below x0 - 2 eps
    itself, and then x0 - y0 rounds to 2 eps or more, which ``ctx.eq``
    rejects; likewise above.
    """

    def __init__(self, points, ctx: Context):
        self.eps = ctx.eps
        self.points = []
        self._keys = []  # sorted (first coordinate, index)
        for v in points:
            self.add(v)

    def add(self, v):
        insort(self._keys, (v[0], len(self.points)))
        self.points.append(v)

    def find(self, x) -> Optional[int]:
        eps, points, keys = self.eps, self.points, self._keys
        x0, w = x[0], 2 * eps
        window = keys[bisect_left(keys, (x0 - w,)):bisect_right(keys, (x0 + w, math.inf))]
        found = None
        for _, j in window:
            if found is None or j < found:
                for a, b in zip(x, points[j]):
                    if not -eps <= a - b <= eps:
                        break
                else:
                    found = j
        return found


def _kept_points(rows, ctx: Context) -> list:
    """The indices of the points a permissive ball keeps: the first copy of
    each point that is extreme. Warns for each point dropped, naming it as
    validation does (:func:`_vertex_text`)."""
    points, scale = ctx.over_one_scale(rows)
    index, kept = _point_index((), ctx), []
    for i, w in enumerate(points):
        if index.find(w) is None:
            index.add(w)
            kept.append(i)
        else:
            warnings.warn(f"dropping duplicate {_vertex_text(i, rows[i])}")
    points = [points[i] for i in kept]
    cone = _polar_cone(points, ctx, scale)
    extreme = []
    # The index holds exactly the points kept, in order.
    for i, is_vertex in zip(kept, _vertex_flags(points, cone, ctx, index)):
        if not is_vertex:
            warnings.warn(f"dropping non-extreme {_vertex_text(i, rows[i])}")
            continue
        extreme.append(i)
    return extreme


def _polar_cone(points, ctx: Context, scale=None):
    """Double description of {(f, t) : f . v <= t for every point v}, the
    homogenized polar of the points; returns (rays, lineality).

    The rows are (-W_i, L): with ``scale`` given the points are already the
    rows W over that common positive scale L, and otherwise W and L are
    ``ctx.over_one_scale`` of the points. Row i is L times (-v_i, 1), a
    positive factor that leaves the cone, its rays (on the rational backend
    each reduced to its primitive vector) and their zero sets as they are.
    """
    if scale is None:
        points, scale = ctx.over_one_scale(points)
    rows = [tuple(-x for x in w) + (scale,) for w in points]
    return _double_description(rows, len(rows[0]), ctx)


def _vertex_flags(points, cone, ctx: Context, index=None) -> list:
    """For each point, whether it is a vertex of the convex hull of the points.

    ``cone`` is :func:`_polar_cone` of the points. Point i is a vertex
    exactly when its row defines a facet of the cone and no other point
    equals it (a point listed more than once is not a vertex of the list:
    each copy lies in the hull of the others).

    On the rational backend both are read off the zero sets: point i is a
    vertex exactly when the zero sets of the rays tight at row i intersect
    in {i} (every index, when no ray is tight there). The intersection
    holds the rows j whose face contains row i's face, because every face
    is the lineality plus the rays tight on it. The cone is
    full-dimensional, (0, 1) being interior, so row i defines a facet
    exactly when no other row's face strictly contains its own; and two
    rows on one facet are positive multiples of each other, hence equal,
    since each ends in t-coefficient 1: the same point twice.

    On floats the zero sets come from eps-comparisons, so they are not
    exact faces: two points a few eps apart, which the tolerant equality
    keeps apart, can be tight at the same rays, and the intersection would
    drop both where the tolerant rank keeps them. So floats keep the rank:
    row i defines a facet when the rays tight at it and the lineality span
    a hyperplane. On that face t = f . v_i, so the point is a vertex iff
    their first d coordinates have rank d; repeats are found with the
    tolerant equality, through ``index``, a :class:`_PointIndex` of the
    points (a new one when None).
    """
    rays, lineality = cone
    if ctx.exact:
        common = [None] * len(points)
        for _, zs in rays:
            for i in zs:
                c = common[i]
                common[i] = zs if c is None else c & zs
        return [len(points) == 1 if c is None else len(c) == 1 for c in common]
    d = len(points[0])
    faces = [[l[:d] for l in lineality] for _ in points]
    for r, zs in rays:
        for i in zs:
            faces[i].append(r[:d])
    flags = [rank(face, ctx) == d for face in faces]
    if index is None:
        index = _PointIndex(points, ctx)
    for i, v in enumerate(points):
        j = index.find(v)
        if j != i:
            flags[i] = flags[j] = False
    return flags


def validate(p: Polytope) -> ValidationReport:
    """Check the unit-ball invariants, returning all violations found.

    Checks: symmetry of the vertex set, full dimensionality, and
    extremality of every listed vertex, read off the double description
    of the polar cone (see :func:`_vertex_flags`: the zero sets of its rays
    on the rational backend, a tolerant rank per point on floats). On the
    rational backend a symmetric vertex set is full-dimensional exactly
    when the cone's lineality is empty: (f, t) lies in it when
    f . v = t for every vertex v, and with -v listed too that means t = 0
    and f orthogonal to every vertex. A set that is not symmetric, and
    every float set, keeps the rank of the vertices. Each
    violation names the vertex by its index and coordinates; a point that
    is not extreme is named once, at its first index. That 0 is an
    interior point needs no check of its own: for a symmetric vertex set,
    0 is the average of the vertices with every weight positive, so it
    lies in the relative interior of their hull, which is the interior
    once the vertices span R^d. On success the cone is stored on ``p`` for
    :func:`facet_enumeration`.
    """
    ctx = p.ctx
    points, scale = p._scaled
    violations = [f"not symmetric: {_vertex_text(i, p.vertices[i])} has no antipode"
                  for i, j in enumerate(p._antipode_map()) if j is None]
    cone = _polar_cone(points, ctx, scale)
    if cone[1] if ctx.exact and not violations else rank(points, ctx) < p.dim:
        violations.append(f"not full-dimensional: vertices span less than {p.dim} dimensions")
    seen = set()
    for i, (w, is_vertex) in enumerate(zip(points, _vertex_flags(points, cone, ctx, p._index))):
        if not is_vertex and w not in seen:
            violations.append(f"{_vertex_text(i, p.vertices[i])} is not extreme "
                              "(lies in the hull of the others)")
            seen.add(w)
    if not violations:
        p._cone = cone
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Double description: extreme rays of {y : row . y >= 0 for all rows}.
# ---------------------------------------------------------------------------

def _project(y, l0, a, al0, ctx: Context):
    """y moved along l0 onto the hyperplane {a . y = 0}, where al0 = a . l0 > 0.

    The exact backend returns the projection times al0, so int vectors
    stay ints and the result is a positive multiple of the rational one.
    """
    s = sum(map(mul, a, y))
    if ctx.exact:
        return tuple([x * al0 - z * s for x, z in zip(y, l0)])
    s /= al0
    return tuple([x - z * s for x, z in zip(y, l0)])


def _zero_set(mask: int) -> frozenset:
    """The indices of the set bits of ``mask``."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(members)


def _double_description(rows, k: int, ctx: Context):
    """Minimal generator set of the cone {y in R^k : row . y >= 0}.

    Returns ``(rays, lineality)``: the extreme rays modulo the lineality
    space, each paired with its zero set (the frozenset of the indices of
    the rows it makes tight), and a basis of the lineality space, which is
    empty exactly when the cone is pointed. Incremental insertion with the
    combinatorial adjacency test. The sign pass classifies each ray once,
    keeping its ``a . r`` for the combinations, and compares it with
    ``ctx.eps`` as ``ctx.sign`` does. Every dot product of the run, there,
    in the lineality phase and in :func:`_project`, is one
    ``sum(map(mul, ...))``: one summation order, which on Python 3.12 and
    later compensates float sums (:func:`~polyindex.linalg.dot` adds left
    to right instead).

    While the run lasts a zero set is an int bitmask, row idx being the bit
    ``1 << idx`` (as cddlib keeps zero sets in bit arrays); the frozensets
    are built once, for the rays returned. Two adjacent rays of a cone with
    lineality dimension l are tight together at k - l - 2 independent rows
    at least (Fukuda and Prodon, "Double description method revisited",
    1996), so a pair whose common zero set has fewer bits is dropped before
    the zero-set scan; on exact data that scan rejects every such pair
    anyway, since the face they share then holds a third extreme ray.

    On the exact backend a pair that passes, where p (or m) is simple,
    tight at exactly k - l - 1 rows, is adjacent with no scan. Those rows
    are independent, and the common zero set is not all of them (m would
    lie on p's ray), so it is k - l - 2 independent rows. The face they cut
    out has exactly them as its equality set, which lies in zp & zm; so it
    is 2-dimensional, and p and m are its only extreme rays. Floats keep
    the scan: tolerant zero sets are not exact faces (see
    :func:`_vertex_flags`).

    The scan counts the rays whose zero set contains the pair's common
    one, and the pair (p, m) is adjacent when at most two do. Rays p and m
    always do, so this is the test that no ray other than p and m contains
    it; a ray whose zero set equals p's or m's in contents is another ray
    and counts. A scan over frozensets that skips p and m by identity
    gives the same answer, since no two rays of the list share one
    zero-set object (each is built anew with its ray); equal ints may be
    one object, so the bitmask scan counts instead.

    On the exact backend the rows are int tuples and so is every vector.
    A projection onto a new hyperplane (:func:`_project`) and the
    combination ``sp*rm - sm*rp`` of two adjacent rays each give a positive
    multiple of the vector that ``Fraction`` arithmetic gives, and
    ``ctx.primitive`` divides a ray by the gcd of its entries. The
    primitive integer vector on a rational ray is unique, so every ray is
    the one the ``Fraction`` run normalizes to, with the same signs against
    every row, hence the same order and the same zero sets. A lineality
    vector is a positive multiple of the ``Fraction`` one.

    On floats, products of coordinates near the top of the float range can
    overflow to inf and then nan. The run is finished before that is
    checked, once, over its final rays and lineality: a non-finite entry
    raises :class:`ComputationError`, since the input itself is finite.
    """
    # (0, 1) is primitive, so it comes back as ints on the exact backend and
    # as floats on floats: the entries of the unit vectors.
    zero, one = ctx.primitive((0, 1))
    lineality = [tuple([one if i == j else zero for i in range(k)]) for j in range(k)]
    primitive = ctx.primitive
    tol = ctx.eps or 0  # the int 0 on the exact backend, as in ctx.sign
    rays = []  # list of (vector, zero-set bitmask)

    for idx, a in enumerate(rows):
        bit = 1 << idx
        if lineality:
            pivot = None
            for pos, l in enumerate(lineality):
                s = ctx.sign(sum(map(mul, a, l)))
                if s != 0:
                    pivot = pos
                    l0 = l if s > 0 else vneg(l)
                    break
            if pivot is not None:
                al0 = sum(map(mul, a, l0))
                lineality = [_project(l, l0, a, al0, ctx)
                             for pos, l in enumerate(lineality) if pos != pivot]
                # Project every ray onto the new hyperplane; they all become
                # tight for this inequality, while l0 is the unique ray off
                # it, tight at every earlier row.
                rays = [(primitive(_project(r, l0, a, al0, ctx)), zs | bit) for r, zs in rays]
                rays.append((primitive(l0), bit - 1))
                continue

        plus, zero, minus = [], [], []
        for ray in rays:
            ar = sum(map(mul, a, ray[0]))
            if ar > tol:
                plus.append((ray, ar))
            elif ar < -tol:
                minus.append((ray, ar))
            else:
                zero.append((ray[0], ray[1] | bit))
        new = [ray for ray, _ in plus] + zero
        if minus:
            zerosets = [zs for _, zs in rays]
            tight = k - len(lineality) - 2
            simple = tight + 1 if ctx.exact else -1  # a simple ray's zero-set size
            for (rp, zp), sp in plus:
                for (rm, zm), sm in minus:
                    common = zp & zm
                    if common.bit_count() < tight:
                        continue
                    if simple not in (zp.bit_count(), zm.bit_count()):
                        hits = 0
                        for zs in zerosets:
                            if zs & common == common:
                                hits += 1
                                if hits > 2:
                                    break
                        if hits > 2:
                            continue
                    new.append((primitive([sp * xm - sm * xp for xp, xm in zip(rp, rm)]),
                                common | bit))
        rays = new

    if not ctx.finite(chain.from_iterable(chain(map(itemgetter(0), rays), lineality))):
        raise ComputationError("double description: a ray overflowed to a non-finite "
                               "float; the coordinates span too wide a range")
    return [(r, _zero_set(zs)) for r, zs in rays], lineality


def facet_enumeration(p: Polytope) -> tuple:
    """All facets of the ball, as normalized supporting functionals.

    The vertex system ``{f : f(v) <= 1 for every vertex v}`` (the polar
    body) is homogenized to a cone in dimension d+1 whose extreme rays,
    scaled to last coordinate 1, are exactly the facet functionals. The
    cone is the one :func:`validate` built and stored on ``p``. Both
    f and -f occur because the ball is symmetric. Facets are returned
    sorted by coefficient vector for deterministic reports. On the
    rational backend the sort runs on ints: with L the lcm of the rays'
    last coordinates t, a ray sorts by x (L // t) over its first d
    coordinates x, the coefficients x / t times the common positive scale
    L, so no ``Fraction`` is compared, and each facet keeps its ray, so no
    ``Fraction`` is built here (see :class:`FacetFunctional`). A float ball
    sorts on the coefficients themselves, over a scale of 1. The sort keys
    over their scale are the evaluation table's facet rows. Row i of
    the cone is the constraint of vertex i, so the zero set of a ray is the
    set of vertices on its facet. Computed once per ball.

    Raises:
        ValidationError: when the input violates a unit-ball invariant.
    """
    if p._facets is not None:
        return p._facets
    if p._cone is None:
        validate(p).raise_if_failed()
    rays, lineality = p._cone
    if lineality:
        raise ComputationError("cone contains a line; the input polytope cannot be full-dimensional")
    d = p.dim
    for r, _ in rays:
        if p.ctx.sign(r[d]) <= 0:
            raise ComputationError(f"unexpected recession ray {r} in the polar body")
    # Each ray's (sort key, facet): a rational facet keeps its ray, a float
    # facet its coefficients, the key.
    if p.ctx.exact:
        # x / t = x (L // t) / L with L the lcm of every t (a list goes to
        # lcm; see scalars.scaled_integer_row), so the int rows x (L // t)
        # sort as the Fractions x / t do.
        scale = math.lcm(*[r[d] for r, _ in rays])
        keyed = [(tuple([x * m for x in r[:d]]), FacetFunctional.of_ray(r, zs))
                 for r, zs in rays for m in (scale // r[d],)]
    else:
        scale = 1
        keyed = [(row, FacetFunctional.of_coeffs(row, zs))
                 for r, zs in rays for row in (tuple([x / r[d] for x in r[:d]]),)]
    keyed.sort(key=itemgetter(0))
    p._facet_rows = tuple(row for row, _ in keyed), scale
    p._facets = tuple(f for _, f in keyed)
    return p._facets


def incidence(p: Polytope) -> Incidence:
    """Bidirectional vertex-facet incidence: v on facet f iff f(v) = 1.

    Computed once per ball.
    """
    if p._incidence is None:
        f2v = tuple(tuple(sorted(f.incident_vertices)) for f in facet_enumeration(p))
        v2f = [[] for _ in range(len(p))]
        for k, members in enumerate(f2v):
            for i in members:
                v2f[i].append(k)
        p._incidence = Incidence(vertex_to_facets=tuple(map(tuple, v2f)), facet_to_vertices=f2v)
    return p._incidence


def evaluation_table(p: Polytope) -> EvaluationTable:
    """The ball's facet and vertex rows and their symmetry indices (see
    :class:`EvaluationTable`).

    The facet rows are the sort keys of :func:`facet_enumeration` over
    their scale, and the vertex rows (W, L_W) are the ball's one scaling of
    its vertices, the rows validation already read; on floats both scales
    are 1. Computed once per ball.
    """
    if p._table is None:
        pairs = facet_antipode_pairs(p)  # validates the ball first
        reps, antipodes = p.orbit_representatives(), p._antipode_map()
        rows = (*p._facet_rows, *p._scaled)
        orbit_of, pair_of = [None] * len(p), [None] * len(rows[0])
        for a, i in enumerate(reps):
            orbit_of[i] = orbit_of[antipodes[i]] = a
        for j, (k, k2) in enumerate(pairs):
            pair_of[k] = pair_of[k2] = j
        v2f = incidence(p).vertex_to_facets
        n_pairs = len(pairs)
        incident = tuple(a * n_pairs + j for a, i in enumerate(reps)
                         for j in sorted({pair_of[k] for k in v2f[i]}))
        vertex_rows, facet_rows = [rows[2][i] for i in reps], [rows[0][k] for k, _ in pairs]
        orbits = [a for a in range(len(reps)) for _ in range(n_pairs)]
        # itemgetter of one index returns the item, not a 1-tuple; with one
        # orbit and one pair there is nothing to spread.
        spread = itemgetter(*orbits) if len(orbits) > 1 else tuple
        p._table = EvaluationTable(*rows, reps, tuple(k for k, _ in pairs), tuple(orbit_of),
                                   tuple(pair_of), tuple(zip(*vertex_rows)),
                                   tuple(column * len(reps) for column in zip(*facet_rows)),
                                   spread, incident)
    return p._table


def gauge(p: Polytope, x) -> Scalar:
    """The norm of x: max over facet functionals of |f(x)|.

    Zero exactly at x = 0, positively homogeneous, and equal to 1 on the
    boundary of the ball.
    """
    if len(x) != p.dim:
        raise InputError(f"dimension mismatch: point has {len(x)} coordinates, "
                         f"space has dimension {p.dim}")
    return max(abs(dot(f.coeffs, x)) for f in facet_enumeration(p))


def facet_antipode_pairs(p: Polytope) -> tuple:
    """Pair each facet with its antipodal facet (-f); returns index pairs
    (k, k') with k < k', in ascending k. Computed once per ball.

    The facet -f holds exactly the antipodes of the vertices on f, so the
    partner is found by its vertex set, with no comparison of coordinates.
    """
    if p._facet_pairs is None:
        facets, antipode = facet_enumeration(p), p._antipode_map().__getitem__
        index = {f.incident_vertices: k for k, f in enumerate(facets)}
        pairs = []
        for k, f in enumerate(facets):
            partner = index.get(frozenset(map(antipode, f.incident_vertices)))
            if partner is None:
                raise ComputationError(f"facet {f.coeffs} has no antipodal facet; "
                                       "ball not symmetric?")
            if k < partner:
                pairs.append((k, partner))
        p._facet_pairs = tuple(pairs)
    return p._facet_pairs
