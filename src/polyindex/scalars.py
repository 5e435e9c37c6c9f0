"""Scalar backends.

All geometry in this package is generic over two kinds of scalar:

* exact rationals (``fractions.Fraction``, arbitrary precision), used
  whenever the input coordinates are rational;
* ``float`` with an explicit comparison tolerance ``eps``.

A :class:`Context` bundles the backend choice with the tolerance and
provides all comparisons, so that the same algorithms run bit-exactly on
rationals and tolerantly on floats. It also carries each backend's ring
arithmetic, which the other modules call with no branch of their own:
rows over one common scale (:meth:`Context.over_one_scale`, int rows on
the exact backend, as lrs keeps them), a ray's primitive multiple
(:meth:`Context.primitive`), the quotient a report shows
(:meth:`Context.quotient`), a finiteness test (:meth:`Context.finite`) and
the sign (:meth:`Context.sign`). ``over_one_scale`` is the one place
that puts rows over a common scale: values, or int numerators over a
scale per row. The one reader of rational literals, :func:`read_rational`,
lives here too; a rational document's rows are built from its reduced
ints (p, q).
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import floordiv, truediv
from typing import Iterable, Union

from .errors import InputError

Scalar = Union[Fraction, float]

DEFAULT_EPS = 1e-9
EPS_ENV_VAR = "POLYINDEX_EPS"


def default_eps() -> float:
    """Default float tolerance, overridable via the POLYINDEX_EPS env var."""
    raw = os.environ.get(EPS_ENV_VAR)
    if raw is None:
        return DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError as exc:
        raise InputError(f"{EPS_ENV_VAR}: not a number: {raw!r}") from exc
    return check_tolerance(eps, EPS_ENV_VAR)


def check_tolerance(eps: float, name: str) -> float:
    """eps, when it is a finite positive float tolerance; otherwise an
    InputError naming its source ``name``. A tolerance of 0 would select
    the exact backend, and a NaN or infinite one makes every comparison
    fail."""
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"{name}: tolerance must be finite and positive, got {eps}")
    return eps


# An integer or "p/q" literal in ASCII digits, read with int() on each part.
_INTEGER_RATIO = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def read_rational(text: str) -> tuple:
    """The value of a rational literal as reduced ints ``(p, q)``, q > 0.

    "5/17" -> (5, 17); " -2/4 " -> (-1, 2); "0.5" -> (1, 2). An ASCII
    ``[+-]?digits(/digits)?`` literal is read with ``int()`` on each part;
    any other text goes to ``Fraction(text)``, which accepts the same
    literals and gives the same value.
    """
    if not isinstance(text, str):
        raise InputError(f"expected a rational literal string, got {type(text).__name__}")
    literal = text.strip()
    try:
        if not _INTEGER_RATIO.fullmatch(literal):
            return Fraction(literal).as_integer_ratio()
        num, _, den = literal.partition("/")
        p, q = int(num), int(den or 1)
        if q:
            g = math.gcd(p, q)
            return p // g, q // g
    except ZeroDivisionError:
        pass
    except ValueError as exc:
        raise InputError(f"malformed rational literal: {text!r}") from exc
    raise InputError(f"rational literal has zero denominator: {text!r}")


def parse_rational(text: str) -> Fraction:
    """The ``Fraction`` of a rational literal (:func:`read_rational`):
    "5/17" -> Fraction(5, 17); "-1" -> Fraction(-1); "0.5" -> Fraction(1, 2)."""
    return Fraction(*read_rational(text))


def finite_floats(values) -> bool:
    """Whether every value of the sequence is a finite float, of type
    ``float`` itself (no bool, int or float subclass). One ``sum`` tests
    finiteness: it is finite unless an entry is not or the sum overflows,
    and on overflow finite floats are answered False too, which only sends
    them down the general path of the caller."""
    for x in values:
        if type(x) is not float:
            return False
    return math.isfinite(sum(values))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers), losslessly."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# A dataclass, not a NamedTuple: dataclasses.fields, replace and
# FrozenInstanceError are part of its interface (tests/test_scalars.py).
@dataclass(frozen=True)
class Context:
    """Comparison context: ``eps == 0`` selects the exact rational backend;
    any other ``eps`` must be a finite positive float tolerance.

    ``exact`` (``eps == 0``) is a plain attribute, set once when the
    context is built: the hot loops read it per row. It is not a field, so
    equality, hashing, ``repr`` and ``dataclasses.replace`` see ``eps``
    only, and like ``eps`` it cannot be assigned.
    """

    eps: float = 0.0

    def __post_init__(self):
        if self.eps != 0:
            check_tolerance(self.eps, "eps")
        object.__setattr__(self, "exact", self.eps == 0)

    @property
    def backend(self) -> str:
        """The backend's name, as :class:`~polyindex.polytope.Polytope`,
        :class:`~polyindex.operators.Operator` and the documents take it:
        "rational" when exact, else "float"."""
        return "rational" if self.exact else "float"

    def coerce(self, value) -> Scalar:
        """Convert a number (or rational literal string) to this backend's type."""
        if self.exact:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, str):
                return parse_rational(value)
            try:
                return Fraction(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"cannot interpret {value!r} as an exact rational") from exc
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"cannot interpret {value!r} as a float") from exc
        if not math.isfinite(x):
            raise InputError(f"not a finite number: {value!r}")
        return x

    def sign(self, value) -> int:
        """-1, 0, or +1; values within eps of zero count as zero."""
        # The int 0 on the exact backend: comparing a Fraction with the float
        # 0.0 would convert the float to a Fraction on every call.
        tol = self.eps or 0
        if value > tol:
            return 1
        if value < -tol:
            return -1
        return 0

    def over_one_scale(self, rows, scales=None) -> tuple:
        """``(W, L)``: rows of values as rows W over one common positive
        scale L, value (i, j) being W_ij / L. The values are the entries of
        ``rows``, or, with ``scales``, the int numerators x_ij over the
        positive int scale s_i of their row.

        On the exact backend W holds ints. For values L is the least common
        scale, the lcm of every denominator, read through
        ``as_integer_ratio()``: ints, Fractions and finite floats may mix, a
        float at its exact binary value. With ``scales`` L is the lcm of the
        scales, and W_ij is x_ij (L // s_i), with no gcd taken: where each
        row is primitive with its scale, as a double-description ray is, that
        is the least common scale too. On floats the rows come back as they
        are, or as the quotients x_ij / s_i, over 1. Rows of values without
        entries come back empty, over 1.
        """
        if not self.exact:
            if scales is None:
                return tuple(rows), 1
            return tuple([tuple([x / s for x in row]) for row, s in zip(rows, scales)]), 1
        # Lists, not generators, go to lcm and gcd here and in linalg.eliminate:
        # CPython parks the argument tuple of a generator call in a free list of
        # its resized length, and those free lists grow with every call.
        if scales is not None:
            scale = math.lcm(*scales)
            return tuple([tuple([x * m for x in row])
                          for row, s in zip(rows, scales) for m in (scale // s,)]), scale
        ratios = [x.as_integer_ratio() for row in rows for x in row]
        if not ratios:
            return tuple([()] * len(rows)), 1
        scale = math.lcm(*[q for _, q in ratios])
        flat = [p * (scale // q) for p, q in ratios]
        d = len(rows[0])
        return tuple([tuple(flat[i:i + d]) for i in range(0, len(flat), d)]), scale

    def primitive(self, v) -> tuple:
        """v times a positive factor: on the exact backend an int vector
        divided by the gcd of its entries, on floats divided by its largest
        magnitude. A zero vector is returned as it is."""
        if self.exact:
            # A sequence, never a generator, goes to gcd (see over_one_scale).
            g = math.gcd(*v)
            return tuple(map(floordiv, v, repeat(g))) if g > 1 else tuple(v)
        m = max(map(abs, v))
        return tuple(map(truediv, v, repeat(m))) if m else tuple(v)

    def quotient(self, x, scale) -> Scalar:
        """The value x / scale, for a report: the ``Fraction`` on the exact
        backend, the float division on floats, which at a scale of 1 is x
        itself, bit for bit."""
        return Fraction(x, scale) if self.exact else x / scale

    def finite(self, values) -> bool:
        """Whether every value is finite: always on the exact backend."""
        return self.exact or all(map(math.isfinite, values))

    def is_zero(self, value) -> bool:
        return self.sign(value) == 0

    def eq(self, a, b) -> bool:
        return self.sign(a - b) == 0


EXACT = Context(0.0)


def float_context(eps: float | None = None) -> Context:
    return Context(default_eps() if eps is None else check_tolerance(float(eps), "eps"))


def infer_exact(values: Iterable) -> bool:
    """True when no float occurs among the (possibly nested) values."""
    return all(infer_exact(v) if isinstance(v, (list, tuple)) else not isinstance(v, float)
               for v in values)


def _exact_backend(backend, values) -> bool:
    """Whether ``backend`` ("rational" or "float") is exact; None infers it
    from ``values`` (:func:`infer_exact`)."""
    if backend is None:
        return infer_exact(values)
    if backend not in ("rational", "float"):
        raise InputError(f"unknown backend {backend!r} (expected 'rational' or 'float')")
    return backend == "rational"
