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
the sign (:meth:`Context.sign`). The int-row helpers the exact backend
scales with (:func:`scaled_integer_row`, :func:`scaled_integer_rows`,
:func:`integer_row`) live here too.
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


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal literal into an exact Fraction.

    "5/17" -> Fraction(5, 17); "-1" -> Fraction(-1); "0.5" -> Fraction(1, 2).
    An ASCII ``[+-]?digits(/digits)?`` literal is read as ``Fraction(p, q)``
    of its two ints; any other text goes to ``Fraction(text)``, which
    accepts the same literals and gives the same value.
    """
    if not isinstance(text, str):
        raise InputError(f"expected a rational literal string, got {type(text).__name__}")
    literal = text.strip()
    try:
        if _INTEGER_RATIO.fullmatch(literal):
            num, _, den = literal.partition("/")
            return Fraction(int(num), int(den or 1))
        return Fraction(literal)
    except ZeroDivisionError as exc:
        raise InputError(f"rational literal has zero denominator: {text!r}") from exc
    except ValueError as exc:
        raise InputError(f"malformed rational literal: {text!r}") from exc


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


def scaled_integer_row(values) -> tuple:
    """``(ints, scale)``: ``values`` times ``scale``, the lcm of their
    denominators, as a row of ints; ``values[i] == ints[i] / scale``.

    Values are read through ``as_integer_ratio()``: ints, Fractions and
    finite floats may mix, and a float gives the ints and scale of its
    ``Fraction``, without building one."""
    # Lists, not generators, go to lcm and gcd here and in linalg.eliminate:
    # CPython parks the argument tuple of a generator call in a free list of
    # its resized length, and those free lists grow with every call.
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def scaled_integer_rows(rows) -> tuple:
    """``(int rows, scale)``: every row of the rectangular matrix ``rows``
    (values as :func:`scaled_integer_row` takes them) times one common
    scale, the lcm of all their denominators, as a tuple of int tuples."""
    flat, scale = scaled_integer_row([x for row in rows for x in row])
    d = len(rows[0])
    return tuple(tuple(flat[i:i + d]) for i in range(0, len(flat), d)), scale


def integer_row(values) -> list:
    """The Fractions ``values`` times the lcm of their denominators: a row of
    ints that is a positive multiple of the given row. An int counts as a
    Fraction of denominator 1, and a row of ints comes back as it is."""
    for x in values:
        if type(x) is not int:
            return scaled_integer_row(values)[0]
    return list(values)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" for integers), losslessly."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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

    def over_one_scale(self, rows) -> tuple:
        """``(W, L)``: the rows of values as rows W over one common positive
        scale L, value (i, j) being W_ij / L. On the exact backend the int
        rows of :func:`scaled_integer_rows`, L the lcm of every denominator;
        on floats the rows as they are, over 1."""
        return scaled_integer_rows(rows) if self.exact else (tuple(rows), 1)

    def primitive(self, v) -> tuple:
        """v times a positive factor: on the exact backend an int vector
        divided by the gcd of its entries, on floats divided by its largest
        magnitude. A zero vector is returned as it is."""
        if self.exact:
            # A sequence, never a generator, goes to gcd (see scaled_integer_row).
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
