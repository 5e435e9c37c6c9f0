"""Scalar backends.

All geometry in this package is generic over two kinds of scalar:

* exact rationals (``fractions.Fraction``, arbitrary precision), used
  whenever the input coordinates are rational;
* ``float`` with an explicit comparison tolerance ``eps``.

A :class:`Context` bundles the backend choice with the tolerance and
provides all comparisons, so that the same algorithms run bit-exactly on
rationals and tolerantly on floats.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
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
