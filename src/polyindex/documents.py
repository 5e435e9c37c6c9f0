"""JSON document formats for polytopes and operators.

Rational scalars serialize as integers or "p/q" strings so that the
rational backend round-trips losslessly; float scalars serialize as JSON
numbers. A polytope document may embed a witness operator document under
the "witness" key so that a single stream pipes from the family generator
into the bound command.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InputError
from .operators import Operator
from .polytope import Polytope
from .scalars import Scalar, finite_floats, format_rational, parse_rational

RATIONAL = "rational"
FLOAT = "float"


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else format_rational(x)
    return float(x)


def _scalar_from_json(value, kind: str):
    if kind == RATIONAL:
        if isinstance(value, (bool, float)):
            raise InputError(f"rational documents take integers or 'p/q' strings, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return parse_rational(value)
        raise InputError(f"expected integer or rational string, got {type(value).__name__}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"float documents take numbers, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InputError("not a finite number")
    return x


def _rows(rows, dim: int, kind: str, where: str) -> list:
    """The scalars of ``rows``, ``dim`` per row; errors name ``where[i][j]``,
    built only then. A rational document's ints stay ints: :class:`Polytope`
    and :class:`Operator` read them as they are, and a row of ints only
    (``type(x) is int``, so a bool still raises) is passed on as it is. A
    float document's row of finite floats only (:func:`finite_floats`) is
    passed on as it is too."""
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{where}[{i}]: expected an array of length {dim}")
        if kind == RATIONAL:
            for x in row:
                if type(x) is not int:
                    break
            else:
                parsed.append(row)
                continue
        elif finite_floats(row):
            parsed.append(row)
            continue
        values = []
        try:
            for j, x in enumerate(row):
                values.append(_scalar_from_json(x, kind))
        except InputError as exc:
            raise InputError(f"{where}[{i}][{j}]: {exc}") from exc
        parsed.append(values)
    return parsed


def _check_header(doc, what: str) -> Tuple[int, str]:
    if not isinstance(doc, dict):
        raise InputError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{what}.dim: expected a positive integer, got {dim!r}")
    kind = doc.get("scalar")
    if kind not in (RATIONAL, FLOAT):
        raise InputError(f"{what}.scalar: expected 'rational' or 'float', got {kind!r}")
    return dim, kind


def polytope_to_document(p: Polytope, witness: Optional[Operator] = None) -> dict:
    doc = {
        "dim": p.dim,
        "scalar": p.ctx.backend,
        "vertices": [[scalar_to_json(x) for x in v] for v in p.vertices],
    }
    if witness is not None:
        doc["witness"] = operator_to_document(witness)
    return doc


def polytope_from_document(doc, eps: Optional[float] = None) -> Tuple[Polytope, Optional[Operator]]:
    dim, kind = _check_header(doc, "polytope")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise InputError("polytope.vertices: expected a nonempty array")
    p = Polytope(_rows(verts, dim, kind, "polytope.vertices"), backend=kind, eps=eps)
    witness = None
    if "witness" in doc and doc["witness"] is not None:
        witness = operator_from_document(doc["witness"], name="witness")
        if witness.dim != dim:
            raise InputError("witness.dim: does not match polytope.dim")
    return p, witness


def operator_to_document(op: Operator) -> dict:
    return {
        "dim": op.dim,
        "scalar": op.ctx.backend,
        "matrix": [[scalar_to_json(x) for x in row] for row in op.matrix],
    }


def operator_from_document(doc, name: str = "operator") -> Operator:
    """Parse an operator document; errors name its fields ``<name>.*``."""
    dim, kind = _check_header(doc, name)
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != dim:
        raise InputError(f"{name}.matrix: expected an array of {dim} rows")
    return Operator(_rows(matrix, dim, kind, f"{name}.matrix"), backend=kind)
