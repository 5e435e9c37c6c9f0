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
from .scalars import Scalar, finite_floats, format_rational, read_rational

RATIONAL = "rational"
FLOAT = "float"


def scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else format_rational(x)
    return float(x)


def _rational_entry(value) -> tuple:
    """A rational document's entry as reduced ints ``(p, q)``, q > 0."""
    if isinstance(value, str):
        return read_rational(value)
    if isinstance(value, (bool, float)):
        raise InputError(f"rational documents take integers or 'p/q' strings, got {value!r}")
    if isinstance(value, int):
        return int(value), 1
    raise InputError(f"expected integer or rational string, got {type(value).__name__}")


def _float_entry(value) -> float:
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
    """The entries of ``rows``, ``dim`` per row; errors name ``where[i][j]``,
    built only then. A float document gives rows of floats, and a row of
    finite floats only (:func:`finite_floats`) is passed on as it is. A
    rational document gives each row as its numerators and denominators
    ``(P, Q)``, each entry read once as reduced ints (:func:`read_rational`);
    a row of ints only (``type(x) is int``, so a bool still raises) is
    passed on as it is, over a row of ones."""
    parsed, ones = [], (1,) * dim
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{where}[{i}]: expected an array of length {dim}")
        if kind == RATIONAL:
            for x in row:
                if type(x) is not int:
                    break
            else:
                parsed.append((row, ones))
                continue
        elif finite_floats(row):
            parsed.append(row)
            continue
        entry, values = _rational_entry if kind == RATIONAL else _float_entry, []
        try:
            for j, x in enumerate(row):
                values.append(entry(x))
        except InputError as exc:
            raise InputError(f"{where}[{i}][{j}]: {exc}") from exc
        parsed.append(tuple(zip(*values)) if kind == RATIONAL else values)
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
    rows = _rows(verts, dim, kind, "polytope.vertices")
    if kind == RATIONAL:
        # W_ij = p_ij L / q_ij over L, the lcm of every q: the rows
        # ``ctx.over_one_scale`` gives, with no Fraction built.
        scale = math.lcm(*[q for _, qs in rows for q in qs])
        p = Polytope._of_scaled(tuple(tuple(ps) if scale == 1 else
                                      tuple([a * (scale // q) for a, q in zip(ps, qs)])
                                      for ps, qs in rows), scale)
    else:
        p = Polytope(rows, backend=kind, eps=eps)
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
    rows = _rows(matrix, dim, kind, f"{name}.matrix")
    if kind == RATIONAL:
        rows = [[a if q == 1 else Fraction(a, q) for a, q in zip(*row)] for row in rows]
    return Operator(rows, backend=kind)
