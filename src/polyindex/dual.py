"""Polar duality.

The polar body of the unit ball B is ``{f : |f(x)| <= 1 for all x in B}``
in the same coordinate system via the dot-product pairing. For a
symmetric polytopal ball its vertices are exactly the facet functionals,
so :func:`polar` reads them off the facet enumeration; running the same
enumeration on the result and landing back on the original vertex set is
the bipolar round-trip the test suite checks.
"""
from __future__ import annotations

from .errors import InputError
from .linalg import dot
from .polytope import Polytope, facet_enumeration
from .scalars import Scalar


def polar(p: Polytope) -> Polytope:
    """The polar unit ball: vertices are the facet functionals of ``p``.

    The result lives on the same scalar backend. Its own facets identify
    with the vertices of ``p`` (bipolar identity), which the property
    tests verify by running the enumeration in both directions.
    """
    return Polytope([f.coeffs for f in facet_enumeration(p)], backend=p.ctx.backend,
                    eps=p.ctx.eps)


def dual_norm(p: Polytope, f) -> Scalar:
    """Norm of the functional f on the dual space: max over vertices of |f(v)|.

    Equals 1 exactly for every facet functional of ``p``.
    """
    if len(f) != p.dim:
        raise InputError(f"dimension mismatch: functional has {len(f)} coefficients, "
                         f"polytope has dimension {p.dim}")
    return max(abs(dot(f, v)) for v in p.vertices)
