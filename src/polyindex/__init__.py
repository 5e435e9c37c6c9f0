"""polyindex: certified numerical-index brackets for polyhedral normed spaces.

Given a symmetric polytopal unit ball in V-representation, this package
computes its facets and vertex-facet incidence, the polar (dual) ball,
operator norms and numerical radii with attaining certificates, and a
certified two-sided bracket on the numerical index of the space: the
lower endpoint from exact per-vertex min-max values, the upper endpoint
from witness operators. At a vertex v the min-max over the unit sphere of
the functionals of the facets at v is 1 / max ||u|| over the polytope Q_v
those functionals cut out, and the norm is convex, so the maximum is at a
vertex of Q_v; one double description lists Q_v's vertices, as the
extreme rays of the cone over it (on float balls with the functionals
scaled by a power of two that follows the ball's size). Rational input
is processed in exact arbitrary-precision arithmetic.

The LP solver (:mod:`polyindex.linprog`) is loaded on first access to
``LinearProgram``, ``LPSolution`` or ``solve_lp`` (PEP 562): no command
calls it, so no command pays for importing it.
"""

__version__ = "0.1.0"

from .bracket import (IndexBracket, LowerBoundCertificate, SearchConfig, VertexBound,
                      index_bracket, lower_bound, upper_bound, vertex_minimax)
from .dual import dual_norm, polar
from .errors import ComputationError, InputError, PolyindexError, ValidationError
from .families import (bipyramid_square_prism, irregular_hexagon, linf_sum, oblique_prism,
                       polygon_witness_operator, prism_with_pyramids,
                       prism_with_pyramids_witness, prism_witness_operator,
                       pyramid_witness_operator, regular_2n_gon, regular_index,
                       scale_coordinate, scale_witness, segment)
from .operators import Operator, ProfileRow, RadiusCertificate, numerical_radius, \
    operator_norm, radius_profile
from .polytope import (FacetFunctional, Incidence, Polytope, ValidationReport,
                       facet_enumeration, gauge, incidence, validate)
from .scalars import (Context, DEFAULT_EPS, EXACT, Scalar, float_context, format_rational,
                      parse_rational)

__all__ = [
    "ComputationError", "Context", "DEFAULT_EPS", "EXACT",
    "FacetFunctional", "Incidence", "IndexBracket", "InputError", "LPSolution",
    "LinearProgram", "LowerBoundCertificate", "Operator", "PolyindexError", "Polytope",
    "ProfileRow", "RadiusCertificate", "Scalar", "SearchConfig", "ValidationError",
    "ValidationReport", "VertexBound", "bipyramid_square_prism",
    "dual_norm", "facet_enumeration", "float_context", "format_rational", "gauge",
    "incidence", "index_bracket", "irregular_hexagon", "linf_sum", "lower_bound",
    "numerical_radius", "oblique_prism", "operator_norm", "parse_rational", "polar",
    "polygon_witness_operator", "prism_with_pyramids", "prism_with_pyramids_witness",
    "prism_witness_operator", "pyramid_witness_operator", "radius_profile",
    "regular_2n_gon", "regular_index", "scale_coordinate", "scale_witness", "segment",
    "solve_lp", "upper_bound", "validate", "vertex_minimax",
]


def __getattr__(name):
    if name not in ("LinearProgram", "LPSolution", "solve_lp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import linprog
    return getattr(linprog, name)
