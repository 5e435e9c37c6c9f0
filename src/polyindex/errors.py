"""Exception hierarchy.

Split between user-input problems (bad documents, malformed polytopes,
dimension mismatches) and computational failures, so the CLI can map them
to distinct exit codes.
"""


class PolyindexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PolyindexError):
    """Invalid user input: malformed data, bad parameters, dimension mismatch."""


class ValidationError(InputError):
    """A polytope violates one of its structural invariants.

    Carries the full list of violations in ``violations``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class ComputationError(PolyindexError):
    """An internal computation failed (should not happen on valid input)."""
