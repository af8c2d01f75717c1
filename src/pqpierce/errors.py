"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: input problems
(parse, arity, dimension) exit 2, violated premises exit 3, exceeded
work limits exit 4.  Any other exception is an internal fault
and exits 5.
"""


class PQPierceError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(PQPierceError):
    """Bodies of different ambient dimensions were mixed."""


class ArityError(PQPierceError):
    """Parameters violate an arity or range requirement (e.g. q > p > |F|)."""


class ParseError(PQPierceError):
    """A document or rational literal could not be parsed."""


class PremiseViolationError(PQPierceError):
    """A family-dependent precondition does not hold.

    ``witness`` carries the offending indices or subset when one exists.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(PQPierceError):
    """A work limit was exceeded before the answer was decided: an
    enumeration or search budget, or the bits of a power."""
