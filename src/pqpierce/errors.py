"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: input problems
(parse, arity, dimension) exit 2, violated premises exit 3, exceeded
work limits exit 4.  Any other exception is an internal fault
and exits 5.

A message that repeats a rejected value keeps it short: :func:`_shown`
cuts a value to SHOWN characters, and :func:`_number` gives a number past
CPython's int-to-str limit by its bit lengths, since formatting it whole
would raise.
"""

from fractions import Fraction

#: the most characters of a rejected value, or of a message that repeats
#: it, that an error shows
SHOWN = 50


def _number(value) -> str:
    """An int or Fraction whole when it prints, and past the int-to-str
    limit by the bit lengths of its numerator and denominator."""
    try:
        return str(value)
    except ValueError:
        value = Fraction(value)
        num, den = value.numerator, value.denominator
        sign = "a negative" if num < 0 else "a"
        if den == 1:
            return f"{sign} number of {num.bit_length()} bits"
        return f"{sign} rational of {num.bit_length()} bits over {den.bit_length()} bits"


def _shown(value, show=repr) -> str:
    """A rejected value in a message: a list or an object by its type, a
    number past the int-to-str limit by its bits, anything else by
    ``show``, cut to SHOWN characters and "...", so that the message stays
    short."""
    if isinstance(value, (list, dict)):
        text = type(value).__name__
    else:
        try:
            text = show(value)
        except ValueError:
            text = _number(value)
    return text if len(text) <= SHOWN else text[:SHOWN] + "..."


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
