"""Error taxonomy for the whole package.

Every error raised on bad input derives from InputError (CLI exit code 2).
InvariantViolation means an internal consistency check failed and the result
cannot be trusted (CLI exit code 3).
"""


class MontesError(Exception):
    """Base class for all package errors."""


class InputError(MontesError):
    """Invalid input supplied by the caller."""


class ZeroPolynomial(InputError):
    pass


class NonMonic(InputError):
    pass


class NonMonicModulus(InputError):
    pass


class DegreeTooSmall(InputError):
    pass


class ForbiddenResidualY(InputError):
    pass


class DivisionByZero(InputError):
    pass


class NotInvertible(InputError):
    pass


class NoPoints(InputError):
    pass


class UnliftableTarget(InputError):
    pass


class NotSquarefree(InputError):
    pass


class NotPrime(InputError):
    pass


class ZeroAtTheta(InputError):
    pass


class ParseError(InputError):
    """Polynomial expression rejected; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class InvariantViolation(MontesError):
    """Internal invariant failed; the computation state is inconsistent."""
