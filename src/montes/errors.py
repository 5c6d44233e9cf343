"""Error taxonomy for the whole package: one class per CLI exit code.

InputError (exit code 2) refuses what the caller handed in, where it
arrives: the CLI's arguments, a corpus family's parameters, and driver.py's
checks that f is monic, squarefree and of degree >= 1 and that p is prime.
InvariantViolation (exit code 3) means an identity the theory proves failed,
or an arithmetic routine was called outside its precondition: either way a
bug, and the result cannot be trusted.  The other classes are kept only
where some caller tells them apart.
"""


class MontesError(Exception):
    """Base class for all package errors."""


class InputError(MontesError):
    """Invalid input supplied by the caller."""


class ParseError(InputError):
    """Polynomial expression rejected; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


class ZeroAtTheta(InputError):
    """The polynomial handed to value_at_prime vanishes at the prime."""


class InvariantViolation(MontesError):
    """Internal invariant failed; the computation state is inconsistent."""


class UnliftableTarget(InvariantViolation):
    """A residual target with no lift; beta's uniformizer search retries."""
