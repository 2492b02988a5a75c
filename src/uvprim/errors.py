"""Shared exception types.

Everything is a ValueError subclass so callers who just want "bad input"
semantics can catch the base class.  The input errors, which refuse a
caller's q, element or divisor, are NotAPrimePowerError,
InvalidElementError and InvalidDivisorError; the CLI exits 2 on them.
"""


class NotAPrimePowerError(ValueError):
    """Raised when a field order is not of the form p**r with p prime, r >= 1."""


class InvalidElementError(ValueError):
    """Raised when an element that must be nonzero does not lie in [1, q)."""


class InvalidDivisorError(ValueError):
    """Raised when a freeness divisor e does not divide q - 1."""


class LogTableTooLargeError(ValueError):
    """Raised when a discrete-log table would exceed the configured size cap."""


class BoundNotApplicableError(ValueError):
    """Raised when a bound's hypotheses (on q, s, or delta) are not met."""
