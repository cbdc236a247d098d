"""Exception hierarchy shared across the package.

Every error that input or a caller can reach in library code is a
SilmarilsError; cli.EXIT_CODES maps each to an exit code.  MalformedInput
(so LengthMismatch, DegenerateWeights, MalformedSignature) and ProtocolMisuse
are also ValueErrors, and WrongType a TypeError, as their sites raised before.
No input reaches the RuntimeErrors of sign_accepted running out of tries and
of stats' two message searches, so they stay outside the hierarchy.
"""


class SilmarilsError(Exception):
    """Base class for all library errors."""


class MalformedInput(SilmarilsError, ValueError):
    """Input from outside the program (bytes, modulus, key, hint) is malformed."""


class ProtocolMisuse(SilmarilsError, ValueError):
    """A call no outside input reaches got arguments or state it cannot take."""


class WrongType(ProtocolMisuse, TypeError):
    """A ProtocolMisuse by an argument of the wrong type."""


def require_bytes(value, what: str) -> None:
    """Raise WrongType unless value is bytes or a bytearray."""
    if not isinstance(value, (bytes, bytearray)):
        raise WrongType(f"{what} must be bytes, got {type(value).__name__}")


class ModulusMismatch(SilmarilsError):
    """Field elements from different moduli were mixed in one operation."""


class ZeroInverse(SilmarilsError):
    """Multiplicative inverse of zero requested."""


class LengthMismatch(MalformedInput):
    """Byte input has the wrong length for the requested decoding."""


class DegenerateWeights(MalformedInput):
    """Interpolation weights are equal or zero; reconstruction undefined."""


class MalformedSignature(MalformedInput):
    """Signature bytes have the wrong length or a non-canonical element."""


class DegenerateExtraction(SilmarilsError):
    """Extraction precondition violated (sigma3 = 0, r = 0, or ratio edge case)."""


class ScheduleViolation(SilmarilsError):
    """A party emitted envelopes in a round it does not own."""


class UnknownStrategy(SilmarilsError):
    """Adversary strategy name not registered."""


class RoleMismatch(SilmarilsError):
    """Strategy corrupts a different role than the experiment requires."""


class PrimeTooLarge(SilmarilsError):
    """Exhaustive enumeration requested above the tractable threshold."""


class EmptyExperiment(SilmarilsError):
    """An estimate over zero trials is undefined."""
