"""Exception hierarchy shared across the package.

Every error raised by library code derives from SilmarilsError so callers
(and the CLI exit-code mapping) can distinguish library failures from bugs.
"""


class SilmarilsError(Exception):
    """Base class for all library errors."""


class ModulusMismatch(SilmarilsError):
    """Field elements from different moduli were mixed in one operation."""


class ZeroInverse(SilmarilsError):
    """Multiplicative inverse of zero requested."""


class LengthMismatch(SilmarilsError):
    """Byte input has the wrong length for the requested decoding."""


class DegenerateWeights(SilmarilsError):
    """Interpolation weights are equal or zero; reconstruction undefined."""


class MalformedSignature(SilmarilsError):
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
