"""Prime-field arithmetic with a runtime-selectable modulus.

One pure-Python implementation (_pure) provides the Prime/FieldElement
types for every modulus, from the toy primes to 2^255 - 19.  BACKEND names
it in run records.
"""

from ._pure import WIDE_BYTES, FieldElement, Prime
from .counting import OpCounter, count_field_ops
from .primality import is_prime

BACKEND = "pure"
SECURE_PRIME_VALUE = 2**255 - 19

__all__ = [
    "BACKEND",
    "FieldElement",
    "OpCounter",
    "Prime",
    "SECURE_PRIME_VALUE",
    "WIDE_BYTES",
    "count_field_ops",
    "is_prime",
]
