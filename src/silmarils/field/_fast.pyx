# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled field backend: same contract as _pure.

Moduli below 2^63 (every toy profile) take a machine-word path with 128-bit
intermediate products; larger moduli (the secure profile) fall back to Python
integer arithmetic inside compiled dispatch.  Byte-level behavior (sampling
draws, encodings, errors, operation counting) matches the pure backend
exactly, so the two are interchangeable under a fixed seed.
"""

from ..errors import LengthMismatch, ModulusMismatch, ZeroInverse
from . import counting as _counting
from .primality import is_prime

WIDE_BYTES = 64

cdef extern from *:
    ctypedef unsigned long long u128 "__uint128_t"

cdef class Prime
cdef class FieldElement


cdef class Prime:
    """A validated odd prime modulus; the element factory for its field."""

    cdef readonly object value
    cdef readonly int bit_length
    cdef readonly int byte_length
    cdef readonly object _accept_bound
    cdef readonly FieldElement zero
    cdef readonly FieldElement one
    cdef bint small
    cdef unsigned long long pv

    def __init__(self, value):
        if not isinstance(value, int):
            raise TypeError("prime modulus must be an int")
        if value < 3 or value % 2 == 0:
            raise ValueError(f"modulus must be an odd prime >= 3, got {value}")
        if not is_prime(value):
            raise ValueError(f"modulus {value} is not prime")
        self.value = value
        self.bit_length = value.bit_length()
        self.byte_length = (self.bit_length + 7) // 8
        # Largest multiple of p representable in byte_length bytes; draws at or
        # above it are rejected so accepted draws are exactly uniform mod p.
        # Python-object shift: the width exceeds C integer range.
        cdef object space = (<object> 1) << (8 * self.byte_length)
        self._accept_bound = (space // value) * value
        self.small = value < (1 << 63)
        self.pv = <unsigned long long> value if self.small else 0
        self.zero = _make(self, 0, 0)
        self.one = _make(self, 1, 1)

    def elt(self, value):
        cdef object r = value % self.value
        return _make(self, r, <unsigned long long> r if self.small else 0)

    def sample(self, rng):
        """Uniform element, by rejection sampling on fixed-width byte draws."""
        cdef int width = self.byte_length
        bound = self._accept_bound
        while True:
            draw = int.from_bytes(rng.take(width), "big")
            if draw < bound:
                return self.elt(draw)

    def sample_unit(self, rng):
        """Uniform nonzero element."""
        while True:
            x = self.sample(rng)
            if x:
                return x

    def reduce_wide(self, data):
        """Reduce a 64-byte big-endian integer; the hash-to-field back end."""
        if len(data) != WIDE_BYTES:
            raise LengthMismatch(f"reduce_wide needs {WIDE_BYTES} bytes, got {len(data)}")
        return self.elt(int.from_bytes(data, "big"))

    def from_bytes(self, data):
        """Decode one fixed-width canonical element."""
        if len(data) != self.byte_length:
            raise LengthMismatch(
                f"element of F_{self.value} is {self.byte_length} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        if value >= self.value:
            raise ValueError(f"non-canonical residue {value} for modulus {self.value}")
        return _make(self, value, <unsigned long long> value if self.small else 0)

    def __eq__(self, other):
        if type(other) is not Prime:
            return NotImplemented
        return self.value == (<Prime> other).value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Prime({self.value})"


cdef inline FieldElement _make(Prime p, object big, unsigned long long sv):
    cdef FieldElement e = FieldElement.__new__(FieldElement)
    e.prime = p
    e.sv = sv
    e.bv = big if not p.small else None
    return e

cdef inline FieldElement _make_small(Prime p, unsigned long long sv):
    cdef FieldElement e = FieldElement.__new__(FieldElement)
    e.prime = p
    e.sv = sv
    e.bv = None
    return e

cdef inline Prime _common_prime(FieldElement a, FieldElement b):
    cdef Prime p = a.prime
    if p is not b.prime and p.value != b.prime.value:
        raise ModulusMismatch(f"{p.value} vs {b.prime.value}")
    return p

cdef inline object _mul(FieldElement a, FieldElement b):
    cdef Prime p = _common_prime(a, b)
    if _counting.enabled:
        _counting.bump_mul()
    if p.small:
        return _make_small(p, <unsigned long long> ((<u128> a.sv * b.sv) % p.pv))
    return _make(p, a.bv * b.bv % p.value, 0)


cdef class FieldElement:
    """An immutable residue in [0, p)."""

    cdef readonly Prime prime
    cdef unsigned long long sv
    cdef object bv

    def __init__(self, residue, Prime prime):
        cdef object r = residue % prime.value
        self.prime = prime
        if prime.small:
            self.sv = <unsigned long long> r
            self.bv = None
        else:
            self.sv = 0
            self.bv = r

    @property
    def residue(self):
        if self.prime.small:
            return self.sv
        return self.bv

    def __add__(left, right):
        if type(left) is not FieldElement or type(right) is not FieldElement:
            return NotImplemented
        cdef FieldElement a = <FieldElement> left
        cdef FieldElement b = <FieldElement> right
        cdef Prime p = _common_prime(a, b)
        cdef unsigned long long s
        if p.small:
            s = a.sv + b.sv
            if s >= p.pv:
                s -= p.pv
            return _make_small(p, s)
        return _make(p, (a.bv + b.bv) % p.value, 0)

    def __sub__(left, right):
        if type(left) is not FieldElement or type(right) is not FieldElement:
            return NotImplemented
        cdef FieldElement a = <FieldElement> left
        cdef FieldElement b = <FieldElement> right
        cdef Prime p = _common_prime(a, b)
        cdef unsigned long long s
        if p.small:
            s = a.sv + p.pv - b.sv
            if s >= p.pv:
                s -= p.pv
            return _make_small(p, s)
        return _make(p, (a.bv - b.bv) % p.value, 0)

    def __mul__(left, right):
        if type(left) is not FieldElement or type(right) is not FieldElement:
            return NotImplemented
        return _mul(<FieldElement> left, <FieldElement> right)

    def __truediv__(left, right):
        if type(left) is not FieldElement or type(right) is not FieldElement:
            return NotImplemented
        return _mul(<FieldElement> left, (<FieldElement> right).inv())

    def __neg__(self):
        cdef Prime p = self.prime
        if p.small:
            return _make_small(p, p.pv - self.sv if self.sv else 0)
        return _make(p, -self.bv % p.value, 0)

    def inv(self):
        """Multiplicative inverse, computed as pow(x, -1, p)."""
        cdef Prime p = self.prime
        if not self:
            raise ZeroInverse(f"0 has no inverse mod {p.value}")
        if _counting.enabled:
            _counting.bump_inv()
        return p.elt(pow(self.residue, -1, p.value))

    def __eq__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        cdef FieldElement b = <FieldElement> other
        if self.prime.small and b.prime.small:
            return self.sv == b.sv and self.prime.pv == b.prime.pv
        return self.residue == b.residue and self.prime.value == b.prime.value

    def __hash__(self):
        return hash((self.residue, self.prime.value))

    def __bool__(self):
        if self.prime.small:
            return self.sv != 0
        return self.bv != 0

    def __int__(self):
        return self.residue

    def to_bytes(self):
        return self.residue.to_bytes(self.prime.byte_length, "big")

    def hex(self):
        return self.to_bytes().hex()

    def __repr__(self):
        return f"FieldElement({self.residue}, p={self.prime.value})"
