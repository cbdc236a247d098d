"""Pure-Python field backend: canonical residues modulo a validated prime.

Elements are immutable, live in [0, p), and never mix across moduli.  The
modulus is chosen at runtime; tiny test primes and the 255-bit secure prime
share one code path on Python integers.
"""

from __future__ import annotations

from ..errors import LengthMismatch, MalformedInput, ModulusMismatch, WrongType, ZeroInverse
from ..errors import require_bytes
from . import counting
from .primality import is_prime

WIDE_BYTES = 64
_new = object.__new__  # an element without __init__'s reduction


class Prime:
    """A validated odd prime modulus; the element factory for its field."""

    __slots__ = ("value", "bit_length", "byte_length", "_accept_bound", "zero", "one")

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise WrongType("prime modulus must be an int")
        if value < 3 or value % 2 == 0:
            raise MalformedInput(f"modulus must be an odd prime >= 3, got {value}")
        if not is_prime(value):
            raise MalformedInput(f"modulus {value} is not prime")
        self.value = value
        self.bit_length = value.bit_length()
        self.byte_length = (self.bit_length + 7) // 8
        # Largest multiple of p representable in byte_length bytes; draws at or
        # above it are rejected so accepted draws are exactly uniform mod p.
        self._accept_bound = ((1 << (8 * self.byte_length)) // value) * value
        self.zero = _element(0, self)
        self.one = _element(1, self)

    def elt(self, value: int) -> "FieldElement":
        return _element(value % self.value, self)

    def sample(self, rng) -> "FieldElement":
        """Uniform element, by rejection sampling on fixed-width byte draws."""
        # Not a _residues wrapper: the one-draw loop is measurably cheaper per session.
        width = self.byte_length
        bound = self._accept_bound
        while True:
            draw = int.from_bytes(rng.take(width), "big")
            if draw < bound:
                elt = _new(FieldElement)
                elt.residue = draw % self.value
                elt.prime = self
                return elt

    def sample_unit(self, rng) -> "FieldElement":
        """Uniform nonzero element."""
        return _element(self._residues(rng, (True,))[0], self)

    def _residues(self, rng, units) -> list:
        """Uniform residues, one per flag, nonzero where the flag is True: the
        bytes and the stream position of the matching sample (False) and
        sample_unit (True) calls.  One rejection loop, reading one draw per
        missing residue at a time, so it never reads past their last draw."""
        width, bound, q = self.byte_length, self._accept_bound, self.value
        out = []
        while len(out) < len(units):
            data = rng.take(width * (len(units) - len(out)))
            if width > 1:
                cuts = range(0, len(data), width)
                data = [int.from_bytes(data[at : at + width], "big") for at in cuts]
            for draw in data:  # one-byte draws are the bytes themselves
                if draw < bound:
                    draw %= q
                    if draw or not units[len(out)]:
                        out.append(draw)
        return out

    def reduce_wide(self, data: bytes) -> "FieldElement":
        """Reduce a 64-byte big-endian integer; the hash-to-field back end."""
        if len(data) != WIDE_BYTES:
            raise LengthMismatch(f"reduce_wide needs {WIDE_BYTES} bytes, got {len(data)}")
        return _element(int.from_bytes(data, "big") % self.value, self)

    def from_bytes(self, data: bytes) -> "FieldElement":
        """Decode one fixed-width canonical element."""
        require_bytes(data, "an element encoding")
        if len(data) != self.byte_length:
            raise LengthMismatch(
                f"element of F_{self.value} is {self.byte_length} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        if value >= self.value:
            raise MalformedInput(f"non-canonical residue {value} for modulus {self.value}")
        return _element(value, self)

    def _inv_residues(self, xs) -> list:
        """Every inverse of a sequence of residues from one pow (Montgomery's
        trick): with t = (x_0*...*x_{n-1})^-1, walking back
        x_i^-1 = t*(x_0*...*x_{i-1}) and then t <- t*x_i.

        Counted as len(xs) inversions; the residue products that share the one
        modular inverse belong to the inversions and are not counted as field
        muls.  An empty input makes no pow, and a zero raises before it.
        """
        q = self.value
        out = []  # out[i] = x_0*...*x_{i-1} until the walk back sets x_i^-1
        acc = 1
        for x in xs:
            out.append(acc)
            acc = acc * x % q
        if not out:
            return out
        if not acc:  # p is prime, so the product is 0 iff a factor is
            raise ZeroInverse(f"0 has no inverse mod {q}")
        if counting.enabled:
            counting.bump_inv(len(out))
        t = pow(acc, -1, q)
        for i in range(len(out) - 1, -1, -1):
            out[i] = t * out[i] % q
            t = t * xs[i] % q
        return out

    def __eq__(self, other):
        if type(other) is not Prime:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Prime({self.value})"


class FieldElement:
    """An immutable residue in [0, p)."""

    __slots__ = ("residue", "prime")

    def __init__(self, residue: int, prime: Prime):
        self.residue = residue % prime.value
        self.prime = prime

    def __add__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        p = self.prime
        if p is not other.prime and p.value != other.prime.value:
            raise ModulusMismatch(f"{p.value} vs {other.prime.value}")
        elt = _new(FieldElement)
        elt.residue = (self.residue + other.residue) % p.value
        elt.prime = p
        return elt

    def __sub__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        p = self.prime
        if p is not other.prime and p.value != other.prime.value:
            raise ModulusMismatch(f"{p.value} vs {other.prime.value}")
        elt = _new(FieldElement)
        elt.residue = (self.residue - other.residue) % p.value
        elt.prime = p
        return elt

    def __mul__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        p = self.prime
        if p is not other.prime and p.value != other.prime.value:
            raise ModulusMismatch(f"{p.value} vs {other.prime.value}")
        if counting.enabled:
            counting.bump_mul()
        elt = _new(FieldElement)
        elt.residue = self.residue * other.residue % p.value
        elt.prime = p
        return elt

    def __truediv__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        return self * other.inv()

    def __neg__(self):
        p = self.prime
        return _element(-self.residue % p.value, p)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse, computed as pow(x, -1, p)."""
        p = self.prime
        if self.residue == 0:
            raise ZeroInverse(f"0 has no inverse mod {p.value}")
        if counting.enabled:
            counting.bump_inv()
        return _element(pow(self.residue, -1, p.value), p)

    def __eq__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        return self.residue == other.residue and self.prime.value == other.prime.value

    def __hash__(self):
        return hash((self.residue, self.prime.value))

    def __bool__(self):
        return self.residue != 0

    def __int__(self):
        return self.residue

    def to_bytes(self) -> bytes:
        return self.residue.to_bytes(self.prime.byte_length, "big")

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __repr__(self):
        return f"FieldElement({self.residue}, p={self.prime.value})"


def _element(residue: int, prime: Prime) -> FieldElement:
    # Internal fast path: residue already canonical.  The per-trial paths
    # (+, -, *, Prime.sample) inline these three lines to skip the call.
    elt = _new(FieldElement)
    elt.residue = residue
    elt.prime = prime
    return elt
