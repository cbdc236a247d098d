"""2-out-of-2 Shamir sharing over F_p with fixed public interpolation weights.

A secret s is shared as the pair (f(w0), f(w1)), f(x) = s + a*x, at the two
public weights; reconstruction interpolates f(0).  Signing computes on
residues and calls neither: they are the reference its tests check it against.
"""

from __future__ import annotations

from .errors import DegenerateWeights, ModulusMismatch, WrongType, require_bytes
from .field import FieldElement


class Weights:
    """The two public interpolation points, fixed per key pair.

    Reconstruction coefficients lam0 = -w1/(w0-w1) and lam1 = w0/(w0-w1) are
    cached at construction so reconstruct costs two field multiplications.
    prime is w0's Prime, stored in a slot at construction: sign and verify
    read it on every call, and a slot read is cheaper than a property.
    """

    __slots__ = ("w0", "w1", "lam0", "lam1", "prime")

    def __init__(self, w0, w1):
        for w in (w0, w1):
            if type(w) is not FieldElement:
                raise WrongType(f"weights must be field elements, got {type(w).__name__}")
        if w0.prime.value != w1.prime.value:
            raise ModulusMismatch(f"{w0.prime.value} vs {w1.prime.value}")
        if not w0 or not w1:
            raise DegenerateWeights("weights must be nonzero")
        if w0 == w1:
            raise DegenerateWeights("weights must be distinct")
        self.w0 = w0
        self.w1 = w1
        self.prime = w0.prime
        span_inv = (w0 - w1).inv()
        self.lam0 = -w1 * span_inv
        self.lam1 = w0 * span_inv

    @classmethod
    def generate(cls, prime, rng) -> "Weights":
        """Sample distinct nonzero weights."""
        w0 = prime.sample_unit(rng)
        while True:
            w1 = prime.sample_unit(rng)
            if w1 != w0:
                return cls(w0, w1)

    def to_bytes(self) -> bytes:
        return self.w0.to_bytes() + self.w1.to_bytes()

    @classmethod
    def from_bytes(cls, prime, data: bytes) -> "Weights":
        require_bytes(data, "a weights encoding")
        width = prime.byte_length
        if len(data) != 2 * width:
            raise DegenerateWeights(f"weights encoding must be {2 * width} bytes")
        return cls(prime.from_bytes(data[:width]), prime.from_bytes(data[width:]))

    def __eq__(self, other):
        if not isinstance(other, Weights):
            return NotImplemented
        return self.w0 == other.w0 and self.w1 == other.w1

    def __repr__(self):
        return f"Weights(w0={int(self.w0)}, w1={int(self.w1)}, p={self.prime.value})"


def share_with_slope(secret, slope, weights: Weights) -> tuple:
    """The shares (f(w0), f(w1)) of f(x) = secret + slope*x."""
    return secret + slope * weights.w0, secret + slope * weights.w1


def reconstruct(pair, weights: Weights):
    """Interpolate f(0) from any pair of shares (f(w0), f(w1))."""
    s0, s1 = pair
    return weights.lam0 * s0 + weights.lam1 * s1
