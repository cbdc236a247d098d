"""The two-party scheme: keygen, sign, verify, and the three demonstrations
that motivate it (designated-verifier simulation, hidden-parameter extraction,
and deterministic forgery against a weakened public-receipt verifier).

A signature is five field elements:

    sigma1 = b * (K' - r)
    sigma2 = d / b
    sigma3 = K1' * d
    sigma4 = d * eps^-1 * eps1
    sigma5 = d * (K0' - r * eps^-1 * eps0)

where (K0', K1') share the per-message key K' with slope a_K, (eps0, eps1)
share eps = alpha * beta with slope a_eps, and r = H(M, n) is the receipt
derived from the pair key.  The verifier recombines

    V0 = sigma1*sigma2 - sigma5
    V1 = sigma1*sigma2 - sigma3 + r*sigma4

and accepts iff sigma4 != 0 and the share reconstruction of (V0, V1) is zero.
An honest tape gives (V0, V1) = (d*C*w0, d*C*w1) for C = -a_K + r*a_eps/eps,
which reconstructs to f(0) = 0; a signer unlucky enough to draw sigma4 = 0
(probability 1/p) is rejected, and signing does not resample.  Two kernels
on ints mod p, each counting its muls in one bump, hold the arithmetic: the
sigmas (_equations) and the check (_accepts); stats builds no Signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ._record import frozen_record
from .errors import DegenerateExtraction, MalformedInput, MalformedSignature, ModulusMismatch
from .errors import ProtocolMisuse, WrongType, require_bytes, require_int
from .field import FieldElement, counting
from .field._pure import _element
from .hashing import (
    DOMAIN_RECEIPT,
    PairKey,
    derive_message_key,
    derive_receipt,
    hash_to_field,
)
from .sss import Weights

HINT_KINDS = ("d", "s", "a")


@dataclass(frozen=True)
class Params:
    """Public context: the field and the per-key-pair interpolation weights."""

    prime: object
    weights: Weights

    @classmethod
    def generate(cls, prime, rng) -> "Params":
        return cls(prime, Weights.generate(prime, rng))


@dataclass(frozen=True)
class KeyMaterial:
    """Signer secrets plus the public weights.

    k_sig is shared with exactly one designated verifier; whoever holds it can
    verify and can simulate (see dv_forge), which is the point of the scheme.
    Signing keeps its last per-message key here, like PairKey's receipt memo:
    (a bytes copy of the message, K'), outside ==, hash and repr; sk_K fixes
    the prime, so the message alone keys it.
    """

    sk_K: object
    pk: Weights
    k_sig: PairKey
    _kprime_memo: tuple = field(default=None, init=False, compare=False, repr=False)


@frozen_record
class Signature:
    """The 5-tuple (sigma1..sigma5); wire format is the concatenation of the
    fixed-width big-endian elements."""

    s1: object
    s2: object
    s3: object
    s4: object
    s5: object

    def __iter__(self):
        return iter((self.s1, self.s2, self.s3, self.s4, self.s5))

    def encode(self) -> bytes:
        return (
            self.s1.to_bytes()
            + self.s2.to_bytes()
            + self.s3.to_bytes()
            + self.s4.to_bytes()
            + self.s5.to_bytes()
        )

    def hex(self) -> str:
        return self.encode().hex()

    @classmethod
    def decode(cls, prime, data: bytes) -> "Signature":
        require_bytes(data, "a signature encoding")
        width = prime.byte_length
        if len(data) != 5 * width:
            raise MalformedSignature(f"signature must be {5 * width} bytes, got {len(data)}")
        try:
            parts = [
                prime.from_bytes(data[i * width : (i + 1) * width]) for i in range(5)
            ]
        except MalformedInput as exc:
            raise MalformedSignature(str(exc)) from exc
        return cls(*parts)


@frozen_record
class SigningTape:
    """Every ephemeral the signer drew; kept only by tests and extraction
    oracles, never serialized."""

    alpha: object
    beta: object
    b: object
    d: object
    eps: object
    slope_eps: object
    Kprime: object
    slope_K: object
    n: object
    r: object


def keygen(params: Params, rng) -> KeyMaterial:
    """Long-term key K in F_p*, fresh pair key, weights from params."""
    sk_K = params.prime.sample_unit(rng)
    k_sig = PairKey.generate(rng)
    return KeyMaterial(sk_K=sk_K, pk=params.weights, k_sig=k_sig)


def _equations(weights: Weights, Kprime, r, rows, inverses) -> list:
    """The signature equations on residues: a (sigma1..sigma5) tuple per row
    of (b, d, eps, slope_eps, slope_K) residues, eps^-1 and b^-1 at
    inverses[2i] and [2i + 1].  The weights, K', r and K' - r are read once a
    batch, and the 12 muls of each signature are counted in one bump."""
    q = Kprime.prime.value
    w0, w1, k, rr = weights.w0.residue, weights.w1.residue, Kprime.residue, r.residue
    k_r = k - rr
    sigmas = []
    for i, (b, d, eps, slope_eps, slope_K) in enumerate(rows):
        eps_inv = inverses[2 * i]
        sigmas.append((
            b * k_r % q,
            d * inverses[2 * i + 1] % q,
            (k + slope_K * w1) * d % q,
            d * (eps_inv * (eps + slope_eps * w1) % q) % q,
            d * (k + slope_K * w0 - rr * (eps_inv * (eps + slope_eps * w0) % q)) % q,
        ))
    if counting.enabled:
        counting.bump_mul(12 * len(rows))
    return sigmas


def _signatures(prime, sigmas) -> list:
    """One Signature per (sigma1..sigma5) residue tuple of _equations."""
    return [Signature(*[_element(v, prime) for v in row]) for row in sigmas]


def _assemble(weights: Weights, Kprime, r, b, d, eps, slope_eps, slope_K):
    """One signature from its ephemerals; dv_forge's and stats' entry."""
    row = (b.residue, d.residue, eps.residue, slope_eps.residue, slope_K.residue)
    inverses = Kprime.prime._inv_residues((eps.residue, b.residue))
    return _signatures(Kprime.prime, _equations(weights, Kprime, r, (row,), inverses))[0]


_TAPE_UNITS = (True, True, True, True, False, False)  # alpha, beta, b, d are nonzero


def _sign_batch(keys: KeyMaterial, message: bytes, rng, count: int) -> tuple:
    """sign's, sign_many's and the session opener's step: (n, r, K', draws,
    _equations' tuples).  draws is count tapes (alpha, beta, b, d, slope_eps,
    slope_K) from one Prime._residues call, or one per stream when rng is a list
    of count streams; eps = alpha * beta is one counted mul a tape, and one
    pow inverts every (eps, b) (Prime._inv_residues).  n, r, K' derived once."""
    prime = keys.sk_K.prime
    if keys.pk.prime.value != prime.value:
        raise ModulusMismatch(f"key over {prime.value}, weights over {keys.pk.prime.value}")
    n, r = derive_receipt(keys.k_sig, message, prime)
    memo = keys._kprime_memo
    if memo is not None and memo[0] == message:
        Kprime = memo[1]
    else:
        Kprime = derive_message_key(keys.sk_K, message)
        object.__setattr__(keys, "_kprime_memo", (bytes(message), Kprime))
    q = prime.value
    if type(rng) is list:
        draws = [v for tape in rng for v in prime._residues(tape, _TAPE_UNITS)]
    else:
        draws = prime._residues(rng, _TAPE_UNITS * count)
    tapes = zip(*[iter(draws)] * 6)
    rows = [(b, d, alpha * beta % q, se, sk) for alpha, beta, b, d, se, sk in tapes]
    if counting.enabled:
        counting.bump_mul(count)
    inverses = prime._inv_residues([x for row in rows for x in (row[2], row[0])])
    return n, r, Kprime, draws, _equations(keys.pk, Kprime, r, rows, inverses)


def sign(keys: KeyMaterial, message: bytes, rng):
    """Sign a message; returns (Signature, SigningTape).

    sigma4 = 0 is a legal (rejected-by-verify) output; see sign_accepted for
    the retry wrapper.
    """
    n, r, Kprime, draws, sigmas = _sign_batch(keys, message, rng, 1)
    prime = Kprime.prime
    (sig,) = _signatures(prime, sigmas)
    eps = draws[0] * draws[1] % prime.value
    alpha, beta, b, d, slope_eps, slope_K, eps = [_element(v, prime) for v in (*draws, eps)]
    return sig, SigningTape(alpha, beta, b, d, eps, slope_eps, Kprime, slope_K, n, r)


def sign_many(keys: KeyMaterial, message: bytes, rng, count: int) -> list:
    """count signatures of one message: [Signature], exactly the signatures
    that count calls of sign on the same rng return, leaving rng where they
    do.  A count that is not an int, or is negative, raises before drawing.
    """
    require_int(count, "count")
    if count < 0:
        raise ProtocolMisuse(f"count must be at least 0, got {count}")
    return _signatures(keys.sk_K.prime, _sign_batch(keys, message, rng, count)[-1])


def sign_accepted(keys: KeyMaterial, message: bytes, rng, max_tries: int = 64):
    """Retry wrapper (off the default path): re-draws until sigma4 != 0."""
    require_int(max_tries, "max_tries")
    if max_tries < 1:
        raise ProtocolMisuse(f"max_tries must be at least 1, got {max_tries}")
    for _ in range(max_tries):
        sig, tape = sign(keys, message, rng)
        if sig.s4:
            return sig, tape
    raise RuntimeError(f"no accepting signature in {max_tries} tries")


def _accepts(weights: Weights, r, s1, s2, s3, s4, s5) -> bool:
    """The acceptance check on residues: sigma4 != 0, then the share
    reconstruction of (V0, V1) is zero, 4 counted muls."""
    if not s4:
        return False
    if counting.enabled:
        counting.bump_mul(4)
    m = s1 * s2
    v1 = m - s3 + r * s4
    return not (weights.lam0.residue * (m - s5) + weights.lam1.residue * v1) % weights.prime.value


def _core_verify(weights: Weights, r, sig: Signature) -> bool:
    """The acceptance check, after checking each part and r."""
    if type(sig) is not Signature:
        raise WrongType(f"expected a Signature, got {type(sig).__name__}")
    q = weights.prime.value
    s1, s2, s3, s4, s5 = sig.s1, sig.s2, sig.s3, sig.s4, sig.s5
    for x in (s1, s2, s3, s4, s5, r):
        if type(x) is not FieldElement:
            raise WrongType(f"signature parts and r must be elements, got {type(x).__name__}")
        if x.prime.value != q:
            raise ModulusMismatch(f"{q} vs {x.prime.value}")
    return _accepts(weights, r.residue, s1.residue, s2.residue, s3.residue, s4.residue, s5.residue)


def _as_signature(prime, sig: Union[Signature, bytes]) -> Signature:
    """A Signature unchanged; bytes decoded; anything else raises WrongType."""
    if type(sig) is Signature:
        return sig
    if isinstance(sig, (bytes, bytearray)):
        return Signature.decode(prime, bytes(sig))
    raise WrongType(f"expected a Signature, got {type(sig).__name__}")


def verify(pk: Weights, k_sig: PairKey, message: bytes, sig) -> bool:
    """Designated-verifier check: recomputes r from the pair key."""
    prime = pk.prime
    sig = _as_signature(prime, sig)
    return _core_verify(pk, derive_receipt(k_sig, message, prime)[1], sig)


def verify_with_receipt(pk: Weights, r, message: bytes, sig) -> bool:
    """Third-party check against a published receipt r."""
    return _core_verify(pk, r, _as_signature(pk.prime, sig))


def dv_forge(k_sig: PairKey, pk: Weights, message: bytes, rng) -> Signature:
    """Simulate a signature using only the pair key.

    Draws a uniform stand-in per-message key (the honest one is a PRF output
    the simulator cannot compute) plus fresh nuisance values, then solves the
    same equations; the result verifies whenever its sigma4 != 0.
    """
    prime = pk.prime
    _, r = derive_receipt(k_sig, message, prime)
    draws = prime._residues(rng, (False, False, False, True, True, True))
    Kprime_star, slope_K, slope_eps, d, eps, b = [_element(v, prime) for v in draws]
    return _assemble(pk, Kprime_star, r, b, d, eps, slope_eps, slope_K)


@dataclass(frozen=True)
class ExtractedParams:
    """One member of the extraction family: the signer ephemerals consistent
    with an observed signature at line parameter d."""

    d: object
    s: object
    a: object
    u0: object
    u1: object
    share0: object
    share1: object


class ExtractedFamily:
    """All signer parameters consistent with one observed signature.

    The observables pin (s, a, u0, u1) only up to the choice of d: for each
    nonzero d there is exactly one consistent tuple, computed by member().
    A hint (the true d, s, or a) selects the signer's actual tuple, available
    as .pinned.
    """

    __slots__ = ("ratio", "pinned", "_m", "_sig", "_r", "_weights")

    def __init__(self, ratio, pinned, m, sig, r, weights):
        self.ratio = ratio
        self.pinned = pinned
        self._m = m
        self._sig = sig
        self._r = r
        self._weights = weights

    def member(self, d) -> ExtractedParams:
        if not d:
            raise DegenerateExtraction("family parameter d must be nonzero")
        d_inv = d.inv()
        s = self._m * d_inv + self._r
        a = (self._sig.s3 * d_inv - s) / self._weights.w1
        u1 = self._sig.s4 * d_inv
        u0 = (a * self._weights.w0 + s - self._sig.s5 * d_inv) / self._r
        return ExtractedParams(
            d=d,
            s=s,
            a=a,
            u0=u0,
            u1=u1,
            share0=s + a * self._weights.w0,
            share1=s + a * self._weights.w1,
        )


def extract_params(
    k_sig: PairKey, message: bytes, sig: Signature, hint, pk: Weights
) -> ExtractedFamily:
    """Recover signer parameters from a signature, pinned by a hint.

    hint is a pair (kind, element) with kind in {"d", "s", "a"}: the signer's
    true line parameter, per-message key, or key slope.  The returned family
    also exposes every other consistent member via member(d).
    """
    if type(hint) is not tuple or len(hint) != 2 or type(hint[1]) is not FieldElement:
        raise WrongType(f"hint must be a (kind, FieldElement) pair, got {hint!r}")
    kind, value = hint
    if kind not in HINT_KINDS:
        raise MalformedInput(f"hint kind must be one of {HINT_KINDS}, got {kind!r}")
    prime = pk.prime
    if value.prime.value != prime.value:
        raise ModulusMismatch(f"hint over {value.prime.value}, key over {prime.value}")
    sig = _as_signature(prime, sig)
    _, r = derive_receipt(k_sig, message, prime)
    if not sig.s3:
        raise DegenerateExtraction("sigma3 = 0: ratio undefined")
    if not r:
        raise DegenerateExtraction("r = 0: u0 is unconstrained")
    m = sig.s1 * sig.s2
    ratio = m / sig.s3
    one = prime.one
    if ratio == one:
        raise DegenerateExtraction("R = 1: the ratio equation degenerates")

    if kind == "d":
        if not value:
            raise DegenerateExtraction("hint d must be nonzero")
        d = value
    elif kind == "a":
        # s(R-1) + a*w1*R + r = 0 solved for s, then d from sigma3 = d*(s + a*w1).
        s = -(value * pk.w1 * ratio + r) / (ratio - one)
        denom = s + value * pk.w1
        if not denom:
            raise DegenerateExtraction("hint a implies a zero share; d undefined")
        d = sig.s3 / denom
    else:
        # sigma1*sigma2 = d*(s - r): needs s != r, i.e. R != 0.
        if not ratio:
            raise DegenerateExtraction("R = 0: every member has s = r; hint s cannot pin d")
        if value == r:
            raise DegenerateExtraction("hint s equals r but R != 0: inconsistent hint")
        d = m / (value - r)

    family = ExtractedFamily(ratio, None, m, sig, r, pk)
    family.pinned = family.member(d)
    return family


def public_receipt(message: bytes, prime):
    """The weakened receipt r' = H(M) with no nonce: publicly computable."""
    require_bytes(message, "a message")
    payload = len(message).to_bytes(8, "big") + message
    return hash_to_field(prime, DOMAIN_RECEIPT, payload)


def verify_public_r(pk: Weights, message: bytes, sig) -> bool:
    """Deliberately weakened verifier that derives r from the message alone."""
    sig = _as_signature(pk.prime, sig)
    return _core_verify(pk, public_receipt(message, pk.prime), sig)


def public_r_forge(pk: Weights, message: bytes, rng) -> Signature:
    """Deterministic forgery against verify_public_r.

    With r' public, pick sigma1..sigma4 freely and solve the acceptance
    identity for sigma5: sigma5 = sigma1*sigma2 - (w0/w1) * V1.  The real
    verifier still rejects these (its r is hidden behind the nonce PRF).
    """
    prime = pk.prime
    r_pub = public_receipt(message, prime)
    s1, s2, s3, s4 = [_element(v, prime) for v in prime._residues(rng, (False,) * 4)]
    m = s1 * s2
    v1 = m - s3 + r_pub * s4
    s5 = m - (pk.w0 / pk.w1) * v1
    return Signature(s1, s2, s3, s4, s5)
