"""Hash-to-field and PRF-to-field derivations.

Four fixed domain tags separate the four derivations this package performs:

    SLM/v1/nonce    n  = PRF(k_sig, M)          per-message nonce
    SLM/v1/receipt  r  = H(M, n)                the receipt
    SLM/v1/msgkey   K' = PRF(K, M)              per-message key
    SLM/v1/icval    x  = H(M, sig)              three-party authenticated value

Every hash/HMAC input is framed as tag || 8-byte big-endian payload length ||
payload, so no two derivations can collide on input bytes, and multi-part
payloads are composed injectively before framing.  Outputs are SHA-512 (or
HMAC-SHA-512) digests reduced wide, making modular bias negligible for any
modulus up to 256 bits.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field

from .errors import LengthMismatch, WrongType, require_bytes
from .field import FieldElement
from .rng import Rng, sha512

DOMAIN_NONCE = b"SLM/v1/nonce"
DOMAIN_RECEIPT = b"SLM/v1/receipt"
DOMAIN_MSGKEY = b"SLM/v1/msgkey"
DOMAIN_ICVAL = b"SLM/v1/icval"

PAIR_KEY_BYTES = 32


def _frame(tag: bytes, payload: bytes) -> bytes:
    if type(tag) is not bytes:
        require_bytes(tag, "a domain tag")
    if type(payload) is not bytes:
        require_bytes(payload, "a hash payload")
    return tag + len(payload).to_bytes(8, "big") + payload


def hash_to_field(prime, tag: bytes, payload: bytes):
    """Unkeyed hash of the framed payload into F_p."""
    return prime.reduce_wide(sha512(_frame(tag, payload)).digest())


def prf_to_field(key: bytes, prime, tag: bytes, payload: bytes):
    """Keyed (HMAC) hash of the framed payload into F_p."""
    if type(key) is not bytes:
        require_bytes(key, "a PRF key")
    return prime.reduce_wide(hmac.digest(key, _frame(tag, payload), "sha512"))


@dataclass(frozen=True)
class PairKey:
    """The 32-byte signer/designated-verifier shared key k_sig.

    derive_receipt keeps its last result on the key: (the prime's value, a
    bytes copy of the message, (n, r)).  One entry per key object bounds the
    memory and drops the derived values with the key; it takes no part in ==,
    hash or repr.
    """

    data: bytes
    _receipt_memo: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        require_bytes(self.data, "a pair key")
        if len(self.data) != PAIR_KEY_BYTES:
            raise LengthMismatch(f"pair key must be {PAIR_KEY_BYTES} bytes")
        # A caller's bytearray could change under the receipt memo.
        object.__setattr__(self, "data", bytes(self.data))

    @classmethod
    def generate(cls, rng: Rng) -> "PairKey":
        return cls(rng.take(PAIR_KEY_BYTES))

    def hex(self) -> str:
        return self.data.hex()


def _message_and_element(message: bytes, element) -> bytes:
    # Injective pairing: length-prefixed message, then a fixed-width element.
    return len(message).to_bytes(8, "big") + message + element.to_bytes()


def derive_nonce(k_sig: PairKey, message: bytes, prime):
    return prf_to_field(k_sig.data, prime, DOMAIN_NONCE, message)


def receipt_from_nonce(message: bytes, nonce):
    """r = H(M, n); anyone holding the nonce can recompute the receipt."""
    if type(message) is not bytes:
        require_bytes(message, "a message")
    if type(nonce) is not FieldElement:
        raise WrongType(f"a nonce must be an element, got {type(nonce).__name__}")
    return hash_to_field(nonce.prime, DOMAIN_RECEIPT, _message_and_element(message, nonce))


def derive_receipt(k_sig: PairKey, message: bytes, prime):
    """Nonce and receipt for one message: n = PRF(k_sig, M), r = H(M, n).

    The key remembers its last (prime value, message) and result, so calling
    again with an equal prime and the same message derives nothing, and a hit
    compares ints and bytes.
    """
    memo = k_sig._receipt_memo
    if memo is not None and memo[0] == prime.value and memo[1] == message:
        return memo[2]
    require_bytes(message, "a message")
    nonce = derive_nonce(k_sig, message, prime)
    result = nonce, receipt_from_nonce(message, nonce)
    object.__setattr__(k_sig, "_receipt_memo", (prime.value, bytes(message), result))
    return result


def derive_message_key(long_term_key, message: bytes):
    """K' = PRF(K, M); the long-term field element keys the PRF via its encoding."""
    return prf_to_field(
        long_term_key.to_bytes(), long_term_key.prime, DOMAIN_MSGKEY, message
    )


def authenticated_value(message: bytes, sig_bytes: bytes, prime):
    """x = H(M, sig): the value the three-party layer authenticates."""
    if type(message) is not bytes or type(sig_bytes) is not bytes:
        require_bytes(message, "a message")
        require_bytes(sig_bytes, "signature bytes")
    payload = len(message).to_bytes(8, "big") + message + sig_bytes
    return hash_to_field(prime, DOMAIN_ICVAL, payload)
