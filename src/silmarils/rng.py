"""Deterministic randomness: an HMAC-SHA-512 counter stream with labeled forks.

One root seed drives an entire run.  Independent consumers (parties in a
protocol session, an adversary, per-trial experiments) get their own streams
via fork(), which derives a child key from the parent key and a label; a
fork never disturbs the parent's output position, so adding a consumer
cannot shift bytes seen by existing ones.

Block i of a stream is HMAC-SHA-512(key, i as 8 big-endian bytes) and a fork
is HMAC-SHA-512(key, "fork" || 8-byte label length || label), cut to 32
bytes.  The HMAC is computed as in RFC 2104: K0 is the key zero-padded to
SHA-512's 128-byte block (a longer key is hashed first), and

    HMAC(key, msg) = H((K0 ^ opad) || H((K0 ^ ipad) || msg)).

A stream hashes its two padded keys once, on first use, and keeps both
SHA-512 states; each block and fork then copies them instead of hashing the
pads again, which roughly halves the cost of an HMAC on these short messages.
The bytes are those of hmac.digest(key, msg, "sha512"), which the tests use
as the reference.
"""

from __future__ import annotations

import secrets
from hashlib import sha512

from .errors import ProtocolMisuse, require_bytes

SEED_BYTES = 32
_KEY_WIDTH = 128  # SHA-512 input block size: HMAC pads keys to it
# bytes.translate tables mapping each byte b to b ^ ipad and b ^ opad.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _frame(label: bytes) -> bytes:
    return len(label).to_bytes(8, "big") + label


def _keyed_states(key: bytes) -> tuple:
    """The SHA-512 states after absorbing K0 ^ ipad and K0 ^ opad."""
    if len(key) > _KEY_WIDTH:
        key = sha512(key).digest()
    key = key.ljust(_KEY_WIDTH, b"\x00")
    return sha512(key.translate(_IPAD)), sha512(key.translate(_OPAD))


class Rng:
    """Seeded byte stream; identical seeds yield identical byte sequences."""

    __slots__ = ("_key", "_counter", "_buf", "_pos", "_states")

    def __init__(self, seed: bytes):
        require_bytes(seed, "seed")
        self._key = bytes(seed)
        self._counter = 0
        self._buf = b""
        self._pos = 0
        self._states = None

    @classmethod
    def from_system(cls) -> "Rng":
        """Fresh unpredictable stream for non-reproducible use."""
        return cls(secrets.token_bytes(SEED_BYTES))

    @property
    def seed(self) -> bytes:
        return self._key

    def _hmac(self, msg: bytes) -> bytes:
        states = self._states
        if states is None:
            states = self._states = _keyed_states(self._key)
        inner = states[0].copy()
        inner.update(msg)
        outer = states[1].copy()
        outer.update(inner.digest())
        return outer.digest()

    def take(self, n: int) -> bytes:
        if n < 0:
            raise ProtocolMisuse("cannot take a negative number of bytes")
        pos = self._pos
        if pos + n <= len(self._buf):
            self._pos = pos + n
            return self._buf[pos : pos + n]
        out = bytearray()
        while n > 0:
            if self._pos == len(self._buf):
                self._buf = self._hmac(self._counter.to_bytes(8, "big"))
                self._counter += 1
                self._pos = 0
            chunk = self._buf[self._pos : self._pos + n]
            out += chunk
            self._pos += len(chunk)
            n -= len(chunk)
        return bytes(out)

    def copy(self) -> "Rng":
        """Twin at the same stream position: both yield the same bytes next,
        and advancing one leaves the other where it was.  The keyed states
        are shared; they are only ever copied, never updated."""
        return _stream(self._key, self._counter, self._buf, self._pos, self._states)

    def fork(self, label: bytes) -> "Rng":
        """Independent child stream; distinct labels give unrelated streams."""
        return _stream(self._hmac(b"fork" + _frame(label))[:SEED_BYTES])


def _stream(key: bytes, counter=0, buf=b"", pos=0, states=None) -> Rng:
    # The key is already bytes, so __init__'s check is skipped.
    rng = object.__new__(Rng)
    rng._key, rng._counter, rng._buf, rng._pos, rng._states = key, counter, buf, pos, states
    return rng
