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
pads again, so an HMAC on these short messages costs two compressions, not
four.  The bytes are those of hmac.digest(key, msg, "sha512"), which the
tests use as the reference.

sha512 is CPython's built-in _sha512 where the interpreter has one (3.11 and
earlier) and hashlib's OpenSSL constructor otherwise; both give the same
bytes.  Each block copies two states, and through hashlib most of a block's
C time goes to those two OpenSSL EVP context copies: on CPython 3.11.7 with
OpenSSL 3.0.19 a block costs 0.94-1.02 us through _sha512 and 1.32-1.33 us
through hashlib.  CPython 3.12 replaced _sha512 with HACL*'s _sha2, at
1.83-1.91 us a block against hashlib's 1.30-1.32 us, so from 3.12 on
hashlib stays.  hashing.hash_to_field imports the same name, so this module
picks the one SHA-512 every session computes.

take(n) serves a request inside the current block with one slice.  A request
that runs past it is served in one pass: the rest of the block, every block
it needs, hashed from the two states loaded once, and one join (a batch of
64 signatures at the secure prime draws 12,288 bytes, 192 blocks).  A count
that is not an int, or a fork label that is not bytes, raises WrongType; the
check costs an int count or a bytes label one identity test.
"""

from __future__ import annotations

import secrets

try:
    from _sha512 import sha512
except ImportError:
    from hashlib import sha512

from .errors import ProtocolMisuse, require_bytes, require_int

SEED_BYTES = 32
_KEY_WIDTH = 128  # SHA-512 input block size: HMAC pads keys to it
_BLOCK = 64  # bytes of one stream block, a SHA-512 digest
# bytes.translate tables mapping each byte b to b ^ ipad and b ^ opad.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


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

    def take(self, n: int) -> bytes:
        if type(n) is not int:
            require_int(n, "a byte count")
        if n < 0:
            raise ProtocolMisuse("cannot take a negative number of bytes")
        pos, buf = self._pos, self._buf
        if pos + n <= len(buf):
            self._pos = pos + n
            return buf[pos : pos + n]
        # The rest of the buffer, then whole blocks, then the head of the last.
        states = self._states
        if states is None:
            states = self._states = _keyed_states(self._key)
        inner_key, outer_key = states
        counter = self._counter
        parts = [buf[pos:]]
        n -= len(buf) - pos
        while n > 0:
            inner = inner_key.copy()
            inner.update(counter.to_bytes(8, "big"))
            outer = outer_key.copy()
            outer.update(inner.digest())
            buf = outer.digest()
            counter += 1
            parts.append(buf[:n])
            n -= _BLOCK
        self._counter, self._buf, self._pos = counter, buf, _BLOCK + n
        return b"".join(parts)

    def copy(self) -> "Rng":
        """Twin at the same stream position: both yield the same bytes next,
        and advancing one leaves the other where it was.  The keyed states
        are shared; they are only ever copied, never updated."""
        return _stream(self._key, self._counter, self._buf, self._pos, self._states)

    def fork(self, label: bytes) -> "Rng":
        """Independent child stream; distinct labels give unrelated streams."""
        if type(label) is not bytes:
            require_bytes(label, "a fork label")
        states = self._states
        if states is None:
            states = self._states = _keyed_states(self._key)
        inner = states[0].copy()
        inner.update(b"fork" + len(label).to_bytes(8, "big") + label)
        outer = states[1].copy()
        outer.update(inner.digest())
        return _stream(outer.digest()[:SEED_BYTES])


def _stream(key: bytes, counter=0, buf=b"", pos=0, states=None) -> Rng:
    # The key is already bytes, so __init__'s check is skipped.
    rng = object.__new__(Rng)
    rng._key, rng._counter, rng._buf, rng._pos, rng._states = key, counter, buf, pos, states
    return rng
