"""Deterministic randomness: an HMAC-SHA-512 counter stream with labeled forks.

One root seed drives an entire run.  Independent consumers (parties in a
protocol session, an adversary, per-trial experiments) get their own streams
via fork(), which derives a child key from the parent key and a label; a
fork never disturbs the parent's output position, so adding a consumer
cannot shift bytes seen by existing ones.
"""

from __future__ import annotations

import hmac
import secrets

SEED_BYTES = 32
_BLOCK = 64  # SHA-512 output size


def _frame(label: bytes) -> bytes:
    return len(label).to_bytes(8, "big") + label


class Rng:
    """Seeded byte stream; identical seeds yield identical byte sequences."""

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._key = bytes(seed)
        self._counter = 0
        self._buf = b""
        self._pos = 0

    @classmethod
    def from_system(cls) -> "Rng":
        """Fresh unpredictable stream for non-reproducible use."""
        return cls(secrets.token_bytes(SEED_BYTES))

    @property
    def seed(self) -> bytes:
        return self._key

    def take(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot take a negative number of bytes")
        pos = self._pos
        if pos + n <= len(self._buf):
            self._pos = pos + n
            return self._buf[pos : pos + n]
        out = bytearray()
        while n > 0:
            if self._pos == len(self._buf):
                self._buf = hmac.digest(
                    self._key, self._counter.to_bytes(8, "big"), "sha512"
                )
                self._counter += 1
                self._pos = 0
            chunk = self._buf[self._pos : self._pos + n]
            out += chunk
            self._pos += len(chunk)
            n -= len(chunk)
        return bytes(out)

    def fork(self, label: bytes) -> "Rng":
        """Independent child stream; distinct labels give unrelated streams."""
        child = hmac.digest(self._key, b"fork" + _frame(label), "sha512")
        return Rng(child[:SEED_BYTES])
