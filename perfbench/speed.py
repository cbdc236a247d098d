"""How fast the machine is running right now, from a fixed reference piece.

On a shared virtual machine the same pure-Python work runs up to ~40% slower
while a co-tenant loads the host, in episodes of a few ms to a few hundred
ms.  Such swings move a wall-clock rate far more than most code changes do.
So while a timed call runs, ``Sampler`` interrupts it every 10 ms (SIGALRM)
to time one reference piece of about half a millisecond.  The call's time is its wall time less the
pieces, scaled by how long the pieces took against their nominal time.  The
piece calls nothing from silmarils, so a change to the program moves the
scaled time exactly as much as it moves the wall-clock one.
"""

from __future__ import annotations

import hmac
import signal
import time

# Seconds one reference piece takes when it interrupts harness work on an
# unloaded 2-vCPU x86-64 VM under CPython 3.11 (slower than back to back, as
# the work it interrupts has evicted its data); scaled figures read as
# wall-clock figures on that machine.
REF_PIECE_S = 0.0005
SAMPLE_INTERVAL_S = 0.01
_KEY = bytes(range(32))
_P = 2**255 - 19


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def reference_piece() -> int:
    """Fixed work of the kinds the harness does: small-int arithmetic, dict
    and attribute access, small objects, HMAC-SHA-512, and one 255-bit
    modular exponentiation (without it, the piece over-reacts to load that
    the exponentiation-bound secure profile barely feels)."""
    acc = 0
    table = {}
    node = None
    for i in range(600):
        acc = (acc + i * 2654435761) % 1000003
        table[i & 63] = acc
        node = _Node(acc, node)
    digest = b""
    for i in range(15):
        digest = hmac.digest(_KEY, digest + i.to_bytes(8, "big"), "sha512")
    x = pow(acc + 2, _P - 2, _P)
    return acc ^ len(table) ^ node.value ^ x ^ digest[0]


class Sampler:
    """Times one reference piece every SAMPLE_INTERVAL_S of wall time while
    installed (main thread only; uses SIGALRM and ITIMER_REAL)."""

    def __init__(self):
        self.pieces: list = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_piece()
        self.pieces.append(time.perf_counter() - t0)

    def timed(self, fn, *args):
        """(fn(*args), seconds of fn net of the pieces, slowdown): slowdown
        is the mean piece time over REF_PIECE_S, 1.0 if no piece ran."""
        first = len(self.pieces)
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        pieces = self.pieces[first:]
        if not pieces:
            return result, wall, 1.0
        return result, wall - sum(pieces), sum(pieces) / len(pieces) / REF_PIECE_S
