"""Primality validation for the field modulus.

Small candidates (< 2^32) get exact trial division; larger ones get
Miller-Rabin with 40 bases derived deterministically from the candidate, so
construction is reproducible across runs.  Validated values are cached
process-wide: test suites construct the same presets thousands of times.
"""

from __future__ import annotations

import hashlib

MR_ROUNDS = 40
_TRIAL_DIVISION_LIMIT = 1 << 32
_validated: set[int] = set()


def _trial_division(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _mr_bases(n: int, count: int):
    """Deterministic pseudorandom bases in [2, n-2]."""
    seed = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for counter in range(count):
        block = hashlib.sha512(seed + counter.to_bytes(8, "big")).digest()
        yield 2 + int.from_bytes(block, "big") % (n - 3)


def _miller_rabin(n: int, rounds: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _mr_bases(n, rounds):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    if n in _validated:
        return True
    if n < 2:
        return False
    if n < _TRIAL_DIVISION_LIMIT:
        ok = _trial_division(n)
    else:
        ok = n % 2 == 1 and _miller_rabin(n, MR_ROUNDS)
    if ok:
        _validated.add(n)
    return ok
