"""Field operation counter: opt-in instrumentation for cost claims.

Disabled by default; when no counter is active the per-operation cost is a
single global flag check.  Counters nest: an operation counts toward the
innermost open counter only.  Code that computes on residues counts its own
muls: two_party's sign and verify in bulk, bump_mul(n) once a call, and
three_party's line kernel one per a*x + b.

An inversion is counted as one inversion event, whatever its modular-inverse
computation does internally: the cost claims being checked count inversions
as units.  A batch (Prime._inv_residues) is one inversion event per residue;
the residue products that share its one modular inverse are not muls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

enabled = 0  # number of open counters
_stack: list = []


@dataclass
class OpCounter:
    muls: int = 0
    invs: int = 0


@contextmanager
def count_field_ops():
    """Context manager yielding an OpCounter for the operations inside it."""
    global enabled
    counter = OpCounter()
    _stack.append(counter)
    enabled += 1
    try:
        yield counter
    finally:
        enabled -= 1
        _stack.pop()


def bump_mul(n: int = 1) -> None:
    _stack[-1].muls += n


def bump_inv(n: int = 1) -> None:
    _stack[-1].invs += n
