"""Field operation counter: opt-in instrumentation for cost claims.

Disabled by default; when no counter is active the per-operation cost is a
single global flag check.  Counters are per-thread (a counter opened in one
thread never sees another thread's operations); callers running trials across
threads open one counter per worker and sum the results.

An inversion is counted as one inversion event, whatever its modular-inverse
computation does internally: the cost claims being checked count inversions
as units.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

enabled = 0  # number of open counters across all threads
_local = threading.local()


@dataclass
class OpCounter:
    muls: int = 0
    invs: int = 0


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextmanager
def count_field_ops():
    """Context manager yielding an OpCounter for the current thread."""
    global enabled
    counter = OpCounter()
    stack = _stack()
    stack.append(counter)
    enabled += 1
    try:
        yield counter
    finally:
        enabled -= 1
        stack.pop()


def bump_mul() -> None:
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].muls += 1


def bump_inv() -> None:
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].invs += 1
