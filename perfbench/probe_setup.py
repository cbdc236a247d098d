"""Time one cold set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/probe_setup.py SRC_DIR P SEED_HEX

Set-up is what a harness run pays before its first trial: importing the
harness (``silmarils.stats``, which loads the whole package), building
``Prime(p)`` (which runs the primality test), and ``Params.generate`` plus
``keygen``.  The import can only be cold in a new process, hence a script.

The interpreter lands on whichever CPU is free, and on a shared virtual
machine one CPU can run 50% slower than the other for seconds at a time.  So
the script also times a reference piece before and after the set-up, on the
same CPU, and scales the set-up times by the piece's median time against
its nominal time.  The piece and this script import nothing before the timed
import that the package itself would import.
"""

import sys
import time

# Median seconds of one _piece() on an unloaded 2-vCPU x86-64 VM under
# CPython 3.11; scaled times read as wall-clock times on that machine.
PIECE_S = 0.0005
PIECES = 10


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def _piece() -> int:
    acc = 0
    table = {}
    node = None
    for i in range(600):
        acc = (acc + i * 2654435761) % 1000003
        table[i & 63] = acc
        node = _Node(acc, node)
    return pow(acc + 2, 2**255 - 21, 2**255 - 19) ^ len(table) ^ node.value


def _piece_times() -> list:
    times = []
    for _ in range(PIECES):
        t0 = time.perf_counter()
        _piece()
        times.append(time.perf_counter() - t0)
    return times


def main() -> None:
    src, p, seed_hex = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    before = _piece_times()
    t0 = time.perf_counter()
    import silmarils.stats  # noqa: F401

    t1 = time.perf_counter()
    from silmarils.field import Prime
    from silmarils.rng import Rng
    from silmarils.two_party import Params, keygen

    prime = Prime(p)
    t2 = time.perf_counter()
    root = Rng(bytes.fromhex(seed_hex))
    keygen(Params.generate(prime, root.fork(b"params")), root.fork(b"keys"))
    t3 = time.perf_counter()
    pieces = sorted(before + _piece_times())
    slowdown = (pieces[PIECES - 1] + pieces[PIECES]) / 2 / PIECE_S

    import json

    print(json.dumps({
        "import_s": (t1 - t0) / slowdown,
        "prime_s": (t2 - t1) / slowdown,
        "keygen_s": (t3 - t2) / slowdown,
        "slowdown": slowdown,
    }))


if __name__ == "__main__":
    main()
