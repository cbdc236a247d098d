"""The benchmark's four workloads, their output checks, and the replay.

A workload runs in chunks: one chunk is one round of calls into the public
harness API (``silmarils.stats``) at a fixed trial count, seeded from the
benchmark seed and the chunk index.  Every chunk returns Estimate /
ExactResult rows, which ``check_rows`` compares against the rows the
workload must return.  The first ``ref_chunks`` chunks are the reference
sample: their ``result_json_line`` output is digested, they are replayed
trial by trial through the per-trial public calls, and a traced run re-runs
exactly them.

The harness functions are looked up on the ``stats`` module at call time,
so the tracer's wrappers take effect without this module knowing of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from silmarils import stats
from silmarils.rng import Rng
from silmarils.three_party import run_signing_session
from silmarils.two_party import Params, keygen, sign, verify

SECURE_P = 2**255 - 19
UNFORGE = "substitute-guess-k1"
TRANSFER = "inconsistent-line"


@dataclass(frozen=True)
class RowSpec:
    """One row a chunk must return: its name, its trial count, and for an
    exhaustive row the exact target it must equal."""

    name: str
    trials: int
    exact: Optional[Callable] = None


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    p: int
    chunk_trials: int  # n handed to each estimator call in a chunk
    ref_chunks: int  # chunks digested, replayed and traced
    run_chunk: Callable  # (prime, n, seed) -> rows
    rows: Callable  # (p, n) -> [RowSpec]
    replay: Callable  # (prime, n, seed, rows) -> [problem]

    def sized(self, tiny: bool) -> "Workload":
        """The same workload at self-check size (see TINY)."""
        if not tiny:
            return self
        p, n = TINY[self.name]
        return replace(self, p=p, chunk_trials=n, ref_chunks=1)


def chunk_seed(workload: str, seed: int, index: int) -> bytes:
    """The 32 seed bytes of one chunk; the program receives nothing else."""
    text = f"perfbench/{workload}/{seed}/{index}".encode()
    return hashlib.sha256(text).digest()


def _sub_seed(seed: bytes, label: bytes) -> bytes:
    return hashlib.sha256(seed + b"/" + label).digest()


def check_rows(rows, specs) -> list:
    """Problems with one chunk's rows; empty when every row is as required."""
    if rows is None:
        return ["chunk raised"]
    names = [row.name for row in rows]
    if names != [spec.name for spec in specs]:
        return [f"rows {names} != {[spec.name for spec in specs]}"]
    problems = []
    for row, spec in zip(rows, specs):
        if row.verdict != "pass":
            problems.append(f"{row.name}: verdict {row.verdict}")
        if isinstance(row, stats.Estimate) and row.trials != spec.trials:
            problems.append(f"{row.name}: {row.trials} trials, expected {spec.trials}")
        if spec.exact is not None and not spec.exact(row):
            problems.append(f"{row.name}: misses its exact target")
    return problems


def failed_trials(rows, specs) -> int:
    """Trials of the rows that raised or failed a check."""
    if rows is None or [row.name for row in rows] != [s.name for s in specs]:
        return sum(spec.trials for spec in specs)
    return sum(
        spec.trials for row, spec in zip(rows, specs) if check_rows([row], [spec])
    )


def output_digest(rows_per_chunk) -> str:
    """SHA-256 over the result_json_line output of the given chunks."""
    h = hashlib.sha256()
    for rows in rows_per_chunk:
        for row in rows or ():
            h.update(stats.result_json_line(row).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Chunks


def _correctness_chunk(prime, n, seed):
    return [stats.estimate_correctness(prime, n, seed=seed)]


def _sessions_chunk(prime, n, seed):
    return [
        stats.estimate_unforgeability(prime, UNFORGE, n, seed=_sub_seed(seed, b"uf")),
        stats.estimate_transferability(prime, TRANSFER, n, seed=_sub_seed(seed, b"tr")),
        stats.estimate_correctness(
            prime, n, seed=_sub_seed(seed, b"honest"), sessions=True
        ),
    ]


def _suite_chunk(prime, n, seed):
    return stats.run_suite(prime, "all", n, seed=seed)


def _correctness_rows(p, n):
    return [RowSpec("correctness", n)]


def _sessions_rows(p, n):
    return [
        RowSpec(f"unforgeability/{UNFORGE}", n),
        RowSpec(f"transferability/{TRANSFER}", n),
        RowSpec("correctness-sessions", n),
    ]


def _suite_rows(p, n):
    one_in_p = Fraction(1, p)
    return [
        RowSpec("correctness", n),
        RowSpec(f"unforgeability/{UNFORGE}", n),
        RowSpec("unforgeability-exhaustive", p**6, lambda r: r.point == one_in_p),
        RowSpec(f"transferability/{TRANSFER}", n),
        RowSpec(
            "transferability-exhaustive", p * p * (p - 1), lambda r: r.point == one_in_p
        ),
        # Two p^5 enumerations of sessions, one per compared value.
        RowSpec("secrecy-tv", 2 * p**5, lambda r: r.value == 0),
        RowSpec("core-forgery", n),
        RowSpec(
            "core-forgery-exhaustive", p**5,
            lambda r: r.successes == (p - 1) * p**3,
        ),
    ]


# ---------------------------------------------------------------------------
# Replay: the estimators' trials again, one public call at a time.  The fork
# labels below are the harness's own derivation of keys and trial streams.


def _harness_keys(prime, root: Rng):
    params = Params.generate(prime, root.fork(b"params"))
    return keygen(params, root.fork(b"keys"))


def replay_correctness(prime, n, seed) -> tuple:
    """(failures, problems) for estimate_correctness's fast path."""
    root = Rng(seed)
    keys = _harness_keys(prime, root)
    rng = root.fork(b"sign")
    failures = 0
    problems = []
    for i in range(n):
        sig, _ = sign(keys, stats.DEFAULT_MESSAGE, rng)
        accepted = verify(keys.pk, keys.k_sig, stats.DEFAULT_MESSAGE, sig)
        if accepted != bool(sig.s4):
            problems.append(f"trial {i}: verify={accepted} with sigma4={int(sig.s4)}")
        failures += not accepted
    return failures, problems


def replay_sessions(prime, n, seed, strategy: Optional[str]) -> tuple:
    """(count, problems) for one session estimator: the attack's successes,
    or the honest failures when strategy is None."""
    root = Rng(seed)
    keys = _harness_keys(prime, root)
    count = 0
    problems = []
    for i in range(n):
        tri = root.fork(b"trial/" + i.to_bytes(8, "big"))
        hook = None
        if strategy is not None:
            hook = stats.STRATEGIES[strategy].hook(prime, tri.fork(b"adversary"))
        res = run_signing_session(
            keys, stats.DEFAULT_MESSAGE, tri.seed,
            adversary=hook, interpret=strategy is None,
        )
        z2, z3 = res.outcome.z2, res.outcome.z3
        if z2 is None:
            problems.append(f"trial {i}: z2 is bottom")
        if strategy is None:
            if not (z2 == res.x and z3 == res.x):
                problems.append(f"trial {i}: honest session ended off x")
            count += not (z2 == res.x and z3 == res.x and res.accepted)
        elif strategy == UNFORGE:
            count += z3 is not None and z3 != res.x
        else:
            count += z2 is not None and z2 != z3
    return count, problems


def _compare(row, replayed: tuple) -> list:
    count, problems = replayed
    if count != row.successes:
        problems = problems + [
            f"{row.name}: replay counted {count}, estimator {row.successes}"
        ]
    return problems


def _replay_correctness_chunk(prime, n, seed, rows):
    return _compare(rows[0], replay_correctness(prime, n, seed))


def _replay_sessions_chunk(prime, n, seed, rows):
    uf, tr, honest = rows
    return (
        _compare(uf, replay_sessions(prime, n, _sub_seed(seed, b"uf"), UNFORGE))
        + _compare(tr, replay_sessions(prime, n, _sub_seed(seed, b"tr"), TRANSFER))
        + _compare(honest, replay_sessions(prime, n, _sub_seed(seed, b"honest"), None))
    )


def _replay_suite_chunk(prime, n, seed, rows):
    # run_suite seeds each row from a labelled fork of its own seed.
    by_name = {row.name: row for row in rows}
    root = Rng(seed)
    return (
        _compare(
            by_name["correctness"],
            replay_correctness(prime, n, root.fork(b"correctness").seed),
        )
        + _compare(
            by_name[f"unforgeability/{UNFORGE}"],
            replay_sessions(prime, n, root.fork(b"unforgeability").seed, UNFORGE),
        )
        + _compare(
            by_name[f"transferability/{TRANSFER}"],
            replay_sessions(prime, n, root.fork(b"transferability").seed, TRANSFER),
        )
    )


# ---------------------------------------------------------------------------
# The four workloads: name, p, trials per estimator call, reference chunks.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "correctness-251", 251, 2000, 1,
            _correctness_chunk, _correctness_rows, _replay_correctness_chunk,
        ),
        Workload(
            "correctness-secure", SECURE_P, 400, 3,
            _correctness_chunk, _correctness_rows, _replay_correctness_chunk,
        ),
        Workload(
            "sessions-251", 251, 200, 2,
            _sessions_chunk, _sessions_rows, _replay_sessions_chunk,
        ),
        Workload(
            "suite-toy5", 5, 1000, 1,
            _suite_chunk, _suite_rows, _replay_suite_chunk,
        ),
    )
}

# Self-check sizes (p, trials per estimator call): the suite runs at p = 3,
# whose exhaustive sweeps are 3^6 sessions rather than 5^6.
TINY = {
    "correctness-251": (251, 50),
    "correctness-secure": (SECURE_P, 10),
    "sessions-251": (251, 10),
    "suite-toy5": (3, 20),
}
