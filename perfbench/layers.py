"""The traced run and the per-layer metrics it yields.

The traced run re-runs a workload's reference chunks with the tracer
installed and ``count_field_ops`` open, so every count below is exact for
one seed.  Shares are self time over the traced wall time of those chunks;
the self shares of the traced layers add up to ``trace.accounted_share``
(the rest is the benchmark loop between harness calls).  Latencies are
traced durations, so they include the tracing cost of the spans nested in
them.  ``field.share`` instead prices the exact operation counts at unit
costs calibrated untraced, over the untraced time of the same trials.
The calibration, the untraced pass and the traced pass run back to back,
as the machine's speed drifts over seconds (see speed.py).
"""

from __future__ import annotations

import math
import statistics
import time

from silmarils.field import count_field_ops
from silmarils.rng import Rng

from tracer import LAYERS, Tracer

SHARE = "share"
PER_TRIAL = "1/trial"

PER_LAYER = (
    ("field.muls_per_trial", PER_TRIAL),
    ("field.invs_per_trial", PER_TRIAL),
    ("field.mul_ns", "ns"),
    ("field.inv_ns", "ns"),
    ("field.share", SHARE),
    ("rng.forks_per_trial", PER_TRIAL),
    ("rng.bytes_per_trial", "B/trial"),
    ("rng.self_share", SHARE),
    ("hashing.derivations_per_trial", PER_TRIAL),
    ("hashing.derive_receipt_p50_us", "us"),
    ("hashing.self_share", SHARE),
    ("sss.self_share", SHARE),
    ("two_party.sign_p50_us", "us"),
    ("two_party.sign_p99_us", "us"),
    ("two_party.verify_p50_us", "us"),
    ("two_party.verify_p99_us", "us"),
    ("two_party.self_share", SHARE),
    ("three_party.session_p50_us", "us"),
    ("three_party.session_p99_us", "us"),
    ("three_party.self_share", SHARE),
    ("three_party.arm_a", "count"),
    ("three_party.arm_b", "count"),
    ("three_party.arm_c", "count"),
    ("three_party.arm_d", "count"),
    ("net_sim.self_us_per_session", "us"),
    ("net_sim.self_share", SHARE),
    ("net_sim.deliveries_per_session", "1/session"),
    ("stats.self_share", SHARE),
    ("stats.row_s.correctness", "s"),
    ("stats.row_s.unforgeability", "s"),
    ("stats.row_s.unforgeability_exhaustive", "s"),
    ("stats.row_s.transferability", "s"),
    ("stats.row_s.transferability_exhaustive", "s"),
    ("stats.row_s.secrecy_tv", "s"),
    ("stats.row_s.core_forgery", "s"),
    ("stats.row_s.core_forgery_exhaustive", "s"),
    ("setup.import_s", "s"),
    ("setup.prime_s", "s"),
    ("setup.keygen_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.accounted_share", SHARE),
)

# Counts that must repeat exactly across traced runs at one seed.
EXACT = (
    "field.muls_per_trial",
    "field.invs_per_trial",
    "rng.forks_per_trial",
    "rng.bytes_per_trial",
    "hashing.derivations_per_trial",
    "three_party.arm_a",
    "three_party.arm_b",
    "three_party.arm_c",
    "three_party.arm_d",
    "net_sim.deliveries_per_session",
)

ROW_OF = {
    "estimate_correctness": "correctness",
    "estimate_unforgeability": "unforgeability",
    "exhaustive_unforgeability": "unforgeability_exhaustive",
    "estimate_transferability": "transferability",
    "exhaustive_transferability": "transferability_exhaustive",
    "estimate_secrecy_tv": "secrecy_tv",
    "estimate_core_forgery": "core_forgery",
    "exhaustive_core_forgery": "core_forgery_exhaustive",
}
# The four domain-separated derivations; derive_receipt is nonce + receipt.
DERIVATIONS = ("derive_nonce", "receipt_from_nonce", "derive_message_key", "authenticated_value")
DELIVERS = ("P1Signer.deliver", "P2Holder.deliver", "P3Verifier.deliver")
LATENCY_CALLS = ("derive_receipt", "sign", "verify", "run_signing_session")
CALIBRATION_PASSES = 9


def run_chunks(run_chunk, prime, n, seeds) -> tuple:
    """Run the chunks at ``seeds``: (rows per chunk, wall seconds)."""
    rows_per_chunk = []
    wall = 0.0
    for seed in seeds:
        t0 = time.perf_counter()
        rows_per_chunk.append(run_chunk(prime, n, seed))
        wall += time.perf_counter() - t0
    return rows_per_chunk, wall


def traced_run(run_chunk, prime, n, seeds) -> tuple:
    """Run the chunks at ``seeds`` traced: (tracer, op counter, rows per
    chunk, traced wall seconds)."""
    with count_field_ops() as ops, Tracer() as tracer:
        rows_per_chunk, wall = run_chunks(run_chunk, prime, n, seeds)
    return tracer, ops, rows_per_chunk, wall


def _pass_ns(items, op) -> float:
    t0 = time.perf_counter_ns()
    if op == "mul":
        for a, b in items:
            a * b
    elif op == "inv":
        for a, _ in items:
            a.inv()
    else:
        for a, b in items:
            pass
    return (time.perf_counter_ns() - t0) / len(items)


def calibrate_field(prime, seed: bytes) -> tuple:
    """(mul_ns, inv_ns) at this prime: the median time per operation over
    CALIBRATION_PASSES passes, less the same loop doing nothing."""
    reps = CALIBRATION_PASSES
    rng = Rng(seed)
    xs = [prime.sample_unit(rng) for _ in range(1000)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    # A 255-bit inversion costs ~10^5 ns; fewer of them keep this short.
    inv_pairs = pairs[:64] if prime.bit_length > 64 else pairs
    empty = statistics.median(_pass_ns(pairs, None) for _ in range(reps))
    mul = statistics.median(_pass_ns(pairs, "mul") for _ in range(reps))
    inv = statistics.median(_pass_ns(inv_pairs, "inv") for _ in range(reps))
    return mul - empty, inv - empty


def _pct_us(durations_ns, q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when the call never ran."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def per_layer_metrics(
    tracer: Tracer, ops, trials: int, traced_s: float, untraced_s: float,
    field_ns: tuple, setup: dict,
) -> dict:
    """Every PER_LAYER metric as {name: {"value", "unit"}}, from the traced
    and the untraced wall seconds of the same chunks; a layer the workload
    never calls reports 0."""
    spans = tracer.reduce(LATENCY_CALLS + tuple(ROW_OF))
    traced_ns = traced_s * 1e9
    sessions = spans.count["run_session"]
    share = {layer: spans.layer_self_ns(layer) / traced_ns for layer in LAYERS}
    mul_ns, inv_ns = field_ns
    rows = {row: [] for row in ROW_OF.values()}
    for call, row in ROW_OF.items():
        rows[row] += spans.durations_ns[call]
    durations = spans.durations_ns
    values = {
        "field.muls_per_trial": ops.muls / trials,
        "field.invs_per_trial": ops.invs / trials,
        "field.mul_ns": mul_ns,
        "field.inv_ns": inv_ns,
        "field.share": (ops.muls * mul_ns + ops.invs * inv_ns) / (untraced_s * 1e9),
        "rng.forks_per_trial": spans.count["Rng.fork"] / trials,
        "rng.bytes_per_trial": tracer.rng_bytes / trials,
        "rng.self_share": share["rng"],
        "hashing.derivations_per_trial": sum(spans.count[c] for c in DERIVATIONS) / trials,
        "hashing.derive_receipt_p50_us": _pct_us(durations["derive_receipt"], 0.5),
        "hashing.self_share": share["hashing"],
        "sss.self_share": share["sss"],
        "two_party.sign_p50_us": _pct_us(durations["sign"], 0.5),
        "two_party.sign_p99_us": _pct_us(durations["sign"], 0.99),
        "two_party.verify_p50_us": _pct_us(durations["verify"], 0.5),
        "two_party.verify_p99_us": _pct_us(durations["verify"], 0.99),
        "two_party.self_share": share["two_party"],
        "three_party.session_p50_us": _pct_us(durations["run_signing_session"], 0.5),
        "three_party.session_p99_us": _pct_us(durations["run_signing_session"], 0.99),
        "three_party.self_share": share["three_party"],
        "net_sim.self_us_per_session": spans.self_ns["run_session"] / sessions / 1e3
        if sessions else 0.0,
        "net_sim.self_share": share["net_sim"],
        "net_sim.deliveries_per_session": sum(spans.count[c] for c in DELIVERS) / sessions
        if sessions else 0.0,
        "stats.self_share": share["stats"],
        "trace.overhead": traced_s / untraced_s,
        "trace.accounted_share": sum(share.values()),
    }
    for arm in "abcd":
        values[f"three_party.arm_{arm}"] = tracer.arms[arm.upper()]
    for row, secs in rows.items():
        values[f"stats.row_s.{row}"] = statistics.median(secs) / 1e9 if secs else 0.0
    for part in ("import_s", "prime_s", "keygen_s"):
        values[f"setup.{part}"] = setup[part]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
