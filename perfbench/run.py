"""silmarils benchmark: harness throughput on four workloads, plus a traced
per-layer run.

    python3 perfbench/run.py --workload correctness-251 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-check

One run is a closed loop in one process and one thread: it calls the public
harness API in ``silmarils.stats`` one chunk at a time and waits for each
call to return, for ``--seconds`` (always finishing the chunk in flight, and
never fewer than the workload's reference chunks).  The package is imported
from ``src/`` beside this directory; nothing is installed or built.

The last stdout line is the result: ``correct``, ``attempted`` and ``failed``
trials, and the metrics -- the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The line before it is the run record:
environment, load average, ``error_rate``, ``output_sha256`` and the
per-chunk figures behind the medians.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("correctness-251", "correctness-secure", "sessions-251", "suite-toy5")
# Cold set-ups timed per run, after one untimed set-up that fills __pycache__.
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 900


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probes(p: int, seed: int) -> list:
    """Time SETUP_PROBES cold set-ups, each in a fresh interpreter."""
    seed_hex = hashlib.sha256(f"perfbench/setup/{seed}".encode()).hexdigest()
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(p), seed_hex]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout))
    return samples[1:]


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest child, whichever is higher
    (children are the set-up probes, run one at a time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024  # ru_maxrss is in KiB on Linux


def timed_phase(workload, prime, seed: int, seconds: float) -> list:
    """Closed loop of chunks for ``seconds``, with the machine's speed
    sampled throughout: [(rows or None, net seconds, slowdown)]."""
    from workloads import chunk_seed

    def chunk(index: int):
        try:
            return workload.run_chunk(
                prime, workload.chunk_trials, chunk_seed(workload.name, seed, index)
            )
        except Exception:  # a failing chunk is counted, not fatal
            traceback.print_exc()
            return None

    chunks = []
    deadline = time.perf_counter() + seconds
    with Sampler() as sampler:
        while len(chunks) < workload.ref_chunks or time.perf_counter() < deadline:
            chunks.append(sampler.timed(chunk, len(chunks)))
    return chunks


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    import silmarils.field
    from workloads import WORKLOADS, check_rows, chunk_seed, failed_trials, output_digest

    load_before = os.getloadavg()[0]
    workload = WORKLOADS[name].sized(tiny)
    setup = setup_probes(workload.p, seed)
    setup_s = [s["import_s"] + s["prime_s"] + s["keygen_s"] for s in setup]

    prime = silmarils.field.Prime(workload.p)
    n = workload.chunk_trials
    specs = workload.rows(workload.p, n)
    per_chunk = sum(spec.trials for spec in specs)
    chunks = timed_phase(workload, prime, seed, seconds)

    problems = []
    for i, (rows, _, _) in enumerate(chunks):
        problems += [f"chunk {i}: {p}" for p in check_rows(rows, specs)]
    attempted = per_chunk * len(chunks)
    failed = sum(failed_trials(rows, specs) for rows, _, _ in chunks)
    unscaled_rates = [per_chunk / net for _, net, _ in chunks]
    rates = [per_chunk * slow / net for _, net, slow in chunks]
    trials_per_s = statistics.median(rates)

    ref_seeds = [chunk_seed(name, seed, i) for i in range(workload.ref_chunks)]
    ref_rows = [rows for rows, _, _ in chunks[: workload.ref_chunks]]
    digest = output_digest(ref_rows)
    for cs, rows in zip(ref_seeds, ref_rows):
        if rows is not None and not check_rows(rows, specs):
            try:
                problems += workload.replay(prime, n, cs, rows)
            except Exception as exc:
                problems.append(f"replay raised {exc!r}")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "python": platform.python_version(),
        "backend": silmarils.field.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "p": workload.p,
        "chunk_trials": per_chunk,
        "chunks": len(chunks),
        "trials_per_s_quartiles": _quartiles(rates),
        "unscaled_trials_per_s_quartiles": _quartiles(unscaled_rates),
        "slowdown_quartiles": _quartiles([slow for _, _, slow in chunks]),
        "setup_s_samples": setup_s,
        "output_sha256": digest,
        "error_rate": _metric(failed / attempted, "1"),
    }
    if trace:
        metrics, trace_record = traced_metrics(workload, prime, ref_seeds, setup)
        if trace_record["output_sha256"] != digest:
            problems.append("the traced run changed the output")
        record["traced"] = trace_record
    else:
        metrics = {
            "trials_per_s": _metric(trials_per_s, "1/s"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_rss_mib": _metric(peak_rss_mib(), "MiB"),
        }
    record["loadavg_1m_before"] = load_before
    record["loadavg_1m_after"] = os.getloadavg()[0]
    record["problems"] = problems[:20]
    correct = not problems
    print(json.dumps({"record": record}))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def traced_metrics(workload, prime, ref_seeds, setup) -> tuple:
    """Re-run the reference chunks untraced, then traced: (per-layer
    metrics, a record of the traced run with its output digest and span
    file)."""
    from layers import calibrate_field, per_layer_metrics, run_chunks, traced_run
    from workloads import output_digest

    n = workload.chunk_trials
    field_ns = calibrate_field(prime, ref_seeds[0])
    _, untraced_s = run_chunks(workload.run_chunk, prime, n, ref_seeds)
    tracer, ops, rows, traced_s = traced_run(workload.run_chunk, prime, n, ref_seeds)
    trials = len(ref_seeds) * sum(s.trials for s in workload.rows(workload.p, n))
    setup_median = {
        k: statistics.median(s[k] for s in setup) for k in ("import_s", "prime_s", "keygen_s")
    }
    metrics = per_layer_metrics(
        tracer, ops, trials, traced_s, untraced_s, field_ns, setup_median
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.bin"
    tracer.write(spans_path)
    return metrics, {
        "output_sha256": output_digest(rows),
        "wall_s": traced_s,
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# Several workloads, each in its own process


def run_child(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> tuple:
    """(record, result) of one workload run in a fresh process."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name}: no result (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn; prints a table of its metrics and error rate."""
    status = 0
    print(f"{'workload':<20} {'metric':<42} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        record, result = run_child(name, seed, seconds, trace, tiny=False)
        metrics = dict(result["metrics"], error_rate=record["error_rate"])
        for metric, m in metrics.items():
            print(f"{name:<20} {metric:<42} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<20} {'output_sha256':<42} {record['output_sha256']}")
        if not result["correct"]:
            status = 1
            print(f"{name}: INCORRECT {record['problems']}")
    return status


def self_check() -> int:
    """Run every workload at a tiny size, untraced once and traced twice at
    one seed; check every metric BENCHMARK.json names is printed with its
    unit, outputs are correct, and the exact counts repeat."""
    from layers import EXACT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in WORKLOAD_NAMES:
        errors = []
        exact = []
        for trace in (0, 1, 1):
            record, result = run_child(name, 1, 1, trace, tiny=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            got = result["metrics"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    errors.append(f"trace={trace}: {m['name']} [{m['unit']}] missing")
                elif not isinstance(got[m["name"]]["value"], (int, float)):
                    errors.append(f"trace={trace}: {m['name']} is not a number")
            if record["error_rate"] != _metric(0.0, "1") or not result["correct"]:
                errors.append(f"trace={trace}: {record['problems']}")
            if len(record["output_sha256"]) != 64:
                errors.append("no output digest")
            if trace:
                exact.append({k: got[k]["value"] for k in EXACT})
        if exact[0] != exact[1]:
            errors.append(f"exact counts differ across runs: {exact}")
        print(f"self-check {name}: {'FAILED' if errors else 'ok'}")
        for error in errors:
            print(f"  {error}")
        failures += bool(errors)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check size")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload or --self-check is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "silmarils" / "__init__.py").is_file():
        print(f"error: no silmarils package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import silmarils

    if Path(silmarils.__file__).resolve().parent != SRC / "silmarils":
        print(f"error: imported silmarils from {silmarils.__file__}", file=sys.stderr)
        return 2

    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
