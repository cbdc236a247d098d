"""Behaviour lock: harness rows and sim3p outputs must stay byte-identical.

The golden file pins outputs across versions of the code, where criterion 12
only checks that two runs of the same code agree.  It holds the
``result_json_line`` rows of ``run_suite(p, "all", n)`` at a fixed seed and
the SHA-256 of each ``sim3p --out`` transcript and of its stdout summary.

Regenerate only when an output is meant to change, and say why:

    PYTHONPATH=src python -m tests.test_golden > tests/golden.json
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from silmarils.cli import main
from silmarils.stats import result_json_line, run_suite

GOLDEN = Path(__file__).with_name("golden.json")
SUITE_SEED = b"g" * 32
SUITE_CASES = ((5, 300), (13, 300), (251, 2000))
SIM3P_SEED = "2a" * 32
SIM3P_ADVERSARIES = ("none", "substitute-guess-k1", "inconsistent-line")


def suite_lines(p: int, trials: int) -> list:
    return [result_json_line(row) for row in run_suite(p, "all", trials, seed=SUITE_SEED)]


def sim3p_digests(adversary: str, tmp_dir: Path, read_stdout) -> dict:
    out = tmp_dir / f"{adversary}.jsonl"
    argv = [
        "sim3p", "--profile", "toy-251", "--seed", SIM3P_SEED,
        "--trials", "50", "--adversary", adversary, "--out", str(out),
    ]
    assert main(argv) == 0
    summary = read_stdout()
    return {
        "transcript_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "summary_sha256": hashlib.sha256(summary.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("p,trials", SUITE_CASES)
def test_run_suite_rows_match_golden(golden, p, trials):
    assert suite_lines(p, trials) == golden["run_suite"][f"{p}/{trials}"]


@pytest.mark.parametrize("adversary", SIM3P_ADVERSARIES)
def test_sim3p_outputs_match_golden(golden, adversary, tmp_path, capsys):
    digests = sim3p_digests(adversary, tmp_path, lambda: capsys.readouterr().out)
    assert digests == golden["sim3p"][adversary]


def _generate() -> dict:
    sim3p = {}
    with tempfile.TemporaryDirectory() as tmp:
        for adversary in SIM3P_ADVERSARIES:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                sim3p[adversary] = sim3p_digests(adversary, Path(tmp), buffer.getvalue)
    return {
        "run_suite": {f"{p}/{n}": suite_lines(p, n) for p, n in SUITE_CASES},
        "sim3p": sim3p,
    }


if __name__ == "__main__":
    print(json.dumps(_generate(), indent=1, sort_keys=True))
