"""Behaviour lock: harness rows and sim3p outputs must stay byte-identical.

The golden file pins outputs across versions of the code, where criterion 12
only checks that two runs of the same code agree.  It holds the
``result_json_line`` rows of ``run_suite(p, "all", n)`` at a fixed seed and
the SHA-256 of each ``sim3p --out`` transcript and of its stdout summary.
The signature and public_r_forge bytes at p = 251 and at the secure prime,
which no harness row reaches, are pinned inline below (``SIGNATURE_PINS``,
``PUBLIC_R_PINS``), and so are the SHA-256 of the session form of
``estimate_correctness``, which ``run_suite`` never runs
(``SESSION_CORRECTNESS_PINS``).

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
from silmarils.field import SECURE_PRIME_VALUE, Prime
from silmarils.rng import Rng
from silmarils.stats import _keys_for, estimate_correctness, result_json_line, run_suite
from silmarils.two_party import Params, dv_forge, keygen, public_r_forge, sign, verify_public_r

GOLDEN = Path(__file__).with_name("golden.json")
SUITE_SEED = b"g" * 32
SUITE_CASES = ((5, 300), (13, 300), (251, 2000))
SIM3P_SEED = "2a" * 32
SIM3P_ADVERSARIES = ("none", "substitute-guess-k1", "inconsistent-line")
PIN_SEED = b"pin" * 10 + b"!!"
PIN_MESSAGES = (b"first", b"second")
# Per prime: sign(...)[0].hex() for each of PIN_MESSAGES in turn from the
# b"sign" fork, then dv_forge(...) of the first message from the b"forge" fork.
SIGNATURE_PINS = {
    251: ("cf5130def6", "f013b178f5", "062e443590"),
    SECURE_PRIME_VALUE: (
        "3ecca7b893c37d0ba92713a9b5a30987955bf0d4fbd9c9e315abf96c76c67571"
        "08d270562b039f26097661f0ef91c0b3644e03111d16db902fc766674cbef23e"
        "182c5e6d4d9845a02a2ac02bbad17a5a06b4bb9412df1e379bc61fa89e64c4e5"
        "6cec3157dfbb956726af7849808eb893940c01658b8673e1a94b29bd2bfde161"
        "6bb5ede13bf2fc430a9c5e9fba6310772734bc70322f0f4bd09f36cbe2a3ba26",
        "02dfe0c9f0eda57cee015eb7e5e8158c00e9d2b09b326c0da0c242bfc331467a"
        "1b5b394811ae60b309b86b3c8bef886435ad0c648c6a3c1358f4462a7574e305"
        "3bb7a055efc5ed599186b53d022404b10f667fe0b3681ff4ba37ba7afef34fc2"
        "5b9310edd0d06fdfec7ee14c4dc03b8c9c681c1feefa2b906d29d7539a2e1177"
        "78d2664a2cea1953c17f0788ed2a6cc9b5c934b74f486fe53aa7dc1460c85416",
        "2660ea0457fe6e3e541d0b3c79ed24c650a8d1890828c74577e92418ef8372b6"
        "22c97b6e7a8c991f40434cdc1accf4a6b88071f51a72cdd6fa0e8d32597590a0"
        "6ebfa76da4a4f3fa067ec98edfd8513ac573fe8b1f960689a9a88c923947b9b9"
        "5168ef178465977cb9d13155ce98a622a7483b04b7d83fd07efbef31ad437ee0"
        "78cd570340e6c1948de8fcfdeaaa5c24e25c2a738831372e0840d420f8511964",
    ),
}

# Per prime: public_r_forge(...).encode().hex() of PUBLIC_R_MESSAGE under the
# keys of stats._keys_for at the b"\x5a" root, from an Rng(b"\x5b" * 32).
PUBLIC_R_MESSAGE = b"public-r pin"
PUBLIC_R_PINS = {
    251: "6a6d5fcd54",
    SECURE_PRIME_VALUE: (
        "6a6d5fcdbe0f8a2e5b7ac6306866262b0d7fda9a61a96e2dfc536acde0def427"
        "1ffab06bd63b889632b0058c57d5bc31fde2f6547a90e37e7cb5622ae7d4bd97"
        "02cac66c557bf51a4ee6c79baf8ac38b3277b36645a15ccb07f76b046c42b9de"
        "2f587e232d18d5cf6a109a001e71ec9199b6b5c6d092d682bb4e2fe73b1004af"
        "77fb3505e6e4aabcd2001381512adb16c053bc86c32bcec08d1ab613156cdb39"
    ),
}

# Per prime: SHA-256 of result_json_line(estimate_correctness(Prime(p), 130,
# seed=b"c" * 32, sessions=True)): 2 failures at p = 251 and 12 at p = 13.
SESSION_CORRECTNESS_PINS = {
    251: "e6ef6f2395467188b3db819ca66ea53d594f9b660498b062fd36fe8249346135",
    13: "57c792486d85b879b4feb3e13f663237fe8bbe9890fa6950bbfe9d209fe38ef3",
}


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


@pytest.mark.parametrize("p", sorted(SIGNATURE_PINS), ids=lambda p: f"p{p.bit_length()}b")
def test_signature_bytes_match_pins(p):
    prime, root = Prime(p), Rng(PIN_SEED)
    keys = keygen(Params.generate(prime, root.fork(b"params")), root.fork(b"keys"))
    rng = root.fork(b"sign")
    signed = [sign(keys, message, rng)[0].hex() for message in PIN_MESSAGES]
    forged = dv_forge(keys.k_sig, keys.pk, PIN_MESSAGES[0], root.fork(b"forge")).hex()
    assert (*signed, forged) == SIGNATURE_PINS[p]


@pytest.mark.parametrize("p", sorted(PUBLIC_R_PINS), ids=lambda p: f"p{p.bit_length()}b")
def test_public_r_forgery_bytes_match_pins(p):
    pk = _keys_for(Prime(p), Rng(b"\x5a" * 32)).pk
    sig = public_r_forge(pk, PUBLIC_R_MESSAGE, Rng(b"\x5b" * 32))
    assert sig.encode().hex() == PUBLIC_R_PINS[p]
    assert verify_public_r(pk, PUBLIC_R_MESSAGE, sig)


@pytest.mark.parametrize("p", sorted(SESSION_CORRECTNESS_PINS))
def test_session_correctness_row_matches_pin(p):
    row = estimate_correctness(Prime(p), 130, seed=b"c" * 32, sessions=True)
    digest = hashlib.sha256(result_json_line(row).encode()).hexdigest()
    assert digest == SESSION_CORRECTNESS_PINS[p]


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
