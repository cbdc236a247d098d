"""Command-line surface: flows, file formats, exit codes, determinism."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silmarils.cli import PROFILES, main
from silmarils.errors import SilmarilsError
from silmarils.rng import sha512

SEED = "2a" * 32
SEED2 = "b7" * 32


@pytest.fixture()
def keydir(tmp_path):
    kd = tmp_path / "kd"
    assert main(["keygen", "--profile", "toy-251", "--seed", SEED, "--out", str(kd)]) == 0
    return kd


@pytest.fixture()
def msg(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_bytes(b"hello world")
    return path


def _sign(tmp_path, keydir, msg, name="sig.hex"):
    sig = tmp_path / name
    assert main(["sign", str(keydir), "--msg", str(msg), "--seed", SEED, "--out", str(sig)]) == 0
    return sig


def test_keygen_writes_the_descriptor_and_hex_files(keydir):
    params = json.loads((keydir / "params.json").read_text())
    assert params["profile"] == "toy-251"
    assert params["p"] == "251"
    assert params["element_bytes"] == 1
    assert params["sizes"] == {"sk": 1, "pk": 2, "sig": 5}
    for name in ("sk.hex", "pk.hex", "k_sig.hex"):
        bytes.fromhex((keydir / name).read_text().strip())
    assert len(bytes.fromhex((keydir / "k_sig.hex").read_text().strip())) == 32


def test_keygen_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["keygen", "--profile", "toy-251", "--seed", SEED, "--out", str(a)])
    main(["keygen", "--profile", "toy-251", "--seed", SEED, "--out", str(b)])
    for name in ("sk.hex", "pk.hex", "k_sig.hex", "params.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sign_verify_round_trip(tmp_path, keydir, msg, capsys):
    sig = _sign(tmp_path, keydir, msg)
    assert main(["verify", str(keydir), "--msg", str(msg), "--sig", str(sig)]) == 0
    out = capsys.readouterr().out
    assert "accept" in out and "receipt=" in out

    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"tampered")
    assert main(["verify", str(keydir), "--msg", str(bad), "--sig", str(sig)]) == 1
    assert "reject" in capsys.readouterr().out


def test_verify_with_explicit_receipt(tmp_path, keydir, msg, capsys):
    sig = _sign(tmp_path, keydir, msg)
    main(["verify", str(keydir), "--msg", str(msg), "--sig", str(sig)])
    receipt = [
        line.split("=", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("receipt=")
    ][0]
    assert main([
        "verify", str(keydir), "--msg", str(msg), "--sig", str(sig),
        "--receipt", receipt,
    ]) == 0
    wrong = f"{(int(receipt, 16) + 1) % 251:02x}"
    assert main([
        "verify", str(keydir), "--msg", str(msg), "--sig", str(sig),
        "--receipt", wrong,
    ]) == 1


def test_forge_dv_passes_the_designated_verifier(tmp_path, keydir, msg, capsys):
    forged = tmp_path / "forged.hex"
    assert main([
        "forge-dv", str(keydir), "--msg", str(msg), "--seed", SEED2,
        "--out", str(forged),
    ]) == 0
    assert main(["verify", str(keydir), "--msg", str(msg), "--sig", str(forged)]) == 0


def test_forge_public_r_beats_only_weakened_check(keydir, msg, capsys):
    assert main(["forge-public-r", str(keydir), "--msg", str(msg), "--seed", SEED2]) == 0
    out = capsys.readouterr().out
    assert "weakened-verifier: accept" in out
    assert "real-verifier: reject" in out


def test_extract_reports_the_family_member(tmp_path, keydir, msg, capsys):
    sig = _sign(tmp_path, keydir, msg)
    assert main([
        "extract", str(keydir), "--msg", str(msg), "--sig", str(sig),
        "--hint", "d:3",
    ]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"a", "d", "ratio", "s", "share0", "share1", "u0", "u1"}
    assert record["d"] == "03"


def test_exit_codes(tmp_path, keydir, msg, capsys):
    sig = _sign(tmp_path, keydir, msg)
    garbage = tmp_path / "garbage.hex"
    garbage.write_text("zz-not-hex")
    short = tmp_path / "short.hex"
    short.write_text("00ff")
    not_utf8 = tmp_path / "not-utf8.hex"
    not_utf8.write_bytes(b"\xff\xfe\x00")

    # 2: usage (bad args, unknown suite size, non-positive trial counts)
    assert main(["stats", "--profile", "toy-251", "--suite", "secrecy",
                 "--trials", "5"]) == 2
    assert main(["bench", "--profile", "toy-13", "--trials", "0"]) == 2
    assert main(["sim3p", "--profile", "toy-13", "--trials", "-3"]) == 2
    assert main(["sim3p", "--profile", "toy-13", "--trials", "0"]) == 2
    assert main(["stats", "--profile", "toy-13", "--trials", "0"]) == 2
    assert main(["sign", str(keydir)]) == 2
    assert main(["verify", str(keydir), "--msg", str(msg)]) == 2
    assert main(["extract", str(keydir), "--msg", str(msg), "--hint", "d:3"]) == 2
    # 3: IO
    assert main(["verify", str(tmp_path / "nowhere"), "--msg", str(msg),
                 "--sig", str(sig)]) == 3
    assert main(["verify", str(keydir), "--msg", str(msg),
                 "--sig", str(tmp_path / "no-sig.hex")]) == 3
    # 4: malformed input
    assert main(["verify", str(keydir), "--msg", str(msg), "--sig", str(garbage)]) == 4
    assert main(["verify", str(keydir), "--msg", str(msg), "--sig", str(short)]) == 4
    capsys.readouterr()
    for argv in (["verify"], ["extract", "--hint", "d:3"]):
        assert main(argv + [str(keydir), "--msg", str(msg), "--sig", str(not_utf8)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    descriptor = json.loads((keydir / "params.json").read_text())
    no_p = {k: v for k, v in descriptor.items() if k != "p"}
    inconsistent = (
        {**descriptor, "p": 251.9},
        {**descriptor, "profile": "toy-13"},
        {**descriptor, "element_bytes": 7},
        {**descriptor, "sizes": {**descriptor["sizes"], "sig": 99}},
    )
    for bad in ("{not json", "[" * 100_000, json.dumps({**descriptor, "p": 250}),
                json.dumps(no_p), *map(json.dumps, inconsistent)):
        broken = tmp_path / "broken"
        shutil.copytree(keydir, broken, dirs_exist_ok=True)
        (broken / "params.json").write_text(bad)
        assert main(["sign", str(broken), "--msg", str(msg), "--seed", SEED]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: bad params.json: ") and err.count("\n") == 1
    zero_key = tmp_path / "zero-key"
    shutil.copytree(keydir, zero_key)
    (zero_key / "sk.hex").write_text("00\n")  # keygen draws K from F_p*
    assert main(["sign", str(zero_key), "--msg", str(msg), "--seed", SEED]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: bad secret key: ") and err.count("\n") == 1
    for hint in ("d:999", "d:-5", "s:251", "d:254"):  # outside [0, p): not reduced
        assert main(["extract", str(keydir), "--msg", str(msg), "--sig", str(sig),
                     "--hint", hint]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["extract", str(keydir), "--msg", str(msg), "--sig", str(sig),
                 "--hint", "d:250"]) == 0
    capsys.readouterr()
    # 5: degenerate algebra
    assert main(["extract", str(keydir), "--msg", str(msg), "--sig", str(sig),
                 "--hint", "d:0"]) == 5
    # 6: unknown strategy
    assert main(["sim3p", "--profile", "toy-13", "--adversary", "mystery",
                 "--trials", "1"]) == 6
    capsys.readouterr()


@pytest.fixture(scope="module")
def fuzz_keydir(tmp_path_factory):
    kd = tmp_path_factory.mktemp("fuzz") / "kd"
    assert main(["keygen", "--profile", "toy-251", "--seed", SEED, "--out", str(kd)]) == 0
    (kd.parent / "msg.txt").write_bytes(b"hello world")
    _sign(kd.parent, kd, kd.parent / "msg.txt")
    return kd


def _hex_files(width):
    """Arbitrary bytes, hex-looking text, and well-formed width-byte hex."""
    return (
        st.binary(max_size=40)
        | st.text(alphabet="0123456789abcdefABCDEF \n", max_size=2 * width + 4).map(str.encode)
        | st.binary(min_size=width, max_size=width).map(lambda b: b.hex().encode() + b"\n")
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
_DESCRIPTOR_VALUES = {
    "p": st.sampled_from(["251", 251, "13", "0x fb", "250"]) | _JSON,
    "profile": st.sampled_from(sorted(PROFILES)) | _JSON,
    "element_bytes": st.sampled_from([1, 32]) | _JSON,
    "sizes": st.just({"pk": 2, "sig": 5, "sk": 1}) | _JSON,
}
_DESCRIPTORS = st.binary(max_size=40) | _JSON.map(json.dumps).map(str.encode) | (
    st.fixed_dictionaries({}, optional=_DESCRIPTOR_VALUES).map(json.dumps).map(str.encode)
)
# Hint values reach cmd_extract only as <kind>:<integer>; any other text is
# argparse's usage error (exit 2), covered by test_exit_codes.
_HINTS = st.builds(
    lambda kind, value, spelling: f"{kind}:{spelling.format(value)}",
    st.sampled_from("dsa"),
    st.integers(-300, 300) | st.integers(),
    st.sampled_from(["{}", "{:#x}", "{:#o}"]),
)
# Fuzzed input -> (values, subcommand it feeds, exit codes it may end in);
# every code is in the README's exit-code table.
_FUZZ_TARGETS = {
    "--sig": (_hex_files(5), "verify", {0, 1, 4}),
    "pk.hex": (_hex_files(2), "sign", {0, 4}),
    "sk.hex": (_hex_files(1), "sign", {0, 4}),
    "k_sig.hex": (_hex_files(32), "sign", {0, 4}),
    "params.json": (_DESCRIPTORS, "sign", {0, 4}),
    "--receipt": (st.text(alphabet="0123456789abcdefxyz-", max_size=4) | st.text(max_size=4),
                  "verify", {0, 1, 4}),
    "--hint": (_HINTS, "extract", {0, 4, 5}),
}


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(_FUZZ_TARGETS)).flatmap(
    lambda target: st.tuples(st.just(target), _FUZZ_TARGETS[target][0])
))
def test_fuzzed_signature_file_never_crashes(fuzz_keydir, case):
    target, value = case
    _, command, codes = _FUZZ_TARGETS[target]
    root = fuzz_keydir.parent
    kd, sig = fuzz_keydir, root / "sig.hex"
    if target.endswith((".hex", ".json")):
        kd = root / "broken"
        shutil.copytree(fuzz_keydir, kd, dirs_exist_ok=True)
        (kd / target).write_bytes(value)
    elif target == "--sig":
        sig = root / "fuzz-sig.hex"
        sig.write_bytes(value)
    argv = [command, str(kd), "--msg", str(root / "msg.txt"), "--seed", SEED]
    if command != "sign":
        argv += ["--sig", str(sig)]
    if target in ("--receipt", "--hint"):
        argv.append(f"{target}={value}")  # one token, even for a leading "-"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    assert "Traceback" not in err.getvalue()


def test_sim3p_summary_and_transcript_determinism(tmp_path, capsys):
    log1, log2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    argv = ["sim3p", "--profile", "toy-251", "--seed", SEED, "--trials", "5"]
    assert main(argv + ["--out", str(log1)]) == 0
    out = capsys.readouterr().out
    assert "z2==x: 5" in out and "z3==x: 5" in out
    assert "arms: B=5" in out
    assert main(argv + ["--out", str(log2)]) == 0
    assert log1.read_bytes() == log2.read_bytes()
    records = [json.loads(line) for line in log1.read_text().splitlines()]
    assert {"trial": 0} in records
    rounds = {r["round"] for r in records if "round" in r}
    assert rounds == {1, 2, 3, 4, 5, 7}  # nothing to resolve in honest runs


def test_sim3p_unwritable_log_exits_before_any_session(tmp_path, capsys, monkeypatch):
    from silmarils import stats as harness

    def no_sessions(*args, **kwargs):
        raise AssertionError("a session ran before the log was opened")

    monkeypatch.setattr(harness, "run_trials", no_sessions)
    missing = tmp_path / "missing" / "x.jsonl"
    assert main(["sim3p", "--profile", "toy-251", "--trials", "1", "--out", str(missing)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not missing.parent.exists()


def test_sim3p_with_adversary_reports_divergence(capsys):
    assert main([
        "sim3p", "--profile", "toy-13", "--seed", SEED,
        "--adversary", "substitute-guess-k1", "--trials", "30",
    ]) == 0
    out = capsys.readouterr().out
    assert "adversary=substitute-guess-k1" in out
    assert "z2==x: 30" in out


def test_stats_table_and_json_lines(tmp_path, capsys):
    out_path = tmp_path / "rows.jsonl"
    argv = [
        "stats", "--profile", "toy-13", "--suite", "core",
        "--trials", "400", "--seed", SEED, "--out", str(out_path),
    ]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert "core-forgery" in table and "pass" in table
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all(row["verdict"] == "pass" for row in rows)
    first = out_path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first  # byte-identical reports


def test_stats_exit_one_on_failed_verdict(tmp_path, capsys, monkeypatch):
    from silmarils import stats as harness

    real = harness.estimate_core_forgery

    def rigged(p, trials, *, seed=harness.DEFAULT_SEED):
        est = real(p, trials, seed=seed)
        return harness.Estimate(**{**est.__dict__, "verdict": "fail"})

    monkeypatch.setattr(harness, "estimate_core_forgery", rigged)
    assert main(["stats", "--profile", "toy-13", "--suite", "core",
                 "--trials", "50", "--seed", SEED]) == 1
    capsys.readouterr()


def test_bench_reports_sizes_and_op_counts(capsys):
    assert main(["bench", "--profile", "toy-251", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "backend=pure" in out
    assert f"backend=pure sha512={sha512.__module__}" in out.splitlines()
    assert sha512.__module__ in ("_sha512", "_hashlib")
    assert "sign: muls=13 invs=2" in out
    assert "verify: muls=4 invs=0" in out
    assert "sizes: sk=1 B  pk=2 B  sig=5 B" in out


def test_profiles_cover_the_advertised_primes():
    assert PROFILES["secure"] == 2**255 - 19
    assert PROFILES["toy-251"] == 251
    assert set(PROFILES) == {"secure", "toy-5", "toy-13", "toy-251", "toy-1009"}


def test_seed_argument_validation(capsys):
    assert main(["keygen", "--profile", "toy-251", "--seed", "zz"]) == 2
    capsys.readouterr()



def _error_classes(cls=SilmarilsError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_library_error_exits_with_a_failure_code(error, monkeypatch, capsys):
    def raise_it(args):
        raise error("boom")

    monkeypatch.setattr("silmarils.cli.cmd_bench", raise_it)
    assert main(["bench", "--profile", "toy-5"]) in range(2, 7)
    assert capsys.readouterr().err == "error: boom\n"
