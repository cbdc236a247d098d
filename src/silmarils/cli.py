"""Command-line front end: key management, signing, verification, the forgery
and extraction demonstrations, three-party simulation, the statistics harness,
and benchmarks.

Key material lives in a directory of hex files (sk.hex, pk.hex, k_sig.hex)
plus a params.json descriptor naming the profile and prime; consuming
subcommands read the descriptor, so --profile only matters where keys are
created or none are used.  k_sig.hex is the designated verifier's key: anyone
holding it can verify and can simulate signatures.  Third parties verify with
--receipt instead.

Exit codes: 0 accept/success, 1 reject or a failed verdict, 2 usage; a command
that raises exits with the code of the first EXIT_CODES row naming its class.
"""

from __future__ import annotations

import argparse
import json
import statistics as pystats
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from . import stats as harness
from .errors import (
    DegenerateExtraction,
    MalformedInput,
    RoleMismatch,
    SilmarilsError,
    UnknownStrategy,
)
from .field import BACKEND, SECURE_PRIME_VALUE, Prime, count_field_ops
from .hashing import PairKey, derive_receipt
from .net_sim import transcript_lines
from .rng import SEED_BYTES, Rng, sha512
from .sss import Weights
from .two_party import (
    HINT_KINDS,
    KeyMaterial,
    dv_forge,
    extract_params,
    public_r_forge,
    sign,
    verify,
    verify_public_r,
    verify_with_receipt,
)

PROFILES = {
    "secure": SECURE_PRIME_VALUE,
    "toy-5": 5,
    "toy-13": 13,
    "toy-251": 251,
    "toy-1009": 1009,
}

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_CODES = (
    (MalformedInput, 4),
    (DegenerateExtraction, 5),
    ((UnknownStrategy, RoleMismatch), 6),
    (OSError, 3),
    (SilmarilsError, 2),  # PrimeTooLarge, EmptyExperiment, ProtocolMisuse, ...
)


def _seed_arg(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be hex")
    if len(raw) != SEED_BYTES:
        raise argparse.ArgumentTypeError(f"seed must be {SEED_BYTES} bytes of hex")
    return raw


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _hint_arg(text: str) -> tuple:
    kind, sep, value = text.partition(":")
    if not sep or kind not in HINT_KINDS:
        kinds = "|".join(HINT_KINDS)
        raise argparse.ArgumentTypeError(f"hint must look like ({kinds}):<integer>")
    try:
        parsed = int(value, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"hint value {value!r} is not an integer")
    return kind, parsed


def _rng_for(args) -> Rng:
    if getattr(args, "seed", None) is not None:
        return Rng(args.seed)
    return Rng.from_system()


def _read_hex(path: str, what: str) -> bytes:
    # OSError propagates (exit 3); undecodable text is a ValueError (exit 4).
    try:
        return bytes.fromhex("".join(Path(path).read_text().split()))
    except ValueError as exc:
        raise MalformedInput(f"{what} file {path} is not hex: {exc}") from exc


def _decode(what: str, decode, *args):
    """decode(*args), with a decoding failure reported as a bad <what> (exit 4)."""
    try:
        return decode(*args)
    except MalformedInput as exc:
        raise MalformedInput(f"bad {what}: {exc}") from exc


def _write_keydir(outdir: Path, profile: str, prime, keys: KeyMaterial) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sk.hex").write_text(keys.sk_K.hex() + "\n")
    (outdir / "pk.hex").write_text(keys.pk.to_bytes().hex() + "\n")
    (outdir / "k_sig.hex").write_text(keys.k_sig.hex() + "\n")
    (outdir / "params.json").write_text(
        json.dumps(_descriptor(profile, prime), indent=2, sort_keys=True) + "\n"
    )


def _descriptor(profile: str, prime) -> dict:
    return {
        "element_bytes": prime.byte_length,
        "p": str(prime.value),
        "profile": profile,
        "sizes": {
            "pk": 2 * prime.byte_length,
            "sig": 5 * prime.byte_length,
            "sk": prime.byte_length,
        },
    }


def _check_descriptor(descriptor: dict, prime) -> None:
    """The optional params.json keys, when present, must be what keygen
    writes for this p; otherwise the descriptor is malformed (exit 4)."""
    profile = descriptor.get("profile")
    if "profile" in descriptor and not (
        isinstance(profile, str) and PROFILES.get(profile) == prime.value
    ):
        raise MalformedInput(f"profile {json.dumps(profile)} does not name p = {prime.value}")
    expected = _descriptor(profile, prime)
    for key in ("element_bytes", "sizes"):
        # Compared as JSON text, so 7.0 or true never pass for 7 or 1.
        found = json.dumps(descriptor.get(key, expected[key]), sort_keys=True)
        wanted = json.dumps(expected[key], sort_keys=True)
        if found != wanted:
            raise MalformedInput(
                f"{key} {found} does not match p = {prime.value} (keygen writes {wanted})"
            )


def _load_keydir(path: str, *, need_sk: bool, need_k_sig: bool):
    keydir = Path(path)
    try:
        descriptor = json.loads((keydir / "params.json").read_text())
        p = descriptor["p"]
        if isinstance(p, (bool, float)):  # int() would truncate 251.9 to 251
            raise TypeError(f"p must be a decimal string or integer, not {json.dumps(p)}")
        p = int(p)
    except KeyError as exc:
        raise MalformedInput(f"bad params.json: no {exc}") from exc
    except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise MalformedInput(f"bad params.json: {exc}") from exc
    prime = _decode("params.json", Prime, p)
    _decode("params.json", _check_descriptor, descriptor, prime)
    pk_bytes = _read_hex(keydir / "pk.hex", "public key")
    pk = _decode("public key", Weights.from_bytes, prime, pk_bytes)
    sk = k_sig = None
    if need_sk:
        sk = _decode("secret key", prime.from_bytes, _read_hex(keydir / "sk.hex", "secret key"))
        if not sk:  # keygen draws K from F_p*; with K = 0, K' = PRF(K, M) is public
            raise MalformedInput("bad secret key: K = 0 is outside F_p*")
    if need_k_sig:
        k_sig = _decode("pair key", PairKey, _read_hex(keydir / "k_sig.hex", "pair key"))
    return prime, KeyMaterial(sk_K=sk, pk=pk, k_sig=k_sig)


def _emit(args, data_hex: str) -> None:
    if args.out:
        Path(args.out).write_text(data_hex + "\n")
    else:
        print(data_hex)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_keygen(args) -> int:
    prime = Prime(PROFILES[args.profile])
    keys = harness._keys_for(prime, _rng_for(args))
    outdir = Path(args.out or ".")
    _write_keydir(outdir, args.profile, prime, keys)
    for name in ("sk.hex", "pk.hex", "k_sig.hex", "params.json"):
        print(outdir / name)
    return EXIT_OK


def cmd_sign(args) -> int:
    _, keys = _load_keydir(args.keys, need_sk=True, need_k_sig=True)
    message = Path(args.msg).read_bytes()
    sig, _ = sign(keys, message, _rng_for(args))
    _emit(args, sig.encode().hex())
    return EXIT_OK


def cmd_verify(args) -> int:
    need_k_sig = args.receipt is None
    prime, keys = _load_keydir(args.keys, need_sk=False, need_k_sig=need_k_sig)
    message = Path(args.msg).read_bytes()
    sig_bytes = _read_hex(args.sig, "signature")
    if args.receipt is not None:
        try:
            receipt_bytes = bytes.fromhex(args.receipt)
        except ValueError as exc:
            raise MalformedInput(f"bad receipt: {exc}") from exc
        receipt = _decode("receipt", prime.from_bytes, receipt_bytes)
        accepted = verify_with_receipt(keys.pk, receipt, message, sig_bytes)
    else:
        accepted = verify(keys.pk, keys.k_sig, message, sig_bytes)
        _, receipt = derive_receipt(keys.k_sig, message, prime)
        print(f"receipt={receipt.hex()}")
    print("accept" if accepted else "reject")
    return EXIT_OK if accepted else EXIT_REJECT


def cmd_forge_dv(args) -> int:
    _, keys = _load_keydir(args.keys, need_sk=False, need_k_sig=True)
    message = Path(args.msg).read_bytes()
    sig = dv_forge(keys.k_sig, keys.pk, message, _rng_for(args))
    accepted = verify(keys.pk, keys.k_sig, message, sig)
    _emit(args, sig.encode().hex())
    print("accept" if accepted else "reject (simulator drew sigma4 = 0)")
    return EXIT_OK


def cmd_extract(args) -> int:
    prime, keys = _load_keydir(args.keys, need_sk=False, need_k_sig=True)
    message = Path(args.msg).read_bytes()
    sig_bytes = _read_hex(args.sig, "signature")
    kind, value = args.hint
    if not 0 <= value < prime.value:
        raise MalformedInput(f"hint {kind}:{value} is not in [0, {prime.value})")
    hint = (kind, prime.elt(value))
    family = extract_params(keys.k_sig, message, sig_bytes, hint, keys.pk)
    member = family.pinned
    record = {
        "a": member.a.hex(),
        "d": member.d.hex(),
        "ratio": family.ratio.hex(),
        "s": member.s.hex(),
        "share0": member.share0.hex(),
        "share1": member.share1.hex(),
        "u0": member.u0.hex(),
        "u1": member.u1.hex(),
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_forge_public_r(args) -> int:
    keydir = Path(args.keys)
    has_k_sig = (keydir / "k_sig.hex").exists()
    _, keys = _load_keydir(args.keys, need_sk=False, need_k_sig=has_k_sig)
    message = Path(args.msg).read_bytes()
    sig = public_r_forge(keys.pk, message, _rng_for(args))
    _emit(args, sig.encode().hex())
    weakened = verify_public_r(keys.pk, message, sig)
    print(f"weakened-verifier: {'accept' if weakened else 'reject'}")
    if has_k_sig:
        real = verify(keys.pk, keys.k_sig, message, sig)
        print(f"real-verifier: {'accept' if real else 'reject'}")
    return EXIT_OK


def cmd_sim3p(args) -> int:
    prime = Prime(PROFILES[args.profile])
    strategy = None
    if args.adversary != "none":
        strategy = harness.get_strategy(args.adversary)
    seed = args.seed if args.seed is not None else harness.DEFAULT_SEED
    message = Path(args.msg).read_bytes() if args.msg else harness.DEFAULT_MESSAGE

    z2_eq = z3_eq = bottom = forged = divergent = 0
    verdict_counts: Counter = Counter()
    arm_counts: Counter = Counter()
    # The log opens before the first session and takes each session's lines
    # as it ends, so an unwritable path fails at once and no run is held.
    with open(args.out, "w") if args.out is not None else nullcontext() as log:
        results = harness.run_trials(
            prime, args.trials, seed=seed, strategy=strategy, message=message
        )
        for i, res in enumerate(results):
            out = res.outcome
            z2_eq += out.z2 == res.x
            z3_eq += out.z3 == res.x
            bottom += out.z3 is None
            forged += harness._forged(res.x, out.z2, out.z3, res.accepted)
            divergent += harness._divergent(res.x, out.z2, out.z3, res.accepted)
            verdict_counts.update(label for _, _, label in out.verdicts)
            arm_counts[res.arm] += 1
            if log is not None:
                trial = json.dumps({"trial": i}, sort_keys=True)
                log.write("\n".join([trial, *transcript_lines(out.transcript)]) + "\n")

    print(
        f"p={prime.value} adversary={args.adversary} trials={args.trials} "
        f"seed={seed.hex()}"
    )
    print(
        f"z2==x: {z2_eq}  z3==x: {z3_eq}  z3=bottom: {bottom}  "
        f"forged: {forged}  divergent: {divergent}"
    )
    print(
        "arms: "
        + " ".join(f"{arm}={arm_counts[arm]}" for arm in sorted(arm_counts, key=str))
    )
    print(
        "verdicts: "
        + " ".join(
            f"{label!r}={verdict_counts[label]}" for label in sorted(verdict_counts)
        )
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    prime = Prime(PROFILES[args.profile])
    seed = args.seed if args.seed is not None else harness.DEFAULT_SEED
    results = harness.run_suite(prime, args.suite, args.trials, seed=seed)
    lines = [harness.result_json_line(res) for res in results]
    for line in lines:
        print(line)
    print()
    print(harness.render_table(results))
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    verdicts_ok = all(res.verdict == "pass" for res in results)
    return EXIT_OK if verdicts_ok else EXIT_REJECT


def cmd_bench(args) -> int:
    p_value = PROFILES[args.profile]
    prime = Prime(p_value)
    seed = args.seed if args.seed is not None else harness.DEFAULT_SEED
    width = prime.byte_length
    print(f"profile={args.profile} p={p_value}")
    print(f"sizes: sk={width} B  pk={2 * width} B  sig={5 * width} B")

    root = Rng(seed)
    keys = harness._keys_for(prime, root)
    message = b"bench message"
    rng = root.fork(b"bench")

    with count_field_ops() as sign_ops:
        sig, _ = sign(keys, message, rng)
    with count_field_ops() as verify_ops:
        verify(keys.pk, keys.k_sig, message, sig)

    sign_times = []
    verify_times = []
    for _ in range(args.trials):
        t0 = time.perf_counter()
        sig, _ = sign(keys, message, rng)
        sign_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        verify(keys.pk, keys.k_sig, message, sig)
        verify_times.append(time.perf_counter() - t0)
    med_sign = pystats.median(sign_times) * 1e6
    med_verify = pystats.median(verify_times) * 1e6
    print(f"backend={BACKEND} sha512={sha512.__module__}")
    print(
        f"  sign: muls={sign_ops.muls} invs={sign_ops.invs}"
        f"  verify: muls={verify_ops.muls} invs={verify_ops.invs}"
    )
    print(f"  median sign={med_sign:.2f}us  median verify={med_verify:.2f}us  (n={args.trials})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silmarils",
        description="Transferable designated-verifier signatures over a prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_seed_arg,
        default=None,
        help="32-byte hex seed; fixes all randomness for reproducible runs",
    )

    profiled = argparse.ArgumentParser(add_help=False)
    profiled.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="secure",
        help="named prime profile (default: secure)",
    )

    p = sub.add_parser("keygen", parents=[common, profiled], help="write a key directory")
    p.add_argument("--out", default=None, help="directory for key files (default: .)")
    p.set_defaults(func=cmd_keygen)

    def keyed(name: str, help_text: str, parents=(common,)):
        q = sub.add_parser(name, parents=list(parents), help=help_text)
        q.add_argument("keys", help="key directory written by keygen")
        q.add_argument("--msg", required=True, help="message file")
        return q

    p = keyed("sign", "sign a message file")
    p.add_argument("--out", default=None, help="signature file (hex); default stdout")
    p.set_defaults(func=cmd_sign)

    p = keyed("verify", "verify a signature (designated key or published receipt)")
    p.add_argument("--sig", required=True, help="signature file (hex)")
    p.add_argument(
        "--receipt",
        default=None,
        help="published receipt as canonical-width hex; verifies without k_sig",
    )
    p.set_defaults(func=cmd_verify)

    p = keyed("forge-dv", "simulate a signature using only the pair key")
    p.add_argument("--out", default=None, help="signature file (hex); default stdout")
    p.set_defaults(func=cmd_forge_dv)

    p = keyed("extract", "recover signer parameters from a signature")
    p.add_argument("--sig", required=True, help="signature file (hex)")
    p.add_argument(
        "--hint",
        type=_hint_arg,
        required=True,
        help="pinning hint, e.g. d:3 or s:0x1f or a:12",
    )
    p.set_defaults(func=cmd_extract)

    p = keyed("forge-public-r", "deterministic forgery against the weakened verifier")
    p.add_argument("--out", default=None, help="signature file (hex); default stdout")
    p.set_defaults(func=cmd_forge_public_r)

    p = sub.add_parser(
        "sim3p", parents=[common, profiled], help="run three-party sessions"
    )
    p.add_argument(
        "--adversary",
        default="none",
        help='attack strategy name or "none" (default)',
    )
    p.add_argument("--trials", type=_positive_int, default=1, help="number of sessions")
    p.add_argument("--msg", default=None, help="message file (default: built-in)")
    p.add_argument("--out", default=None, help="transcript log file (JSON lines)")
    p.set_defaults(func=cmd_sim3p)

    p = sub.add_parser(
        "stats", parents=[common, profiled], help="run the statistics harness"
    )
    p.add_argument("--suite", choices=harness.SUITES, default="all")
    p.add_argument(
        "--trials", type=_positive_int, default=10000, help="Monte Carlo trials"
    )
    p.add_argument("--out", default=None, help="also write JSON lines here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "bench", parents=[common, profiled], help="sizes, op counts, and timings"
    )
    p.add_argument(
        "--trials", type=_positive_int, default=2000, help="timing repetitions"
    )
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning codes
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SilmarilsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
