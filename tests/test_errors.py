"""Library raise sites reachable from a caller's input: each raises a typed
SilmarilsError that is still the builtin (for ModulusMismatch, the library
error) it raised before.  Some type checks are the exception: a
non-Signature at a signature entry point, a weight or a receipt's nonce that
is not an element, or an extraction hint that is not a (kind, element) pair
raised AttributeError or ValueError, and an element of a float residue raised
nothing; each now raises WrongType, a TypeError."""

from fractions import Fraction

import pytest

from silmarils.errors import (
    LengthMismatch,
    MalformedInput,
    ModulusMismatch,
    ProtocolMisuse,
    WrongType,
)
from silmarils.field import FieldElement, Prime
from silmarils.hashing import (
    DOMAIN_NONCE,
    DOMAIN_RECEIPT,
    PairKey,
    authenticated_value,
    derive_receipt,
    hash_to_field,
    prf_to_field,
    receipt_from_nonce,
)
from silmarils.net_sim import AdversaryHook, Envelope, Role, Session
from silmarils.rng import Rng
from silmarils.stats import (
    _keys_for,
    _sqrt_upper,
    estimate_core_forgery,
    estimate_correctness,
    estimate_unforgeability,
    result_json_line,
    run_suite,
    run_trials,
    wilson_interval,
)
from silmarils.sss import Weights
from silmarils.three_party import (
    RevealPoint,
    force_coins,
    interpret_value,
    open_signing_session,
    run_signing_session,
)
from silmarils.two_party import (
    KeyMaterial,
    Signature,
    dv_forge,
    extract_params,
    public_r_forge,
    public_receipt,
    sign,
    sign_accepted,
    sign_many,
    verify,
    verify_public_r,
    verify_with_receipt,
)

from .oracles import per_envelope

P251 = Prime(251)
SEED = b"\x33" * 32
MSG = b"error message"
KEYS = _keys_for(P251, Rng(SEED))
P13 = Prime(13)
SIG = sign_accepted(KEYS, MSG, Rng(SEED))[0]
RECEIPT = derive_receipt(KEYS.k_sig, MSG, P251)[1]


def _session(adversary=None):
    return open_signing_session(KEYS, MSG, SEED, adversary=adversary)


def _forge_sender(env, view):
    return [Envelope(env.round, Role.P1, env.recipient, env.payload)]


SITES = {
    "Prime() of a non-prime": (lambda: Prime(9), MalformedInput, ValueError),
    "Prime() below 3": (lambda: Prime(2), MalformedInput, ValueError),
    "Prime() of a non-int": (lambda: Prime("251"), WrongType, TypeError),
    "non-canonical from_bytes": (lambda: P251.from_bytes(b"\xfb"), MalformedInput, ValueError),
    "PairKey length": (lambda: PairKey(b"\x00" * 31), LengthMismatch, ValueError),
    # Bytes inputs given a str: each raised a bare TypeError, or for PairKey
    # none until its first HMAC.
    "PairKey of a str": (lambda: PairKey("x" * 32), WrongType, TypeError),
    "from_bytes of a str": (lambda: P251.from_bytes("x"), WrongType, TypeError),
    "reduce_wide of a str": (lambda: P251.reduce_wide("x" * 64), WrongType, TypeError),
    "hash_to_field of a str payload": (
        lambda: hash_to_field(P251, DOMAIN_RECEIPT, "abc"),
        WrongType,
        TypeError,
    ),
    "prf_to_field of a str payload": (
        lambda: prf_to_field(KEYS.k_sig.data, P251, DOMAIN_NONCE, "abc"),
        WrongType,
        TypeError,
    ),
    "hash_to_field of a str tag": (
        lambda: hash_to_field(P251, "tag", b"abc"),
        WrongType,
        TypeError,
    ),
    "prf_to_field of a str key": (
        lambda: prf_to_field("k" * 32, P251, b"t", b"abc"),
        WrongType,
        TypeError,
    ),
    "prf_to_field of a str tag": (
        lambda: prf_to_field(b"k" * 32, P251, "t", b"abc"),
        WrongType,
        TypeError,
    ),
    "Signature.decode of a str": (lambda: Signature.decode(P251, "x" * 5), WrongType, TypeError),
    "Weights.from_bytes of a str": (lambda: Weights.from_bytes(P251, "xy"), WrongType, TypeError),
    "sign of a str message": (lambda: sign(KEYS, "m", Rng(SEED)), WrongType, TypeError),
    "verify of a str message": (
        lambda: verify(KEYS.pk, KEYS.k_sig, "m", SIG),
        WrongType,
        TypeError,
    ),
    "dv_forge of a str message": (
        lambda: dv_forge(KEYS.k_sig, KEYS.pk, "m", Rng(SEED)),
        WrongType,
        TypeError,
    ),
    "extract_params hint kind": (
        lambda: extract_params(
            KEYS.k_sig, MSG, sign(KEYS, MSG, Rng(SEED))[0], ("q", P251.one), KEYS.pk
        ),
        MalformedInput,
        ValueError,
    ),
    # Hints that are not a (kind, element) pair raised AttributeError or a
    # bare ValueError; a zero hint over another prime passed as degenerate.
    "extract_params of an int hint": (
        lambda: extract_params(KEYS.k_sig, MSG, SIG, ("d", 5), KEYS.pk),
        WrongType,
        TypeError,
    ),
    "extract_params of a bare hint kind": (
        lambda: extract_params(KEYS.k_sig, MSG, SIG, "d", KEYS.pk),
        WrongType,
        TypeError,
    ),
    "extract_params of a hint over another prime": (
        lambda: extract_params(KEYS.k_sig, MSG, SIG, ("d", P13.zero), KEYS.pk),
        ModulusMismatch,
        ModulusMismatch,
    ),
    # Element values that are not ints: a float made an element with a float
    # residue, and a str or None raised a bare TypeError.
    "Prime.elt of a float": (lambda: P251.elt(2.5), WrongType, TypeError),
    "Prime.elt of a str": (lambda: P251.elt("3"), WrongType, TypeError),
    "Prime.elt of None": (lambda: P251.elt(None), WrongType, TypeError),
    "FieldElement of a float": (lambda: FieldElement(2.5, P251), WrongType, TypeError),
    # Public-receipt calls given a str message raised a bare TypeError.
    "public_receipt of a str message": (lambda: public_receipt("m", P251), WrongType, TypeError),
    "verify_public_r of a str message": (
        lambda: verify_public_r(KEYS.pk, "m", SIG),
        WrongType,
        TypeError,
    ),
    "public_r_forge of a str message": (
        lambda: public_r_forge(KEYS.pk, "m", Rng(SEED)),
        WrongType,
        TypeError,
    ),
    "extract_params of None": (
        lambda: extract_params(KEYS.k_sig, MSG, None, ("d", P251.one), KEYS.pk),
        WrongType,
        TypeError,
    ),
    "verify of a non-signature": (
        lambda: verify(KEYS.pk, KEYS.k_sig, MSG, "zz"),
        WrongType,
        TypeError,
    ),
    "verify of None": (lambda: verify(KEYS.pk, KEYS.k_sig, MSG, None), WrongType, TypeError),
    "verify_with_receipt of a non-element part": (
        lambda: verify_with_receipt(KEYS.pk, RECEIPT, MSG, Signature(7, *list(SIG)[1:])),
        WrongType,
        TypeError,
    ),
    "verify_with_receipt of a non-element receipt": (
        lambda: verify_with_receipt(KEYS.pk, 7, MSG, SIG),
        WrongType,
        TypeError,
    ),
    "verify_public_r of a part over another prime": (
        lambda: verify_public_r(KEYS.pk, MSG, Signature(*list(SIG)[:4], P13.one)),
        ModulusMismatch,
        ModulusMismatch,
    ),
    "verify_with_receipt of a receipt over another prime": (
        lambda: verify_with_receipt(KEYS.pk, P13.one, MSG, SIG),
        ModulusMismatch,
        ModulusMismatch,
    ),
    # Every honest interpreted session derives a receipt: a str or None
    # message raised a bare TypeError, an int or None nonce AttributeError.
    "receipt_from_nonce of a str message": (
        lambda: receipt_from_nonce("m", P251.one),
        WrongType,
        TypeError,
    ),
    "receipt_from_nonce of an int nonce": (lambda: receipt_from_nonce(MSG, 5), WrongType, TypeError),
    "receipt_from_nonce of a None nonce": (
        lambda: receipt_from_nonce(MSG, None),
        WrongType,
        TypeError,
    ),
    # Every session's P1, and every interpreted session, hashes (M, sig) to x:
    # a str or None message, or str signature bytes, raised a bare TypeError.
    "authenticated_value of a str message": (
        lambda: authenticated_value("m", SIG.encode(), P251),
        WrongType,
        TypeError,
    ),
    "authenticated_value of a None message": (
        lambda: authenticated_value(None, SIG.encode(), P251),
        WrongType,
        TypeError,
    ),
    "authenticated_value of str signature bytes": (
        lambda: authenticated_value(MSG, "sig", P251),
        WrongType,
        TypeError,
    ),
    "interpret_value of a str message": (
        lambda: interpret_value(KEYS.pk, "m", SIG, P251.one, nonce=P251.one),
        WrongType,
        TypeError,
    ),
    "interpret_value of a None message": (
        lambda: interpret_value(KEYS.pk, None, SIG, P251.one, nonce=P251.one),
        WrongType,
        TypeError,
    ),
    "interpret_value of a non-signature": (
        lambda: interpret_value(KEYS.pk, MSG, None, P251.one, nonce=P251.one),
        WrongType,
        TypeError,
    ),
    "sign_many with weights over another prime": (
        lambda: sign_many(
            KeyMaterial(KEYS.sk_K, Weights(P13.elt(1), P13.elt(2)), KEYS.k_sig), MSG, Rng(SEED), 1
        ),
        ModulusMismatch,
        ModulusMismatch,
    ),
    # Weights check their types, then their moduli, before any arithmetic
    # or degeneracy test: a zero weight over another prime is a mismatch.
    "Weights of ints": (lambda: Weights(1, 2), WrongType, TypeError),
    "Weights of an element and an int": (lambda: Weights(P251.one, 2), WrongType, TypeError),
    "Weights over two primes": (
        lambda: Weights(P251.zero, P13.one),
        ModulusMismatch,
        ModulusMismatch,
    ),
    "sign_many of a non-int count": (
        lambda: sign_many(KEYS, MSG, Rng(SEED), 2.5),
        WrongType,
        TypeError,
    ),
    "sign_many of a negative count": (
        lambda: sign_many(KEYS, MSG, Rng(SEED), -1),
        ProtocolMisuse,
        ValueError,
    ),
    "sign_accepted with no tries": (
        lambda: sign_accepted(KEYS, MSG, Rng(SEED), max_tries=0),
        ProtocolMisuse,
        ValueError,
    ),
    # Counts that are not ints: each raised a bare TypeError, from range()
    # or a slice or a comparison.
    "sign_accepted of a float max_tries": (
        lambda: sign_accepted(KEYS, MSG, Rng(SEED), max_tries=2.5),
        WrongType,
        TypeError,
    ),
    "Rng take of a float": (lambda: Rng(SEED).take(2.5), WrongType, TypeError),
    "Rng take of a str": (lambda: Rng(SEED).take("3"), WrongType, TypeError),
    "Rng seed type": (lambda: Rng("not bytes"), WrongType, TypeError),
    "Rng fork of a str label": (lambda: Rng(SEED).fork("label"), WrongType, TypeError),
    "Rng negative take": (lambda: Rng(SEED).take(-1), ProtocolMisuse, ValueError),
    "Session without the corrupted role": (
        lambda: Session({Role.P1: object()}, AdversaryHook(Role.P2)),
        ProtocolMisuse,
        ValueError,
    ),
    "Session forged sender": (
        lambda: _session(AdversaryHook(Role.P2, rewrite=per_envelope(_forge_sender))).run(2),
        ProtocolMisuse,
        ValueError,
    ),
    "branch of another role": (
        lambda: _session().branch(AdversaryHook(Role.P3)),
        ProtocolMisuse,
        ValueError,
    ),
    "force_coins after round 1": (
        lambda: force_coins(_session().run(1), ic_coins=(P251.one,) * 4),
        ProtocolMisuse,
        ValueError,
    ),
    "force_coins after round 2": (
        lambda: force_coins(_session().run(2), challenge_coin=P251.one),
        ProtocolMisuse,
        ValueError,
    ),
    # Coins that force_coins used to accept and a session later failed on:
    # ints, a 3-tuple and elements of F_13 in a session over F_251.
    "force_coins of int installer coins": (
        lambda: force_coins(_session(), ic_coins=(1, 2, 3, 4)),
        WrongType,
        TypeError,
    ),
    "force_coins of three installer coins": (
        lambda: force_coins(_session(), ic_coins=(P251.one,) * 3),
        WrongType,
        TypeError,
    ),
    "force_coins of installer coins over another prime": (
        lambda: force_coins(_session(), ic_coins=(P13.one,) * 4),
        ModulusMismatch,
        ModulusMismatch,
    ),
    "force_coins of an int challenge coin": (
        lambda: force_coins(_session(), challenge_coin=1),
        WrongType,
        TypeError,
    ),
    "force_coins of a challenge coin over another prime": (
        lambda: force_coins(_session(), challenge_coin=P13.one),
        ModulusMismatch,
        ModulusMismatch,
    ),
    # Messages that are not bytes: a str raised a bare TypeError, and an int
    # n was signed as n zero bytes.
    "run_signing_session of a str message": (
        lambda: run_signing_session(KEYS, "hello", SEED),
        WrongType,
        TypeError,
    ),
    "run_trials of an int message": (
        lambda: next(run_trials(P251, 1, seed=SEED, message=5)),
        WrongType,
        TypeError,
    ),
    # Trial counts that are not ints: each reached range() and raised a bare
    # TypeError.
    "estimate_correctness of a float trial count": (
        lambda: estimate_correctness(251, 2.5),
        WrongType,
        TypeError,
    ),
    "estimate_core_forgery of a float trial count": (
        lambda: estimate_core_forgery(251, 2.5),
        WrongType,
        TypeError,
    ),
    "estimate_unforgeability of a float trial count": (
        lambda: estimate_unforgeability(251, "substitute-guess-k1", 2.5),
        WrongType,
        TypeError,
    ),
    "run_suite of a str trial count": (lambda: run_suite(5, "core", "3"), WrongType, TypeError),
    "_wire_parts without an encoding": (
        lambda: RevealPoint(7, P251.one).to_wire(),
        WrongType,
        TypeError,
    ),
    "run_suite suite name": (lambda: run_suite(5, "no-such", 1), ProtocolMisuse, ValueError),
    "result_json_line of a non-result": (lambda: result_json_line(0.5), WrongType, TypeError),
    "wilson_interval range": (lambda: wilson_interval(4, 3), ProtocolMisuse, ValueError),
    "_sqrt_upper of a negative": (
        lambda: _sqrt_upper(Fraction(-1, 2)),
        ProtocolMisuse,
        ValueError,
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_raise_site_is_typed_and_keeps_its_builtin(site):
    call, typed, builtin = SITES[site]
    with pytest.raises(typed):
        call()
    with pytest.raises(builtin):
        call()
