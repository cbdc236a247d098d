"""Library raise sites reachable from a caller's input: each raises a typed
SilmarilsError that is still the builtin (for ModulusMismatch, the library
error) it raised before.  The verifier's type checks are the exception: a
non-Signature there raised AttributeError and now raises WrongType, a
TypeError."""

from fractions import Fraction

import pytest

from silmarils.errors import (
    LengthMismatch,
    MalformedInput,
    ModulusMismatch,
    ProtocolMisuse,
    WrongType,
)
from silmarils.field import Prime
from silmarils.hashing import PairKey, derive_receipt
from silmarils.net_sim import AdversaryHook, Envelope, Role, Session
from silmarils.rng import Rng
from silmarils.stats import _keys_for, _sqrt_upper, result_json_line, run_suite, wilson_interval
from silmarils.sss import Weights
from silmarils.three_party import (
    RevealPoint,
    force_coins,
    interpret_value,
    open_signing_session,
)
from silmarils.two_party import (
    KeyMaterial,
    Signature,
    dv_forge,
    extract_params,
    sign,
    sign_accepted,
    sign_many,
    verify,
    verify_public_r,
    verify_with_receipt,
)

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
    "Rng seed type": (lambda: Rng("not bytes"), WrongType, TypeError),
    "Rng negative take": (lambda: Rng(SEED).take(-1), ProtocolMisuse, ValueError),
    "Session without the corrupted role": (
        lambda: Session({Role.P1: object()}, AdversaryHook(Role.P2)),
        ProtocolMisuse,
        ValueError,
    ),
    "Session forged sender": (
        lambda: _session(AdversaryHook(Role.P2, rewrite=_forge_sender)).run(2),
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
