"""Seven-round authenticated-transfer sessions: arms, attacks, determinism."""

import copy
import dataclasses
import enum
import pickle

import pytest

from silmarils.field import Prime
from silmarils.hashing import authenticated_value
from silmarils.net_sim import (
    AdversaryHook,
    Envelope,
    Role,
    run_session,
    transcript_lines,
    view_of,
)
from silmarils.rng import Rng
from silmarils.stats import STRATEGIES, get_strategy, run_trials
from silmarils.three_party import (
    ROUND_CHALLENGE,
    ROUND_P3_CHECK,
    ROUND_RESOLUTION,
    ROUND_SETUP,
    TOTAL_ROUNDS,
    AuditVerdict,
    Challenge,
    ChallengeVerdict,
    HolderSetup,
    LineVerdict,
    P1Signer,
    P2Holder,
    P3Verifier,
    RevealLine,
    RevealPoint,
    TransferValue,
    VerifierSetup,
    _wire_parts,
    force_coins,
    interpret_value,
    open_signing_session,
    run_signing_session,
    signing_result,
)
from silmarils.two_party import Params, Signature, keygen

P251 = Prime(251)
SEED = b"\x5a" * 32


def _keys(prime=P251, seed=b"\x09" * 32):
    rng = Rng(seed)
    params = Params.generate(prime, rng.fork(b"params"))
    return keygen(params, rng.fork(b"keys"))


KEYS = _keys()
MSG = b"three party message"


def test_honest_session_resolves_arm_b_and_transfers():
    res = run_signing_session(KEYS, MSG, SEED, interpret=True)
    assert res.arm == "B"
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x
    assert res.accepted is True
    # every verdict broadcast is an accept in the honest run
    assert {v[2] for v in res.outcome.verdicts} == {"accept"}
    broadcasts = [env for env in res.transcript if env.is_broadcast]
    assert all(
        [env for env in view_of(res.transcript, role) if env.is_broadcast] == broadcasts
        for role in Role
    )


def test_session_is_deterministic():
    a = run_signing_session(KEYS, MSG, SEED)
    b = run_signing_session(KEYS, MSG, SEED)
    assert [e.payload.to_wire() for e in a.transcript] == [
        e.payload.to_wire() for e in b.transcript
    ]
    c = run_signing_session(KEYS, MSG, b"\x5b" * 32)
    assert [e.payload.to_wire() for e in a.transcript] != [
        e.payload.to_wire() for e in c.transcript
    ]


@pytest.mark.parametrize("name", [None, *sorted(STRATEGIES)])
def test_a_session_opens_alike_from_its_seed_and_from_its_rng(name):
    # run_trials passes each trial's Rng after forking the adversary from it.
    def hook(root):
        return STRATEGIES[name].hook(P251, root.fork(b"adversary")) if name else None

    for i in range(10):
        seed = i.to_bytes(32, "big")
        rng = Rng(seed)
        a = run_signing_session(KEYS, MSG, rng, adversary=hook(rng))
        b = run_signing_session(KEYS, MSG, seed, adversary=hook(Rng(seed)))
        assert rng.take(16) == Rng(seed).take(16)  # forks leave the root unmoved
        assert transcript_lines(a.transcript) == transcript_lines(b.transcript)
        assert (a.outcome.z2, a.outcome.z3, a.arm, a.x) == (b.outcome.z2, b.outcome.z3, b.arm, b.x)


def test_x_binds_message_and_signature():
    res = run_signing_session(KEYS, MSG, SEED)
    assert res.x == authenticated_value(MSG, res.sig_alg.encode(), P251)


def test_forced_ic_coins_are_used():
    coins = (P251.elt(3), P251.elt(7), P251.elt(11), P251.elt(13))
    res = run_signing_session(KEYS, MSG, SEED, ic_coins=coins)
    dealt = {
        type(env.payload): env.payload
        for env in res.transcript
        if env.round == ROUND_SETUP
    }
    setup, keys = dealt[HolderSetup], dealt[VerifierSetup]
    assert (keys.k1, keys.k2, setup.x_prime, keys.k2_prime) == coins
    assert setup.sigma == coins[0] * res.x + coins[1]
    assert res.arm == "B" and res.outcome.z3 == res.x


def test_arm_a_garbled_challenge_triggers_reveal():
    # Corrupt P2 garbles its broadcast combination; P1 publishes the true
    # point, both outputs converge on it, and the session self-heals.
    def garble(env: Envelope, view) -> list:
        if env.round == ROUND_CHALLENGE and isinstance(env.payload, Challenge):
            ch = env.payload
            bad = Challenge(ch.e, ch.x_e + P251.one, ch.sigma_e)
            return [Envelope(env.round, env.sender, env.recipient, bad)]
        return [env]

    res = run_signing_session(
        KEYS, MSG, SEED,
        adversary=AdversaryHook(corrupted=Role.P2, rewrite=garble),
        interpret=True,
    )
    assert res.arm == "A"
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x
    assert res.accepted is True
    assert ("P2 corrupt") in {v[2] for v in res.outcome.verdicts}


def test_substitute_attack_success_iff_guess_hits_k1():
    strategy = get_strategy("substitute-guess-k1")
    coins = (P251.elt(42), P251.elt(7), P251.elt(11), P251.elt(13))  # k1 = 42

    wrong = strategy.hook(P251, Rng(SEED), ghat=P251.elt(41), offset=P251.one)
    res = run_signing_session(KEYS, MSG, SEED, adversary=wrong, ic_coins=coins)
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 is None  # forged point misses the line: bottom

    right = strategy.hook(P251, Rng(SEED), ghat=P251.elt(42), offset=P251.one)
    res = run_signing_session(KEYS, MSG, SEED, adversary=right, ic_coins=coins)
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x + P251.one  # accepted forgery
    assert res.outcome.z3 != res.x


def test_substitute_forgery_never_interprets():
    # Even a line-accepted forged x fails interpretation: x no longer matches
    # H(message, signature).
    strategy = get_strategy("substitute-guess-k1")
    coins = (P251.elt(42), P251.elt(7), P251.elt(11), P251.elt(13))
    right = strategy.hook(P251, Rng(SEED), ghat=P251.elt(42), offset=P251.one)
    res = run_signing_session(
        KEYS, MSG, SEED, adversary=right, ic_coins=coins, interpret=True
    )
    assert res.outcome.z3 is not None and res.outcome.z3 != res.x
    assert res.accepted is False


def test_inconsistent_line_caught_unless_challenge_blind_spot():
    strategy = get_strategy("inconsistent-line")

    # e forced off the blind spot: P1's own check fails, arm A reveals truth.
    adv = strategy.hook(P251, Rng(SEED), delta=P251.elt(5), delta_prime=P251.zero)
    res = run_signing_session(
        KEYS, MSG, SEED, adversary=adv, challenge_coin=P251.elt(9)
    )
    assert res.arm == "A"
    assert res.outcome.z2 == res.x and res.outcome.z3 == res.x

    # blind spot e = -delta_prime/delta = 0: tampering survives the challenge,
    # P2 keeps the offset point, and the transfer dies at P3 instead.
    adv = strategy.hook(P251, Rng(SEED), delta=P251.elt(5), delta_prime=P251.zero)
    res = run_signing_session(
        KEYS, MSG, SEED, adversary=adv, challenge_coin=P251.zero
    )
    assert res.arm == "B"
    assert res.outcome.z2 == res.x  # the held x was never altered
    assert res.outcome.z3 is None


def test_verifier_first_setup_wins():
    verifier = P3Verifier(P251)
    first = VerifierSetup(P251.elt(1), P251.elt(2), P251.elt(3))
    second = VerifierSetup(P251.elt(9), P251.elt(9), P251.elt(9))
    verifier.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P3, first))
    verifier.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P3, second))
    assert (verifier.k1, verifier.k2) == (first.k1, first.k2)


def test_holder_first_setup_wins():
    holder = P2Holder(P251, Rng(SEED))
    envs = P1Signer(KEYS, MSG, Rng(b"\x77" * 32)).start()
    setup = envs[0].payload
    holder.deliver(envs[0])
    tampered = dataclasses.replace(setup, x=setup.x + P251.one)
    holder.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P2, tampered))
    assert holder.cur_x == setup.x


def test_interpret_value_paths():
    res = run_signing_session(KEYS, MSG, SEED)
    sig, x, nonce = res.sig_alg, res.x, res.nonce
    assert interpret_value(KEYS.pk, MSG, sig, x, nonce=nonce)
    assert not interpret_value(KEYS.pk, MSG, sig, x + P251.one, nonce=nonce)
    assert not interpret_value(KEYS.pk, b"other", sig, x, nonce=nonce)


def test_starved_parties_fail_closed():
    # A corrupt signer that sends nothing: the session still totals, with
    # bottom outputs rather than hangs or crashes.
    def blackout(env: Envelope, view) -> list:
        return []

    res = run_signing_session(
        KEYS, MSG, SEED, adversary=AdversaryHook(corrupted=Role.P1, rewrite=blackout)
    )
    # P2 challenges over zeros, so P1's own check fails (arm A), and the
    # keyless P3 rejects; P1's round-3 reveal never leaves it.
    assert res.arm == "A"
    assert res.outcome.verdicts == [(4, "P3", "reject")]
    assert res.outcome.z2 is None
    assert res.outcome.z3 is None
    # The ground truth is still the signer's own x.
    assert res.x == authenticated_value(MSG, res.sig_alg.encode(), P251)


def test_starved_holder_and_keyless_verifier_stay_total():
    # Two corrupt signers that starve a party of its setup.  One drops P2's
    # HolderSetup and its round-3 reveal, so P2 transfers no point to a
    # keyed P3; the other sends P3 a RevealPoint in place of its keys, so P3
    # holds k1 and k2 but no k2'.  Both sessions end, with z3 in {x, bottom}.
    def starve_holder(env: Envelope, view) -> list:
        if isinstance(env.payload, (HolderSetup, ChallengeVerdict)):
            return []
        return [env]

    def reveal_for_keys(env: Envelope, view) -> list:
        if isinstance(env.payload, VerifierSetup):
            fake = RevealPoint(P251.elt(3), P251.elt(4))
            return [Envelope(env.round, env.sender, env.recipient, fake)]
        return [env]

    for rewrite in (starve_holder, reveal_for_keys):
        hook = AdversaryHook(corrupted=Role.P1, rewrite=rewrite)
        res = run_signing_session(KEYS, MSG, SEED, adversary=hook, interpret=True)
        assert res.outcome.z3 in {res.x, None}
        assert (4, "P3", "reject") in res.outcome.verdicts


def test_role_identity_hash_changes_no_lookup_or_session(monkeypatch):
    assert hash(Role.P1) == object.__hash__(Role.P1)
    table = {Role.P1: "signer", Role.P2: "holder", Role.P3: "verifier"}
    assert [table[r] for r in (Role("P1"), Role["P2"], Role.P3)] == [
        "signer", "holder", "verifier",
    ]
    assert {Role.P2, Role.P1} == {Role("P1"), Role["P2"]} and Role.P3 not in {Role.P1}
    assert pickle.loads(pickle.dumps(Role.P2)) is Role.P2
    assert copy.deepcopy(table) == table

    def sessions():
        runs = []
        for name in (None, "substitute-guess-k1", "inconsistent-line"):
            attack = get_strategy(name) if name else None
            for res in run_trials(P251, 8, seed=SEED, strategy=attack):
                # Role-keyed dicts become item lists: they are compared after
                # the hash changes, when the old dicts can no longer be probed.
                runs.append((
                    (res.outcome, res.x, res.arm),
                    transcript_lines(res.transcript),
                    [(role, view_of(res.transcript, role)) for role in Role],
                ))
        return runs

    with_identity_hash = sessions()
    monkeypatch.setattr(Role, "__hash__", enum.Enum.__hash__)
    assert hash(Role.P1) == hash("P1")
    assert sessions() == with_identity_hash


def _pinned_payloads() -> list:
    """(payload, wire hex) for every payload kind; see the test below."""
    e = P251.elt
    sig = Signature(e(1), e(2), e(3), e(4), e(250))
    sig_part = "020000000000000005" "01020304fa"
    msg_part = "020000000000000003" "6d7367"
    tag = "020000000000000001"
    return [
        (
            HolderSetup(e(10), e(11), e(12), e(13), b"msg", sig, e(14)),
            tag + "10" "030a" "030b" "030c" "030d" + msg_part + sig_part + "030e",
        ),
        (VerifierSetup(e(20), e(21), e(22)), tag + "11" "0314" "0315" "0316"),
        (Challenge(e(30), e(31), e(32)), tag + "12" "031e" "031f" "0320"),
        (ChallengeVerdict(True), tag + "13" "0101" "00" "00"),
        (ChallengeVerdict(False, e(40), e(41)), tag + "13" "0100" "0328" "0329"),
        (LineVerdict(True), tag + "14" "0101"),
        (LineVerdict(False), tag + "14" "0100"),
        (AuditVerdict(True), tag + "15" "0101"),
        (AuditVerdict(False), tag + "15" "0100"),
        (RevealPoint(e(50), e(51)), tag + "16" "0332" "0333"),
        (RevealLine(e(60), e(61)), tag + "17" "033c" "033d"),
        (
            TransferValue(e(70), e(71), b"msg", sig, e(72)),
            tag + "18" "0346" "0347" + msg_part + sig_part + "0348",
        ),
        (
            TransferValue(e(0), e(0), b"", None, None),
            tag + "18" "0300" "0300" "020000000000000000" "00" "00",
        ),
    ]


def test_payload_wire_bytes():
    # Each payload is its tag as a one-byte message (02, 8-byte length 1,
    # tag), then its fields in declared order: 00 None, 01+byte bool,
    # 02+8-byte length+bytes for message and signature, 03+element.
    for payload, wire in _pinned_payloads():
        assert payload.to_wire().hex() == wire, payload
    with pytest.raises(TypeError):
        RevealPoint(7, P251.elt(51)).to_wire()


def _encode_fields(payload) -> bytes:
    fields = dataclasses.fields(payload)
    return _wire_parts(payload.tag, *(getattr(payload, f.name) for f in fields))


def test_payload_wire_cache_is_invisible():
    # to_wire keeps its bytes on the instance: the first and every later call
    # equal a fresh encoding of the declared fields, and the record behaves
    # as if nothing were kept.  A replace() starts without the cache.
    for payload, _ in _pinned_payloads():
        twin = dataclasses.replace(payload)
        before = (repr(payload), hash(payload), dataclasses.fields(payload))
        assert payload.to_wire() == payload.to_wire() == _encode_fields(payload)
        assert (repr(payload), hash(payload), dataclasses.fields(payload)) == before
        assert payload == twin and twin == payload and hash(twin) == hash(payload)
        assert repr(twin) == repr(payload)
        assert dataclasses.replace(payload).to_wire() == payload.to_wire()
        first = dataclasses.fields(payload)[0].name
        value = getattr(payload, first)
        other = not value if isinstance(value, bool) else value + P251.one
        changed = dataclasses.replace(payload, **{first: other})
        assert changed != payload
        assert changed.to_wire() == _encode_fields(changed) != payload.to_wire()


def test_payload_fields_are_immutable():
    # A payload's cached bytes stay true only if its fields cannot change:
    # the records are frozen, and a bytearray message is frozen to bytes.
    setup = open_signing_session(KEYS, MSG, SEED).run(ROUND_SETUP).parties[Role.P1].setup
    with pytest.raises(dataclasses.FrozenInstanceError):
        setup.message = b"other"
    message = bytearray(MSG)
    signer = P1Signer(KEYS, message, Rng(SEED))
    message[0] ^= 1
    assert type(signer.message) is bytes and signer.message == MSG
    fresh = run_signing_session(KEYS, MSG, SEED)
    res = run_signing_session(KEYS, bytearray(MSG), SEED)
    assert type(res.transcript[0].payload.message) is bytes
    assert transcript_lines(res.transcript) == transcript_lines(fresh.transcript)


def test_honest_verdicts_are_shared_instances():
    a = run_signing_session(KEYS, MSG, SEED)
    b = run_signing_session(KEYS, MSG, b"\x5b" * 32)
    broadcasts = [
        (x.payload, y.payload)
        for x, y in zip(a.transcript, b.transcript)
        if x.payload.tag in (b"\x13", b"\x14", b"\x15")
    ]
    assert len(broadcasts) == 3
    assert all(x is y for x, y in broadcasts)


class _Odd:
    """A value a corrupt party can put in a verdict: == yields a list."""

    def __eq__(self, other):
        return [other]


@pytest.mark.parametrize(
    "corrupted, swap, verdicts",
    [
        (
            Role.P3, LineVerdict(None),
            [(3, "P1", "accept"), (4, "P3", "malformed"), (5, "P1", "P3 corrupt")],
        ),
        (
            Role.P1, ChallengeVerdict(2),
            [(3, "P1", "malformed"), (4, "P3", "accept"), (5, "P1", "accept")],
        ),
        (
            # P1's audit compares against an _Odd ok and gets a list back.
            Role.P3, LineVerdict(_Odd()),
            [(3, "P1", "accept"), (4, "P3", "malformed"), (5, "P1", "malformed")],
        ),
    ],
    ids=["line-none", "challenge-2", "line-odd"],
)
def test_malformed_verdicts_never_raise(corrupted, swap, verdicts):
    # A corrupt party swaps its verdict for one whose ok is not a bool; the
    # session stays total and its verdict list reads the swap as malformed.
    def rewrite(env: Envelope, view) -> list:
        if isinstance(env.payload, type(swap)):
            return [Envelope(env.round, env.sender, env.recipient, swap)]
        return [env]

    adversary = AdversaryHook(corrupted=corrupted, rewrite=rewrite)
    res = run_signing_session(KEYS, MSG, SEED, adversary=adversary)
    assert res.outcome.verdicts == verdicts
    assert res.outcome.z2 == res.x


def _run_parties(keys, adversary, *, ic_coins=None):
    """One session through run_session with the party objects kept, so a
    test can read the state each party ended in."""
    root = Rng(SEED)
    parties = {
        Role.P1: P1Signer(keys, MSG, root.fork(b"tape/P1"), ic_coins=ic_coins),
        Role.P2: P2Holder(P251, root.fork(b"tape/P2")),
        Role.P3: P3Verifier(P251),
    }
    transcript = run_session(parties, adversary, total_rounds=TOTAL_ROUNDS)
    return parties, transcript


def test_arm_d_false_reject_reveals_the_line():
    # A corrupt P3 flips its round-4 verdict to reject.  P1's audit sees the
    # challenge on the line, declares "P3 corrupt" and reveals (k1, k2); P2
    # re-derives sigma from it, P3 adopts it, and the transfer still lands.
    def flip(env: Envelope, view) -> list:
        if env.round == ROUND_P3_CHECK and isinstance(env.payload, LineVerdict):
            return [Envelope(env.round, env.sender, env.recipient, LineVerdict(False))]
        return [env]

    adversary = AdversaryHook(corrupted=Role.P3, rewrite=flip)
    res = run_signing_session(KEYS, MSG, SEED, adversary=adversary, interpret=True)
    assert res.arm == "D"
    assert res.outcome.z2 == res.outcome.z3 == res.x
    assert res.accepted is True
    assert [v[2] for v in res.outcome.verdicts] == ["accept", "reject", "P3 corrupt"]

    coins = (P251.elt(42), P251.elt(7), P251.elt(11), P251.elt(13))
    parties, transcript = _run_parties(KEYS, adversary, ic_coins=coins)
    x = parties[Role.P1].setup.x
    reveals = [env.payload for env in transcript if env.round == ROUND_RESOLUTION]
    assert reveals == [RevealLine(coins[0], coins[1])]
    holder, verifier = parties[Role.P2], parties[Role.P3]
    assert holder.cur_sigma == coins[0] * x + coins[1]
    assert verifier.transfer_payload.sigma == holder.cur_sigma
    assert (verifier.k1, verifier.k2) == (coins[0], coins[1])
    assert holder.z2 == verifier.z3 == x

    # Held off the revealed line, P2 moves sigma onto it and keeps x.
    holder = P2Holder(P251, Rng(SEED))
    x = P251.elt(5)
    off_line = HolderSetup(x, P251.elt(6), P251.elt(99), P251.elt(98), MSG, None, None)
    holder.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P2, off_line))
    holder.deliver(Envelope(ROUND_RESOLUTION, Role.P1, None, RevealLine(*coins[:2])))
    assert (holder.cur_x, holder.cur_sigma) == (x, coins[0] * x + coins[1])


def test_arm_d_silent_p3_is_judged_corrupt():
    # A corrupt P3 drops its round-4 verdict.  With no declaration to judge,
    # P1 declares "P3 corrupt" and reveals the line; the transfer still lands.
    def mute(env: Envelope, view) -> list:
        if env.round == ROUND_P3_CHECK:
            return []
        return [env]

    adversary = AdversaryHook(corrupted=Role.P3, rewrite=mute)
    res = run_signing_session(KEYS, MSG, SEED, adversary=adversary, interpret=True)
    assert res.arm == "D"
    assert res.outcome.verdicts == [(3, "P1", "accept"), (5, "P1", "P3 corrupt")]
    assert res.outcome.z2 == res.outcome.z3 == res.x
    assert res.accepted is True


FAKE = (P251.elt(77), P251.elt(88))


def _reveal_point_instead(*, starve_p3=False, force_arm_a=False):
    """A corrupt P1 that swaps its round-6 reveal for RevealPoint(FAKE).

    P1 only reveals in round 6 after an audit failure, so the hook provokes
    one: it garbles P3's k2' (P3 then rejects the honest challenge), or
    drops P3's keys altogether (a starved P3 rejects), or publishes the true
    point in round 3 (arm A, after which P3 stays silent in round 4)."""

    def rewrite(env: Envelope, view) -> list:
        payload = env.payload
        if isinstance(payload, VerifierSetup):
            if starve_p3:
                return []
            bad = VerifierSetup(payload.k1, payload.k2, payload.k2_prime + P251.one)
            return [Envelope(env.round, env.sender, env.recipient, bad)]
        if force_arm_a and isinstance(payload, ChallengeVerdict):
            setup = view.sent[0].payload
            reveal = ChallengeVerdict(False, setup.x, setup.sigma)
            return [Envelope(env.round, env.sender, None, reveal)]
        if env.round == ROUND_RESOLUTION:
            return [Envelope(env.round, env.sender, None, RevealPoint(*FAKE))]
        return [env]

    return AdversaryHook(corrupted=Role.P1, rewrite=rewrite)


@pytest.mark.parametrize("starve_p3", [False, True], ids=["keyed-p3", "starved-p3"])
def test_reveal_point_is_adopted_before_arm_a(starve_p3):
    parties, transcript = _run_parties(KEYS, _reveal_point_instead(starve_p3=starve_p3))
    assert [env.payload for env in transcript if env.round == ROUND_RESOLUTION] == [
        RevealPoint(*FAKE)
    ]
    assert parties[Role.P1].arm == "D"
    holder, verifier = parties[Role.P2], parties[Role.P3]
    assert (holder.cur_x, holder.cur_sigma) == FAKE
    if starve_p3:
        # No keys to keep: P3 re-keys with k1 = 0, so k2 = sigma.
        assert (verifier.k1, verifier.k2) == (P251.zero, FAKE[1])
    assert verifier.k2 == FAKE[1] - verifier.k1 * FAKE[0]
    assert holder.z2 == verifier.z3 == FAKE[0]


def test_reveal_point_after_arm_a_is_a_dead_letter():
    parties, transcript = _run_parties(KEYS, _reveal_point_instead(force_arm_a=True))
    x = parties[Role.P1].setup.x
    broadcasts = [env for env in transcript if env.is_broadcast]
    sent = [(env.round, type(env.payload)) for env in broadcasts]
    assert (3, ChallengeVerdict) in sent and (6, RevealPoint) in sent
    assert not any(env.sender is Role.P3 for env in broadcasts)
    assert parties[Role.P2].cur_x == x
    assert parties[Role.P2].z2 == parties[Role.P3].z3 == x


def test_revealless_failing_challenge_verdict_is_silence():
    # A corrupt P1 broadcasts ChallengeVerdict(False) with no reveal in round
    # 3.  P2 and P3 treat it as silence: P2 keeps x, P3 stays out of arm A,
    # and the session returns with z3 in {x, bottom}.
    def rewrite(env: Envelope, view) -> list:
        if isinstance(env.payload, ChallengeVerdict):
            return [Envelope(env.round, env.sender, None, ChallengeVerdict(False))]
        return [env]

    adversary = AdversaryHook(corrupted=Role.P1, rewrite=rewrite)
    for i in range(20):
        res = run_signing_session(KEYS, MSG, i.to_bytes(32, "big"), adversary=adversary)
        assert res.outcome.z2 == res.x
        assert res.outcome.z3 in (res.x, None)


def _session_state(session) -> tuple:
    """Everything a branch could disturb: each party's attributes and tape
    position, what the corrupted party sent and the transcript (the rest of
    its view is read off the transcript)."""
    parties = session.parties
    return (
        {role: dict(vars(party)) for role, party in parties.items()},
        {role: party._rng.copy().take(16) for role, party in parties.items()
         if hasattr(party, "_rng")},
        session._view and list(session._view.sent),
        list(session.result()),
    )


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_branch_leaves_its_stem_and_siblings_untouched(name):
    strategy = STRATEGIES[name]
    stem = open_signing_session(
        KEYS, MSG, SEED, adversary=AdversaryHook(strategy.corrupted)
    ).run(strategy.acts_in - 1)
    before = _session_state(stem)
    first = stem.branch(strategy.hook(P251, Rng(b"\x01" * 32))).run(TOTAL_ROUNDS)
    first_state = _session_state(first)
    assert _session_state(stem) == before
    second = stem.branch(strategy.hook(P251, Rng(b"\x02" * 32))).run(TOTAL_ROUNDS)
    assert _session_state(stem) == before
    assert _session_state(first) == first_state
    assert first.result() != second.result()
    assert all(s._view.transcript is s.result() for s in (stem, first, second))
    other = Role.P3 if strategy.corrupted is not Role.P3 else Role.P1
    with pytest.raises(ValueError):
        stem.branch(AdversaryHook(other))
    with pytest.raises(ValueError):
        stem.branch(None)


@pytest.mark.parametrize("name", [None, *sorted(STRATEGIES)])
def test_every_tape_lives_in_rng(name):
    # A branch copies the attribute dict and only the tape in _rng; a tape
    # under any other name would be shared, and advanced, by stem and twins.
    hook = STRATEGIES[name].hook(P251, Rng(b"\x03" * 32)) if name else None
    session = open_signing_session(KEYS, MSG, SEED, adversary=hook)
    for rnd in range(TOTAL_ROUNDS + 1):
        session.run(rnd)
        for role, party in session.parties.items():
            stray = [k for k, v in vars(party).items() if isinstance(v, Rng) and k != "_rng"]
            assert not stray, (rnd, role, stray)


COINS = (P251.elt(3), P251.elt(7), P251.elt(11), P251.elt(13))
E = P251.elt(9)


def test_force_coins_refuses_a_coin_already_drawn():
    base = open_signing_session(KEYS, MSG, SEED)
    dealt = force_coins(base, ic_coins=COINS).run(ROUND_SETUP)
    with pytest.raises(ValueError):
        force_coins(dealt, ic_coins=COINS)
    challenged = force_coins(dealt, challenge_coin=E).run(ROUND_CHALLENGE)
    with pytest.raises(ValueError):
        force_coins(challenged, challenge_coin=E)
    assert force_coins(challenged).rounds_run == ROUND_CHALLENGE


def test_forced_twin_equals_a_fresh_session_and_leaves_its_base_untouched():
    fresh = run_signing_session(KEYS, MSG, SEED, ic_coins=COINS, challenge_coin=E)
    base = open_signing_session(KEYS, MSG, SEED)
    before = _session_state(base)
    for twin in (
        force_coins(base, ic_coins=COINS, challenge_coin=E),
        force_coins(force_coins(base, ic_coins=COINS).run(ROUND_SETUP), challenge_coin=E),
    ):
        res = signing_result(twin.run(TOTAL_ROUNDS))
        assert _session_state(base) == before
        assert transcript_lines(res.transcript) == transcript_lines(fresh.transcript)
        assert (res.x, res.arm, res.outcome.z2, res.outcome.z3) == (
            fresh.x, fresh.arm, fresh.outcome.z2, fresh.outcome.z3
        )
    assert base.rounds_run == 0
    challenge = next(env.payload for env in fresh.transcript if env.round == ROUND_CHALLENGE)
    assert challenge.e == E
