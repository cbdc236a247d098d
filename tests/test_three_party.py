"""Seven-round authenticated-transfer sessions: arms, attacks, determinism."""

import copy
import dataclasses
import enum
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silmarils.field import SECURE_PRIME_VALUE, FieldElement, Prime, count_field_ops
from silmarils.hashing import authenticated_value
from silmarils.net_sim import (
    AdversaryHook,
    Envelope,
    Role,
    transcript_lines,
    view_of,
)
from silmarils.rng import Rng
from silmarils.stats import STRATEGIES, _keys_for, get_strategy, make_estimate, run_trials
from silmarils.three_party import (
    ROUND_AUDIT,
    ROUND_CHALLENGE,
    ROUND_P1_CHECK,
    ROUND_P3_CHECK,
    ROUND_RESOLUTION,
    ROUND_SETUP,
    ROUND_TRANSFER,
    SCHEMA,
    TOTAL_ROUNDS,
    AuditVerdict,
    Challenge,
    ChallengeVerdict,
    HolderSetup,
    LineVerdict,
    P2Holder,
    P3Verifier,
    RevealLine,
    RevealPoint,
    TransferValue,
    VerifierSetup,
    _line,
    _wire_parts,
    admissible,
    force_coins,
    interpret_value,
    open_signing_session,
    open_signing_sessions,
    run_signing_session,
    signing_result,
)
from silmarils.two_party import Params, Signature, keygen, sign

from .oracles import admissible_by_schema, line_by_elements, per_envelope

P251 = Prime(251)
SEED = b"\x5a" * 32


def _keys(prime=P251, seed=b"\x09" * 32):
    rng = Rng(seed)
    params = Params.generate(prime, rng.fork(b"params"))
    return keygen(params, rng.fork(b"keys"))


KEYS = _keys()
MSG = b"three party message"


def _run_forced(adversary=None, interpret=False, **coins):
    """run_signing_session(KEYS, MSG, SEED) with coins forced by force_coins."""
    session = force_coins(open_signing_session(KEYS, MSG, SEED, adversary=adversary), **coins)
    return signing_result(session.run(TOTAL_ROUNDS), interpret=interpret)


def test_honest_session_resolves_arm_b_and_transfers():
    res = run_signing_session(KEYS, MSG, SEED, interpret=True)
    assert res.arm == "B"
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x
    assert res.accepted is True
    # every verdict broadcast is an accept in the honest run
    assert {v[2] for v in res.outcome.verdicts} == {"accept"}
    broadcasts = [env for env in res.outcome.transcript if env.is_broadcast]
    assert all(
        [env for env in view_of(res.outcome.transcript, role) if env.is_broadcast] == broadcasts
        for role in Role
    )


def test_session_is_deterministic():
    a = run_signing_session(KEYS, MSG, SEED)
    b = run_signing_session(KEYS, MSG, SEED)
    assert [e.payload.to_wire() for e in a.outcome.transcript] == [
        e.payload.to_wire() for e in b.outcome.transcript
    ]
    c = run_signing_session(KEYS, MSG, b"\x5b" * 32)
    assert [e.payload.to_wire() for e in a.outcome.transcript] != [
        e.payload.to_wire() for e in c.outcome.transcript
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
        assert transcript_lines(a.outcome.transcript) == transcript_lines(b.outcome.transcript)
        assert (a.outcome.z2, a.outcome.z3, a.arm, a.x) == (b.outcome.z2, b.outcome.z3, b.arm, b.x)


def test_p1_signs_as_sign_does_and_leaves_its_tape_where_sign_does():
    # Messages alternate, so a nonce left in the receipt memo by the last
    # message would show.  Every P1 of a batch signs in one _sign_batch, and
    # each ends as one sign call on its own b"tape/P1" fork does.
    for i, (msg, batch) in enumerate([(MSG, 1), (b"other", 3), (MSG, 65), (b"other", 1)]):
        seeds = [bytes([i]) + j.to_bytes(31, "big") for j in range(batch)]
        sessions = open_signing_sessions(KEYS, msg, seeds, [None] * batch)
        assert len(sessions) == batch
        for seed, session in zip(seeds, sessions):
            p1 = session.parties[Role.P1]
            twin = Rng(seed).fork(b"tape/P1")
            sig, signing_tape = sign(KEYS, msg, twin)
            assert p1.sig_alg == sig
            assert p1.nonce == signing_tape.n
            assert p1._rng.take(16) == twin.take(16)


def test_opening_no_sessions_draws_nothing(monkeypatch):
    taken = []
    take = Rng.take
    monkeypatch.setattr(Rng, "take", lambda rng, n: taken.append(n) or take(rng, n))
    assert open_signing_sessions(KEYS, MSG, [], []) == []
    assert taken == []
    assert open_signing_session(KEYS, MSG, SEED).parties[Role.P1].sig_alg  # the patch counts
    assert taken


def test_x_binds_message_and_signature():
    res = run_signing_session(KEYS, MSG, SEED)
    assert res.x == authenticated_value(MSG, res.sig_alg.encode(), P251)


def test_forced_ic_coins_are_used():
    coins = (P251.elt(3), P251.elt(7), P251.elt(11), P251.elt(13))
    res = _run_forced(ic_coins=coins)
    dealt = {
        type(env.payload): env.payload
        for env in res.outcome.transcript
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
        adversary=AdversaryHook(corrupted=Role.P2, rewrite=per_envelope(garble)),
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
    res = _run_forced(adversary=wrong, ic_coins=coins)
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 is None  # forged point misses the line: bottom

    right = strategy.hook(P251, Rng(SEED), ghat=P251.elt(42), offset=P251.one)
    res = _run_forced(adversary=right, ic_coins=coins)
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x + P251.one  # accepted forgery
    assert res.outcome.z3 != res.x


def test_substitute_forgery_never_interprets():
    # Even a line-accepted forged x fails interpretation: x no longer matches
    # H(message, signature).
    strategy = get_strategy("substitute-guess-k1")
    coins = (P251.elt(42), P251.elt(7), P251.elt(11), P251.elt(13))
    right = strategy.hook(P251, Rng(SEED), ghat=P251.elt(42), offset=P251.one)
    res = _run_forced(adversary=right, ic_coins=coins, interpret=True)
    assert res.outcome.z3 is not None and res.outcome.z3 != res.x
    assert res.accepted is False


def test_inconsistent_line_caught_unless_challenge_blind_spot():
    strategy = get_strategy("inconsistent-line")

    # e forced off the blind spot: P1's own check fails, arm A reveals truth.
    adv = strategy.hook(P251, Rng(SEED), delta=P251.elt(5), delta_prime=P251.zero)
    res = _run_forced(adversary=adv, challenge_coin=P251.elt(9))
    assert res.arm == "A"
    assert res.outcome.z2 == res.x and res.outcome.z3 == res.x

    # blind spot e = -delta_prime/delta = 0: tampering survives the challenge,
    # P2 keeps the offset point, and the transfer dies at P3 instead.
    adv = strategy.hook(P251, Rng(SEED), delta=P251.elt(5), delta_prime=P251.zero)
    res = _run_forced(adversary=adv, challenge_coin=P251.zero)
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
    envs = open_signing_session(KEYS, MSG, b"\x77" * 32).parties[Role.P1].emit(ROUND_SETUP)
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
        KEYS, MSG, SEED, adversary=AdversaryHook(corrupted=Role.P1, rewrite=per_envelope(blackout))
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
    # keyed P3; the other sends P3 a round-1 RevealPoint in place of its
    # keys, a dead letter, so P3 is keyless and rejects.  On route P3 can
    # never hold k1 and k2 without k2' at round 4: only round 3's arm-A
    # reveal re-keys it that early, and arm A makes P3 silent in round 4.
    # Both sessions end, with z3 in {x, bottom}.
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
        hook = AdversaryHook(corrupted=Role.P1, rewrite=per_envelope(rewrite))
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
                    transcript_lines(res.outcome.transcript),
                    [(role, view_of(res.outcome.transcript, role)) for role in Role],
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
    signer = open_signing_session(KEYS, message, SEED).parties[Role.P1]
    message[0] ^= 1
    assert type(signer.message) is bytes and signer.message == MSG
    fresh = run_signing_session(KEYS, MSG, SEED)
    res = run_signing_session(KEYS, bytearray(MSG), SEED)
    assert type(res.outcome.transcript[0].payload.message) is bytes
    assert transcript_lines(res.outcome.transcript) == transcript_lines(fresh.outcome.transcript)


def test_honest_verdicts_are_shared_instances():
    a = run_signing_session(KEYS, MSG, SEED)
    b = run_signing_session(KEYS, MSG, b"\x5b" * 32)
    broadcasts = [
        (x, y)
        for x, y in zip(a.outcome.transcript, b.outcome.transcript)
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
        # A silent P3 is judged corrupt.
        (Role.P3, LineVerdict(None), [(3, "P1", "accept"), (5, "P1", "P3 corrupt")]),
        (Role.P1, ChallengeVerdict(2), [(4, "P3", "accept"), (5, "P1", "accept")]),
        (Role.P3, LineVerdict(_Odd()), [(3, "P1", "accept"), (5, "P1", "P3 corrupt")]),
    ],
    ids=["line-none", "challenge-2", "line-odd"],
)
def test_malformed_verdicts_never_raise(corrupted, swap, verdicts):
    # A corrupt party swaps its verdict for one whose ok is not a bool.  The
    # swap is a dead letter: no party is handed it, the transcript leaves it
    # out, and the session runs on as if the party had stayed silent.
    def rewrite(env: Envelope, view) -> list:
        if isinstance(env.payload, type(swap)):
            return [Envelope(env.round, env.sender, env.recipient, swap)]
        return [env]

    adversary = AdversaryHook(corrupted=corrupted, rewrite=per_envelope(rewrite))
    session = open_signing_session(KEYS, MSG, SEED, adversary=adversary).run(TOTAL_ROUNDS)
    res = signing_result(session)
    assert session.dead_letters == 1
    assert all(env.payload is not swap for env in res.outcome.transcript)
    assert res.outcome.verdicts == verdicts
    assert res.outcome.z2 == res.x


def _run_parties(keys, adversary, *, ic_coins=None):
    """One session run to the end with the party objects kept, so a test can
    read the state each party ended in."""
    session = open_signing_session(keys, MSG, SEED, adversary=adversary)
    session = force_coins(session, ic_coins=ic_coins).run(TOTAL_ROUNDS)
    return session.parties, session.result()


def test_arm_d_false_reject_reveals_the_line():
    # A corrupt P3 flips its round-4 verdict to reject.  P1's audit sees the
    # challenge on the line, declares "P3 corrupt" and reveals (k1, k2); P2
    # re-derives sigma from it, P3 adopts it, and the transfer still lands.
    def flip(env: Envelope, view) -> list:
        if env.round == ROUND_P3_CHECK and isinstance(env.payload, LineVerdict):
            return [Envelope(env.round, env.sender, env.recipient, LineVerdict(False))]
        return [env]

    adversary = AdversaryHook(corrupted=Role.P3, rewrite=per_envelope(flip))
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

    adversary = AdversaryHook(corrupted=Role.P3, rewrite=per_envelope(mute))
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
    point in round 3 (arm A, after which P3 stays silent in round 4).  The
    rewrite keeps its own list of what P1 sent."""
    sent = []

    def rewrite(env: Envelope, view) -> list:
        sent.append(env)
        payload = env.payload
        if isinstance(payload, VerifierSetup):
            if starve_p3:
                return []
            bad = VerifierSetup(payload.k1, payload.k2, payload.k2_prime + P251.one)
            return [Envelope(env.round, env.sender, env.recipient, bad)]
        if force_arm_a and isinstance(payload, ChallengeVerdict):
            setup = sent[0].payload
            reveal = ChallengeVerdict(False, setup.x, setup.sigma)
            return [Envelope(env.round, env.sender, None, reveal)]
        if env.round == ROUND_RESOLUTION:
            return [Envelope(env.round, env.sender, None, RevealPoint(*FAKE))]
        return [env]

    return AdversaryHook(corrupted=Role.P1, rewrite=per_envelope(rewrite))


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


def test_reveal_point_after_arm_a_is_ignored():
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

    adversary = AdversaryHook(corrupted=Role.P1, rewrite=per_envelope(rewrite))
    for i in range(20):
        res = run_signing_session(KEYS, MSG, i.to_bytes(32, "big"), adversary=adversary)
        assert res.outcome.z2 == res.x
        assert res.outcome.z3 in (res.x, None)


def _session_state(session) -> tuple:
    """Everything a branch could disturb: each party's attributes and tape
    position and the transcript (the corrupted party's view is read off the
    transcript)."""
    parties = session.parties
    return (
        {role: dict(vars(party)) for role, party in parties.items()},
        {role: party._rng.copy().take(16) for role, party in parties.items()
         if hasattr(party, "_rng")},
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
    fresh = _run_forced(ic_coins=COINS, challenge_coin=E)
    base = open_signing_session(KEYS, MSG, SEED)
    before = _session_state(base)
    for twin in (
        force_coins(base, ic_coins=COINS, challenge_coin=E),
        force_coins(force_coins(base, ic_coins=COINS).run(ROUND_SETUP), challenge_coin=E),
    ):
        res = signing_result(twin.run(TOTAL_ROUNDS))
        assert _session_state(base) == before
        assert transcript_lines(res.outcome.transcript) == transcript_lines(fresh.outcome.transcript)
        assert (res.x, res.arm, res.outcome.z2, res.outcome.z3) == (
            fresh.x, fresh.arm, fresh.outcome.z2, fresh.outcome.z3
        )
    assert base.rounds_run == 0
    challenge = next(env.payload for env in fresh.outcome.transcript if env.round == ROUND_CHALLENGE)
    assert challenge.e == E


# Protocol defects an off-route or malformed payload would open if it reached
# the honest parties: a payload in a round, on a channel or over a prime the
# schedule does not allow.  Each test states a property that admission by
# the payload schema keeps.

DEFECT_KEYS = _keys_for(P251, Rng(b"k" * 32))
DEFECT_SESSIONS = 2000


def _defect_results(rewrite, corrupted, sessions=DEFECT_SESSIONS):
    adversary = AdversaryHook(corrupted=corrupted, rewrite=per_envelope(rewrite))
    for i in range(sessions):
        yield run_signing_session(DEFECT_KEYS, MSG, i.to_bytes(32, "big"), adversary=adversary)


def _forged(res) -> bool:
    return res.outcome.z3 is not None and res.outcome.z3 != res.x


def _within_guess_rate(name, sessions, hits) -> bool:
    return make_estimate(name, 251, sessions, hits, Fraction(1, 251)).verdict == "pass"


def _transfer(env, x, sigma):
    payload = dataclasses.replace(env.payload, x=x, sigma=sigma)
    return Envelope(env.round, env.sender, env.recipient, payload)


def test_defect_a_round_7_reveal_line_does_not_forge_a_transfer():
    # A corrupt P2 broadcasts RevealLine(0, s) in round 7, then transfers
    # (x + 1, s), which lies on the line P3 would adopt from it.
    def rewrite(env, view):
        if env.round != ROUND_TRANSFER:
            return [env]
        t = env.payload
        reveal = Envelope(env.round, env.sender, None, RevealLine(P251.zero, t.sigma))
        return [reveal, _transfer(env, t.x + P251.one, t.sigma)]

    forged = sum(map(_forged, _defect_results(rewrite, Role.P2)))
    assert _within_guess_rate("a", DEFECT_SESSIONS, forged)


def test_defect_b_an_equivocated_challenge_does_not_forge_a_transfer():
    # A corrupt P2 sends its honest challenge privately to P1 and one with
    # x_e + 1 privately to P3.  P3 rejects, P1's audit reveals the line
    # (arm D), and P2 transfers another point on that line.
    def rewrite(env, view):
        if env.round == ROUND_CHALLENGE:
            ch = env.payload
            skewed = Challenge(ch.e, ch.x_e + P251.one, ch.sigma_e)
            return [
                Envelope(env.round, env.sender, Role.P1, ch),
                Envelope(env.round, env.sender, Role.P3, skewed),
            ]
        lines = [e.payload for e in view.received if isinstance(e.payload, RevealLine)]
        if env.round != ROUND_TRANSFER or not lines:
            return [env]
        x = env.payload.x + P251.one
        return [_transfer(env, x, lines[0].k1 * x + lines[0].k2)]

    forged = sum(map(_forged, _defect_results(rewrite, Role.P2)))
    assert _within_guess_rate("b", DEFECT_SESSIONS, forged)


def test_defect_c_a_split_challenge_verdict_does_not_split_z2_and_z3():
    # A corrupt P1 sends a failing verdict revealing (5, 9) privately to P2
    # and an accepting one privately to P3.
    reveal = ChallengeVerdict(False, P251.elt(5), P251.elt(9))

    def rewrite(env, view):
        if env.round != ROUND_P1_CHECK:
            return [env]
        return [
            Envelope(env.round, env.sender, Role.P2, reveal),
            Envelope(env.round, env.sender, Role.P3, ChallengeVerdict(True)),
        ]

    diverged = sum(res.outcome.z2 != res.outcome.z3 for res in _defect_results(rewrite, Role.P1))
    assert _within_guess_rate("c", DEFECT_SESSIONS, diverged)


def test_defect_e_a_round_4_reveal_point_does_not_move_z2():
    # A corrupt P3 also broadcasts RevealPoint(7, 9) with its line verdict.
    extra = RevealPoint(P251.elt(7), P251.elt(9))

    def rewrite(env, view):
        return [env, Envelope(env.round, env.sender, None, extra)]

    assert all(res.outcome.z2 == res.x for res in _defect_results(rewrite, Role.P3))


@pytest.mark.parametrize(
    "corrupted, swap",
    [(Role.P2, Challenge(*map(Prime(13).elt, (1, 2, 3)))), (Role.P1, ChallengeVerdict(2))],
    ids=["challenge-f13", "challenge-verdict-2"],
)
def test_defect_f_malformed_on_route_payloads_keep_the_session_total(corrupted, swap):
    def rewrite(env, view):
        if isinstance(env.payload, type(swap)):
            return [Envelope(env.round, env.sender, env.recipient, swap)]
        return [env]

    (res,) = _defect_results(rewrite, corrupted, sessions=1)
    transcript = res.outcome.transcript
    assert len(transcript_lines(transcript)) == len(transcript)


@pytest.mark.parametrize(
    "corrupted, cls, part",
    [(Role.P1, HolderSetup, Prime(13).one), (Role.P2, TransferValue, 1)],
    ids=["setup-f13-part", "transfer-int-part"],
)
def test_a_signature_with_a_bad_part_is_a_dead_letter(corrupted, cls, part):
    # Admitted, either part would raise in interpret_value or in to_wire.
    def rewrite(env, view):
        if isinstance(env.payload, cls):
            sig = dataclasses.replace(env.payload.sig_alg, s3=part)
            payload = dataclasses.replace(env.payload, sig_alg=sig)
            return [Envelope(env.round, env.sender, env.recipient, payload)]
        return [env]

    adversary = AdversaryHook(corrupted, per_envelope(rewrite))
    session = open_signing_session(DEFECT_KEYS, MSG, SEED, adversary=adversary).run(TOTAL_ROUNDS)
    res = signing_result(session, interpret=True)
    assert session.dead_letters == 1
    assert len(transcript_lines(res.outcome.transcript)) == len(res.outcome.transcript)


@pytest.mark.parametrize("name", [None, *sorted(STRATEGIES)])
def test_honest_and_strategy_traffic_is_admissible(name):
    # The network passes an emitted envelope on unchecked, so each one is
    # checked here; the strategies' replacements the session checks itself.
    for i in range(300):
        seed = i.to_bytes(32, "big")
        hook = STRATEGIES[name].hook(P251, Rng(seed).fork(b"adversary")) if name else None
        session = open_signing_session(DEFECT_KEYS, MSG, seed, adversary=hook).run(TOTAL_ROUNDS)
        assert session.dead_letters == 0
        assert all(admissible(P251, env) for env in session.result())


def _round_6_reveal(role):
    """A hook for role that plays honestly but broadcasts RevealPoint(FAKE) in
    round 6, a round in which the honest party sends nothing in arm B."""

    def turn(rnd, own, view):
        if rnd != ROUND_RESOLUTION:
            return own
        return [*own, Envelope(rnd, role, None, RevealPoint(*FAKE))]

    return AdversaryHook(role, turn)


def test_a_corrupt_signer_reveals_in_round_6_of_arm_b_and_z2_equals_z3():
    hook = _round_6_reveal(Role.P1)
    for i in range(200):
        session = open_signing_session(DEFECT_KEYS, MSG, i.to_bytes(32, "big"), adversary=hook)
        res = signing_result(session.run(TOTAL_ROUNDS))
        assert res.arm == "B" and session.dead_letters == 0
        assert RevealPoint(*FAKE) in [env.payload for env in res.outcome.transcript]
        assert res.outcome.z2 == res.outcome.z3


def test_a_corrupt_verifier_revealing_in_round_6_is_a_dead_letter():
    hook = _round_6_reveal(Role.P3)
    for i in range(200):
        session = open_signing_session(DEFECT_KEYS, MSG, i.to_bytes(32, "big"), adversary=hook)
        res = signing_result(session.run(TOTAL_ROUNDS))
        assert session.dead_letters == 1
        assert res.outcome.z2 == res.outcome.z3 == res.x


def test_a_turn_cannot_change_its_own_emission_in_place():
    # A turn that returns own goes out unchecked, so own is a tuple: a P3
    # that appends defect e's round-4 RevealPoint to it raises instead of
    # reaching P2.
    def append(rnd, own, view):
        if rnd == ROUND_P3_CHECK:
            own.append(Envelope(rnd, Role.P3, None, RevealPoint(*FAKE)))
        return own

    hook = AdversaryHook(Role.P3, append)
    session = open_signing_session(DEFECT_KEYS, MSG, SEED, adversary=hook)
    with pytest.raises(AttributeError):
        session.run(TOTAL_ROUNDS)


def _without(record, name):
    """A copy of record built around its constructor, lacking field name."""
    bare = object.__new__(type(record))
    bare.__dict__.update((k, v) for k, v in vars(record).items() if k != name)
    return bare


def _hand_element(residue, prime=P251):
    """An element whose slots are set by hand, unreduced and unchecked."""
    elt = object.__new__(FieldElement)
    elt.residue, elt.prime = residue, prime
    return elt


def _fieldless(record):
    """A record of record's type built around its constructor, with no fields
    and an empty __dataclass_fields__ in its __dict__."""
    bare = object.__new__(type(record))
    bare.__dict__["__dataclass_fields__"] = {}
    return bare


# Replacements built around the constructors: (corrupted role, the payload
# class it replaces, what it sends instead).
HAND_BUILT = {
    "g-transfer-without-x": (Role.P2, TransferValue, lambda t: _without(t, "x")),
    "h-signature-without-s3": (
        Role.P1,
        HolderSetup,
        lambda h: dataclasses.replace(h, sig_alg=_without(h.sig_alg, "s3")),
    ),
    "i-x-plus-p": (
        Role.P1,
        HolderSetup,
        lambda h: dataclasses.replace(h, x=_hand_element(h.x.residue + 251)),
    ),
    # Admission reads the fields each class declares, not what the object says.
    "j-transfer-declaring-no-fields": (Role.P2, TransferValue, _fieldless),
    "k-signature-declaring-no-parts": (
        Role.P1,
        HolderSetup,
        lambda h: dataclasses.replace(h, sig_alg=_fieldless(h.sig_alg)),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_a_hand_built_replacement_is_a_dead_letter(case):
    corrupted, cls, build = HAND_BUILT[case]

    def turn(rnd, own, view):
        return [
            Envelope(rnd, env.sender, env.recipient, build(env.payload))
            if type(env.payload) is cls else env
            for env in own
        ]

    hook = AdversaryHook(corrupted, turn)
    session = open_signing_session(DEFECT_KEYS, b"m", bytes(32), adversary=hook).run(TOTAL_ROUNDS)
    res = signing_result(session, interpret=True)
    assert session.rounds_run == TOTAL_ROUNDS and session.dead_letters == 1
    assert all(type(env.payload) is not cls for env in res.outcome.transcript)
    assert len(transcript_lines(res.outcome.transcript)) == len(res.outcome.transcript)


# Schema fuzzing: a corrupt party also sends, or sends instead of its first
# envelope in one of its rounds, one envelope drawn from SCHEMA's routes and
# kinds, from wrong kinds, or not a payload at all, on or off route.
P13 = Prime(13)
_ELEMENTS = st.integers(0, 250).map(P251.elt)
_SIGNATURES = st.tuples(*[_ELEMENTS] * 5).map(lambda parts: Signature(*parts))
_KINDS = {
    "E": _ELEMENTS,
    "O": st.none() | _ELEMENTS,
    "B": st.booleans(),
    "M": st.binary(max_size=8),
    "S": _SIGNATURES,
    "Z": st.none() | _SIGNATURES,
}
_WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 300),
    st.binary(max_size=4),
    st.integers(0, 12).map(P13.elt),
    _SIGNATURES.map(lambda sig: dataclasses.replace(sig, s5=P13.one)),
    _SIGNATURES.map(lambda sig: dataclasses.replace(sig, s1=1)),
    st.builds(object),
    st.builds(_Odd),
    _SIGNATURES.map(lambda sig: _without(sig, "s3")),
    st.integers(251, 300).map(_hand_element),
    st.floats(0, 250).map(_hand_element),
)
# The rounds in which each corrupted party emits in a session that is honest
# up to them.
_TURNS = {
    Role.P1: (ROUND_SETUP, ROUND_P1_CHECK, ROUND_AUDIT),
    Role.P2: (ROUND_CHALLENGE, ROUND_TRANSFER),
    Role.P3: (ROUND_P3_CHECK,),
}
_STEMS = {
    role: open_signing_session(DEFECT_KEYS, MSG, SEED, adversary=AdversaryHook(role))
    for role in Role
}
_LABELS = {*ChallengeVerdict.labels, *LineVerdict.labels, *AuditVerdict.labels}


@st.composite
def _sends(draw, role):
    """(envelope, keep): what role sends in one of its turns, and whether it
    also sends what its party emitted."""
    rnd = draw(st.sampled_from(_TURNS[role]))
    on_route = [(cls, route[2]) for cls, (route, _) in SCHEMA.items() if route[:2] == (rnd, role)]
    if draw(st.booleans()):
        cls, recipient = draw(st.sampled_from(on_route))
    else:
        cls = draw(st.sampled_from([*SCHEMA, None]))
        recipient = draw(st.sampled_from([None, *Role]))
    if cls is None:
        payload = draw(_WRONG | _ELEMENTS)
    else:
        typed = draw(st.booleans())
        kinds = SCHEMA[cls][1]
        payload = cls(*(draw(_KINDS[k] if typed else _KINDS[k] | _WRONG) for k in kinds))
        if not draw(st.integers(0, 7)):  # one field missing from its __dict__
            payload = _without(payload, draw(st.sampled_from(list(payload.__dataclass_fields__))))
    return Envelope(rnd, role, recipient, payload), draw(st.booleans())


def _sending(role, rnd, extras, keep):
    """A hook for role that sends extras with, or in place of (keep=False),
    the first envelope its party emits in round rnd."""
    sent = []

    def rewrite(env, view):
        if env.round != rnd or sent:
            return [env]
        sent.append(env)
        return ([env] * keep) + extras

    return AdversaryHook(role, per_envelope(rewrite))


def _honest_states(session) -> dict:
    """Each honest party's attribute dict, its tape read as its next bytes."""
    corrupted = session.adversary.corrupted
    return {
        role: {k: v.copy().take(16) if k == "_rng" else v for k, v in vars(party).items()}
        for role, party in session.parties.items()
        if role is not corrupted
    }


@pytest.mark.parametrize("role", list(Role), ids=lambda role: role.value)
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_schema_fuzz_keeps_sessions_total_and_refused_sends_inert(role, data):
    extra, keep = data.draw(_sends(role))
    sent = _STEMS[role].branch(_sending(role, extra.round, [extra], keep)).run(TOTAL_ROUNDS)
    res = signing_result(sent, interpret=True)
    assert len(transcript_lines(res.outcome.transcript)) == len(res.outcome.transcript)
    assert {label for *_, label in res.outcome.verdicts} <= _LABELS
    assert admissible(P251, extra) == admissible_by_schema(P251, extra)
    if admissible(P251, extra):
        assert sent.dead_letters == 0
        return
    assert sent.dead_letters == 1
    unsent = _STEMS[role].branch(_sending(role, extra.round, [], keep)).run(TOTAL_ROUNDS)
    assert sent.result() == unsent.result()
    assert _honest_states(sent) == _honest_states(unsent)


@pytest.mark.parametrize("p", [3, 251, SECURE_PRIME_VALUE])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_line_kernel_is_element_arithmetic_and_one_mul(p, data):
    prime = Prime(p)
    residues = st.sampled_from([0, p - 1]) | st.integers(0, p - 1)
    a, x, b = (data.draw(residues) for _ in range(3))
    ea, ex, eb = map(prime.elt, (a, x, b))
    with count_field_ops() as ops:
        # P3's re-key, k2 := sigma - k1*x, runs the kernel on -k1.
        got = _line(a, x, b, p), _line(-a, x, b, p)
    assert (ops.muls, ops.invs) == (2, 0)
    assert got == (line_by_elements(ea, ex, eb).residue, line_by_elements(-ea, ex, eb).residue)
