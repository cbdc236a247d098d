"""Seven-round authenticated-transfer sessions: arms, attacks, determinism."""

import copy
import enum
import pickle

import pytest

from silmarils.errors import MissingNonce, MissingSetup, PhaseViolation
from silmarils.field import Prime
from silmarils.hashing import authenticated_value
from silmarils.net_sim import (
    AdversaryHook,
    Envelope,
    Role,
    broadcast_consistency_check,
    transcript_lines,
)
from silmarils.rng import Rng
from silmarils.stats import get_strategy, run_trials
from silmarils.three_party import (
    ROUND_CHALLENGE,
    ROUND_SETUP,
    Challenge,
    HolderSetup,
    P2Holder,
    P3Verifier,
    VerifierSetup,
    interpret_value,
    p1_start,
    run_signing_session,
)
from silmarils.two_party import Params, keygen

P251 = Prime(251)
SEED = b"\x5a" * 32


def _keys(prime=P251, seed=b"\x09" * 32):
    rng = Rng(seed)
    params = Params.generate(prime, rng.fork(b"params"))
    return keygen(params, rng.fork(b"keys"))


KEYS = _keys()
MSG = b"three party message"


def test_honest_session_resolves_arm_b_and_transfers():
    res = run_signing_session(KEYS, MSG, SEED, interpret=True, collect=True)
    assert res.arm == "B"
    assert res.outcome.z2 == res.x
    assert res.outcome.z3 == res.x
    assert res.accepted is True
    # every verdict broadcast is an accept in the honest run
    assert {v[2] for v in res.outcome.verdicts} == {"accept"}
    assert broadcast_consistency_check(res.net.views)


def test_session_is_deterministic():
    a = run_signing_session(KEYS, MSG, SEED, collect=True)
    b = run_signing_session(KEYS, MSG, SEED, collect=True)
    assert [e.payload.to_wire() for e in a.net.transcript] == [
        e.payload.to_wire() for e in b.net.transcript
    ]
    c = run_signing_session(KEYS, MSG, b"\x5b" * 32, collect=True)
    assert [e.payload.to_wire() for e in a.net.transcript] != [
        e.payload.to_wire() for e in c.net.transcript
    ]


def test_x_binds_message_and_signature():
    res = run_signing_session(KEYS, MSG, SEED)
    assert res.x == authenticated_value(MSG, res.sig_alg.encode(), P251)


def test_rushing_does_not_change_honest_sessions():
    a = run_signing_session(KEYS, MSG, SEED, rushing=True)
    b = run_signing_session(KEYS, MSG, SEED, rushing=False)
    assert a.outcome.z2 == b.outcome.z2 and a.outcome.z3 == b.outcome.z3


def test_forced_ic_coins_are_used():
    coins = (P251.elt(3), P251.elt(7), P251.elt(11), P251.elt(13))
    res = run_signing_session(KEYS, MSG, SEED, ic_coins=coins, collect=True)
    setup = res.net.outputs[Role.P1]["setup"]
    assert (setup.k1, setup.k2, setup.x_prime, setup.k2_prime) == coins
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


def test_holder_states_guard_their_phases():
    holder = P2Holder(P251, Rng(SEED))
    with pytest.raises(MissingSetup):
        holder.challenge()
    with pytest.raises(PhaseViolation):
        holder.transfer()
    verifier = P3Verifier(P251)
    with pytest.raises(MissingSetup):
        verifier.check_challenge(None)


def test_verifier_first_setup_wins():
    verifier = P3Verifier(P251)
    first = VerifierSetup(P251.elt(1), P251.elt(2), P251.elt(3))
    second = VerifierSetup(P251.elt(9), P251.elt(9), P251.elt(9))
    verifier.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P3, first))
    verifier.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P3, second))
    assert (verifier.k1, verifier.k2) == (first.k1, first.k2)


def test_holder_first_setup_wins():
    holder = P2Holder(P251, Rng(SEED))
    setup, sig_alg, x, envs = p1_start(KEYS, MSG, Rng(b"\x77" * 32))
    holder.deliver(envs[0])
    tampered = HolderSetup(
        x + P251.one, setup.x_prime, setup.sigma, setup.sigma_prime,
        MSG, sig_alg, envs[0].payload.nonce,
    )
    holder.deliver(Envelope(ROUND_SETUP, Role.P1, Role.P2, tampered))
    assert holder.cur_x == x


def test_interpret_value_paths():
    res = run_signing_session(KEYS, MSG, SEED)
    sig, x, nonce = res.sig_alg, res.x, res.nonce
    assert interpret_value(KEYS.pk, MSG, sig, x, nonce=nonce)
    assert interpret_value(KEYS.pk, MSG, sig, x, k_sig=KEYS.k_sig)
    assert not interpret_value(KEYS.pk, MSG, sig, x + P251.one, nonce=nonce)
    assert not interpret_value(KEYS.pk, b"other", sig, x, k_sig=KEYS.k_sig)
    with pytest.raises(MissingNonce):
        interpret_value(KEYS.pk, MSG, sig, x)


def test_starved_parties_fail_closed():
    # A corrupt signer that sends nothing: the session still totals, with
    # bottom outputs rather than hangs or crashes.
    def blackout(env: Envelope, view) -> list:
        return []

    res = run_signing_session(
        KEYS, MSG, SEED, adversary=AdversaryHook(corrupted=Role.P1, rewrite=blackout)
    )
    assert res.outcome.z3 is None


@pytest.mark.parametrize("strategy", [None, "substitute-guess-k1", "inconsistent-line"])
def test_collect_does_not_change_sessions(strategy):
    attack = get_strategy(strategy) if strategy else None

    def outcomes(collect):
        return [
            (res.outcome.z2, res.outcome.z3, res.arm, res.outcome.verdicts, res.accepted)
            for res in run_trials(
                P251, 20, seed=SEED, strategy=attack, collect=collect, interpret=True
            )
        ]

    lean, full = outcomes(False), outcomes(True)
    assert len(lean) == 20
    assert lean == full


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
            for res in run_trials(P251, 8, seed=SEED, strategy=attack, collect=True):
                # Role-keyed dicts become item lists: they are compared after
                # the hash changes, when the old dicts can no longer be probed.
                net = res.net
                runs.append((
                    list(net.outputs.items()),
                    transcript_lines(net.transcript),
                    [(role, view.received) for role, view in net.views.items()],
                ))
        return runs

    with_identity_hash = sessions()
    monkeypatch.setattr(Role, "__hash__", enum.Enum.__hash__)
    assert hash(Role.P1) == hash("P1")
    assert sessions() == with_identity_hash
