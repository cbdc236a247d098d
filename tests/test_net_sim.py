"""Scheduler semantics: rounds, rushing, authenticated channels, transcripts."""

import json

import pytest

from silmarils.errors import ProtocolMisuse
from silmarils.net_sim import (
    AdversaryHook,
    Envelope,
    Role,
    Session,
    run_session,
    transcript_lines,
    view_of,
)


class Note:
    """Payload stub with the wire hook the transcript writer expects."""

    def __init__(self, text):
        self.text = text

    def to_wire(self) -> bytes:
        return self.text.encode()

    def __eq__(self, other):
        return isinstance(other, Note) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"Note({self.text!r})"


class Chatter:
    """Scripted party: emits a fixed plan, records everything delivered."""

    def __init__(self, role, plan):
        self.role = role
        self.plan = plan  # {round: [Envelope, ...]}
        self.emit_rounds = frozenset(plan)
        self.got = []
        self.got_by_round = {}

    def emit(self, rnd):
        return list(self.plan.get(rnd, []))

    def deliver(self, env):
        self.got.append(env)
        self.got_by_round.setdefault(env.round, []).append(env)

    @property
    def payloads(self):
        return [e.payload for e in self.got]


def _trio(plans):
    return {role: Chatter(role, plans.get(role, {})) for role in Role}


def test_private_delivery_and_broadcast_fanout():
    parties = _trio({
        Role.P1: {1: [
            Envelope(1, Role.P1, Role.P2, Note("private to P2")),
            Envelope(1, Role.P1, None, Note("to everyone")),
        ]},
    })
    transcript = run_session(parties, total_rounds=1)
    assert parties[Role.P2].payloads == [Note("private to P2"), Note("to everyone")]
    assert parties[Role.P3].payloads == [Note("to everyone")]
    # broadcast reaches the sender too
    assert parties[Role.P1].payloads == [Note("to everyone")]
    assert [e.payload for e in transcript if e.is_broadcast] == [Note("to everyone")]


def test_round_ordering_is_strict():
    plans = {
        Role.P1: {2: [Envelope(2, Role.P1, Role.P3, Note("second"))]},
        Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("first"))]},
    }
    parties = _trio(plans)
    run_session(parties, total_rounds=2)
    texts = [p.text for p in parties[Role.P3].payloads]
    assert texts == ["first", "second"]


class RoundSpy(Chatter):
    """A Chatter that records each round it is asked to emit in."""

    def __init__(self, role, plan, emit_rounds):
        super().__init__(role, plan)
        self.emit_rounds = frozenset(emit_rounds)
        self.asked = []

    def emit(self, rnd):
        self.asked.append(rnd)
        return super().emit(rnd)


@pytest.mark.parametrize("corrupted", [None, Role.P1, Role.P2, Role.P3])
def test_each_party_is_asked_exactly_in_its_emit_rounds(corrupted):
    rounds = {Role.P1: {1, 3, 5, 6}, Role.P2: {2, 7}, Role.P3: {4}}
    parties = {role: RoundSpy(role, {}, rounds[role]) for role in Role}
    adversary = AdversaryHook(corrupted) if corrupted else None
    session = Session(parties, adversary).run(3)
    assert {role: spy.asked for role, spy in parties.items()} == {
        Role.P1: [1, 3], Role.P2: [2], Role.P3: [],
    }
    session.run(7)
    assert {role: spy.asked for role, spy in parties.items()} == {
        role: sorted(rounds[role]) for role in Role
    }


def test_an_envelope_planned_for_a_foreign_round_is_never_emitted():
    party = RoundSpy(Role.P1, {1: [Envelope(1, Role.P1, None, Note("x"))]}, {2})
    parties = _trio({})
    parties[Role.P1] = party
    assert run_session(parties, total_rounds=2) == []
    assert party.asked == [2]
    assert all(p.got == [] for p in parties.values())


def test_adversary_cannot_forge_sender():
    def forge(env, view):
        return [Envelope(env.round, Role.P1, env.recipient, env.payload)]

    plans = {Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("mine"))]}}
    with pytest.raises(ValueError, match="authenticated"):
        run_session(
            _trio(plans),
            AdversaryHook(corrupted=Role.P2, rewrite=forge),
            total_rounds=1,
        )


def test_adversary_rewrites_only_its_own_traffic():
    plans = {
        Role.P1: {1: [Envelope(1, Role.P1, Role.P3, Note("honest"))]},
        Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("original"))]},
    }

    def tamper(env, view):
        return [Envelope(env.round, env.sender, env.recipient, Note("tampered"))]

    parties = _trio(plans)
    run_session(parties, AdversaryHook(corrupted=Role.P2, rewrite=tamper), total_rounds=1)
    texts = sorted(p.text for p in parties[Role.P3].payloads)
    assert texts == ["honest", "tampered"]


def test_adversary_may_drop_and_inject():
    plans = {Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("drop me"))]}}

    def drop_then_spam(env, view):
        return [
            Envelope(env.round, env.sender, Role.P1, Note("injected")),
            Envelope(env.round, env.sender, Role.P1, Note("twice")),
        ]

    parties = _trio(plans)
    run_session(
        parties,
        AdversaryHook(corrupted=Role.P2, rewrite=drop_then_spam),
        total_rounds=1,
    )
    assert parties[Role.P3].payloads == []
    assert [p.text for p in parties[Role.P1].payloads] == ["injected", "twice"]


def test_rushing_shows_the_corrupted_party_incoming_traffic_early():
    seen_at_emit = []

    class Spy(Chatter):
        def emit(self, rnd):
            seen_at_emit.append([e.payload.text for e in self.got])
            return []

    parties = _trio({
        Role.P1: {1: [
            Envelope(1, Role.P1, Role.P2, Note("for the spy")),
            Envelope(1, Role.P1, Role.P3, Note("not for the spy")),
        ]},
    })
    spy = Spy(Role.P2, {1: []})
    spy.emit_rounds = frozenset({1})
    parties[Role.P2] = spy

    run_session(parties, AdversaryHook(corrupted=Role.P2), total_rounds=1)
    assert seen_at_emit == [["for the spy"]]


def test_early_delivery_is_not_duplicated():
    plans = {Role.P1: {1: [Envelope(1, Role.P1, Role.P2, Note("once"))]}}
    parties = _trio(plans)
    run_session(parties, AdversaryHook(corrupted=Role.P2), total_rounds=1)
    assert [p.text for p in parties[Role.P2].payloads] == ["once"]


def test_views_and_broadcast_consistency():
    plans = {
        Role.P1: {1: [Envelope(1, Role.P1, None, Note("hello all"))]},
        Role.P3: {2: [Envelope(2, Role.P3, Role.P1, Note("reply"))]},
    }
    transcript = run_session(_trio(plans), total_rounds=2)
    hello, reply = transcript
    assert {role: view_of(transcript, role) for role in Role} == {
        Role.P1: [hello, reply], Role.P2: [hello], Role.P3: [hello],
    }
    assert reply.payload == Note("reply") and reply.sender is Role.P3


def test_transcript_lines_are_valid_json_and_ordered():
    plans = {
        Role.P1: {1: [
            Envelope(1, Role.P1, Role.P2, Note("a")),
            Envelope(1, Role.P1, None, Note("b")),
        ]},
        Role.P2: {2: [Envelope(2, Role.P2, Role.P3, Note("c"))]},
    }
    lines = transcript_lines(run_session(_trio(plans), total_rounds=2))
    records = [json.loads(line) for line in lines]
    assert [r["round"] for r in records] == [1, 1, 2]
    assert records[0] == {
        "round": 1, "sender": "P1", "channel": "private",
        "payload": b"a".hex(), "to": "P2",
    }
    assert records[1]["channel"] == "broadcast" and "to" not in records[1]


def test_corrupted_role_must_be_present():
    with pytest.raises(ValueError):
        run_session(
            {Role.P1: Chatter(Role.P1, {})},
            AdversaryHook(corrupted=Role.P2),
            total_rounds=1,
        )


def _snapshot(view):
    return [(e.round, e.payload.text) for e in view.received]


def _busy_trio():
    # Every party sends private and broadcast traffic.  P2 gets some in every
    # round and emits two envelopes per round, so its rewrite runs twice a round.
    return _trio({
        Role.P1: {
            1: [
                Envelope(1, Role.P1, Role.P2, Note("1a")),
                Envelope(1, Role.P1, None, Note("1b")),
            ],
            3: [Envelope(3, Role.P1, Role.P2, Note("3a"))],
        },
        Role.P2: {
            r: [
                Envelope(r, Role.P2, Role.P1, Note(f"{r}x")),
                Envelope(r, Role.P2, None, Note(f"{r}y")),
            ]
            for r in (1, 2, 3)
        },
        Role.P3: {
            2: [
                Envelope(2, Role.P3, None, Note("2c")),
                Envelope(2, Role.P3, Role.P2, Note("2d")),
            ],
        },
    })


def test_corrupted_view_is_the_same_with_and_without_collect():
    # The live view rewrite reads grows by appending: every snapshot is a
    # prefix of the final view, which holds what was delivered.
    seen, views = [], []

    def record(env, view):
        seen.append(_snapshot(view))
        views.append(view)
        return [env]

    parties = _busy_trio()
    transcript = run_session(
        parties, AdversaryHook(corrupted=Role.P2, rewrite=record), total_rounds=3
    )
    assert len(seen) == 6 and all(view is views[0] for view in views)
    received = _snapshot(views[0])
    assert received == [(e.round, e.payload.text) for e in parties[Role.P2].got]
    assert views[0].received == view_of(transcript, Role.P2)
    for seen_received in seen:
        assert seen_received == received[: len(seen_received)]


def _scrambler():
    # Drops every other envelope the corrupted party emits, counting them in
    # its own list; the rest go out with a broadcast, a note to itself and a
    # note to each other party.
    sent = []

    def scramble(env, view):
        sent.append(env)
        if len(sent) % 2:
            return []
        me, text = env.sender, env.payload.text
        return [
            Envelope(env.round, me, None, Note(text + " to all")),
            Envelope(env.round, me, me, Note(text + " to self")),
            *(
                Envelope(env.round, me, r, Note(f"{text} to {r.value}"))
                for r in Role if r is not me
            ),
            env,
        ]

    return scramble


@pytest.mark.parametrize("corrupted", [None, Role.P1, Role.P2, Role.P3])
def test_view_of_the_transcript_is_what_each_party_was_delivered(corrupted):
    views = []
    scramble = _scrambler()

    def rewrite(env, view):
        views.append(view)
        return scramble(env, view)

    parties = _busy_trio()
    adversary = AdversaryHook(corrupted, rewrite) if corrupted else None
    transcript = run_session(parties, adversary, total_rounds=3)
    for role, party in parties.items():
        assert view_of(transcript, role) == party.got
    if corrupted:
        assert views and views[-1].received == parties[corrupted].got
        assert any(env.sender is corrupted for env in transcript)


def test_a_corrupted_party_planning_a_foreign_round_is_never_asked_in_it():
    rewritten = []

    def record(env, view):
        rewritten.append(env)
        return [env]

    early = {1: [Envelope(1, Role.P2, Role.P3, Note("early"))]}
    for rewrite in (None, record):
        trio = _trio({})
        trio[Role.P2] = RoundSpy(Role.P2, early, {2})
        transcript = run_session(trio, AdversaryHook(Role.P2, rewrite), total_rounds=2)
        assert transcript == [] and trio[Role.P2].asked == [2]
        assert trio[Role.P3].payloads == []
    assert rewritten == []


@pytest.mark.parametrize("stamp", [1, 3])
def test_adversary_cannot_restamp_the_round(stamp):
    def restamp(env, view):
        return [Envelope(stamp, env.sender, env.recipient, env.payload)]

    plans = {Role.P2: {2: [Envelope(2, Role.P2, Role.P3, Note("late"))]}}
    parties = _trio(plans)
    with pytest.raises(ProtocolMisuse, match="stamps rounds"):
        run_session(parties, AdversaryHook(Role.P2, restamp), total_rounds=3)
    assert parties[Role.P3].payloads == []


def test_rushing_delivers_each_envelope_to_the_corrupted_party_once():
    plans = {
        Role.P1: {1: [
            Envelope(1, Role.P1, Role.P2, Note("first")),
            Envelope(1, Role.P1, Role.P2, Note("second")),
        ]},
        Role.P2: {1: [
            Envelope(1, Role.P2, Role.P2, Note("to myself")),
            Envelope(1, Role.P2, None, Note("to all")),
        ]},
        Role.P3: {1: [
            Envelope(1, Role.P3, Role.P1, Note("not for P2")),
            Envelope(1, Role.P3, None, Note("third")),
        ]},
    }
    parties = _trio(plans)
    run_session(parties, AdversaryHook(corrupted=Role.P2), total_rounds=1)
    assert [p.text for p in parties[Role.P2].payloads] == [
        "first", "second", "third", "to myself", "to all",
    ]
    assert [p.text for p in parties[Role.P1].payloads] == ["not for P2", "third", "to all"]
