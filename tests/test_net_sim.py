"""Scheduler semantics: rounds, rushing, authenticated channels, transcripts."""

import json

import pytest

from silmarils.errors import ScheduleViolation
from silmarils.net_sim import (
    AdversaryHook,
    Envelope,
    NetResult,
    Role,
    broadcast_consistency_check,
    run_session,
    transcript_lines,
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
    net = run_session(parties, total_rounds=1)
    assert parties[Role.P2].payloads == [Note("private to P2"), Note("to everyone")]
    assert parties[Role.P3].payloads == [Note("to everyone")]
    # broadcast reaches the sender too
    assert parties[Role.P1].payloads == [Note("to everyone")]
    assert [e.payload for e in net.broadcasts] == [Note("to everyone")]


def test_round_ordering_is_strict():
    plans = {
        Role.P1: {2: [Envelope(2, Role.P1, Role.P3, Note("second"))]},
        Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("first"))]},
    }
    parties = _trio(plans)
    run_session(parties, total_rounds=2)
    texts = [p.text for p in parties[Role.P3].payloads]
    assert texts == ["first", "second"]


def test_emitting_in_a_foreign_round_is_a_violation():
    party = Chatter(Role.P1, {1: [Envelope(1, Role.P1, None, Note("x"))]})
    party.emit_rounds = frozenset({2})  # advertises 2, emits in 1
    parties = _trio({})
    parties[Role.P1] = party
    with pytest.raises(ScheduleViolation):
        run_session(parties, total_rounds=1)


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
    net = run_session(_trio(plans), total_rounds=2)
    assert broadcast_consistency_check(net.views)
    assert net.views[Role.P2].received[0].payload == Note("hello all")
    assert [e.payload.text for e in net.views[Role.P3].sent] == ["reply"]


def test_collect_false_drops_bookkeeping():
    plans = {Role.P1: {1: [Envelope(1, Role.P1, None, Note("x"))]}}
    net = run_session(_trio(plans), total_rounds=1, collect=False)
    assert net.transcript is None and net.views is None
    assert isinstance(net, NetResult)


def test_transcript_lines_are_valid_json_and_ordered():
    plans = {
        Role.P1: {1: [
            Envelope(1, Role.P1, Role.P2, Note("a")),
            Envelope(1, Role.P1, None, Note("b")),
        ]},
        Role.P2: {2: [Envelope(2, Role.P2, Role.P3, Note("c"))]},
    }
    net = run_session(_trio(plans), total_rounds=2)
    lines = transcript_lines(net.transcript)
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
    return (
        [(e.round, e.payload.text) for e in view.received],
        [(e.round, e.payload.text) for e in view.sent],
    )


def _busy_trio():
    # P2 is corrupted below: it gets private and broadcast traffic in every
    # round and emits two envelopes per round, so rewrite runs twice a round.
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
    recordings = {}
    for collect in (True, False):
        seen = recordings[collect] = []

        def record(env, view):
            seen.append(_snapshot(view))
            return [env]

        parties = _busy_trio()
        net = run_session(
            parties,
            AdversaryHook(corrupted=Role.P2, rewrite=record),
            total_rounds=3,
            collect=collect,
        )
        assert len(seen) == 6
        if collect:
            received, sent = _snapshot(net.views[Role.P2])
            assert received == [(e.round, e.payload.text) for e in parties[Role.P2].got]
            for seen_received, seen_sent in seen:
                assert seen_received == received[: len(seen_received)]
                assert seen_sent == sent[: len(seen_sent)]
            assert seen[-1][1] == sent
    assert recordings[True] == recordings[False]


def test_corrupted_party_in_a_foreign_round_is_a_violation_unless_dropped():
    def parties():
        trio = _trio({Role.P2: {1: [Envelope(1, Role.P2, Role.P3, Note("early"))]}})
        trio[Role.P2].emit_rounds = frozenset({2})  # advertises 2, emits in 1
        return trio

    with pytest.raises(ScheduleViolation):
        run_session(parties(), AdversaryHook(corrupted=Role.P2), total_rounds=2)
    trio = parties()
    run_session(
        trio,
        AdversaryHook(corrupted=Role.P2, rewrite=lambda env, view: []),
        total_rounds=2,
    )
    assert trio[Role.P3].payloads == []


@pytest.mark.parametrize("collect", [True, False])
def test_rushing_delivers_each_envelope_to_the_corrupted_party_once(collect):
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
    run_session(
        parties,
        AdversaryHook(corrupted=Role.P2),
        total_rounds=1,
        collect=collect,
    )
    assert [p.text for p in parties[Role.P2].payloads] == [
        "first", "second", "third", "to myself", "to all",
    ]
    assert [p.text for p in parties[Role.P1].payloads] == ["not for P2", "third", "to all"]
