"""Deterministic synchronous network: private authenticated channels,
authenticated broadcast, a fixed round schedule, and one actively corrupted
party.

Parties are state machines exposing emit(round) -> [Envelope] and
deliver(envelope); the scheduler runs rounds in lockstep, delivering each
round's traffic before the next round begins.  Within a round the corrupted
party acts last and — under the default weak-rushing rule — sees the honest
envelopes addressed to it before emitting; with rushing=False it emits on the
same pre-round knowledge as everyone else.  The adversary rewrites only the
corrupted party's outgoing envelopes, and every replacement must carry the
corrupted sender: channels are authenticated, so spoofing is structurally
impossible, as is per-recipient equivocation on broadcast (a broadcast
envelope is delivered to all parties by the scheduler itself).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import ScheduleViolation


class Role(enum.Enum):
    P1 = "P1"  # signer
    P2 = "P2"  # holder
    P3 = "P3"  # verifier

    def __repr__(self):
        return self.value


@dataclass(frozen=True)
class Envelope:
    """One scheduled message: private (recipient set) or broadcast."""

    round: int
    sender: Role
    recipient: Optional[Role]  # None = broadcast
    payload: object

    @property
    def is_broadcast(self) -> bool:
        return self.recipient is None

    def addressed_to(self, role: Role) -> bool:
        return self.recipient is None or self.recipient == role


@dataclass
class View:
    """What one party saw: every envelope delivered to it (broadcasts
    included) and every envelope it emitted, in order.  The adversary's
    rewrite receives the corrupted party's view."""

    role: Role
    received: list = field(default_factory=list)
    sent: list = field(default_factory=list)


@dataclass(frozen=True)
class AdversaryHook:
    """Single-corruption active adversary.

    rewrite(envelope, view) -> list of replacement envelopes; it may drop
    (empty list), replace, or inject extra envelopes, all with
    sender = corrupted.  corrupted = None means no corruption.
    """

    corrupted: Optional[Role] = None
    rewrite: Callable = None  # type: ignore[assignment]


def _identity_rewrite(envelope: Envelope, view: View):
    return [envelope]


@dataclass
class NetResult:
    """Raw scheduler output; protocol-level meaning is applied by callers."""

    outputs: dict
    broadcasts: list
    transcript: Optional[list]
    views: Optional[dict]


def run_session(
    parties: Mapping[Role, object],
    adversary: Optional[AdversaryHook] = None,
    *,
    total_rounds: int,
    rushing: bool = True,
    collect: bool = True,
) -> NetResult:
    """Run one synchronous session to completion.

    Deterministic: the parties' tapes and the adversary's choices carry all
    the randomness.  Raises ScheduleViolation if any party emits in a round
    it does not own (parties advertise their rounds via .emit_rounds).
    """
    corrupted = adversary.corrupted if adversary else None
    rewrite = adversary.rewrite if adversary and adversary.rewrite else _identity_rewrite
    if corrupted is not None and corrupted not in parties:
        raise ValueError(f"corrupted role {corrupted} not present")

    views = {role: View(role) for role in parties}
    transcript: Optional[list] = [] if collect else None
    broadcasts: list = []

    def deliver(env: Envelope, role: Role) -> None:
        parties[role].deliver(env)
        views[role].received.append(env)

    roles = list(parties)
    for rnd in range(1, total_rounds + 1):
        # Corrupted party last; honest parties emit on pre-round knowledge.
        order = [r for r in roles if r != corrupted] + (
            [corrupted] if corrupted is not None else []
        )
        pending: list[Envelope] = []
        delivered_early: set[int] = set()
        for role in order:
            party = parties[role]
            if role == corrupted:
                if rushing:
                    for env in pending:
                        if env.addressed_to(role):
                            deliver(env, role)
                            delivered_early.add(id(env))
                out = party.emit(rnd)
                rewritten: list[Envelope] = []
                for env in out:
                    views[role].sent.append(env)
                    for replacement in rewrite(env, views[role]):
                        if replacement.sender != corrupted:
                            raise ValueError(
                                "adversary cannot forge sender "
                                f"{replacement.sender}: channels are authenticated"
                            )
                        rewritten.append(replacement)
                out = rewritten
            else:
                out = party.emit(rnd)
                views[role].sent.extend(out)
            if out and rnd not in party.emit_rounds:
                raise ScheduleViolation(f"{role} emitted in foreign round {rnd}")
            pending.extend(out)

        for env in pending:
            if transcript is not None:
                transcript.append(env)
            if env.is_broadcast:
                broadcasts.append(env)
            for role in roles:
                if env.addressed_to(role):
                    if role == corrupted and id(env) in delivered_early:
                        continue
                    deliver(env, role)

    outputs = {role: party.finalize() for role, party in parties.items()}
    return NetResult(
        outputs=outputs,
        broadcasts=broadcasts,
        transcript=transcript,
        views=views if collect else None,
    )


def broadcast_consistency_check(views: Mapping[Role, View]) -> bool:
    """True iff every broadcast appears identically in all parties' views."""
    all_broadcasts = set()
    for view in views.values():
        for env in view.received:
            if env.is_broadcast:
                all_broadcasts.add((env.round, env.sender, env.payload))
    for view in views.values():
        seen = {
            (env.round, env.sender, env.payload)
            for env in view.received
            if env.is_broadcast
        }
        if seen != all_broadcasts:
            return False
    return True


def transcript_lines(transcript: Sequence[Envelope]) -> list[str]:
    """One structured-text line per envelope, stable across runs."""
    lines = []
    for env in transcript:
        record = {
            "round": env.round,
            "sender": env.sender.value,
            "channel": "broadcast" if env.is_broadcast else "private",
            "payload": env.payload.to_wire().hex(),
        }
        if not env.is_broadcast:
            record["to"] = env.recipient.value
        lines.append(json.dumps(record, sort_keys=True))
    return lines
