"""Deterministic synchronous network: private authenticated channels,
authenticated broadcast, a fixed round schedule, and one actively corrupted
party.

The party contract is three members: emit(round) -> [Envelope],
deliver(envelope), and emit_rounds, the set of rounds the scheduler asks the
party to emit in; it asks in no other round, so no party, honest or
corrupted, speaks outside its rounds.  A party's state is its attributes:
they are rebound, never mutated in place, except its tape, which advances.
A party keeps its tape, if any, in _rng; a branch copies the attribute dict
and that tape (the keys' per-message memos cache a pure function, so
sharing them changes nothing).  The scheduler runs rounds in lockstep,
delivering each round's traffic before the next round begins.  It returns
only what travelled over the network; a party's result is its own state,
which the caller reads off the party object it built.  The parties' tapes
and the adversary's choices carry all the randomness.

A Session runs in steps: run(k) runs on through round k, and rounds_run is
the last round run.  branch(adversary) returns an independent twin under a
new hook for the same corrupted role: each party a new instance of its type
with its attribute dict and tape copied (by the state contract, a full copy)
and a copy of the transcript.  Exhaustive sweeps branch to run the rounds
their grid points share once.  run_session runs a Session to the end and
returns its transcript.  A run that raised mid-round is spent: part of that
round was recorded and delivered, so it must be neither run on nor branched.

Each round fans out twice.  A fan-out appends envelopes to the transcript,
then delivers each broadcast to every party and each private envelope to its
recipient.  The honest parties' envelopes, emitted on pre-round knowledge,
fan out first.  Then the corrupted role, holding those addressed to it, as
the broadcast model's rushing adversary may, takes its turn, one in every
round (AdversaryHook); what the turn returns fans out.  The scheduler
guarantees three things: the network authenticates senders and stamps rounds
(a turn that names another sender or another round raises), every broadcast
envelope is delivered to all parties, and an envelope a turn returns reaches
the parties only if the protocol's admit predicate, given to the Session,
accepts it.  Honest envelopes, and a turn that returns its party's own
tuple, go out unchecked; an envelope admit refuses is a dead letter,
delivered to no one, kept out of the transcript and counted in dead_letters.

So the transcript is the session's one record, and each party receives what
is addressed to it in transcript order: view_of(transcript, role) is exactly
what role was delivered.  The corrupted party's View is its role and that
list; a turn sees what its party emits in the round and keeps any history.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ._record import frozen_record
from .errors import ProtocolMisuse


class Role(enum.Enum):
    P1 = "P1"  # signer
    P2 = "P2"  # holder
    P3 = "P3"  # verifier

    # Members are singletons and compare by identity, so identity hashing
    # agrees with ==; it skips Enum's Python-level __hash__ on every lookup.
    __hash__ = object.__hash__

    def __repr__(self):
        return self.value


@frozen_record
class Envelope:
    """One scheduled message: private (recipient set) or broadcast."""

    round: int
    sender: Role
    recipient: Optional[Role]  # None = broadcast
    payload: object

    @property
    def is_broadcast(self) -> bool:
        return self.recipient is None


@dataclass
class View:
    """The corrupted party's view, which the adversary's turn receives:
    received is every envelope delivered to it so far (broadcasts included),
    read off its session's transcript by view_of.  A turn that needs what
    the party sent keeps that history itself."""

    role: Role
    transcript: list = field(repr=False)

    @property
    def received(self) -> list:
        return view_of(self.transcript, self.role)


@frozen_record
class AdversaryHook:
    """Single-corruption active adversary.

    rewrite(round, own, view) -> list is the corrupted role's turn in every
    round: own is the tuple of what its party emitted (() outside its
    emit_rounds), and the role sends the list returned, own itself unchecked;
    a tuple cannot be changed in place.  Without a rewrite, own goes out.  A
    session without corruption takes no hook.
    """

    corrupted: Role
    rewrite: Callable = None  # type: ignore[assignment]


class Session:
    """One session, run in steps from round 0 (see the module docstring)."""

    def __init__(self, parties: Mapping[Role, object], adversary=None, admit=None):
        corrupted = adversary.corrupted if adversary else None
        if corrupted is not None and corrupted not in parties:
            raise ProtocolMisuse(f"corrupted role {corrupted} not present")
        self.adversary = adversary
        self.admit = admit  # envelope -> bool; None admits what every turn returns
        self.dead_letters = 0
        self._slots = list(parties.items())  # (role, party), in mapping order
        self._transcript: list = []
        self._view = View(corrupted, self._transcript) if corrupted is not None else None
        self._round = 0

    @property
    def parties(self) -> dict:
        return dict(self._slots)

    @property
    def rounds_run(self) -> int:
        """The last round run; 0 before the first."""
        return self._round

    def run(self, until: int) -> "Session":
        """Run the rounds after the last one run, through round `until`,
        asking each party to emit only in its emit_rounds."""
        adversary, admit = self.adversary, self.admit
        rewrite = adversary and adversary.rewrite
        view = self._view
        corrupted = view.role if view else None
        slots = self._slots
        everyone = [party for _, party in slots]
        addressed = {role: (party,) for role, party in slots}
        honest = [party for role, party in slots if role is not corrupted]
        adv = addressed[corrupted][0] if view else None
        transcript = self._transcript

        def fan_out(envelopes):
            transcript.extend(envelopes)
            for env in envelopes:
                targets = everyone if env.recipient is None else addressed.get(env.recipient, ())
                for party in targets:
                    party.deliver(env)

        for rnd in range(self._round + 1, until + 1):
            # Honest parties emit on pre-round knowledge; the corrupted one last.
            emitted: list[Envelope] = []
            for party in honest:
                if rnd in party.emit_rounds:
                    emitted.extend(party.emit(rnd))
            fan_out(emitted)
            if view is not None:
                own = tuple(adv.emit(rnd)) if rnd in adv.emit_rounds else ()
                sent = rewrite(rnd, own, view) if rewrite else own
                if sent is not own:
                    sent = list(sent)  # any iterable, read once
                    for env in sent:
                        if env.sender is not corrupted:
                            raise ProtocolMisuse(
                                "adversary cannot forge sender "
                                f"{env.sender}: channels are authenticated"
                            )
                        if env.round != rnd:
                            raise ProtocolMisuse(
                                f"adversary cannot restamp round {rnd} as "
                                f"{env.round}: the network stamps rounds"
                            )
                    admitted = [env for env in sent if admit is None or admit(env)]
                    self.dead_letters += len(sent) - len(admitted)
                    sent = admitted
                fan_out(sent)
            self._round = rnd
        return self

    def result(self) -> list:
        """The transcript: every envelope the network carried so far, in order."""
        return self._transcript

    def branch(self, adversary: Optional[AdversaryHook]) -> "Session":
        """An independent twin under a new hook for the same corrupted role.
        Branch only from a session whose runs all returned (module docstring)."""
        view = self._view
        corrupted = view and view.role
        if (adversary.corrupted if adversary else None) is not corrupted:
            raise ProtocolMisuse(f"a branch must corrupt the same role as its stem ({corrupted})")
        twin = object.__new__(Session)
        twin.adversary = adversary
        twin.admit = self.admit
        twin.dead_letters = self.dead_letters
        twin._transcript = self._transcript[:]
        twin._view = view and View(view.role, twin._transcript)
        twin._round = self._round
        twin._slots = [(role, _copy_party(party)) for role, party in self._slots]
        return twin


def _copy_party(party):
    # Complete: other attributes are only rebound; the tape, _rng, advances.
    twin = object.__new__(type(party))
    state = twin.__dict__ = party.__dict__.copy()
    rng = state.get("_rng")
    if rng is not None:
        state["_rng"] = rng.copy()
    return twin


def run_session(parties: Mapping[Role, object], adversary=None, *, total_rounds: int) -> list:
    """Run one synchronous session to completion and return its transcript;
    see Session."""
    return Session(parties, adversary).run(total_rounds).result()


def view_of(transcript: Sequence[Envelope], role: Role) -> list:
    """The envelopes delivered to role, in delivery order (module docstring)."""
    return [env for env in transcript if env.recipient is None or env.recipient is role]


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
