"""Deterministic synchronous network: private authenticated channels,
authenticated broadcast, a fixed round schedule, and one actively corrupted
party.

The party contract is three members: emit(round) -> [Envelope],
deliver(envelope), and emit_rounds, the set of rounds the party may emit in.
A party's state is its attributes: they are rebound, never mutated in place,
except its tape, which advances.  A party keeps its tape, if any, in _rng; a
branch copies the attribute dict and that tape (the keys' per-message memos
cache a pure function, so sharing them changes nothing).  The scheduler runs
rounds in lockstep, delivering each round's traffic before the next round
begins.  It returns only what travelled over the network; a party's result
is its own state, which the caller reads off the party object it built.  The
parties' tapes and the adversary's choices carry all the randomness.

A Session runs in steps: run(k) runs on through round k, and rounds_run is
the last round run.  branch(adversary) returns an independent twin under a
new hook for the same corrupted role: each party a new instance of its type
with its attribute dict and tape copied (by the state contract, a full copy),
a copy of the transcript, and the corrupted party's sent list.  Exhaustive
sweeps branch to run the rounds their grid points share once.  run_session
runs a Session to the end and returns its transcript.  A run that raised
mid-round is spent: part of that round was recorded and delivered, so it
must be neither run on nor branched.

Each round fans out twice.  A fan-out appends envelopes to the transcript,
then delivers each broadcast to every party and each private envelope to its
recipient.  The honest parties' envelopes, emitted on pre-round knowledge,
fan out first.  Then the corrupted party, holding those addressed to it, as
the broadcast model's rushing adversary may, emits; the adversary's rewrites
of its envelopes fan out.  The scheduler guarantees two things: senders are
authenticated (a replacement that names another sender raises), and every
broadcast envelope is delivered to all parties.  The honest parties do not
yet check a payload's route (its round, sender and channel), so a corrupt
party can send a broadcast-kind payload privately, to one party only.

So the transcript is the session's one record, and each party receives what
is addressed to it in transcript order: view_of(transcript, role) is exactly
what role was delivered.  The corrupted party's View reads that off the
transcript and keeps only what the party sent.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from ._record import frozen_record
from .errors import ProtocolMisuse, ScheduleViolation


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
    """The corrupted party's view, which the adversary's rewrite receives:
    received is every envelope delivered to it so far (broadcasts included),
    read off its session's transcript by view_of; sent is every envelope it
    emitted, before the rewrite, in order."""

    role: Role
    transcript: list = field(repr=False)
    sent: list = field(default_factory=list)

    @property
    def received(self) -> list:
        return view_of(self.transcript, self.role)


@frozen_record
class AdversaryHook:
    """Single-corruption active adversary.

    rewrite(envelope, view) -> list of replacement envelopes; it may drop
    (empty list), replace, or inject extra envelopes, all with sender =
    corrupted.  Without one, each envelope goes out as emitted.  A session
    without corruption takes no hook.
    """

    corrupted: Role
    rewrite: Callable = None  # type: ignore[assignment]


class Session:
    """One session, run in steps from round 0 (see the module docstring)."""

    def __init__(self, parties: Mapping[Role, object], adversary=None):
        corrupted = adversary.corrupted if adversary else None
        if corrupted is not None and corrupted not in parties:
            raise ProtocolMisuse(f"corrupted role {corrupted} not present")
        self.adversary = adversary
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
        """Run the rounds after the last one run, through round `until`.
        Raises ScheduleViolation if a party emits outside its emit_rounds."""
        adversary = self.adversary
        rewrite = adversary.rewrite if adversary and adversary.rewrite else lambda env, view: [env]
        view = self._view
        corrupted = view.role if view else None
        slots = self._slots
        everyone = [party for _, party in slots]
        addressed = {role: (party,) for role, party in slots}
        honest = [slot for slot in slots if slot[0] is not corrupted]
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
            for role, party in honest:
                out = party.emit(rnd)
                if out:
                    if rnd not in party.emit_rounds:
                        raise ScheduleViolation(f"{role} emitted in foreign round {rnd}")
                    emitted.extend(out)
            fan_out(emitted)
            if view is not None:
                rewritten: list[Envelope] = []
                for env in adv.emit(rnd):
                    view.sent.append(env)
                    for replacement in rewrite(env, view):
                        if replacement.sender is not corrupted:
                            raise ProtocolMisuse(
                                "adversary cannot forge sender "
                                f"{replacement.sender}: channels are authenticated"
                            )
                        rewritten.append(replacement)
                if rewritten:
                    if rnd not in adv.emit_rounds:
                        raise ScheduleViolation(f"{corrupted} emitted in foreign round {rnd}")
                    fan_out(rewritten)
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
        twin._transcript = self._transcript[:]
        twin._view = view and View(view.role, twin._transcript, view.sent[:])
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
