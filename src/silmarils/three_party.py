"""Three-party protocol: a signer P1 authenticates a value to a holder P2 so
that P2 can later transfer it to a verifier P3.

Signing phase: before round 1, P1 takes the signature its opener drew off its
tape, one of a batch (open_signing_sessions), and hashes (M, sig) to the
authenticated value x; in round 1 it installs an affine line: P2 gets the
points (x, sigma) and (x', sigma'), P3 gets the line keys (k1, k2, k2') with
sigma = k1*x + k2 and sigma' = k1*x' + k2'.  P2 broadcasts a random linear
combination as a challenge; P1 and P3 each check it against what they hold,
P1 judges P3's declaration, and one of four resolution arms runs:

    A: P1 declares "P2 corrupt", reveals (x, sigma); P2 adopts it, P3 re-keys.
    B: everyone accepts; nothing to fix.
    C: P3 rejected and P1's judgement agrees the line is bad; P1 reveals
       (x, sigma) and P3 re-keys k2 := sigma - k1*x.
    D: P3's declaration contradicts what the keys imply; P1 declares
       "P3 corrupt", reveals (k1, k2); P2 re-derives sigma, P3 adopts the keys.

Every arm ends the signing phase with z2 = x (never bottom).  Transfer phase:
P2 sends its current (x, sigma) to P3, who sets z3 = x iff
sigma = k1*x + k2 and bottom otherwise.

The payload (M, sig, n) rides along P1 -> P2 -> P3 so the transferred value
can be interpreted: interpret_value accepts x iff H(M, sig) = x and the
two-party predicate verifies under the receipt derived from n.

Fixed round schedule: 1 setup, 2 challenge, 3 P1's challenge check, 4 P3's
check, 5 P1's judgement of P3's check, 6 resolution reveals, 7 transfer.
Honest parties fall back to zero-valued defaults when a (corrupt)
counterparty starves them of state, keeping every session total.  A session's
result is read off the parties' final state: P1's setup and arm, P2's z2,
P3's z3 and the transfer it received.  force_coins, the one way to force
coins, twins a session with the installer's coins or the challenge forced.

SCHEMA declares each payload's route and field kinds.  open_signing_sessions
gives each Session admissible over that table, so what a corrupt party's
turn sends reaches the parties only if it is on route with every field of
its kind and every element canonical over the session's prime; any other
envelope is a network dead letter.  The parties therefore read only protocol
messages, every ok is a bool, and they rely on admission to compute on
residues: every check and update is a*x + b mod q (_line), one counted mul,
and elements are built only for payload fields and stored state.

Wire format (to_wire, the ``payload`` hex of a transcript line): the class's
tag byte, written as a one-byte message, then each field in declared order:
00 None, 01 + one byte for a bool, 02 + 8-byte big-endian length + bytes for
the message and a signature (Signature.encode()), 03 + fixed-width element.
Each payload keeps its to_wire bytes; honest verdicts go out in shared envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Union

from ._record import frozen_record
from .errors import ModulusMismatch, ProtocolMisuse, WrongType, require_bytes
from .field import FieldElement, counting
from .field._pure import _element
from .hashing import authenticated_value, derive_receipt, receipt_from_nonce
from .net_sim import AdversaryHook, Envelope, Role, Session
from .rng import Rng
from .sss import Weights
from .two_party import KeyMaterial, Signature, _core_verify, _sign_batch, _signatures

ROUND_SETUP = 1
ROUND_CHALLENGE = 2
ROUND_P1_CHECK = 3
ROUND_P3_CHECK = 4
ROUND_AUDIT = 5
ROUND_RESOLUTION = 6
ROUND_TRANSFER = 7
TOTAL_ROUNDS = 7


def _wire_parts(*parts) -> bytes:
    out = bytearray()
    for part in parts:
        if type(part) is FieldElement:
            out += b"\x03" + part.to_bytes()
            continue
        if isinstance(part, Signature):
            part = part.encode()
        if part is None:
            out += b"\x00"
        elif isinstance(part, bool):
            out += b"\x01" + bytes([part])
        elif isinstance(part, (bytes, bytearray)):
            out += b"\x02" + len(part).to_bytes(8, "big") + bytes(part)
        else:
            raise WrongType(f"no wire encoding for {type(part).__name__}")
    return bytes(out)


class _Payload:
    """A session message; each subclass sets its one-byte ``tag``.  to_wire
    keeps its bytes in _wire, outside ==, hash, repr, fields() and replace()."""

    _wire = None

    def to_wire(self) -> bytes:
        if self._wire is None:
            fields = map(self.__dict__.__getitem__, self.__dataclass_fields__)
            self.__dict__["_wire"] = _wire_parts(self.tag, *fields)
        return self._wire


@frozen_record
class HolderSetup(_Payload):
    """P1 -> P2: the line points plus the interpretation payload."""

    tag = b"\x10"
    x: object
    x_prime: object
    sigma: object
    sigma_prime: object
    message: bytes
    sig_alg: Signature
    nonce: object


@frozen_record
class VerifierSetup(_Payload):
    """P1 -> P3: the affine line keys."""

    tag = b"\x11"
    k1: object
    k2: object
    k2_prime: object


@frozen_record
class Challenge(_Payload):
    """P2's broadcast: a random linear combination of its two points."""

    tag = b"\x12"
    e: object
    x_e: object
    sigma_e: object


@frozen_record
class ChallengeVerdict(_Payload):
    """P1's broadcast check of the challenge; carries the reveal on failure."""

    tag = b"\x13"
    labels = ("P2 corrupt", "accept")
    ok: bool
    reveal_x: object = None
    reveal_sigma: object = None

    @property
    def reveals(self) -> bool:
        """Failing with its point; P2 and P3 take one without it as silence."""
        return not self.ok and self.reveal_x is not None and self.reveal_sigma is not None


@frozen_record
class LineVerdict(_Payload):
    """P3's broadcast check of the challenge against its keys."""

    tag = b"\x14"
    labels = ("reject", "accept")
    ok: bool


@frozen_record
class AuditVerdict(_Payload):
    """P1's broadcast judgement of P3's declaration."""

    tag = b"\x15"
    labels = ("P3 corrupt", "accept")
    ok: bool


@frozen_record
class RevealPoint(_Payload):
    """Resolution arm C: P1 publishes the authoritative point."""

    tag = b"\x16"
    x: object
    sigma: object


@frozen_record
class RevealLine(_Payload):
    """Resolution arm D: P1 publishes the line keys."""

    tag = b"\x17"
    k1: object
    k2: object


@frozen_record
class TransferValue(_Payload):
    """P2 -> P3: the held point plus the interpretation payload."""

    tag = b"\x18"
    x: object
    sigma: object
    message: bytes
    sig_alg: Optional[Signature]
    nonce: object


# Each payload's route, (round, sender, recipient) with None for broadcast,
# and one kind per field in declared order: E an element of the session
# prime, O an element or None, B a bool, M bytes, S a Signature of five
# elements, Z a Signature or None.
SCHEMA = {
    HolderSetup: ((ROUND_SETUP, Role.P1, Role.P2), "EEEEMSE"),
    VerifierSetup: ((ROUND_SETUP, Role.P1, Role.P3), "EEE"),
    Challenge: ((ROUND_CHALLENGE, Role.P2, None), "EEE"),
    ChallengeVerdict: ((ROUND_P1_CHECK, Role.P1, None), "BOO"),
    LineVerdict: ((ROUND_P3_CHECK, Role.P3, None), "B"),
    AuditVerdict: ((ROUND_AUDIT, Role.P1, None), "B"),
    RevealPoint: ((ROUND_RESOLUTION, Role.P1, None), "EE"),
    RevealLine: ((ROUND_RESOLUTION, Role.P1, None), "EE"),
    TransferValue: ((ROUND_TRANSFER, Role.P2, Role.P3), "OOMZO"),
}
# The field types each kind admits; admissible also checks that every
# element, a signature's five parts included, is canonical over the
# session's prime.
_KIND_TYPES = {
    "E": (FieldElement,), "O": (FieldElement, type(None)), "B": (bool,),
    "M": (bytes,), "S": (Signature,), "Z": (Signature, type(None)),
}
# SCHEMA compiled once: each class's route and, in declared order, each field
# with the types its kind admits.
_ADMIT = {
    cls: (route, tuple(zip(cls.__dataclass_fields__, map(_KIND_TYPES.__getitem__, kinds))))
    for cls, (route, kinds) in SCHEMA.items()
}
# The envelopes honest P1 and P3 broadcast their verdicts in, by ok.
_SHARED = {
    cls: tuple(Envelope(*SCHEMA[cls][0], cls(ok)) for ok in (False, True))
    for cls in (ChallengeVerdict, LineVerdict, AuditVerdict)
}


def admissible(prime, env: Envelope) -> bool:
    """Whether env may reach an honest party in a session over prime: its
    payload is one of SCHEMA's, on its route, with every field present and
    of its kind, and every element canonical over prime."""
    payload = env.payload
    entry = _ADMIT.get(type(payload))
    if entry is None or entry[0] != (env.round, env.sender, env.recipient):
        return False
    q, fields = prime.value, payload.__dict__
    try:  # KeyError: a field or part is missing; AttributeError: a slot is unset
        for name, types in entry[1]:
            value = fields[name]
            if type(value) not in types:
                return False
            parts = (value,) if type(value) is FieldElement else ()
            if type(value) is Signature:
                parts = map(value.__dict__.__getitem__, Signature.__dataclass_fields__)
            for part in parts:
                if type(part) is not FieldElement or part.prime.value != q:
                    return False
                if type(part.residue) is not int or not 0 <= part.residue < q:
                    return False
    except (KeyError, AttributeError):
        return False
    return True


def _line(a: int, x: int, b: int, q: int) -> int:
    """a*x + b mod q on residues, counted as its one field mul."""
    if counting.enabled:
        counting.bump_mul()
    return (a * x + b) % q


def _on_line(ch, k1, k2, k2_prime) -> bool:
    """Whether the challenge lies on the keyed line: sigma_e = k1*x_e + k2' + e*k2."""
    q = k1.prime.value
    e_k2 = _line(ch.e.residue, k2.residue, k2_prime.residue, q)
    return ch.sigma_e.residue == _line(k1.residue, ch.x_e.residue, e_k2, q)


@dataclass
class SessionOutcome:
    """z2 (holder), z3 (verifier, None = bottom) and the transcript; its
    broadcast verdicts, as (round, sender, declaration) triples, are built on read."""

    z2: object
    z3: object
    transcript: list

    @cached_property
    def verdicts(self) -> list:
        # Verdict payloads carry (reject label, accept label), indexed by ok.
        return [
            (env.round, env.sender.value, env.payload.labels[env.payload.ok])
            for env in self.transcript
            if env.recipient is None and hasattr(env.payload, "labels")
        ]


class P1Signer:
    """The signer's state machine; emits in rounds 1, 3, 5, 6.  It never
    signs: its opener signs off the tape, before round 1's coins, and hands it
    sig_alg; the nonce is the receipt memo's, which signing has just filled.

    Arm C cannot arise while P1 is honest: a challenge that passes the
    round-3 check lies on the line P1 dealt, so its keys imply acceptance and
    a rejecting P3 fails the audit (arm D).  The arm is the paper's and stays.
    """

    emit_rounds = frozenset({ROUND_SETUP, ROUND_P1_CHECK, ROUND_AUDIT, ROUND_RESOLUTION})

    def __init__(self, keys: KeyMaterial, message: bytes, tape: Rng, sig_alg: Signature):
        self.keys = keys
        self.message = message
        self._rng = tape
        self._ic_coins = None  # set only by force_coins
        prime = keys.sk_K.prime
        self.sig_alg = sig_alg
        self.nonce = derive_receipt(keys.k_sig, message, prime)[0]
        self.x = authenticated_value(message, sig_alg.encode(), prime)
        self.setup: Optional[HolderSetup] = None
        self.line: Optional[VerifierSetup] = None
        self.challenge: Optional[Challenge] = None
        self.p3_verdict: Optional[LineVerdict] = None
        self.arm: Optional[str] = None

    def emit(self, rnd: int) -> list:
        if rnd == ROUND_SETUP:
            # Deal both setup packages; forced coins replace the tape's draws
            # of (k1, k2, x_prime, k2_prime).
            prime, coins = self.keys.sk_K.prime, self._ic_coins
            if coins is None:
                coins = [_element(v, prime) for v in prime._residues(self._rng, (False,) * 4)]
            k1, k2, x_prime, k2_prime = coins
            x, q = self.x, prime.value
            self.setup = HolderSetup(
                x, x_prime,
                _element(_line(k1.residue, x.residue, k2.residue, q), prime),
                _element(_line(k1.residue, x_prime.residue, k2_prime.residue, q), prime),
                self.message, self.sig_alg, self.nonce,
            )
            self.line = VerifierSetup(k1, k2, k2_prime)
            return [
                Envelope(rnd, Role.P1, Role.P2, self.setup),
                Envelope(rnd, Role.P1, Role.P3, self.line),
            ]
        if rnd == ROUND_P1_CHECK:
            # Compare the broadcast combination against the real line.  A
            # missing challenge counts as a deviation (silence is not honest
            # behavior in a synchronous protocol).
            s, ch, q = self.setup, self.challenge, self.x.prime.value
            if (
                ch is not None
                and ch.x_e.residue == _line(ch.e.residue, s.x.residue, s.x_prime.residue, q)
                and ch.sigma_e.residue
                == _line(ch.e.residue, s.sigma.residue, s.sigma_prime.residue, q)
            ):
                return [_SHARED[ChallengeVerdict][True]]
            self.arm = "A"
            return [Envelope(rnd, Role.P1, None, ChallengeVerdict(False, s.x, s.sigma))]
        if rnd == ROUND_AUDIT:
            if self.arm == "A":
                return []
            # Is P3's declaration what the keys P1 dealt imply?  With no
            # challenge or no declaration there is no basis to judge: a
            # silent P3 is inconsistent by definition.
            ch, declared, k = self.challenge, self.p3_verdict, self.line
            ok = ch is not None and declared is not None and declared.ok == _on_line(
                ch, k.k1, k.k2, k.k2_prime
            )
            if not ok:
                self.arm = "D"
            return [_SHARED[AuditVerdict][ok]]
        if rnd == ROUND_RESOLUTION:
            if self.arm == "A":
                return []
            if self.arm == "D":
                k = self.line
                return [Envelope(rnd, Role.P1, None, RevealLine(k.k1, k.k2))]
            if self.p3_verdict is not None and not self.p3_verdict.ok:
                self.arm = "C"
                s = self.setup
                return [Envelope(rnd, Role.P1, None, RevealPoint(s.x, s.sigma))]
            self.arm = "B"
            return []
        return []

    def deliver(self, env: Envelope) -> None:
        # First message of each kind wins; a corrupt counterparty repeating a
        # broadcast with new contents must not move state twice.
        payload = env.payload
        if isinstance(payload, Challenge):
            if self.challenge is None:
                self.challenge = payload
        elif isinstance(payload, LineVerdict):
            if self.p3_verdict is None:
                self.p3_verdict = payload


class P2Holder:
    """The holder's state machine; emits in rounds 2 and 7."""

    emit_rounds = frozenset({ROUND_CHALLENGE, ROUND_TRANSFER})

    def __init__(self, prime, tape: Rng):
        self.prime = prime
        self._rng = tape
        self._coin = None  # set only by force_coins
        self.setup: Optional[HolderSetup] = None
        self.cur_x = None
        self.cur_sigma = None
        self.z2 = None
        self._resolved = False

    def _resolve(self) -> None:
        if not self._resolved:
            self._resolved = True
            self.z2 = self.cur_x

    def emit(self, rnd: int) -> list:
        s = self.setup
        if rnd == ROUND_CHALLENGE:
            # Broadcast a random combination of the two held points.  Starved
            # by a corrupt signer, challenge over zeros: the session stays
            # total and every check downstream fails closed.
            if s is None:
                zero = self.prime.zero
                ch = Challenge(zero, zero, zero)
            else:
                prime = self.prime
                e = self._coin if self._coin is not None else prime.sample(self._rng)
                x_e = _line(e.residue, s.x.residue, s.x_prime.residue, prime.value)
                sigma_e = _line(e.residue, s.sigma.residue, s.sigma_prime.residue, prime.value)
                ch = Challenge(e, _element(x_e, prime), _element(sigma_e, prime))
            return [Envelope(rnd, Role.P2, None, ch)]
        if rnd == ROUND_TRANSFER:
            # Hand the current point (and payload) to the verifier.
            self._resolve()
            payload = (s.message, s.sig_alg, s.nonce) if s else (b"", None, None)
            transfer = TransferValue(self.cur_x, self.cur_sigma, *payload)
            return [Envelope(rnd, Role.P2, Role.P3, transfer)]
        return []

    def deliver(self, env: Envelope) -> None:
        # First setup wins; once the signing phase is resolved (arm A), later
        # reveals cannot move the authoritative point away from z2.
        payload = env.payload
        if isinstance(payload, HolderSetup):
            if self.setup is None:
                self.setup = payload
                self.cur_x = payload.x
                self.cur_sigma = payload.sigma
        elif isinstance(payload, ChallengeVerdict):
            if payload.reveals and not self._resolved:
                # Arm A: the revealed point is authoritative.
                self.cur_x = payload.reveal_x
                self.cur_sigma = payload.reveal_sigma
                self._resolve()
        elif isinstance(payload, RevealPoint):
            if not self._resolved:
                self.cur_x = payload.x
                self.cur_sigma = payload.sigma
        elif isinstance(payload, RevealLine):
            if not self._resolved:
                prime, x = self.prime, self.cur_x
                if x is None:
                    x = self.cur_x = prime.zero
                sigma = _line(payload.k1.residue, x.residue, payload.k2.residue, prime.value)
                self.cur_sigma = _element(sigma, prime)


class P3Verifier:
    """The verifier's state machine; emits in round 4."""

    emit_rounds = frozenset({ROUND_P3_CHECK})

    def __init__(self, prime):
        self.prime = prime
        self.k1 = None
        self.k2 = None
        self.k2_prime = None
        self.challenge: Optional[Challenge] = None
        self.z3 = None
        self._arm_a = False
        self.transfer_payload: Optional[TransferValue] = None

    @property
    def has_keys(self) -> bool:
        return self.k1 is not None

    def _rekey(self, x, sigma) -> None:
        """Arms A and C: keep k1 (zero when starved of keys) and move the
        line onto the revealed point, k2 := sigma - k1*x."""
        prime = self.prime
        if not self.has_keys:
            self.k1 = prime.zero
        self.k2 = _element(_line(-self.k1.residue, x.residue, sigma.residue, prime.value), prime)

    def emit(self, rnd: int) -> list:
        if rnd == ROUND_P3_CHECK:
            if self._arm_a:
                return []
            # Does the broadcast combination lie on the keyed line?  Starved
            # of the setup (the only message that deals k2') or of the
            # challenge: fail closed.
            ch = self.challenge
            ok = (
                self.k2_prime is not None
                and ch is not None
                and _on_line(ch, self.k1, self.k2, self.k2_prime)
            )
            return [_SHARED[LineVerdict][ok]]
        return []

    def deliver(self, env: Envelope) -> None:
        # Mirrors P2's rules: first setup/challenge/transfer wins, and once
        # arm A resolved the signing phase, later reveals are ignored.
        payload = env.payload
        if isinstance(payload, VerifierSetup):
            if not self.has_keys:
                self.k1 = payload.k1
                self.k2 = payload.k2
                self.k2_prime = payload.k2_prime
        elif isinstance(payload, Challenge):
            if self.challenge is None:
                self.challenge = payload
        elif isinstance(payload, ChallengeVerdict):
            if payload.reveals and not self._arm_a:
                self._arm_a = True
                self._rekey(payload.reveal_x, payload.reveal_sigma)
        elif isinstance(payload, RevealPoint):
            if not self._arm_a:
                self._rekey(payload.x, payload.sigma)
        elif isinstance(payload, RevealLine):
            if not self._arm_a:
                self.k1 = payload.k1
                self.k2 = payload.k2
        elif isinstance(payload, TransferValue):
            # Transfer phase: output x iff the point lies on the line.  A
            # holder starved of every point transfers none: bottom.
            if self.transfer_payload is None:
                self.transfer_payload = payload
                x, sigma = payload.x, payload.sigma
                if (
                    self.has_keys
                    and x is not None
                    and sigma is not None
                    and sigma.residue
                    == _line(self.k1.residue, x.residue, self.k2.residue, self.prime.value)
                ):
                    self.z3 = x


def interpret_value(pk: Weights, message: bytes, sig_alg: Signature, x, *, nonce) -> bool:
    """Accept x iff it hashes from (M, sig) and the signature verifies under
    the receipt derived from the nonce."""
    r = receipt_from_nonce(message, nonce)
    return _core_verify(pk, r, sig_alg) and (
        authenticated_value(message, sig_alg.encode(), pk.prime) == x
    )


@dataclass
class IcSessionResult:
    """One full session: protocol outcome plus the signer-side ground truth."""

    outcome: SessionOutcome
    x: object
    sig_alg: Optional[Signature]
    nonce: object
    arm: Optional[str]
    accepted: Optional[bool]


def open_signing_sessions(keys: KeyMaterial, message: bytes, seeds, adversaries) -> list:
    """A Session at round 0 per root seed and hook (or None); every P1 signs
    in one _sign_batch, each off its b"tape/P1" fork as if opened alone.  A
    seed may also be its root Rng, which the parties' forks leave unmoved."""
    prime = keys.sk_K.prime
    roots = [seed if type(seed) is Rng else Rng(seed) for seed in seeds]
    tapes = [root.fork(b"tape/P1") for root in roots]
    require_bytes(message, "a message")
    message = bytes(message)  # payload fields are immutable
    sigs = _signatures(prime, _sign_batch(keys, message, tapes, len(tapes))[-1])
    admit = partial(admissible, prime)
    return [
        Session({
            Role.P1: P1Signer(keys, message, tape, sig),
            Role.P2: P2Holder(prime, root.fork(b"tape/P2")),
            Role.P3: P3Verifier(prime),
        }, adversary, admit=admit)
        for root, tape, sig, adversary in zip(roots, tapes, sigs, adversaries)
    ]


def open_signing_session(
    keys: KeyMaterial, message: bytes, seed: Union[bytes, Rng], *,
    adversary: Optional[AdversaryHook] = None,
) -> Session:
    """open_signing_sessions of one: the three parties in a Session at round 0."""
    return open_signing_sessions(keys, message, [seed], [adversary])[0]


def force_coins(session: Session, *, ic_coins=None, challenge_coin=None) -> Session:
    """A twin of the session with P1's installer coins (k1, k2, x', k2') and/or
    P2's challenge coin forced (None: left as they are).  Raises before it
    branches: ProtocolMisuse if a forced coin's round has run, WrongType
    unless ic_coins is a 4-tuple of elements and challenge_coin an element,
    ModulusMismatch if one is over another prime than the session's."""
    forced = []
    if ic_coins is not None:
        if session.rounds_run >= ROUND_SETUP:
            raise ProtocolMisuse("the installer's coins are dealt in round 1, which has run")
        if type(ic_coins) is not tuple or len(ic_coins) != 4:
            raise WrongType("the installer's coins must be a tuple of four elements")
        forced += ic_coins
    if challenge_coin is not None:
        if session.rounds_run >= ROUND_CHALLENGE:
            raise ProtocolMisuse("the challenge coin is drawn in round 2, which has run")
        forced.append(challenge_coin)
    q = session.parties[Role.P2].prime.value
    for coin in forced:
        if type(coin) is not FieldElement:
            raise WrongType(f"a coin must be an element, got {type(coin).__name__}")
        if coin.prime.value != q:
            raise ModulusMismatch(f"a coin over {coin.prime.value} in a session over {q}")
    twin = session.branch(session.adversary)
    parties = twin.parties
    if ic_coins is not None:
        parties[Role.P1]._ic_coins = ic_coins
    if challenge_coin is not None:
        parties[Role.P2]._coin = challenge_coin
    return twin


def signing_result(session: Session, *, interpret: bool = False) -> IcSessionResult:
    """Read a session that has run all seven rounds off its parties."""
    parties = session.parties
    p1, p2, p3 = parties[Role.P1], parties[Role.P2], parties[Role.P3]
    accepted = None
    if interpret:
        # z3 is set only by a delivered transfer, so one is present here.
        transfer = p3.transfer_payload
        accepted = (
            p3.z3 is not None
            and transfer.sig_alg is not None
            and transfer.nonce is not None
            and interpret_value(
                p1.keys.pk, transfer.message, transfer.sig_alg, p3.z3, nonce=transfer.nonce
            )
        )
    s = p1.setup
    return IcSessionResult(
        outcome=SessionOutcome(p2.z2, p3.z3, session.result()),
        x=s.x,
        sig_alg=s.sig_alg,
        nonce=s.nonce,
        arm=p1.arm,
        accepted=accepted,
    )


def run_signing_session(
    keys: KeyMaterial, message: bytes, seed: Union[bytes, Rng], *,
    adversary: Optional[AdversaryHook] = None, interpret=False,
) -> IcSessionResult:
    """Construct the three parties from a root seed (or its Rng) and run all
    seven rounds."""
    session = open_signing_session(keys, message, seed, adversary=adversary)
    return signing_result(session.run(TOTAL_ROUNDS), interpret=interpret)
