"""Empirical verification of the scheme's quantitative claims.

Monte Carlo estimators (Wilson 95% intervals, exact rational arithmetic) for
the correctness / unforgeability / transferability error rates and the core
forgery bound, plus exhaustive enumerations at tiny primes where the exact
rate or total-variation distance is computable by brute force.

A verdict is "pass" when the Wilson lower bound does not exceed the analytic
target by more than a slack of 3*sqrt(target/trials): the claims are upper
bounds, so an estimate is only damning when it sits significantly above the
target.  Acceptance tests additionally check two-sided containment where the
true rate is known to equal the target.

Every estimator is deterministic given (seed, p, strategy, trials).

run_trials is the single session-trial loop, and _EXPERIMENTS the one table
of session experiments: keyed by the corrupted role (None for honest,
interpreted sessions), each entry names the event it counts on (x, z2, z3,
accepted).  _estimate_sessions counts that event over run_trials for the
attack estimators and the session form of estimate_correctness; the
exhaustive attack sweeps count it on their leaves, and `silmarils sim3p`
counts the forged and divergent events.  Trial i runs on its own fork of
Rng(seed) (see run_trials), so it depends only on (seed, i), never on the
trials before it, and trials can be split into contiguous shards and their
counts summed exactly.  The sign+verify correctness loop is not a session:
it draws every trial from one b"sign" stream and runs by itself.

The exhaustive session sweeps (attacks and secrecy) share one tree, _stems:
one opened session per (seed, message), so P1 signs once; a branch per
installer coin tuple (k1, k2, x', k2'), which runs round 1; a branch per
challenge e, which runs up to the strategy's acts_in, or through round 6 for
secrecy, whose view reads no later; and a leaf per adversary choice, each
attack's coins and choices coming from its one _SWEEPS entry.  At
p = 5 unforgeability is 1 signature, 625 deals, 3,125 challenges, 15,625 leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import product
from math import isqrt
from typing import Callable, Iterator, Optional

from .errors import (
    EmptyExperiment, PrimeTooLarge, ProtocolMisuse, RoleMismatch, UnknownStrategy, WrongType,
    require_int,
)
from .field import Prime
from .hashing import derive_message_key, derive_receipt
from .net_sim import AdversaryHook, Envelope, Role, view_of
from .rng import Rng
from .sss import Weights
from .three_party import (
    ROUND_RESOLUTION,
    ROUND_SETUP,
    ROUND_TRANSFER,
    TOTAL_ROUNDS,
    HolderSetup,
    TransferValue,
    force_coins,
    open_signing_session,
    open_signing_sessions,
    signing_result,
)
from .two_party import Params, _accepts, _assemble, _sign_batch, keygen

DEFAULT_SEED = b"silmarils/stats/default-seed\x00\x00\x00\x00"
DEFAULT_MESSAGE = b"harness message"

# Two-sided 95% normal quantile, kept rational so intervals stay exact.
Z95 = Fraction(196, 100)

# 5-variable enumerations are p^5 transcripts per compared value; 7^5 = 16807
# keeps the exhaustive secrecy computation under a couple of seconds.
EXHAUSTIVE_SECRECY_MAX = 7
EXHAUSTIVE_ATTACK_MAX = 7
EXHAUSTIVE_CORE_MAX = 13
EXHAUSTIVE_DV_MAX = 7

# Trials per batch (one pow each) in the correctness fast path, run_trials
# and estimate_core_forgery: a bounded list however many trials run.
_BATCH = 64

SUITES = ("correctness", "unforgeability", "transferability", "secrecy", "core", "all")


def _sqrt_upper(q: Fraction, scale: int = 10**24) -> Fraction:
    """Rational upper bound on sqrt(q), tight to about 1/scale."""
    if q < 0:
        raise ProtocolMisuse("square root of a negative rational")
    a, b = q.numerator, q.denominator
    target = a * b * scale * scale
    root = isqrt(target)
    if root * root < target:
        root += 1
    return Fraction(root, b * scale)


def wilson_interval(successes: int, trials: int, z: Fraction = Z95):
    """Wilson score interval as exact rationals, widened by < 10^-24 so the
    returned pair always encloses the real-valued interval."""
    if trials <= 0:
        raise EmptyExperiment("Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ProtocolMisuse("successes must lie in [0, trials]")
    z2 = z * z
    center = Fraction(successes) + z2 / 2
    disc = Fraction(successes * (trials - successes), trials) + z2 / 4
    half = z * _sqrt_upper(disc)
    denom = trials + z2
    low = max(Fraction(0), (center - half) / denom)
    high = min(Fraction(1), (center + half) / denom)
    return low, high


@dataclass(frozen=True)
class Estimate:
    """One measured rate against one analytic target."""

    name: str
    p: int
    trials: int
    successes: int
    point: Fraction
    wilson_95_low: Fraction
    wilson_95_high: Fraction
    target: Fraction
    slack: Fraction
    verdict: str
    note: str = ""

    def contains(self, value) -> bool:
        return self.wilson_95_low <= Fraction(value) <= self.wilson_95_high


def make_estimate(
    name: str, p: int, trials: int, successes: int, target: Fraction, note: str = ""
) -> Estimate:
    if trials <= 0:
        raise EmptyExperiment(f"{name}: zero trials estimate nothing")
    target = Fraction(target)
    low, high = wilson_interval(successes, trials)
    slack = 3 * _sqrt_upper(target / trials) if target else Fraction(0)
    verdict = "pass" if low <= target + slack else "fail"
    return Estimate(
        name=name,
        p=p,
        trials=trials,
        successes=successes,
        point=Fraction(successes, trials),
        wilson_95_low=low,
        wilson_95_high=high,
        target=target,
        slack=slack,
        verdict=verdict,
        note=note,
    )


@dataclass(frozen=True)
class ExactResult:
    """An exhaustively computed quantity compared against an exact target."""

    name: str
    p: int
    value: Fraction
    target: Fraction
    verdict: str
    note: str = ""


def exact_result(name: str, p: int, value, target, note: str = "") -> ExactResult:
    value, target = Fraction(value), Fraction(target)
    return ExactResult(
        name=name,
        p=p,
        value=value,
        target=target,
        verdict="pass" if value == target else "fail",
        note=note,
    )


# ---------------------------------------------------------------------------
# Attack strategies


@dataclass(frozen=True)
class AttackStrategy:
    """A named attack by the one corrupted role.

    build(prime, rng, forced) returns only the turn rewrite(round, own,
    view) that the corrupted party takes each round; hook() wraps it in the
    AdversaryHook for `corrupted`.  forced parameters (ghat, offset, delta,
    delta_prime) replace the random draws so the exhaustive enumerations can
    sweep them.  With every draw forced, a turn draws nothing and keeps no
    per-session state, so one hook may serve many sessions.  The view holds
    only what the party received; a turn that needs more history keeps it
    in its own closure, one per build.  acts_in is the first round whose
    turn can change what the party sends: before it, the turn returns own
    and draws nothing.
    """

    name: str
    corrupted: Role
    build: Callable
    acts_in: int

    def hook(self, prime, rng: Rng, **forced) -> AdversaryHook:
        return AdversaryHook(self.corrupted, self.build(prime, rng, forced))


def _forced_or_drawn(forced: dict, name: str, draw: Callable, rng: Rng):
    """forced[name] unless it is missing or None, else draw(rng)."""
    value = forced.get(name)
    return draw(rng) if value is None else value


def _substitute_guess_k1(prime, rng: Rng, forced: dict) -> Callable:
    # Corrupt P2 rewrites the transfer to (x*, sigma + g*(x* - x)); the result
    # passes P3's line check iff the guess g hits k1, so success rate is 1/p.
    def rewrite(rnd: int, own: tuple, view) -> list:
        if rnd != ROUND_TRANSFER:
            return own
        (env,) = own
        t = env.payload
        g = _forced_or_drawn(forced, "ghat", prime.sample, rng)
        offset = _forced_or_drawn(forced, "offset", prime.sample_unit, rng)
        forged = TransferValue(t.x + offset, t.sigma + g * offset, t.message, t.sig_alg, t.nonce)
        return [Envelope(rnd, env.sender, env.recipient, forged)]

    return rewrite


def _inconsistent_line(prime, rng: Rng, forced: dict) -> Callable:
    # Corrupt P1 offsets P2's line points by (delta, delta_prime) while giving
    # P3 honest keys, then plays every later round honestly.  The tampering
    # survives the challenge exactly when delta_prime + e*delta = 0, one value
    # of e out of p; the transfer then fails at P3 while z2 = x.
    def rewrite(rnd: int, own: tuple, view) -> list:
        if rnd != ROUND_SETUP:
            return own
        setup, line = own
        h = setup.payload
        delta = _forced_or_drawn(forced, "delta", prime.sample_unit, rng)
        delta_prime = _forced_or_drawn(forced, "delta_prime", lambda _: prime.zero, rng)
        tampered = HolderSetup(
            x=h.x,
            x_prime=h.x_prime,
            sigma=h.sigma + delta,
            sigma_prime=h.sigma_prime + delta_prime,
            message=h.message,
            sig_alg=h.sig_alg,
            nonce=h.nonce,
        )
        return [Envelope(rnd, setup.sender, setup.recipient, tampered), line]

    return rewrite


STRATEGIES = {
    strategy.name: strategy
    for strategy in (
        AttackStrategy("substitute-guess-k1", Role.P2, _substitute_guess_k1, ROUND_TRANSFER),
        AttackStrategy("inconsistent-line", Role.P1, _inconsistent_line, ROUND_SETUP),
    )
}


def get_strategy(name: str) -> AttackStrategy:
    strategy = STRATEGIES.get(name)
    if strategy is None:
        known = ", ".join(sorted(STRATEGIES))
        raise UnknownStrategy(f"no attack strategy named {name!r} (known: {known})")
    return strategy


# ---------------------------------------------------------------------------
# Shared setup


def _as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


def _keys_for(prime: Prime, root: Rng):
    params = Params.generate(prime, root.fork(b"params"))
    return keygen(params, root.fork(b"keys"))


def run_trials(
    prime,
    trials: int,
    *,
    seed: bytes,
    strategy: Optional[AttackStrategy] = None,
    message: bytes = DEFAULT_MESSAGE,
    interpret: bool = False,
) -> Iterator:
    """Yield, in trial order, what run_signing_session gives each trial alone.

    Keys come from the b"params"/b"keys" forks of Rng(seed); trial i runs on
    the b"trial/<i>" fork, passed as the session's root stream, and, under an
    attack strategy, the adversary draws from that trial's b"adversary" fork.
    _BATCH trials at a time are opened together (open_signing_sessions), then
    each runs its seven rounds; no more than one batch is open.
    """
    require_int(trials, "trials")
    prime = _as_prime(prime)
    root = Rng(seed)
    keys = _keys_for(prime, root)
    for start in range(0, trials, _BATCH):
        tris = [root.fork(b"trial/" + i.to_bytes(8, "big"))
                for i in range(start, min(start + _BATCH, trials))]
        hooks = [strategy and strategy.hook(prime, tri.fork(b"adversary")) for tri in tris]
        for session in open_signing_sessions(keys, message, tris, hooks):
            yield signing_result(session.run(TOTAL_ROUNDS), interpret=interpret)


def _grid(p, limit: int, sweep: str) -> tuple:
    """(prime, [0, 1, ..., p-1]) for an exhaustive sweep, refused above limit."""
    prime = _as_prime(p)
    if prime.value > limit:
        raise PrimeTooLarge(f"{sweep}; p = {prime.value} > {limit}")
    return prime, [prime.elt(i) for i in range(prime.value)]


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def estimate_correctness(
    p, trials: int, *, seed: bytes = DEFAULT_SEED, sessions: bool = False
) -> Estimate:
    """Honest-run failure rate; target 1/p.

    Fast path signs and verifies directly: the only honest failure mode is the
    verifier rejecting (the signer drew sigma4 = 0, rate exactly 1/p).  It
    signs _BATCH trials at a time with two_party._sign_batch, whose
    residue rows are the signatures one sign call per trial makes, from the
    same draws, with one pow a batch.  Each row goes to _accepts, verify's
    acceptance kernel, with the designated verifier's receipt: no Signature is
    built, and the field-op counts are those of sign + verify.  With
    sessions=True each trial runs the full three-party session and counts a
    failure whenever z2, z3, or the final interpretation misses x.
    """
    require_int(trials, "trials")
    prime = _as_prime(p)
    if sessions:
        return _estimate_sessions(None, prime, None, trials, seed)
    root = Rng(seed)
    keys = _keys_for(prime, root)
    rng = root.fork(b"sign")
    pk = keys.pk
    r = derive_receipt(keys.k_sig, DEFAULT_MESSAGE, prime)[1].residue
    failures = 0
    for done in range(0, trials, _BATCH):
        count = min(_BATCH, trials - done)
        for row in _sign_batch(keys, DEFAULT_MESSAGE, rng, count)[-1]:
            if not _accepts(pk, r, *row):
                failures += 1
    return make_estimate(
        "correctness", prime.value, trials, failures, Fraction(1, prime.value),
        note="failure = honest signature rejected (sigma4 = 0)",
    )


def _missed(x, z2, z3, accepted=None) -> bool:
    return not (z2 == x and z3 == x and accepted)


def _forged(x, z2, z3, accepted=None) -> bool:
    return z3 is not None and z3 != x


def _divergent(x, z2, z3, accepted=None) -> bool:
    return z2 is not None and z2 != z3


# Corrupted role (None: honest, interpreted sessions) -> (name, event, note).
_EXPERIMENTS = {
    None: ("correctness-sessions", _missed,
           "failure = z2 or z3 misses x, or the transfer is not accepted"),
    Role.P2: ("unforgeability", _forged, "success = z3 not in {x, bottom}"),
    Role.P1: ("transferability", _divergent, "success = z2 != z3 and z2 set"),
}


def _estimate_sessions(role, p, strategy, trials: int, seed: bytes) -> Estimate:
    """Count _EXPERIMENTS[role]'s event over run_trials' sessions: honest and
    interpreted for role None, else attacked by the named strategy of role."""
    prime = _as_prime(p)
    name, event, note = _EXPERIMENTS[role]
    if role is not None:
        strategy = get_strategy(strategy)
        if strategy.corrupted is not role:
            raise RoleMismatch(
                f"{name} needs a {role.value}-corrupting strategy, "
                f"{strategy.name} corrupts {strategy.corrupted.value}"
            )
        name = f"{name}/{strategy.name}"
    results = run_trials(prime, trials, seed=seed, strategy=strategy, interpret=role is None)
    hits = sum(event(res.x, res.outcome.z2, res.outcome.z3, res.accepted) for res in results)
    return make_estimate(name, prime.value, trials, hits, Fraction(1, prime.value), note=note)


def estimate_unforgeability(
    p, strategy: str, trials: int, *, seed: bytes = DEFAULT_SEED
) -> Estimate:
    """Corrupt-P2 forgery rate: success = z3 outside {x, bottom}; target 1/p."""
    return _estimate_sessions(Role.P2, p, strategy, trials, seed)


def estimate_transferability(
    p, strategy: str, trials: int, *, seed: bytes = DEFAULT_SEED
) -> Estimate:
    """Corrupt-P1 divergence rate: success = z2 != z3 with z2 set; target 1/p."""
    return _estimate_sessions(Role.P1, p, strategy, trials, seed)


def estimate_core_forgery(p, trials: int, *, seed: bytes = DEFAULT_SEED) -> Estimate:
    """Uniform 5-tuples against a fresh uniform receipt; target 1/p.  A trial
    is r, then sigma1..sigma5: the bytes of six prime.sample calls, drawn
    _BATCH trials per Prime._residues call and checked by _accepts."""
    require_int(trials, "trials")
    prime = _as_prime(p)
    root = Rng(seed)
    weights = Weights.generate(prime, root.fork(b"weights"))
    rng = root.fork(b"tuples")
    successes = 0
    for done in range(0, trials, _BATCH):
        draws = prime._residues(rng, (False,) * 6 * min(_BATCH, trials - done))
        for tup in zip(*[iter(draws)] * 6):  # (r, sigma1, ..., sigma5)
            if _accepts(weights, *tup):
                successes += 1
    return make_estimate(
        "core-forgery", prime.value, trials, successes, Fraction(1, prime.value)
    )


# ---------------------------------------------------------------------------
# Exhaustive enumerations


def exhaustive_core_forgery(p, *, seed: bytes = DEFAULT_SEED) -> Estimate:
    """Count accepting (m, sigma3, sigma4, sigma5, r) tuples over the full
    reduced grid.

    Acceptance depends on (sigma1, sigma2) only through m = sigma1*sigma2, so
    the tuple is represented as (m, 1, s3, s4, s5).  For every (m, s3, s4, s5)
    with s4 != 0 exactly one r accepts, so the count is (p-1)*p^3 of p^5.
    The sweep runs over residues, through _accepts.
    """
    prime, _ = _grid(p, EXHAUSTIVE_CORE_MAX, "exhaustive core forgery sweeps p^5 tuples")
    weights = Weights.generate(prime, Rng(seed).fork(b"weights"))
    pv = prime.value
    successes = 0
    for m, s3, s4, s5, r in product(range(pv), repeat=5):
        if _accepts(weights, r, m, 1, s3, s4, s5):
            successes += 1
    return make_estimate(
        "core-forgery-exhaustive",
        pv,
        pv**5,
        successes,
        Fraction(pv - 1, pv * pv),
        note="reduced grid (m, s3, s4, s5, r); expected count (p-1)*p^3",
    )


def _stems(base, coin_grid, e_grid, until: int) -> Iterator:
    """Yield one session per (coins, e), coins outer, run through round until:
    a twin of the opened (so signed) base per coin tuple (None: P1 draws its
    own) runs round 1 if until reaches it, and a twin of that per e runs on."""
    for coins in coin_grid:
        dealt = force_coins(base, ic_coins=coins).run(min(ROUND_SETUP, until))
        for e in e_grid:
            yield force_coins(dealt, challenge_coin=e).run(until)


def _leaf_values(leaf) -> tuple:
    """(x, z2, z3) read off the parties of a leaf run to the end."""
    parties = leaf.parties
    return parties[Role.P1].x, parties[Role.P2].z2, parties[Role.P3].z3


def _guess_grid(elems) -> tuple:
    # (k1, k2, x', k2') are the installer's coins, the guess the adversary's.
    return product(elems, repeat=4), [{"ghat": g, "offset": elems[1]} for g in elems]


def _delta_grid(elems) -> tuple:
    # P1 draws its own coins; the adversary picks (delta, delta').
    return [None], [{"delta": d, "delta_prime": dp} for d, dp in product(elems[1:], elems)]


# Strategy -> (sweep size, note, grids): grids(elems) returns (coin_grid,
# choices), the installer coin tuples and the strategy's forced draws.
_SWEEPS = {
    "substitute-guess-k1":
        ("p^6", "grid (k1, k2, x', k2', e, guess); success iff guess = k1", _guess_grid),
    "inconsistent-line":
        ("p^2(p-1)", "grid (e, delta, delta'); success iff delta' + e*delta = 0", _delta_grid),
}


def _exhaustive_attack(strategy: str, p, seed: bytes) -> Estimate:
    """Count the attack's successes exactly, one leaf per _SWEEPS grid point.

    The stems of _stems run under a hook with no rewrite through round
    acts_in - 1, and each choice branches from each stem and runs to the
    end.  That is exact: before acts_in the strategy's turn returns own,
    what its party emitted, and draws nothing.
    """
    size, note, grids = _SWEEPS[strategy]
    strategy = STRATEGIES[strategy]
    experiment, event, _ = _EXPERIMENTS[strategy.corrupted]
    prime, elems = _grid(
        p, EXHAUSTIVE_ATTACK_MAX, f"exhaustive {experiment} sweeps {size} sessions"
    )
    root = Rng(seed)
    keys = _keys_for(prime, root)
    adv_rng = root.fork(b"adversary")
    coin_grid, choices = grids(elems)
    base = open_signing_session(
        keys, DEFAULT_MESSAGE, DEFAULT_SEED, adversary=AdversaryHook(strategy.corrupted)
    )
    hooks = [strategy.hook(prime, adv_rng, **forced) for forced in choices]
    trials = successes = 0
    for stem in _stems(base, coin_grid, elems, strategy.acts_in - 1):
        for hook in hooks:
            trials += 1
            successes += event(*_leaf_values(stem.branch(hook).run(TOTAL_ROUNDS)))
    return make_estimate(
        f"{experiment}-exhaustive",
        prime.value,
        trials,
        successes,
        Fraction(1, prime.value),
        note=note,
    )


def exhaustive_unforgeability(p, *, seed: bytes = DEFAULT_SEED) -> Estimate:
    """Sweep (k1, k2, x', k2', e, guess): success iff guess = k1, rate 1/p."""
    return _exhaustive_attack("substitute-guess-k1", p, seed)


def exhaustive_transferability(p, *, seed: bytes = DEFAULT_SEED) -> Estimate:
    """Sweep (e, delta != 0, delta'): success iff delta' + e*delta = 0."""
    return _exhaustive_attack("inconsistent-line", p, seed)


_SENDER_BYTES = {role: role.value.encode() for role in Role}


def _signing_phase_view(transcript, role: Role) -> bytes:
    """One bytes key for everything the role received before the transfer:
    per envelope b"<round><sender><length>:" then its to_wire bytes.  The
    decimal round ends at the two-byte sender's "P", and the length prefix
    keeps the key injective whatever width a payload's elements have."""
    # Short bytes keys keep a p^5 tally small; stems share cached wire bytes.
    parts = []
    for env in view_of(transcript, role):
        if env.round < ROUND_TRANSFER:
            wire = env.payload.to_wire()
            parts.append(b"%d%b%d:%b" % (env.round, _SENDER_BYTES[env.sender], len(wire), wire))
    return b"".join(parts)


def _total_variation(a_keys, a_total: int, b_keys, b_total: int) -> Fraction:
    """Exact total variation between the keys two sides draw, a_total and
    b_total of them, in one signed table: +b_total per a key, -a_total per b key."""
    table: dict = {}
    for key in a_keys:
        table[key] = table.get(key, 0) + b_total
    for key in b_keys:
        table[key] = table.get(key, 0) - a_total
    return Fraction(sum(map(abs, table.values())), 2 * a_total * b_total)


def _distinct_x_messages(keys, seed: bytes) -> tuple:
    """Opened (so signed) honest sessions for two messages of distinct x."""
    base = open_signing_session(keys, b"secrecy/a", seed)
    for i in range(64):
        other = open_signing_session(keys, b"secrecy/b%d" % i, seed)
        if other.parties[Role.P1].x != base.parties[Role.P1].x:
            return base, other
    raise RuntimeError("could not find two messages with distinct values")


def estimate_secrecy_tv(p, *, seed: bytes = DEFAULT_SEED) -> Fraction:
    """Exact total variation between P3's signing-phase view distributions for
    two distinct authenticated values, by full enumeration of the installer's
    coins (k1, k2, x', k2') and the challenge e over F_p^5.

    Each value's session signs once and _stems branches it into its p^5
    coin/challenge stems, each stopped after round 6: the view reads nothing
    later.  Both values' view keys stream into _total_variation's one signed
    table; no stem or per-value count table is kept.  The honest protocol
    gives TV = 0: the view determines sigma_e from (k1, k2, k2', e, x_e) and
    x_e = x' + e*x is uniform for uniform x'.
    """
    prime, elems = _grid(
        p, EXHAUSTIVE_SECRECY_MAX, "secrecy enumeration sweeps p^5 sessions per value"
    )
    keys = _keys_for(prime, Rng(seed))
    a, b = (
        (
            _signing_phase_view(stem.result(), Role.P3)
            for stem in _stems(base, product(elems, repeat=4), elems, ROUND_RESOLUTION)
        )
        for base in _distinct_x_messages(keys, seed)
    )
    total = prime.value**5
    return _total_variation(a, total, b, total)


def dv_transcript_tv(p, *, seed: bytes = DEFAULT_SEED) -> Fraction:
    """Exact total variation between honest and simulated signature tuples.

    Honest: the per-message key is the fixed PRF output; nuisances
    (b, d, eps, both slopes) enumerated over their full ranges (eps stands in
    for alpha*beta, whose product is uniform on the units).  Simulated: the
    stand-in key sweeps all of F_p.  The honest key can never collide with r,
    while the stand-in does with probability 1/p, so the distance is Theta(1/p)
    rather than 0.  Uses a message whose derived key and receipt are distinct
    and nonzero (the generic case; the exceptional messages occur with
    probability O(1/p)).
    """
    prime, elems = _grid(
        p,
        EXHAUSTIVE_DV_MAX,
        "DV transcript enumeration sweeps p^2(p-1)^3 tuples per key value",
    )
    root = Rng(seed)
    keys = _keys_for(prime, root)
    kprime = r = None
    for i in range(64):
        msg = b"dv/%d" % i
        kprime = derive_message_key(keys.sk_K, msg)
        _, r = derive_receipt(keys.k_sig, msg, prime)
        if r and kprime != r:
            break
    else:
        raise RuntimeError("no generic message found")
    pv = prime.value
    units = elems[1:]

    def encodings(key_values) -> Iterator[bytes]:
        for kp, *nuisances in product(key_values, units, units, units, elems, elems):
            yield _assemble(keys.pk, kp, r, *nuisances).encode()

    h_total = (pv - 1) ** 3 * pv * pv
    return _total_variation(encodings([kprime]), h_total, encodings(elems), h_total * pv)


# ---------------------------------------------------------------------------
# Suites and reporting


def run_suite(
    p, suite: str, trials: int, *, seed: bytes = DEFAULT_SEED
) -> list:
    """Run one named suite (or "all") and return Estimate/ExactResult rows.

    Exhaustive rows are included only where feasible (attacks at p <= 7, core
    grid at p <= 13, secrecy at p <= 7); a suite with no row feasible at p,
    which only the exhaustive-only secrecy suite can be, raises PrimeTooLarge.
    """
    prime = _as_prime(p)
    if suite not in SUITES:
        raise ProtocolMisuse(f"suite must be one of {SUITES}, got {suite!r}")
    pv = prime.value
    root = Rng(seed)

    def secrecy(*, seed: bytes) -> ExactResult:
        tv = estimate_secrecy_tv(prime, seed=seed)
        note = "exhaustive TV of P3's signing-phase view across two values"
        return exact_result("secrecy-tv", pv, tv, 0, note=note)

    # (suite, fork label, largest p or None, row), in output order; each row
    # runs on the seed of its own fork of Rng(seed).
    table = (
        ("correctness", b"correctness", None, partial(estimate_correctness, prime, trials)),
        ("unforgeability", b"unforgeability", None,
         partial(estimate_unforgeability, prime, "substitute-guess-k1", trials)),
        ("unforgeability", b"uf-exhaustive", EXHAUSTIVE_ATTACK_MAX,
         partial(exhaustive_unforgeability, prime)),
        ("transferability", b"transferability", None,
         partial(estimate_transferability, prime, "inconsistent-line", trials)),
        ("transferability", b"trans-exhaustive", EXHAUSTIVE_ATTACK_MAX,
         partial(exhaustive_transferability, prime)),
        ("secrecy", b"secrecy", EXHAUSTIVE_SECRECY_MAX, secrecy),
        ("core", b"core", None, partial(estimate_core_forgery, prime, trials)),
        ("core", b"core-exhaustive", EXHAUSTIVE_CORE_MAX, partial(exhaustive_core_forgery, prime)),
    )
    rows = [
        row(seed=root.fork(label).seed)
        for name, label, limit, row in table
        if suite in (name, "all") and (limit is None or pv <= limit)
    ]
    if not rows:
        raise PrimeTooLarge(f"{suite} suite has no row feasible at p = {pv}")
    return rows


def result_json_line(res) -> str:
    """One result as a canonical JSON line (sorted keys, rationals as n/d)."""
    if isinstance(res, Estimate):
        record = {"kind": "estimate"}
    elif isinstance(res, ExactResult):
        record = {"kind": "exact"}
    else:
        raise WrongType(f"cannot serialize {type(res).__name__}")
    for f in fields(res):
        value = getattr(res, f.name)
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        record[f.name] = value
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_table(results) -> str:
    header = ("name", "p", "trials", "point", "wilson 95%", "target", "verdict")
    rows = [header]
    for res in results:
        if isinstance(res, Estimate):
            trials, value = str(res.trials), res.point
            interval = f"[{float(res.wilson_95_low):.6g}, {float(res.wilson_95_high):.6g}]"
        else:
            trials, value, interval = "exhaustive", res.value, "-"
        rows.append((
            res.name, str(res.p), trials, f"{float(value):.6g}", interval,
            f"{float(res.target):.6g}", res.verdict,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)
