"""Statistics harness: interval math against the bisection oracle, exact
enumeration values, estimator plumbing, and report formatting."""

import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils import stats as H
from silmarils.errors import (
    EmptyExperiment,
    PrimeTooLarge,
    RoleMismatch,
    UnknownStrategy,
)
from silmarils.field import Prime, count_field_ops
from silmarils.net_sim import AdversaryHook, Envelope, Role, transcript_lines
from silmarils.rng import Rng
from silmarils.sss import Weights
from silmarils import three_party
from silmarils.three_party import (
    TOTAL_ROUNDS,
    force_coins,
    open_signing_session,
    run_signing_session,
    signing_result,
)
from silmarils.two_party import Signature, _core_verify, sign, verify

from .oracles import accepts, signing_phase_view_tuples, wilson_bounds_by_bisection

Z = H.Z95


@given(
    trials=st.integers(min_value=1, max_value=10**6),
    rate=st.fractions(min_value=0, max_value=1),
)
def test_wilson_interval_matches_bisection_oracle(trials, rate):
    successes = int(rate * trials)
    low, high = H.wilson_interval(successes, trials)
    olow, ohigh = wilson_bounds_by_bisection(successes, trials, Z)
    # implementation rounds the square root upward at 1e-24 resolution
    pad = Fraction(1, 10**20)
    assert olow - pad <= low <= olow + pad
    assert ohigh - pad <= high <= ohigh + pad
    assert low <= high
    assert 0 <= low and high <= 1
    # the point estimate always lies inside
    assert low <= Fraction(successes, trials) <= high


def test_wilson_interval_edges():
    low, high = H.wilson_interval(0, 100)
    assert low == 0 and high > 0
    low, high = H.wilson_interval(100, 100)
    assert high <= 1 and low < 1
    with pytest.raises(EmptyExperiment):
        H.wilson_interval(1, 0)


def test_wilson_upper_rounding_is_conservative():
    # The closed form uses an integer sqrt rounded up, which can only widen
    # the interval: containment of the oracle interval is guaranteed.
    for s, n in [(3, 7), (17, 1000), (0, 5), (5, 5), (399, 100000)]:
        low, high = H.wilson_interval(s, n)
        olow, ohigh = wilson_bounds_by_bisection(s, n, Z)
        assert low <= olow + Fraction(1, 10**28)
        assert high >= ohigh - Fraction(1, 10**28)


def test_make_estimate_verdict_boundary():
    # verdict is pass iff the interval's low end clears target + 3 sigma slack
    est = H.make_estimate("x", 251, 1000, 4, Fraction(1, 251))
    assert est.verdict == "pass"
    est = H.make_estimate("x", 251, 1000, 1000, Fraction(1, 251))
    assert est.verdict == "fail"
    assert est.contains(Fraction(1)) and not est.contains(Fraction(1, 251))


def test_estimates_are_reproducible():
    a = H.estimate_correctness(251, 500, seed=b"\x01" * 32)
    b = H.estimate_correctness(251, 500, seed=b"\x01" * 32)
    c = H.estimate_correctness(251, 500, seed=b"\x02" * 32)
    assert a == b
    assert a.successes != c.successes or a == c  # different seed may differ


# The estimators count through residue kernels; these primes and trial counts
# pin them to the public calls: one-byte draws with rejection (3, 5, 251),
# two-byte draws (1009) and the secure prime, around the 64-trial batches.
PINNED_PRIMES = [3, 5, 251, 1009, pytest.param(2**255 - 19, id="secure")]
PINNED_TRIALS = [1, 63, 64, 65, 129, 130]


def _forked_streams(monkeypatch) -> dict:
    # label -> the stream Rng.fork last returned for it, so a test can read
    # on from where an estimator left its stream
    streams = {}
    fork = Rng.fork

    def recording(self, label):
        streams[label] = child = fork(self, label)
        return child

    monkeypatch.setattr(Rng, "fork", recording)
    return streams


@pytest.mark.parametrize("p", PINNED_PRIMES)
@pytest.mark.parametrize("trials", PINNED_TRIALS)
def test_batched_correctness_equals_one_sign_per_trial(monkeypatch, p, trials):
    # perfbench's replay: keys from Rng(seed), then sign + verify per trial on
    # the b"sign" fork; the same count, field ops and stream position
    prime = Prime(p)
    with count_field_ops() as by_hand:
        root = Rng(H.DEFAULT_SEED)
        keys = H._keys_for(prime, root)
        w0, w1 = int(keys.pk.w0), int(keys.pk.w1)
        rng = root.fork(b"sign")
        failures = 0
        for _ in range(trials):
            sig, tape = sign(keys, H.DEFAULT_MESSAGE, rng)
            accepted = verify(keys.pk, keys.k_sig, H.DEFAULT_MESSAGE, sig)
            assert accepted == accepts(w0, w1, int(tape.r), map(int, sig), p)
            failures += not accepted
    streams = _forked_streams(monkeypatch)
    with count_field_ops() as batched:
        est = H.estimate_correctness(p, trials)
    assert (est.trials, est.successes) == (trials, failures)
    assert (batched.muls, batched.invs) == (by_hand.muls, by_hand.invs)
    assert streams[b"sign"].take(16) == rng.take(16)


@pytest.mark.parametrize("p", PINNED_PRIMES)
@pytest.mark.parametrize("trials", PINNED_TRIALS)
def test_core_forgery_equals_one_core_verify_per_tuple(monkeypatch, p, trials):
    # r, then sigma1..sigma5, one sample each, checked by _core_verify
    prime = Prime(p)
    with count_field_ops() as by_hand:
        root = Rng(H.DEFAULT_SEED)
        weights = Weights.generate(prime, root.fork(b"weights"))
        w0, w1 = int(weights.w0), int(weights.w1)
        rng = root.fork(b"tuples")
        successes = 0
        for _ in range(trials):
            r = prime.sample(rng)
            sig = Signature(*(prime.sample(rng) for _ in range(5)))
            accepted = _core_verify(weights, r, sig)
            assert accepted == accepts(w0, w1, int(r), map(int, sig), p)
            successes += accepted
    streams = _forked_streams(monkeypatch)
    with count_field_ops() as batched:
        est = H.estimate_core_forgery(p, trials)
    assert (est.trials, est.successes) == (trials, successes)
    assert (batched.muls, batched.invs) == (by_hand.muls, by_hand.invs)
    assert streams[b"tuples"].take(16) == rng.take(16)


def test_estimator_input_validation():
    with pytest.raises(EmptyExperiment):
        H.estimate_correctness(251, 0)
    with pytest.raises(RoleMismatch):
        H.estimate_unforgeability(251, "inconsistent-line", 10)
    with pytest.raises(RoleMismatch):
        H.estimate_transferability(251, "substitute-guess-k1", 10)
    with pytest.raises(UnknownStrategy):
        H.get_strategy("walk-in-and-ask")


def test_correctness_session_path_counts_all_outputs():
    est = H.estimate_correctness(13, 40, seed=b"\x03" * 32, sessions=True)
    assert est.name == "correctness-sessions"
    assert est.note == "failure = z2 or z3 misses x, or the transfer is not accepted"
    assert est.trials == 40
    # failures at p=13 run near 1/13; the session path must see some of both
    assert 0 <= est.successes < 40


def test_exhaustive_attack_rates_are_exactly_one_over_p():
    # p^6 sessions for unforgeability, p^2 (p - 1) for transferability.
    for p, uf_counts, tr_counts in [
        (3, (729, 243), (18, 6)),
        (5, (15625, 3125), (100, 20)),
    ]:
        un = H.exhaustive_unforgeability(p)
        assert un.point == Fraction(1, p)
        assert (un.trials, un.successes) == uf_counts
        tr = H.exhaustive_transferability(p)
        assert tr.point == Fraction(1, p)
        assert (tr.trials, tr.successes) == tr_counts
        assert un.verdict == "pass" and tr.verdict == "pass"
    with pytest.raises(PrimeTooLarge):
        H.exhaustive_unforgeability(11)


def test_branched_exhaustive_leaves_equal_fresh_sessions(monkeypatch):
    # Every leaf of both exhaustive sweeps at p = 3 must equal a fresh
    # session with the leaf's hook and honest coins; the leaves are caught
    # where the sweep reads their (x, z2, z3).
    leaves = []
    read = H._leaf_values
    monkeypatch.setattr(H, "_leaf_values", lambda leaf: leaves.append(leaf) or read(leaf))
    H.exhaustive_unforgeability(3)
    H.exhaustive_transferability(3)
    assert len(leaves) == 3**6 + 3 * 3 * 2

    def summary(res) -> tuple:
        lines = transcript_lines(res.outcome.transcript)
        return lines, res.outcome.z2, res.outcome.z3, res.arm, res.outcome.verdicts

    for leaf in leaves:
        p1, p2 = leaf.parties[Role.P1], leaf.parties[Role.P2]
        fresh = signing_result(force_coins(
            open_signing_session(p1.keys, p1.message, H.DEFAULT_SEED, adversary=leaf.adversary),
            ic_coins=p1._ic_coins, challenge_coin=p2._coin,
        ).run(TOTAL_ROUNDS))
        assert summary(signing_result(leaf)) == summary(fresh)
        assert read(leaf) == (fresh.x, fresh.outcome.z2, fresh.outcome.z3)


def test_secrecy_tree_tallies_equal_fresh_sessions(monkeypatch):
    # The tree stops each stem after round 6; the multiset of P3's view keys
    # it feeds the tally for each message must equal the one over a fresh
    # session per (coins, e).  The key streams are caught as the helper
    # reads them.
    tallies = []
    tv = H._total_variation

    def caught(a, a_total, b, b_total):
        a, b = list(a), list(b)
        tallies.extend((Counter(a), Counter(b)))
        return tv(a, a_total, b, b_total)

    monkeypatch.setattr(H, "_total_variation", caught)
    assert H.estimate_secrecy_tv(3) == 0
    prime, elems = H._grid(3, 3, "p = 3")
    keys = H._keys_for(prime, Rng(H.DEFAULT_SEED))
    bases = H._distinct_x_messages(keys, H.DEFAULT_SEED)
    assert len(tallies) == len(bases) == 2
    for base, tally in zip(bases, tallies):
        flat = Counter()
        for coins, e in product(product(elems, repeat=4), elems):
            res = signing_result(force_coins(
                open_signing_session(keys, base.parties[Role.P1].message, H.DEFAULT_SEED),
                ic_coins=coins, challenge_coin=e,
            ).run(TOTAL_ROUNDS))
            flat[H._signing_phase_view(res.outcome.transcript, Role.P3)] += 1
        assert tally == flat
        assert sum(tally.values()) == 3**5 and len(tally) > 1


def test_secrecy_view_keys_split_stems_as_tuple_views():
    # The bytes key must split the 2 * 3^5 stems into exactly the classes of
    # the (round, sender, wire) tuple view: one tuple per key, one key per tuple.
    prime, elems = H._grid(3, 3, "p = 3")
    keys = H._keys_for(prime, Rng(H.DEFAULT_SEED))
    pairs = set()
    stems = 0
    for base in H._distinct_x_messages(keys, H.DEFAULT_SEED):
        for stem in H._stems(base, product(elems, repeat=4), elems, three_party.ROUND_RESOLUTION):
            transcript = stem.result()
            pairs.add((
                H._signing_phase_view(transcript, Role.P3),
                signing_phase_view_tuples(transcript, Role.P3, three_party.ROUND_TRANSFER),
            ))
            stems += 1
    assert stems == 2 * 3**5
    by_key = {key for key, _ in pairs}
    by_tuple = {view for _, view in pairs}
    assert len(by_key) == len(by_tuple) == len(pairs) > 1


def test_secrecy_view_key_is_length_prefixed():
    # Without the length prefix, one envelope whose wire bytes spell a
    # second envelope's framing would key like those two envelopes.
    def sent(rnd, wire):
        return Envelope(rnd, Role.P1, None, SimpleNamespace(to_wire=lambda: wire))

    one = [sent(1, b"x" + b"2P1" + b"y")]
    two = [sent(1, b"x"), sent(2, b"y")]
    assert H._signing_phase_view(one, Role.P3) != H._signing_phase_view(two, Role.P3)


def test_total_variation_tallies_key_streams_exactly():
    # Against the count-table formula: sum |a_k * b_total - b_k * a_total|.
    a, b = "xxyz", "xyyyww"
    ca, cb = Counter(a), Counter(b)
    l1 = sum(abs(ca[k] * len(b) - cb[k] * len(a)) for k in ca.keys() | cb.keys())
    assert H._total_variation(iter(a), len(a), iter(b), len(b)) == Fraction(
        l1, 2 * len(a) * len(b)
    )
    assert H._total_variation(iter("ab"), 2, iter("ba"), 2) == 0
    assert H._total_variation(iter("a"), 1, iter("b"), 1) == 1


def test_secrecy_tv_p5_peak_memory():
    # One signed table of compact bytes keys: the p = 5 sweep peaks well
    # under the 3 MiB that two Counters of (round, Role, wire) tuples took.
    H.estimate_secrecy_tv(3)  # imports and per-prime set-up, outside the peak
    tracemalloc.start()
    try:
        assert H.estimate_secrecy_tv(5) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def test_each_exhaustive_sweep_signs_once_per_message(monkeypatch):
    signed = Counter()
    sign_many = three_party.sign_many  # P1Signer signs through it

    def counted(keys, message, rng, count):
        signed[message] += count
        return sign_many(keys, message, rng, count)

    monkeypatch.setattr(three_party, "sign_many", counted)
    for sweep, messages in [
        (H.exhaustive_unforgeability, 1),
        (H.exhaustive_transferability, 1),
        (H.estimate_secrecy_tv, 2),
    ]:
        signed.clear()
        sweep(3)
        assert sorted(signed.values()) == [1] * messages


def test_forced_hooks_draw_nothing(monkeypatch):
    # _exhaustive_attack builds one hook per choice and branches it into
    # every stem, which is exact only if a rewrite with every draw forced
    # never touches its stream.
    choices = []
    hook = H.AttackStrategy.hook
    monkeypatch.setattr(
        H.AttackStrategy, "hook",
        lambda s, prime, rng, **forced: choices.append((s, forced)) or hook(s, prime, rng, **forced),
    )
    H.exhaustive_unforgeability(3)
    H.exhaustive_transferability(3)
    assert len(choices) == 3 + 2 * 3
    prime = Prime(3)
    keys = H._keys_for(prime, Rng(H.DEFAULT_SEED))
    for strategy, forced in choices:
        rng = Rng(b"f" * 32)
        before = rng.copy().take(16)
        adversary = hook(strategy, prime, rng, **forced)
        for i in range(20):
            run_signing_session(keys, H.DEFAULT_MESSAGE, i.to_bytes(32, "big"), adversary=adversary)
        assert rng.copy().take(16) == before, (strategy.name, forced)


@pytest.mark.parametrize("name", sorted(H.STRATEGIES))
def test_strategies_rewrite_nothing_before_acts_in(name):
    # The exhaustive sweeps run every round before acts_in once, under a hook
    # with no rewrite; that is exact only if the turn returns its party's own
    # list in those rounds and leaves its stream where it was.
    strategy = H.STRATEGIES[name]
    prime = Prime(251)
    keys = H._keys_for(prime, Rng(b"k" * 32))
    for i in range(200):
        seed = i.to_bytes(32, "big")
        rng = Rng(seed).fork(b"adversary")
        turn = strategy.hook(prime, rng).rewrite
        rounds = []

        def checked(rnd, own, view):
            before = rng.copy().take(16)
            out = turn(rnd, own, view)
            if rnd < strategy.acts_in:
                assert out is own
                assert rng.copy().take(16) == before
            rounds.append(rnd)
            return out

        hook = AdversaryHook(strategy.corrupted, checked)
        run_signing_session(keys, H.DEFAULT_MESSAGE, seed, adversary=hook)
        assert rounds == list(range(1, TOTAL_ROUNDS + 1))


def test_exhaustive_transferability_needs_nonzero_delta():
    # delta = 0 with delta_prime free never diverges: the offsets cancel out
    # of the transfer, so only nonzero delta rows enter the exhaustive rate.
    res = H.exhaustive_transferability(5)
    assert "delta" in res.note


def test_exhaustive_core_forgery_count_p13():
    res = H.exhaustive_core_forgery(13)
    assert res.point == Fraction(26364, 371293)  # 12 * 13^3 accepting tuples
    assert res.point == Fraction(12, 169)
    assert res.successes == 26364
    with pytest.raises(PrimeTooLarge):
        H.exhaustive_core_forgery(17)


def test_secrecy_tv_is_zero_at_p5():
    assert H.estimate_secrecy_tv(5) == 0
    with pytest.raises(PrimeTooLarge):
        H.estimate_secrecy_tv(11)


def test_dv_transcript_tv_p5_within_band():
    tv = H.dv_transcript_tv(5)
    assert tv == Fraction(1, 5)
    assert tv <= Fraction(2, 5)
    with pytest.raises(PrimeTooLarge):
        H.dv_transcript_tv(251)


def test_run_suite_all_skips_what_it_cannot_enumerate():
    results = H.run_suite(251, "all", 200, seed=b"\x05" * 32)
    names = [r.name for r in results]
    assert not any("secrecy" in n for n in names)
    assert all(r.verdict == "pass" for r in results)

    small = H.run_suite(5, "all", 200, seed=b"\x05" * 32)
    small_names = [r.name for r in small]
    assert any("secrecy" in n for n in small_names)

    with pytest.raises(PrimeTooLarge):
        H.run_suite(251, "secrecy", 10)
    with pytest.raises(ValueError):
        H.run_suite(251, "no-such-suite", 10)


# run_suite's rows in output order: (suite, estimator on silmarils.stats, its
# arguments after the prime with T for the trial count, fork label of the
# row's seed, largest p the row runs at or None).
SUITE_ROWS = [
    ("correctness", "estimate_correctness", ("T",), b"correctness", None),
    ("unforgeability", "estimate_unforgeability", ("substitute-guess-k1", "T"),
     b"unforgeability", None),
    ("unforgeability", "exhaustive_unforgeability", (), b"uf-exhaustive", 7),
    ("transferability", "estimate_transferability", ("inconsistent-line", "T"),
     b"transferability", None),
    ("transferability", "exhaustive_transferability", (), b"trans-exhaustive", 7),
    ("secrecy", "estimate_secrecy_tv", (), b"secrecy", 7),
    ("core", "estimate_core_forgery", ("T",), b"core", None),
    ("core", "exhaustive_core_forgery", (), b"core-exhaustive", 13),
]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 251])
@pytest.mark.parametrize("suite", H.SUITES)
def test_run_suite_runs_its_rows_in_order_on_their_fork_seeds(monkeypatch, suite, p):
    # Each estimator is replaced by a recorder, so only run_suite's choice of
    # rows, their order, arguments and seeds is exercised.
    calls = []

    def recorder(name):
        def record(prime, *args, seed):
            calls.append((name, prime.value, args, seed))
            return Fraction(0) if name == "estimate_secrecy_tv" else name

        return record

    for _, name, _, _, _ in SUITE_ROWS:
        monkeypatch.setattr(H, name, recorder(name))
    seed, trials = b"\x61" * 32, 17
    if suite == "secrecy" and p > 7:
        with pytest.raises(PrimeTooLarge):
            H.run_suite(p, suite, trials, seed=seed)
        assert calls == []
        return
    want = [
        (name, p, tuple(trials if a == "T" else a for a in args), Rng(seed).fork(label).seed)
        for row_suite, name, args, label, limit in SUITE_ROWS
        if suite in (row_suite, "all") and (limit is None or p <= limit)
    ]
    rows = H.run_suite(p, suite, trials, seed=seed)
    assert calls == want
    assert [getattr(row, "name", row) for row in rows] == [
        "secrecy-tv" if name == "estimate_secrecy_tv" else name for name, *_ in want
    ]


def test_result_json_lines_are_canonical():
    est = H.make_estimate("demo", 251, 1000, 4, Fraction(1, 251), note="n")
    line = H.result_json_line(est)
    record = json.loads(line)
    assert record["kind"] == "estimate"
    assert record["point"] == "1/250"
    assert list(record) == sorted(record)
    assert H.result_json_line(est) == line  # stable

    exact = H.exact_result("tv", 5, Fraction(1, 5), Fraction(1, 5))
    record = json.loads(H.result_json_line(exact))
    assert record["kind"] == "exact"
    assert record["value"] == "1/5"
    assert record["verdict"] == "pass"
    assert H.exact_result("tv", 5, 0, Fraction(1, 5)).verdict == "fail"


def test_render_table_lines_up():
    est = H.make_estimate("demo", 251, 1000, 4, Fraction(1, 251))
    text = H.render_table([est])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "demo" in lines[2] and "pass" in lines[2]


def test_render_table_pins_the_toy5_suite():
    text = H.render_table(H.run_suite(5, "all", 300, seed=b"g" * 32))
    assert text == "\n".join([
        "name                                p  trials      point     wilson 95%            target  verdict",
        "----------------------------------  -  ----------  --------  --------------------  ------  -------",
        "correctness                         5  300         0.196667  [0.155644, 0.24536]   0.2     pass",
        "unforgeability/substitute-guess-k1  5  300         0.226667  [0.182919, 0.277326]  0.2     pass",
        "unforgeability-exhaustive           5  15625       0.2       [0.193802, 0.206345]  0.2     pass",
        "transferability/inconsistent-line   5  300         0.173333  [0.1347, 0.220227]    0.2     pass",
        "transferability-exhaustive          5  100         0.2       [0.133366, 0.288831]  0.2     pass",
        "secrecy-tv                          5  exhaustive  0         -                     0       pass",
        "core-forgery                        5  300         0.19      [0.149634, 0.238205]  0.2     pass",
        "core-forgery-exhaustive             5  3125        0.16      [0.147565, 0.17327]   0.16    pass",
    ])
