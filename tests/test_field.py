"""Field arithmetic against integer-level oracles."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils.errors import LengthMismatch, ModulusMismatch, ZeroInverse
from silmarils.field import SECURE_PRIME_VALUE, FieldElement, Prime, _pure, count_field_ops
from silmarils.field import counting
from silmarils.rng import Rng

from .oracles import draw_residue, inverse_by_ext_gcd, powmod_by_squaring, reduce_big_endian

PRIMES = [5, 13, 251, 1009, 2**61 - 1, SECURE_PRIME_VALUE]


@pytest.fixture(scope="module", params=PRIMES, ids=lambda v: f"p{v.bit_length()}b")
def prime(request):
    return Prime(request.param)


def test_rejects_non_primes_and_bad_types():
    for bad in (1, 4, 9, 15, 2**61 - 2):
        with pytest.raises(ValueError):
            Prime(bad)
    with pytest.raises(ValueError):
        Prime(2)  # too small: the schemes need odd p >= 3
    for bad_type in (13.0, "251"):
        with pytest.raises(TypeError):
            Prime(bad_type)


def test_byte_length_and_bound(prime):
    p = prime.value
    assert prime.byte_length == (p.bit_length() + 7) // 8
    space = 1 << (8 * prime.byte_length)
    assert prime._accept_bound == (space // p) * p
    assert 0 < prime._accept_bound <= space


def test_spot_facts_p13(prime13):
    # Hand-checked: 7+9=3, 7*8=4, inv(5)=8, 27 mod 13 = 1.
    p = prime13
    assert int(p.elt(7) + p.elt(9)) == 3
    assert int(p.elt(7) * p.elt(8)) == 4
    assert int(p.elt(5).inv()) == 8
    assert int(p.reduce_wide((27).to_bytes(64, "big"))) == 1


@given(a=st.integers(), b=st.integers())
def test_arithmetic_matches_int_model(prime, a, b):
    p = prime.value
    x, y = prime.elt(a), prime.elt(b)
    assert int(x + y) == (a + b) % p
    assert int(x - y) == (a - b) % p
    assert int(x * y) == (a * b) % p
    assert int(-x) == (-a) % p
    if b % p:
        assert int(x / y) == a * inverse_by_ext_gcd(b, p) % p


@given(a=st.integers(min_value=1))
def test_inverse_matches_ext_gcd(prime, a):
    p = prime.value
    if a % p == 0:
        a += 1
    x = prime.elt(a)
    assert int(x.inv()) == inverse_by_ext_gcd(a, p)
    assert x * x.inv() == prime.one
    # Fermat's identity x^(p-2) = x^-1 still holds; check it against manual
    # square-and-multiply, independent of how inv() computes the inverse
    assert int(x.inv()) == powmod_by_squaring(a, p - 2, p)


@pytest.mark.parametrize("p", [3, 13, 251, SECURE_PRIME_VALUE], ids=lambda v: f"p{v.bit_length()}b")
@given(values=st.lists(st.integers(min_value=1), max_size=70), at=st.integers(min_value=0))
def test_inv_residues_is_every_inverse(p, values, at):
    prime = Prime(p)
    xs = [v % p or 1 for v in values]
    with count_field_ops() as counter:
        out = prime._inv_residues(xs)
    assert out == [inverse_by_ext_gcd(x, p) for x in xs]
    # one pow and its residue products, counted as one inversion per residue
    assert (counter.muls, counter.invs) == (0, len(xs))
    spot = at % (len(xs) + 1)
    with pytest.raises(ZeroInverse):
        prime._inv_residues(xs[:spot] + [0] + xs[spot:])


# The pair inversion that replaced FieldElement.inv_with: _assemble inverts its
# (eps, b) with one _inv_residues call on two residues.
@pytest.mark.parametrize("p", [3, 5, 13, 251, SECURE_PRIME_VALUE], ids=lambda v: f"p{v.bit_length()}b")
@given(a=st.integers(min_value=1), b=st.integers(min_value=1))
def test_inv_with_is_both_inverses(p, a, b):
    prime = Prime(p)
    a, b = a % p or 1, b % p or p - 1
    with count_field_ops() as counter:
        pair = prime._inv_residues((a, b))
    assert pair == [prime.elt(a).inv().residue, prime.elt(b).inv().residue]
    assert pair == [inverse_by_ext_gcd(a, p), inverse_by_ext_gcd(b, p)]
    assert all(type(v) is int and 0 < v < p for v in pair)
    assert (counter.muls, counter.invs) == (0, 2)


def test_inv_residues_checks_and_counts(prime13, monkeypatch):
    assert prime13._inv_residues([5, 7]) == [8, 2]  # 5*8 = 7*2 = 1 mod 13
    pows = []

    def counted_pow(*args):
        pows.append(args)
        return pow(*args)

    monkeypatch.setattr(_pure, "pow", counted_pow, raising=False)
    for xs in ([5, 0], [0, 7], [0, 0], [0]):
        with count_field_ops() as counter:
            with pytest.raises(ZeroInverse):
                prime13._inv_residues(xs)
        assert (counter.muls, counter.invs) == (0, 0)
    assert pows == []  # a zero raises before the pow
    with count_field_ops() as counter:
        assert prime13._inv_residues([]) == []
    assert (counter.muls, counter.invs, pows) == (0, 0, [])
    with count_field_ops() as counter:
        assert prime13._inv_residues([5, 7, 12]) == [8, 2, 12]
    assert (counter.muls, counter.invs, len(pows)) == (0, 3, 1)


# p = 131 rejects about half of its byte draws; 257 draws two bytes.
@pytest.mark.parametrize(
    "p", [3, 131, 251, 257, SECURE_PRIME_VALUE], ids=["p3", "p131", "p251", "p257", "p25519"]
)
@given(units=st.lists(st.booleans(), max_size=40), seed=st.binary(min_size=1, max_size=8))
def test_residues_match_the_sample_sequence(p, units, seed):
    prime = Prime(p)
    batch_rng, sample_rng, hand_rng = Rng(seed), Rng(seed), Rng(seed)
    residues = prime._residues(batch_rng, units)
    sampled = [(prime.sample_unit if unit else prime.sample)(sample_rng) for unit in units]
    assert residues == [x.residue for x in sampled]
    assert residues == [draw_residue(p, hand_rng, unit) for unit in units]
    assert batch_rng.take(16) == sample_rng.take(16) == hand_rng.take(16)


def test_zero_has_no_inverse(prime):
    with pytest.raises(ZeroInverse):
        prime.zero.inv()
    with pytest.raises(ZeroInverse):
        prime.one / prime.zero


@given(data=st.binary(min_size=64, max_size=64))
def test_reduce_wide_matches_oracle(prime, data):
    assert int(prime.reduce_wide(data)) == reduce_big_endian(data, prime.value)


def test_reduce_wide_rejects_wrong_width(prime):
    with pytest.raises(LengthMismatch):
        prime.reduce_wide(b"\x00" * 63)


def test_encoding_round_trip(prime):
    rng = Rng(b"\x11" * 32)
    for _ in range(50):
        x = prime.sample(rng)
        data = x.to_bytes()
        assert len(data) == prime.byte_length
        assert prime.from_bytes(data) == x
        assert x.hex() == data.hex()


def test_from_bytes_rejects_non_canonical_and_wrong_width(prime):
    encoded = prime.value.to_bytes(prime.byte_length, "big")  # p itself
    with pytest.raises(ValueError):
        prime.from_bytes(encoded)
    with pytest.raises(LengthMismatch):
        prime.from_bytes(b"\x00" * (prime.byte_length + 1))


def test_sampling_is_deterministic_and_in_range(prime):
    a = [int(prime.sample(Rng(b"\x22" * 32))) for _ in range(3)]
    assert a[0] == a[1] == a[2]
    rng = Rng(b"\x33" * 32)
    for _ in range(200):
        assert 0 <= int(prime.sample(rng)) < prime.value
        assert int(prime.sample_unit(rng)) != 0


def test_sampling_small_prime_covers_field():
    p = Prime(5)
    rng = Rng(b"\x44" * 32)
    seen = {int(p.sample(rng)) for _ in range(300)}
    assert seen == set(range(5))


def test_mixed_type_arithmetic_is_refused(prime):
    x = prime.elt(3)
    for other in (3, 3.0, b"\x03", None):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other * x
    assert x.__eq__(3) is NotImplemented
    assert (x == 3) is False
    assert x != 3


def test_modulus_mismatch(prime13, prime251):
    with pytest.raises(ModulusMismatch):
        prime13.elt(1) + prime251.elt(1)
    # same modulus value through distinct Prime objects is fine
    other = Prime(13)
    assert prime13.elt(4) + other.elt(10) == prime13.elt(1)


def test_equality_and_hash(prime):
    x = prime.elt(7)
    assert x == Prime(prime.value).elt(7)
    assert hash(x) == hash(Prime(prime.value).elt(7))
    assert x != prime.elt(8)
    assert bool(prime.zero) is False and bool(prime.one) is True


def test_op_counting_nests_and_ignores_uncounted():
    p = Prime(251)
    x, y = p.elt(9), p.elt(10)
    _ = x * y  # outside any counter: must not blow up
    with count_field_ops() as outer:
        _ = x * y
        with count_field_ops() as inner:
            _ = x.inv()
            _ = x / y  # one mul + one inv
        _ = x * y
    assert (inner.muls, inner.invs) == (1, 2)
    # the innermost open counter owns the events
    assert (outer.muls, outer.invs) == (2, 0)
    with count_field_ops() as division:
        _ = x / y
    assert (division.muls, division.invs) == (1, 1)
    # additions are free by design; only muls and invs are budget events
    with count_field_ops() as c:
        _ = x + y
        _ = x - y
        _ = -x
    assert (c.muls, c.invs) == (0, 0)


def test_bulk_mul_counts_go_to_the_innermost_counter():
    # the residue kernels count a whole call's muls with one bump_mul(n)
    with count_field_ops() as outer:
        counting.bump_mul(3)
        with count_field_ops() as inner:
            counting.bump_mul(12 * 64)
            counting.bump_mul()
        counting.bump_mul(4)
    assert (inner.muls, inner.invs) == (12 * 64 + 1, 0)
    assert (outer.muls, outer.invs) == (7, 0)


def test_per_trial_ops_keep_their_checks_and_counts(prime13, prime251):
    ops = (operator.add, operator.sub, operator.mul)
    for op in ops:
        with pytest.raises(ModulusMismatch):
            op(prime13.elt(1), prime251.elt(1))
        with pytest.raises(ModulusMismatch):
            op(prime251.elt(1), prime13.elt(1))
    a, b = prime251.elt(200), prime251.elt(100)
    with count_field_ops() as counter:
        results = [op(a, b) for op in ops] + [a * a, prime251.sample(Rng(bytes(32)))]
    assert (counter.muls, counter.invs) == (2, 0)
    assert [int(r) for r in results[:4]] == [49, 100, 200 * 100 % 251, 200 * 200 % 251]
    for r in results:
        assert type(r) is FieldElement and r.prime is prime251 and 0 <= r.residue < 251
