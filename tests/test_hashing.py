"""Domain-separated hash/PRF derivations into the field."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils.field import Prime
from silmarils.hashing import (
    DOMAIN_ICVAL,
    DOMAIN_MSGKEY,
    DOMAIN_NONCE,
    DOMAIN_RECEIPT,
    PairKey,
    authenticated_value,
    derive_message_key,
    derive_nonce,
    derive_receipt,
    hash_to_field,
    prf_to_field,
    receipt_from_nonce,
)
from silmarils.rng import Rng

P251 = Prime(251)
KEY = PairKey(b"\xaa" * 32)


def test_pair_key_validation_and_generate():
    with pytest.raises(ValueError):
        PairKey(b"short")
    generated = PairKey.generate(Rng(b"\x01" * 32))
    assert len(generated.data) == 32
    assert generated.hex() == generated.data.hex()
    assert PairKey.generate(Rng(b"\x01" * 32)) == generated


def test_pair_key_keeps_its_own_bytes():
    # A key built from a caller's bytearray must not follow the buffer: the
    # receipt memo and hash() both read the key's bytes.
    buf = bytearray(32)
    key = PairKey(buf)
    receipt = derive_receipt(key, b"m", P251)
    buf[0] = 1
    zero = PairKey(bytes(32))
    assert key == zero and hash(key) == hash(zero)
    assert derive_receipt(key, b"m", P251) == receipt == derive_receipt(zero, b"m", P251)


@given(message=st.binary(max_size=64))
def test_hash_to_field_matches_direct_recomputation(message):
    framed = DOMAIN_RECEIPT + len(message).to_bytes(8, "big") + message
    expect = int.from_bytes(hashlib.sha512(framed).digest(), "big") % 251
    assert int(hash_to_field(P251, DOMAIN_RECEIPT, message)) == expect


@given(message=st.binary(max_size=64))
def test_prf_to_field_matches_direct_recomputation(message):
    framed = DOMAIN_NONCE + len(message).to_bytes(8, "big") + message
    expect = int.from_bytes(hmac.digest(KEY.data, framed, "sha512"), "big") % 251
    assert int(prf_to_field(KEY.data, P251, DOMAIN_NONCE, message)) == expect
    assert derive_nonce(KEY, message, P251) == prf_to_field(
        KEY.data, P251, DOMAIN_NONCE, message
    )


def test_domains_separate_the_derivations():
    msg = b"same payload"
    values = {
        int(hash_to_field(P251, tag, msg))
        for tag in (DOMAIN_NONCE, DOMAIN_RECEIPT, DOMAIN_MSGKEY, DOMAIN_ICVAL)
    }
    assert len(values) > 1  # 251 possible outputs; four tags colliding is ~1e-5


def test_receipt_pipeline_consistency():
    msg = b"invoice 17"
    nonce, receipt = derive_receipt(KEY, msg, P251)
    assert nonce == derive_nonce(KEY, msg, P251)
    assert receipt == receipt_from_nonce(msg, nonce)
    # receipts bind the message
    assert derive_receipt(KEY, b"invoice 18", P251) != (nonce, receipt)


def test_keyed_derivations_bind_the_key():
    other = PairKey(b"\xbb" * 32)
    msg = b"m"
    assert derive_nonce(KEY, msg, P251) != derive_nonce(other, msg, P251)
    k = P251.elt(7)
    assert derive_message_key(k, msg) != derive_message_key(P251.elt(8), msg)
    assert derive_message_key(k, msg) == derive_message_key(k, msg)


def test_authenticated_value_binds_message_and_signature():
    x = authenticated_value(b"m", b"\x01\x02", P251)
    assert x != authenticated_value(b"m", b"\x01\x03", P251)
    assert x != authenticated_value(b"n", b"\x01\x02", P251)
    # length prefix prevents message/signature boundary shifts
    assert authenticated_value(b"ab", b"c", P251) != authenticated_value(
        b"a", b"bc", P251
    )


def test_derivations_land_in_the_right_field():
    p13 = Prime(13)
    for _ in range(5):
        assert 0 <= int(derive_nonce(KEY, b"x", p13)) < 13


def _fresh_receipt(key, msg, prime):
    nonce = derive_nonce(key, msg, prime)
    return nonce, receipt_from_nonce(msg, nonce)


def test_receipt_memo_follows_message_and_prime():
    key = PairKey(b"\xcc" * 32)
    p13 = Prime(13)
    calls = [(b"m1", P251), (b"m2", P251), (b"m1", P251), (b"m1", p13),
             (b"m2", p13), (b"m1", P251)]
    for msg, prime in calls:
        got = derive_receipt(key, msg, prime)
        assert got == _fresh_receipt(key, msg, prime)
        assert got[0].prime == prime
        # a repeat of the same (message, prime) is served from the memo
        assert derive_receipt(key, msg, prime) is got


def test_receipt_memo_keys_the_prime_by_value():
    key = PairKey(b"\xce" * 32)
    got = derive_receipt(key, b"m", P251)
    # An equal but distinct Prime hits; another modulus misses.
    assert derive_receipt(key, b"m", Prime(251)) is got
    other = derive_receipt(key, b"m", Prime(257))
    assert other == _fresh_receipt(key, b"m", Prime(257))
    assert other[0].prime.value == 257


def test_receipt_memo_copies_a_mutable_message():
    key = PairKey(b"\xcd" * 32)
    msg = bytearray(b"original")
    first = derive_receipt(key, msg, P251)
    msg[:] = b"mutated!"
    assert derive_receipt(key, b"mutated!", P251) == _fresh_receipt(key, b"mutated!", P251)
    assert derive_receipt(key, b"original", P251) == first


def test_receipt_memo_is_per_key_and_invisible():
    a, twin, other = PairKey(b"\x11" * 32), PairKey(b"\x11" * 32), PairKey(b"\x22" * 32)
    before = (repr(a), hash(a))
    derive_receipt(a, b"m", P251)
    assert derive_receipt(other, b"m", P251) == _fresh_receipt(other, b"m", P251)
    assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)
    assert (repr(a), hash(a)) == before
