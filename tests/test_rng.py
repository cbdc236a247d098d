"""Seeded stream determinism, chunking invariance, fork independence."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils import hashing
from silmarils import rng as rng_module
from silmarils.rng import SEED_BYTES, Rng

SEED = bytes(range(32))


def test_identical_seeds_identical_streams():
    assert Rng(SEED).take(1000) == Rng(SEED).take(1000)


def test_different_seeds_differ():
    other = bytes([SEED[0] ^ 1]) + SEED[1:]
    assert Rng(SEED).take(64) != Rng(other).take(64)


@given(chunks=st.lists(st.integers(min_value=0, max_value=200), max_size=20))
def test_chunking_never_changes_the_stream(chunks):
    total = sum(chunks)
    whole = Rng(SEED).take(total)
    rng = Rng(SEED)
    pieces = b"".join(rng.take(n) for n in chunks)
    assert pieces == whole


def test_stream_matches_direct_hmac_construction():
    # First 128 bytes are HMAC(seed, counter=0) || HMAC(seed, counter=1).
    expect = hmac.digest(SEED, (0).to_bytes(8, "big"), "sha512") + hmac.digest(
        SEED, (1).to_bytes(8, "big"), "sha512"
    )
    assert Rng(SEED).take(128) == expect


def test_fork_is_deterministic_and_label_separated():
    a = Rng(SEED).fork(b"left").take(64)
    b = Rng(SEED).fork(b"left").take(64)
    c = Rng(SEED).fork(b"right").take(64)
    assert a == b
    assert a != c


def test_fork_does_not_disturb_parent():
    lone = Rng(SEED)
    expected = lone.take(64)
    rng = Rng(SEED)
    head = rng.take(32)
    rng.fork(b"child")
    tail = rng.take(32)
    assert head + tail == expected


def test_copy_continues_the_stream_and_leaves_its_source():
    # 50 + 100 bytes crosses the 64-byte block boundary twice.
    whole = Rng(SEED).take(150)
    source = Rng(SEED)
    source.take(50)
    twin = source.copy()
    assert twin.take(100) == whole[50:150]
    assert twin.fork(b"child").take(32) == source.fork(b"child").take(32)
    assert source.take(100) == whole[50:150]
    # A copy taken before the keyed states exist builds its own.
    fresh = Rng(SEED).copy()
    assert fresh.take(150) == whole


def test_fork_labels_are_framed_injectively():
    # (b"ab", b"c") and (b"a", b"bc") must not collide.
    r = Rng(SEED)
    assert r.fork(b"ab").fork(b"c").take(16) != r.fork(b"a").fork(b"bc").take(16)


def test_seed_property_and_types():
    rng = Rng(SEED)
    assert rng.seed == SEED
    assert Rng(bytearray(SEED)).seed == SEED
    with pytest.raises(TypeError):
        Rng("not bytes")
    with pytest.raises(ValueError):
        rng.take(-1)
    assert rng.take(0) == b""


def test_from_system_is_fresh():
    a, b = Rng.from_system(), Rng.from_system()
    assert len(a.seed) == SEED_BYTES
    assert a.take(32) != b.take(32)


# The stream against hmac.digest, the reference for the RFC 2104 states that
# Rng keeps: block i is HMAC(key, i), a fork's key is HMAC(key, "fork" ||
# framed label) cut to SEED_BYTES.


def _reference_stream(key: bytes, n: int) -> bytes:
    blocks = (n + 63) // 64
    return b"".join(
        hmac.digest(key, i.to_bytes(8, "big"), "sha512") for i in range(blocks)
    )[:n]


def _reference_fork(key: bytes, label: bytes) -> bytes:
    framed = b"fork" + len(label).to_bytes(8, "big") + label
    return hmac.digest(key, framed, "sha512")[:SEED_BYTES]


# Around SHA-512's 128-byte block: longer keys are hashed before padding.
SEED_LENGTHS = [0, 1, 32, 64, 127, 128, 129, 300]
CHAIN_LABELS = [b"", b"a", b"trial/" + bytes(8), b"x" * 200]


@pytest.mark.parametrize("kind", [bytes, bytearray])
@pytest.mark.parametrize("length", SEED_LENGTHS)
def test_take_and_fork_match_the_hmac_reference(length, kind):
    seed = kind((7 * i + 3) % 256 for i in range(length))
    key = bytes(seed)
    rng = Rng(seed)
    # Draws that end inside a block, cross one, and span two.
    assert rng.take(10) + rng.take(60) + rng.take(130) + rng.take(1) == (
        _reference_stream(key, 201)
    )
    child = rng.fork(b"child")
    assert type(child) is Rng
    assert child.seed == _reference_fork(key, b"child")
    assert child.take(150) == _reference_stream(child.seed, 150)
    assert child.take(5) == Rng(child.seed).take(155)[150:]
    # The parent's position is untouched by the fork.
    assert rng.take(64) == _reference_stream(key, 265)[201:]

    chain, chain_key = Rng(seed), key
    for label in CHAIN_LABELS:
        chain, chain_key = chain.fork(label), _reference_fork(chain_key, label)
        assert chain.seed == chain_key
    assert chain.take(129) == _reference_stream(chain_key, 129)


def test_mutating_a_bytearray_seed_afterwards_changes_nothing():
    seed = bytearray(SEED)
    rng = Rng(seed)
    seed[0] ^= 1
    assert rng.take(70) == _reference_stream(SEED, 70)
    assert rng.fork(b"f").seed == _reference_fork(SEED, b"f")


# A batch of 64 signatures at the secure prime draws 12,288 bytes at once.
LONG_TAKE = 13_000


@given(
    offset=st.integers(min_value=0, max_value=63),
    draws=st.lists(st.integers(min_value=0, max_value=LONG_TAKE), min_size=1, max_size=3),
)
def test_long_takes_match_the_hmac_reference(offset, draws):
    rng = Rng(SEED)
    rng.take(offset)
    got = b"".join(rng.take(n) for n in draws)
    assert got == _reference_stream(SEED, offset + sum(draws))[offset:]


def test_a_long_take_from_every_in_block_offset_matches_the_reference():
    reference = _reference_stream(SEED, 64 + LONG_TAKE + 64)
    for offset in range(64):
        rng = Rng(SEED)
        assert rng.take(offset) + rng.take(LONG_TAKE) == reference[: offset + LONG_TAKE]
        # The stream goes on from inside the last block.
        assert rng.take(64) == reference[offset + LONG_TAKE : offset + LONG_TAKE + 64]


@given(
    seed=st.binary(max_size=300),
    labels=st.lists(st.binary(max_size=150), max_size=3),
    draws=st.lists(st.integers(min_value=0, max_value=150), max_size=4),
)
def test_streams_and_fork_chains_match_the_hmac_reference(seed, labels, draws):
    rng, key = Rng(seed), seed
    for label in labels:
        rng, key = rng.fork(label), _reference_fork(key, label)
    assert b"".join(rng.take(n) for n in draws) == _reference_stream(key, sum(draws))


def test_streams_hash_with_the_builtin_sha512_where_the_interpreter_has_one():
    # _sha512 is gone from CPython 3.12 on; there hashlib's OpenSSL one stays.
    try:
        from _sha512 import sha512 as expected
    except ImportError:
        expected = hashlib.sha512
    assert rng_module.sha512 is expected
    # hash_to_field computes the same SHA-512.
    assert hashing.sha512 is expected
