"""Signer/designated-verifier scheme: round trips, receipts, forgeries, costs."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils.errors import MalformedSignature, ModulusMismatch, ProtocolMisuse, WrongType
from silmarils.field import SECURE_PRIME_VALUE, FieldElement, Prime, count_field_ops
from silmarils.hashing import (
    derive_message_key,
    derive_nonce,
    derive_receipt,
    receipt_from_nonce,
)
from silmarils.rng import Rng
from silmarils.sss import Weights, reconstruct
from silmarils.stats import make_estimate
from silmarils.two_party import (
    KeyMaterial,
    Params,
    Signature,
    SigningTape,
    _assemble,
    _core_verify,
    dv_forge,
    keygen,
    public_r_forge,
    public_receipt,
    sign,
    sign_accepted,
    sign_many,
    verify,
    verify_public_r,
    verify_with_receipt,
)

P251 = Prime(251)
SECURE = Prime(SECURE_PRIME_VALUE)
KERNEL_PRIMES = [Prime(3), Prime(5), P251, SECURE]


def _setup(prime, seed=b"\x07" * 32):
    rng = Rng(seed)
    params = Params.generate(prime, rng.fork(b"params"))
    return keygen(params, rng.fork(b"keys")), rng.fork(b"sign")


@pytest.mark.parametrize("prime", [Prime(13), P251, SECURE], ids=["p13", "p251", "secure"])
def test_honest_round_trip(prime):
    keys, rng = _setup(prime)
    for i in range(20):
        msg = f"message {i}".encode()
        sig, tape = sign_accepted(keys, msg, rng)
        assert verify(keys.pk, keys.k_sig, msg, sig)
        assert tape.r == derive_receipt(keys.k_sig, msg, prime)[1]


def test_honest_rejection_is_exactly_the_zero_check():
    # An honest signature is refused iff sigma4 = 0, which happens iff the
    # blinding share at w1 vanishes; sign_accepted retries past those draws.
    keys, rng = _setup(Prime(5), b"\x31" * 32)
    msg = b"small field"
    rejected = accepted = 0
    for _ in range(300):
        sig, _ = sign(keys, msg, rng)
        ok = verify(keys.pk, keys.k_sig, msg, sig)
        if ok:
            accepted += 1
        else:
            rejected += 1
            assert not sig.s4
    assert accepted and rejected  # at p=5 roughly 1/5 of draws reject


def test_wrong_message_or_key_rejects_at_secure_size():
    keys, rng = _setup(SECURE)
    msg = b"the real message"
    sig, _ = sign_accepted(keys, msg, rng)
    assert not verify(keys.pk, keys.k_sig, b"another message", sig)
    stranger = KeyMaterial(
        sk_K=keys.sk_K, pk=keys.pk, k_sig=_setup(SECURE, b"\x08" * 32)[0].k_sig
    )
    assert not verify(stranger.pk, stranger.k_sig, msg, sig)


def test_signature_encoding_round_trip():
    keys, rng = _setup(P251)
    sig, _ = sign(keys, b"enc", rng)
    data = sig.encode()
    assert len(data) == 5 * P251.byte_length
    again = Signature.decode(P251, data)
    assert list(again) == list(sig)
    assert again.hex() == data.hex()


def test_signature_decode_rejects_malformed():
    with pytest.raises(MalformedSignature):
        Signature.decode(P251, b"\x00" * 4)  # wrong length
    with pytest.raises(MalformedSignature):
        Signature.decode(P251, b"\xfb" * 5)  # 251 is non-canonical


def test_verify_accepts_raw_bytes_and_rejects_sigma4_zero():
    keys, rng = _setup(P251)
    msg = b"bytes in"
    sig, _ = sign_accepted(keys, msg, rng)
    assert verify(keys.pk, keys.k_sig, msg, sig.encode())
    zeroed = Signature(sig.s1, sig.s2, sig.s3, P251.zero, sig.s5)
    assert not verify(keys.pk, keys.k_sig, msg, zeroed)


def test_receipt_path_equals_dv_path():
    keys, rng = _setup(P251)
    msg = b"receipt flow"
    sig, _ = sign_accepted(keys, msg, rng)
    _, r = derive_receipt(keys.k_sig, msg, P251)
    assert verify_with_receipt(keys.pk, r, msg, sig)
    assert not verify_with_receipt(keys.pk, r + P251.one, msg, sig)


@given(seed=st.binary(min_size=32, max_size=32))
def test_structural_identity_on_honest_signatures(seed):
    # V0 and V1 are collinear evaluations: V0*w1 == V1*w0.
    keys, rng = _setup(P251, seed)
    msg = b"identity"
    sig, tape = sign(keys, msg, rng)
    v0 = sig.s1 * sig.s2 - sig.s5
    v1 = sig.s1 * sig.s2 - sig.s3 + tape.r * sig.s4
    assert v0 * keys.pk.w1 == v1 * keys.pk.w0


def test_operation_budget():
    keys, rng = _setup(SECURE)
    msg = b"count me"
    with count_field_ops() as sc:
        sig, tape = sign(keys, msg, rng)
    with count_field_ops() as vc:
        verify(keys.pk, keys.k_sig, msg, sig)
    assert sc.muls <= 14 and sc.invs <= 2
    assert vc.muls <= 8 and vc.invs == 0
    # the exact counts, pinned so regressions surface
    assert (sc.muls, sc.invs) == (13, 2)
    assert (vc.muls, vc.invs) == (4, 0)
    # a batch shares one pow but keeps the per-signature budget
    with count_field_ops() as bc:
        sign_many(keys, msg, rng, 64)
    assert (bc.muls, bc.invs) == (13 * 64, 2 * 64)


def test_secure_profile_sizes():
    keys, rng = _setup(SECURE)
    sig, _ = sign(keys, b"sized", rng)
    assert len(keys.sk_K.to_bytes()) == 32
    assert len(keys.pk.to_bytes()) == 64
    assert len(sig.encode()) == 160


def test_keygen_is_deterministic():
    a, _ = _setup(P251, b"\x12" * 32)
    b, _ = _setup(P251, b"\x12" * 32)
    assert a.sk_K == b.sk_K
    assert a.pk == b.pk
    assert a.k_sig == b.k_sig


def test_dv_forge_accepts_whenever_sigma4_nonzero():
    keys, _ = _setup(P251)
    rng = Rng(b"\x21" * 32)
    msg = b"simulated"
    nonzero = 0
    for _ in range(400):
        sig = dv_forge(keys.k_sig, keys.pk, msg, rng)
        if sig.s4:
            nonzero += 1
            assert verify(keys.pk, keys.k_sig, msg, sig)
    assert nonzero  # nearly all draws
    # forgeries are not fixed points: two draws differ
    a = dv_forge(keys.k_sig, keys.pk, msg, Rng(b"\x22" * 32))
    b = dv_forge(keys.k_sig, keys.pk, msg, Rng(b"\x23" * 32))
    assert a.encode() != b.encode()


def test_single_byte_mutations_forge_at_most_one_in_p():
    # Every one-byte change to each of 60 valid toy-251 signatures, checked
    # as raw bytes; a non-canonical byte fails to decode and counts as rejected.
    keys, rng = _setup(P251, b"\x44" * 32)
    mutations = accepted = 0
    for i in range(60):
        msg = b"mutate %d" % i
        sig, _ = sign_accepted(keys, msg, rng)
        raw = sig.encode()
        for pos, old in enumerate(raw):
            for new in range(256):
                if new == old:
                    continue
                mutations += 1
                try:
                    accepted += verify(
                        keys.pk, keys.k_sig, msg, raw[:pos] + bytes([new]) + raw[pos + 1 :]
                    )
                except MalformedSignature:
                    pass
    assert mutations == 60 * 5 * 255
    est = make_estimate("mutation-forgery", 251, mutations, accepted, Fraction(1, 251))
    assert est.verdict == "pass", est


def test_public_receipt_forgery_beats_only_the_weakened_check():
    keys, _ = _setup(P251)
    rng = Rng(b"\x24" * 32)
    msg = b"downgrade"
    real_accepts = 0
    for _ in range(300):
        sig = public_r_forge(keys.pk, msg, rng)
        if sig.s4:
            assert verify_public_r(keys.pk, msg, sig)
        if verify(keys.pk, keys.k_sig, msg, sig):
            real_accepts += 1
    # against the real verifier this is just the generic 1/p gamble
    assert real_accepts <= 300 * 3 // 251 + 3


def test_public_receipt_is_unkeyed_and_deterministic():
    assert public_receipt(b"m", P251) == public_receipt(b"m", P251)
    keys, _ = _setup(P251)
    _, keyed = derive_receipt(keys.k_sig, b"m", P251)
    # the weakened receipt ignores k_sig entirely
    assert public_receipt(b"m", P251).prime is P251


def test_params_generate_properties():
    rng = Rng(b"\x42" * 32)
    for _ in range(50):
        params = Params.generate(P251, rng)
        assert params.weights.w0 and params.weights.w1
        assert params.weights.w0 != params.weights.w1


def _check_tape(keys, msg, tape):
    # K', n and r recomputed without any memo
    n = derive_nonce(keys.k_sig, msg, keys.sk_K.prime)
    assert tape.Kprime == derive_message_key(keys.sk_K, msg)
    assert (tape.n, tape.r) == (n, receipt_from_nonce(msg, n))


def _equations_by_hand(w, Kprime, r, b, d, eps, slope_eps, slope_K):
    # the module docstring's sigma1..sigma5, on FieldElements
    eps0, eps1 = eps + slope_eps * w.w0, eps + slope_eps * w.w1
    key0, key1 = Kprime + slope_K * w.w0, Kprime + slope_K * w.w1
    return Signature(
        b * (Kprime - r), d / b, key1 * d, d / eps * eps1, d * (key0 - r / eps * eps0)
    )


def _verify_by_hand(w, r, sig):
    # the acceptance check, through the share reconstruction
    if not sig.s4:
        return False
    m = sig.s1 * sig.s2
    return not reconstruct((m - sig.s5, m - sig.s3 + r * sig.s4), w)


def _elements(data, prime, count, unit=False):
    # residues biased to 0 and 1, so zero parts, r = 0 and sigma4 = 0 come up
    q = prime.value
    low = 1 if unit else 0
    residue = st.one_of(st.sampled_from(range(low, min(q, 2))), st.integers(low, q - 1))
    return [prime.elt(data.draw(residue)) for _ in range(count)]


def _weights(data, prime):
    w0 = data.draw(st.integers(1, prime.value - 1))
    w1 = data.draw(st.integers(1, prime.value - 1).filter(lambda v: v != w0))
    return Weights(prime.elt(w0), prime.elt(w1))


@given(prime=st.sampled_from(KERNEL_PRIMES), data=st.data())
def test_assemble_matches_the_equations_by_hand(prime, data):
    w = _weights(data, prime)
    Kprime, r, slope_eps, slope_K = _elements(data, prime, 4)
    b, d, eps = _elements(data, prime, 3, unit=True)
    sig = _assemble(w, Kprime, r, b, d, eps, slope_eps, slope_K)
    assert sig == _equations_by_hand(w, Kprime, r, b, d, eps, slope_eps, slope_K)
    for part in sig:
        assert type(part) is FieldElement and part.prime is prime
        assert 0 <= part.residue < prime.value


@given(prime=st.sampled_from(KERNEL_PRIMES), solve=st.booleans(), data=st.data())
def test_core_verify_matches_the_reconstruction(prime, solve, data):
    w = _weights(data, prime)
    r, s1, s2, s3, s4, s5 = _elements(data, prime, 6)
    if solve:  # the one sigma5 that makes the reconstruction zero
        m = s1 * s2
        s5 = m + w.lam1 * (m - s3 + r * s4) / w.lam0
    sig = Signature(s1, s2, s3, s4, s5)
    with count_field_ops() as c:
        accepted = _core_verify(w, r, sig)
    assert accepted == _verify_by_hand(w, r, sig)
    if solve:
        assert accepted == bool(s4)
    assert (c.muls, c.invs) == ((4, 0) if s4 else (0, 0))


def test_operation_counts_of_the_other_entries():
    keys, rng = _setup(P251)
    msg = b"counted"
    with count_field_ops() as forge:
        dv_forge(keys.k_sig, keys.pk, msg, rng)
    sig, tape = sign_accepted(keys, msg, rng)
    with count_field_ops() as receipt:
        assert verify_with_receipt(keys.pk, tape.r, msg, sig)
    with count_field_ops() as public:
        verify_public_r(keys.pk, msg, sig)
    zeroed = Signature(sig.s1, sig.s2, sig.s3, P251.zero, sig.s5)
    with count_field_ops() as rejected:
        assert not _core_verify(keys.pk, tape.r, zeroed)
    counts = [(c.muls, c.invs) for c in (forge, receipt, public, rejected)]
    assert counts == [(12, 2), (4, 0), (4, 0), (0, 0)]


def test_sign_many_refuses_foreign_weights_before_drawing():
    keys, _ = _setup(P251)
    foreign = Params.generate(Prime(13), Rng(b"\x05" * 32)).weights
    rng = Rng(b"\x06" * 32)
    with pytest.raises(ModulusMismatch):
        sign_many(KeyMaterial(sk_K=keys.sk_K, pk=foreign, k_sig=keys.k_sig), b"m", rng, 3)
    assert rng.take(16) == Rng(b"\x06" * 32).take(16)


@pytest.mark.parametrize("count, error", [(-1, ProtocolMisuse), (2.5, WrongType), ("3", WrongType)])
def test_sign_many_refuses_a_bad_count_before_drawing(count, error):
    keys, _ = _setup(P251)
    rng = Rng(b"\x06" * 32)
    with pytest.raises(error):
        sign_many(keys, b"m", rng, count)
    assert rng.take(16) == Rng(b"\x06" * 32).take(16)


def _sign_by_hand(keys, msg, rng):
    # sign's documented draw order, one signature and one _assemble at a time
    prime = keys.sk_K.prime
    n, r = derive_receipt(keys.k_sig, msg, prime)
    alpha, beta, b, d = (prime.sample_unit(rng) for _ in range(4))
    slope_eps, slope_K = prime.sample(rng), prime.sample(rng)
    eps, Kprime = alpha * beta, derive_message_key(keys.sk_K, msg)
    sig = _assemble(keys.pk, Kprime, r, b, d, eps, slope_eps, slope_K)
    return sig, SigningTape(alpha, beta, b, d, eps, slope_eps, Kprime, slope_K, n, r)


@pytest.mark.parametrize("prime", [Prime(5), P251, SECURE], ids=["p5", "p251", "secure"])
@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65])
def test_sign_many_matches_sign(prime, count):
    keys, _ = _setup(prime)
    seed = b"\x09" * 32
    batch_rng, sign_rng, hand_rng = Rng(seed), Rng(seed), Rng(seed)
    batch = sign_many(keys, b"batched", batch_rng, count)
    signed = [sign(keys, b"batched", sign_rng) for _ in range(count)]
    assert signed == [_sign_by_hand(keys, b"batched", hand_rng) for _ in range(count)]
    assert batch == [sig for sig, _ in signed]
    for _, tape in signed:
        _check_tape(keys, b"batched", tape)
    assert batch_rng.take(16) == sign_rng.take(16) == hand_rng.take(16)


def test_sign_memo_follows_message_and_prime():
    for prime in (Prime(13), P251):
        keys, rng = _setup(prime)
        for msg in (b"m1", b"m2", b"m1", b"m1"):
            sig, tape = sign(keys, msg, rng)
            _check_tape(keys, msg, tape)
            assert derive_receipt(keys.k_sig, msg, prime)[1] == tape.r
            assert verify(keys.pk, keys.k_sig, msg, sig) == bool(sig.s4)


def test_sign_memo_copies_a_mutable_message():
    keys, rng = _setup(P251)
    msg = bytearray(b"original")
    _, first = sign(keys, msg, rng)
    msg[:] = b"mutated!"
    _, tape = sign(keys, b"mutated!", rng)
    _check_tape(keys, b"mutated!", tape)
    _, again = sign(keys, b"original", rng)
    _check_tape(keys, b"original", again)
    assert (again.Kprime, again.n, again.r) == (first.Kprime, first.n, first.r)


def test_sign_memo_is_per_key_material():
    keys, rng = _setup(P251)
    other, _ = _setup(P251, b"\x08" * 32)
    # shares sk_K and pk but holds another pair key
    stranger = KeyMaterial(sk_K=keys.sk_K, pk=keys.pk, k_sig=other.k_sig)
    for km in (keys, other, stranger, keys, stranger):
        _, tape = sign(km, b"same message", rng)
        _check_tape(km, b"same message", tape)


def test_memos_do_not_change_equality_hash_or_repr():
    keys, rng = _setup(P251)
    twin, _ = _setup(P251)
    before = (repr(keys), repr(keys.k_sig), hash(keys.k_sig))
    verify(keys.pk, keys.k_sig, b"m", sign(keys, b"m", rng)[0])
    assert keys == twin and repr(keys) == repr(twin)
    assert keys.k_sig == twin.k_sig and hash(keys.k_sig) == hash(twin.k_sig)
    assert (repr(keys), repr(keys.k_sig), hash(keys.k_sig)) == before
    with pytest.raises(TypeError):  # KeyMaterial holds Weights, which are unhashable
        hash(keys)
