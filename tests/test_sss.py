"""Two-point sharing against the direct interpolation oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from silmarils.errors import DegenerateWeights, LengthMismatch
from silmarils.field import Prime
from silmarils.rng import Rng
from silmarils.sss import Weights, reconstruct, share_with_slope

from .oracles import line_at_zero

P13 = Prime(13)
P251 = Prime(251)


def _weights(prime, w0, w1):
    return Weights(prime.elt(w0), prime.elt(w1))


def test_spot_fact_p13():
    # Hand-checked: w=(1,2), s=5, a=3 -> shares (8, 11); f(0) = 5.
    w = _weights(P13, 1, 2)
    pair = share_with_slope(P13.elt(5), P13.elt(3), w)
    assert pair == (P13.elt(8), P13.elt(11))
    assert reconstruct(pair, w) == P13.elt(5)


@given(
    secret=st.integers(min_value=0, max_value=250),
    slope=st.integers(min_value=0, max_value=250),
    w0=st.integers(min_value=1, max_value=250),
    w1=st.integers(min_value=1, max_value=250),
)
def test_reconstruct_matches_interpolation_oracle(secret, slope, w0, w1):
    if w0 == w1:
        w1 = w0 % 250 + 1
    w = _weights(P251, w0, w1)
    s0, s1 = share_with_slope(P251.elt(secret), P251.elt(slope), w)
    got = reconstruct((s0, s1), w)
    assert int(got) == line_at_zero(w0, int(s0), w1, int(s1), 251)
    assert int(got) == secret


@given(seed=st.binary(min_size=32, max_size=32))
def test_share_then_reconstruct_is_identity(seed):
    rng = Rng(seed)
    w = Weights.generate(P251, rng.fork(b"w"))
    secret, slope = P251.sample(rng.fork(b"s")), P251.sample(rng.fork(b"a"))
    assert reconstruct(share_with_slope(secret, slope, w), w) == secret


def test_sharing_is_linear():
    w = _weights(P13, 3, 7)
    pa = share_with_slope(P13.elt(4), P13.elt(9), w)
    pb = share_with_slope(P13.elt(11), P13.elt(2), w)
    assert reconstruct([a + b for a, b in zip(pa, pb)], w) == P13.elt(4 + 11)
    assert reconstruct([P13.elt(6) * a for a in pa], w) == P13.elt(4 * 6)


def test_degenerate_weights_rejected():
    with pytest.raises(DegenerateWeights):
        _weights(P13, 0, 5)
    with pytest.raises(DegenerateWeights):
        _weights(P13, 5, 0)
    with pytest.raises(DegenerateWeights):
        _weights(P13, 5, 5)


def test_generated_weights_are_admissible():
    rng = Rng(b"\x55" * 32)
    for _ in range(100):
        w = Weights.generate(P13, rng)
        assert w.w0 and w.w1 and w.w0 != w.w1


def test_weights_encoding_round_trip():
    w = _weights(P251, 17, 200)
    again = Weights.from_bytes(P251, w.to_bytes())
    assert again == w
    with pytest.raises(DegenerateWeights):
        Weights.from_bytes(P251, w.to_bytes() + b"\x00")


def test_reconstruction_coefficients_cached_cost():
    from silmarils.field import count_field_ops

    w = _weights(P251, 9, 33)
    pair = share_with_slope(P251.elt(77), P251.elt(5), w)
    with count_field_ops() as c:
        reconstruct(pair, w)
    assert (c.muls, c.invs) == (2, 0)
