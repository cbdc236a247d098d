"""Independent reference computations the tests compare the package against.

Everything here is deliberately written the slow, obvious way, using a
different algorithm from the implementation wherever one exists: inverses by
a hand-written extended Euclid and by Fermat's identity through manual
square-and-multiply instead of the builtin pow(x, -1, p), interpolation from
the two-point formula instead of cached coefficients, interval endpoints by
bisecting the defining equation instead of the closed form.
"""

from __future__ import annotations

from fractions import Fraction


def inverse_by_ext_gcd(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p via extended Euclid."""
    if a % p == 0:
        raise ZeroDivisionError("0 has no inverse")
    old_r, r = a % p, p
    old_t, t = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_t, t = t, old_t - q * t
    assert old_r == 1, "modulus must be prime"
    return old_t % p


def line_at_zero(w0: int, s0: int, w1: int, s1: int, p: int) -> int:
    """f(0) for the unique degree-<=1 f with f(w0)=s0, f(w1)=s1, over F_p."""
    num = (s0 * w1 - s1 * w0) % p
    return num * inverse_by_ext_gcd((w1 - w0) % p, p) % p


def accepts(w0: int, w1: int, r: int, sigma, p: int) -> bool:
    """The verifier's check as the two_party docstring states it: sigma4 != 0
    and the line through (w0, V0) and (w1, V1) passes through 0."""
    s1, s2, s3, s4, s5 = sigma
    m = s1 * s2
    return s4 % p != 0 and line_at_zero(w0, m - s5, w1, m - s3 + r * s4, p) == 0


def reduce_big_endian(data: bytes, p: int) -> int:
    return int.from_bytes(data, "big") % p


def powmod_by_squaring(base: int, exp: int, p: int) -> int:
    """Square-and-multiply, independent of builtin pow()."""
    acc = 1
    base %= p
    while exp:
        if exp & 1:
            acc = acc * base % p
        base = base * base % p
        exp >>= 1
    return acc


def wilson_bounds_by_bisection(
    successes: int, trials: int, z: Fraction, tol: Fraction = Fraction(1, 10**30)
) -> tuple[Fraction, Fraction]:
    """Endpoints of the score interval, found by bisection.

    The endpoints are the two roots q of (phat - q)^2 * n = z^2 * q(1-q),
    i.e. of g(q) = (n + z^2) q^2 - (2 n phat + z^2) q + n phat^2, which is
    positive outside the interval and negative inside.
    """
    n = Fraction(trials)
    phat = Fraction(successes, trials)
    z2 = z * z

    def g(q: Fraction) -> Fraction:
        return (n + z2) * q * q - (2 * n * phat + z2) * q + n * phat * phat

    center = (phat + z2 / (2 * n)) / (1 + z2 / n)  # vertex of the parabola
    assert g(center) <= 0

    def root(lo: Fraction, hi: Fraction, want_low: bool) -> Fraction:
        # g(lo) and g(hi) straddle the root; keep the sign change.
        while hi - lo > tol:
            mid = (lo + hi) / 2
            inside = g(mid) <= 0
            if want_low:
                lo, hi = (lo, mid) if inside else (mid, hi)
            else:
                lo, hi = (mid, hi) if inside else (lo, mid)
        return (lo + hi) / 2

    low = root(Fraction(0), center, want_low=True) if g(Fraction(0)) > 0 else Fraction(0)
    high = root(center, Fraction(1), want_low=False) if g(Fraction(1)) > 0 else Fraction(1)
    return low, high


def signing_phase_view_tuples(transcript, role, before_round: int) -> tuple:
    """The role's view as (round, sender, wire bytes) per envelope delivered
    to it before before_round: a reference key for the compact bytes key."""
    return tuple(
        (env.round, env.sender, env.payload.to_wire())
        for env in transcript
        if (env.recipient is None or env.recipient is role) and env.round < before_round
    )


def per_envelope(body):
    """An adversary turn that applies the per-envelope rewrite body(env, view)
    to each envelope its party emits in the round, in order, and sends what
    the calls return: the turn as it looks envelope by envelope."""
    return lambda rnd, own, view: [r for env in own for r in body(env, view)]
