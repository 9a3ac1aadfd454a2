"""Scalar arithmetic, precision propagation, log/exp/pow, torsion tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubinlab import (
    INF,
    DivisionByZeroToPrecision,
    DomainError,
    PadicNum,
    is_root_of_unity,
    padic_exp,
    padic_log,
    padic_pow,
)
from conftest import outcome
from oracles import exp_partial_mod, frac_mod, frac_val, log_partial_mod


def test_mul_valuation_additivity():
    a = PadicNum.from_int(5, 5, 10)
    b = a * a
    assert b.v == 2 and b.u == 1


def test_exact_division():
    q = PadicNum.from_int(6, 2, 10) / PadicNum.from_int(2, 2, 10)
    assert q.v == 0 and q.u == 3


def test_add_carries_mod_pN():
    # 55 + 75 = 130 = 5 mod 125
    s = PadicNum.from_int(55, 5, 3) + PadicNum.from_int(75, 5, 3)
    assert s.residue() == 130 % 125 == 5
    assert s.v == 1


def test_sub_cancellation_gives_zero_to_prec():
    a = PadicNum.from_int(7, 3, 6)
    d = a - PadicNum.from_int(7, 3, 6)
    assert d.is_zero_like() and not d.is_exact_zero()
    assert d.N == 6


def test_division_by_zero_to_precision():
    z = PadicNum.zero_to_prec(5, 4)
    with pytest.raises(DivisionByZeroToPrecision):
        PadicNum.one(5, 4) / z


def test_no_significant_digits_raises():
    from lubinlab import PrecisionExhausted

    z = PadicNum.zero_to_prec(5, 3)
    with pytest.raises(PrecisionExhausted):
        z / PadicNum.from_int(5**4, 5, 8)


@pytest.mark.parametrize("N", [0, -1])
def test_one_without_digits_raises(N):
    """One known to precision N <= 0 carries no digit, as zero_to_prec refuses."""
    from lubinlab import PrecisionExhausted

    with pytest.raises(PrecisionExhausted):
        PadicNum.one(2, N)


def test_negative_integer_power():
    x = PadicNum.from_int(6, 5, 8)
    assert ((x**-2) * x * x).congruent(1)


def test_precision_loss_through_division():
    a = PadicNum.from_int(10, 5, 8)  # v=1, prec 8
    b = a / PadicNum.from_int(5, 5, 8)
    assert b.v == 0
    assert b.N == 7  # one digit spent on the denominator valuation


def test_fraction_roundtrip():
    x = PadicNum.from_fraction(Fraction(7, 4), 5, 6)
    assert x.residue() % 5**6 == frac_mod(Fraction(7, 4), 5, 6)


def test_negative_valuation_representation():
    x = PadicNum.from_fraction(Fraction(3, 25), 5, 4)
    assert x.v == -2
    assert x.as_fraction().denominator == 25


@pytest.mark.parametrize(
    "x,p,N,expected",
    [(6, 5, 3, 55), (4, 3, 4, None), (9, 2, 6, None)],
)
def test_log_matches_partial_sum_oracle(x, p, N, expected):
    got = padic_log(PadicNum.from_int(x, p, N))
    want = log_partial_mod(x, p, N) if expected is None else expected
    assert got.residue() % p**N == want % p**N


def test_log_one_is_exact_zero():
    assert padic_log(PadicNum.one(5, 8)).is_zero_like()


def test_log_domain_error_p2():
    with pytest.raises(DomainError):
        padic_log(PadicNum.from_int(3, 2, 8))


def test_exp_matches_partial_sum_oracle():
    got = padic_exp(PadicNum.from_int(5, 5, 3))
    assert got.residue() == 81
    assert got.residue() == exp_partial_mod(5, 5, 3)
    got2 = padic_exp(PadicNum.from_int(12, 2, 8))
    assert got2.residue() % 2**8 == exp_partial_mod(12, 2, 8) % 2**8


def test_exp_domain():
    with pytest.raises(DomainError):
        padic_exp(PadicNum.from_int(2, 2, 8))  # needs v >= 2 at p = 2
    with pytest.raises(DomainError):
        padic_exp(PadicNum.from_int(1, 3, 8))


def test_pow_integer_and_identity():
    g = PadicNum.from_int(6, 5, 10)
    assert padic_pow(g, 2).residue() == 36
    assert padic_pow(g, 1).congruent(g)
    assert padic_pow(g, 0).congruent(1)


def test_exp_log_roundtrip_random(rnd):
    for p in (3, 5):
        for _ in range(20):
            x = PadicNum.from_int(1 + p * rnd.randrange(1, p**6), p, 8)
            assert padic_exp(padic_log(x)).congruent(x)
    for _ in range(20):
        y = PadicNum.from_int(4 * rnd.randrange(1, 2**6), 2, 10)
        assert padic_log(padic_exp(y)).congruent(y)


def test_pow_additivity_random(rnd):
    p = 5
    g = PadicNum.from_int(1 + p, p, 12)
    for _ in range(15):
        a = PadicNum.from_int(rnd.randrange(0, p**5), p, 12)
        b = PadicNum.from_int(rnd.randrange(0, p**5), p, 12)
        lhs = padic_pow(g, a) * padic_pow(g, b)
        rhs = padic_pow(g, a + b)
        assert lhs.congruent(rhs)


def test_ultrametric_random(rnd):
    p = 3
    for _ in range(200):
        a = PadicNum.from_int(rnd.randrange(1, 3**8), p, 10)
        b = PadicNum.from_int(rnd.randrange(1, 3**8), p, 10)
        s = a + b
        floor = min(a.v, b.v)
        assert s.val_floor() >= floor
        if a.v != b.v:
            assert s.v == floor


def test_root_of_unity():
    assert is_root_of_unity(PadicNum.one(5, 8)) == (True, 1)
    assert is_root_of_unity(PadicNum.from_int(6, 5, 8)) == (False, None)
    assert is_root_of_unity(PadicNum.from_int(-1, 2, 8)) == (True, 2)
    # Teichmueller-like: order p-1 element mod small precision
    ok, order = is_root_of_unity(PadicNum.from_int(2, 5, 1))
    assert ok and order == 4


def test_valuations_against_fraction_oracle(rnd):
    for _ in range(50):
        num = rnd.randrange(1, 10**6)
        den = rnd.randrange(1, 10**4)
        q = Fraction(num, den)
        x = PadicNum.from_fraction(q, 3, 20)
        assert x.v == frac_val(q, 3)


def test_scalar_json_roundtrip():
    x = PadicNum.from_fraction(Fraction(7, 9), 3, 6)
    again = PadicNum.from_json(x.to_json(), 3)
    assert again.congruent(x) and again.v == x.v and again.N == x.N


@st.composite
def triple_pair(draw):
    """Two (v, u, N) triples -- exact zeros, zero-like, negative valuations
    and precisions <= 0 included -- the second often the first plus a
    multiple of p^t, and a comparison precision, None or possibly <= 0."""
    p = draw(st.sampled_from((2, 3, 5)))

    def triple():
        kind = draw(st.sampled_from(("finite", "finite", "zero-like", "exact")))
        if kind == "exact":
            return (INF, 0, INF)
        N = draw(st.integers(-3, 8))
        if kind == "zero-like":
            return (INF, 0, N)
        v = draw(st.integers(N - 5, N - 1))
        return (v, p * draw(st.integers(0, p ** (N - v - 1) - 1)) + draw(st.integers(1, p - 1)), N)

    a = triple()
    b = triple()
    if a[0] != INF and draw(st.booleans()):
        nb = draw(st.integers(a[0] + 1, a[0] + 9))
        b = (a[0], (a[1] + p ** draw(st.integers(1, 9)) * draw(st.integers(0, 9))) % p ** (nb - a[0]), nb)
    return p, a, b, draw(st.none() | st.integers(-3, 10))


@settings(max_examples=500, deadline=None)
@given(triple_pair())
@example((3, (-1, 1, 0), (-1, 4, 1), None))  # K <= 0: forming the difference raises
@example((2, (-2, 1, 3), (-2, 5, 4), -1))  # prec <= 0: capping the difference raises
@example((5, (1, 7, 4), (1, 2, 3), 2))  # equal below prec, different at N
def test_congruent_matches_difference(case):
    """``PadicNum.congruent``, decided on the integers (v, u, N), against its
    definition: the difference, capped at prec, is zero-like.  Results and
    raises."""
    p, a, b, prec = case
    x, y = PadicNum(p, *a), PadicNum(p, *b)

    def by_difference():
        d = x - y
        if prec is not None:
            d = d.cap_prec(min(prec, d.N if d.N != INF else prec))
        return d.is_zero_like()

    assert outcome(lambda: x.congruent(y, prec)) == outcome(by_difference)
