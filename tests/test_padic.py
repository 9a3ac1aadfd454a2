"""Scalar arithmetic, precision propagation, log/exp/pow, torsion tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubinlab import (
    INF,
    DivisionByZeroToPrecision,
    PrecisionExhausted,
    DomainError,
    PadicNum,
    is_root_of_unity,
    padic_exp,
    padic,
    padic_log,
    padic_pow,
)
from lubinlab.padic import prime_powers, vp_int
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


@pytest.mark.parametrize(
    "x, want",
    [
        ((-3, 1, 1), (3, 1, 7)),  # 1/(2^-3 + O(2)) = 8 + O(2^7), not O(2^4)
        ((-3, 1, -1), (3, 1, 5)),  # two relative digits, though x.N <= 0
    ],
)
def test_inverse_of_negative_valuation_keeps_its_relative_digits(x, want):
    y = PadicNum(2, *x) ** -1
    assert (y.v, y.u, y.N) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(-6, 6), st.integers(1, 8), st.integers(1, 10**6), st.integers(1, 4))
))
def test_negative_power_inverts_with_all_relative_digits(case):
    """x^-k is (1/x)^k, 1/x the division of a 1 known to p^(N - v) (so as
    not to cap x's relative digits) by x."""
    p, v, rel, u, k = case
    x = PadicNum(p, v, (u if u % p else u + 1) % p**rel or 1, v + rel)
    inverse = PadicNum.one(p, max(x.N, rel)) / x
    want = inverse**k
    got = x**-k
    assert (got.v, got.u, got.N) == (want.v, want.u, want.N)


def test_inverse_of_zero_like_raises():
    with pytest.raises(DivisionByZeroToPrecision):
        PadicNum.zero_to_prec(3, 4) ** -1


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(0, 40), st.integers(-(10**30), 10**30).filter(bool))
@example(3, 8, 1)  # one block of p^8
@example(5, 17, -2)  # two blocks and one factor, negative n
def test_vp_int_matches_the_naive_loop(p, e, m):
    n = m * p**e
    v, r = 0, abs(n)
    while r % p == 0:
        r //= p
        v += 1
    assert vp_int(n, p) == v


def test_vp_int_of_zero_raises():
    with pytest.raises(ValueError):
        vp_int(0, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_powers_grow_past_their_end(p):
    end = len(prime_powers(p, 0))
    P = prime_powers(p, end + 40)
    assert len(P) > end + 40
    assert P == [p**k for k in range(len(P))]
    assert prime_powers(p, 3) is P


@pytest.mark.parametrize("p", [2, 5])
def test_prime_powers_past_the_kept_list_are_formed_on_read(p):
    """The kept list grew to the largest exponent ever asked for, so a
    precision of 60000 at p = 5 held about 550 MB of powers."""
    top = padic._POWERS_KEPT + 1000
    P = prime_powers(p, top)
    assert len(P) == top + 1
    assert [P[e] for e in (0, 1, top // 2, top)] == [1, p, p ** (top // 2), p**top]
    assert len(prime_powers(p, 0)) <= padic._POWERS_KEPT + 1


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


@st.composite
def value_and_int(draw):
    """(p, (v, u, N), k): c zero-like (v INF) or of any valuation, negative
    ones included, and a nonzero k of either sign, often divisible by p^N."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 8))
    if draw(st.booleans()):
        c = (INF, 0, N)
    else:
        v = draw(st.integers(N - 6, N - 1))
        c = (v, draw(st.integers(1, p ** (N - v) - 1).map(lambda x: x if x % p else x + 1)), N)
    k = draw(st.integers(1, 10**6) | st.integers(1, 4).map(lambda m: m * p ** (N + draw(st.integers(0, 3)))))
    return p, c, k * draw(st.sampled_from((1, -1)))


@settings(max_examples=500, deadline=None)
@given(value_and_int())
@example((2, (0, 1, 1), 8))  # k divisible by p^N: the digit of c moves up to p^3
@example((3, (-2, 2, 1), -9))  # negative v, moved to 0 by k
@example((5, (INF, 0, 2), 25))  # zero-like c: O(5^2) * 25 = O(5^4)
def test_int_product_is_exact(case):
    """c * k and k * c against the Fraction p^v u k: known to N + v_p(k),
    right at every digit claimed, and with a canonical unit.  An exact zero
    or k = 0 gives the exact zero."""
    p, (v, u, N), k = case
    c = PadicNum(p, v, u, N)
    w = frac_val(k, p)
    for got in (c * k, k * c):
        assert got.N == N + w
        if v == INF:
            assert got.is_zero_like()
            continue
        assert got.v == v + w and got.u % p and 0 < got.u < p ** (got.N - got.v)
        error = got.as_fraction() - c.as_fraction() * k
        assert error == 0 or frac_val(error, p) >= got.N
    assert (c * 0).is_exact_zero() and (0 * c).is_exact_zero()
    assert (PadicNum.exact_zero(p) * k).is_exact_zero()


def test_int_added_to_an_exact_zero_is_refused():
    """An exact zero has no finite precision to coerce an int at."""
    with pytest.raises(ValueError, match="no finite precision to coerce 3 at"):
        PadicNum.exact_zero(5) + 3


def test_exact_nonzero_times_an_int_stays_exact():
    """PadicNum.one(p, INF), an exact 1, times -18 at p = 3 is -18 exactly,
    with an integer unit."""
    got = PadicNum.one(3, INF) * -18
    assert (got.v, got.u, got.N) == (2, -2, INF) and type(got.u) is int
