"""Ring operations, composition, reversion, mod-p reduction."""

from fractions import Fraction

import pytest

from lubinlab import INF, ConstantTermError, IntegralityFailure, NotInvertible, PadicNum, PSeries, PrimeMismatch, logarithm_recurrence
from conftest import random_s0, series_from_fractions
from oracles import lagrange_inversion, poly_compose, poly_mul, swap_vars


def as_fracs(s):
    return {e[0]: c.as_fraction() for e, c in s.coeffs.items() if not c.is_zero_like()}


def test_derivative():
    f = series_from_fractions(2, [2, 1], 16, 20)
    assert as_fracs(f.derivative()) == {0: 2, 1: 2}


def test_truncation_kills_product():
    x = PSeries.identity(2, 2, 20)
    assert (x * x).coeffs == {}


def test_add():
    f = series_from_fractions(2, [2, 1], 16, 20)
    g = series_from_fractions(2, [1], 16, 20)
    assert as_fracs(f + g) == {1: 3, 2: 1}


def test_mixed_prime_rejected():
    f = series_from_fractions(2, [1], 16, 20)
    g = series_from_fractions(3, [1], 16, 20)
    with pytest.raises(PrimeMismatch):
        f + g


def test_compose_against_expansion_oracle():
    f = series_from_fractions(2, [2, 1], 16, 24)
    g = series_from_fractions(2, [1, 1], 16, 24)
    got = as_fracs(f.compose(g))
    want = poly_compose({1: Fraction(2), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}, 16)
    assert got == want == {1: 2, 2: 3, 3: 2, 4: 1}
    got2 = as_fracs(f.compose(f))
    assert got2 == {1: 4, 2: 6, 3: 4, 4: 1}


def test_compose_identity():
    g = series_from_fractions(5, [3, 1, 4], 12, 10)
    x = PSeries.identity(5, 12, 10)
    assert g.compose(x).equal_to_precision(g)
    assert x.compose(g).equal_to_precision(g)


def test_compose_requires_zero_constant():
    g = series_from_fractions(3, [1, 1], 8, 10)
    h = series_from_fractions(3, [1, 1], 8, 10, shift=0)
    with pytest.raises(ConstantTermError):
        g.compose(h)


def test_compose_associative_random(rnd):
    p, M, N = 3, 12, 14
    for _ in range(8):
        a = random_s0(rnd, p, M, N)
        b = random_s0(rnd, p, M, N)
        c = random_s0(rnd, p, M, N)
        assert a.compose(b).compose(c).equal_to_precision(a.compose(b.compose(c)))


def test_mul_against_oracle(rnd):
    p, M, N = 5, 14, 12
    for _ in range(6):
        a = random_s0(rnd, p, M, N, terms=6)
        b = random_s0(rnd, p, M, N, terms=6)
        got = as_fracs(a * b)
        want = poly_mul(as_fracs(a), as_fracs(b), M)
        for k, v in want.items():
            assert got.get(k, Fraction(0)) % p**8 == v % p**8


def test_reversion_matches_lagrange_oracle():
    g = series_from_fractions(2, [1, 1], 8, 30)  # x + x^2
    rev = g.reversion()
    want = lagrange_inversion({1: Fraction(1), 2: Fraction(1)}, 8)
    for n, c in want.items():
        assert rev.c((n,)).congruent(c)
    # x - x^2 + 2x^3 below degree 4
    assert rev.c((1,)).congruent(1)
    assert rev.c((2,)).congruent(-1)
    assert rev.c((3,)).congruent(2)


def test_reversion_identity():
    x = PSeries.identity(3, 10, 10)
    assert x.reversion().equal_to_precision(x)


def test_reversion_of_log_is_exp():
    M = 8
    log1x = series_from_fractions(3, [Fraction((-1) ** (n + 1), n) for n in range(1, M)], M, 30)
    e = log1x.reversion()
    assert e.c((2,)).congruent(Fraction(1, 2))
    assert e.c((3,)).congruent(Fraction(1, 6))
    want = lagrange_inversion({n: Fraction((-1) ** (n + 1), n) for n in range(1, M)}, M)
    for n, c in want.items():
        assert e.c((n,)).congruent(c)


def test_reversion_roundtrip_random(rnd):
    p, M, N = 3, 10, 16
    for _ in range(6):
        g = random_s0(rnd, p, M, N, unit_linear=True)
        r = g.reversion()
        x = PSeries.identity(p, M, N)
        assert g.compose(r).equal_to_precision(x)
        assert r.compose(g).equal_to_precision(x)


def test_reversion_with_nonunit_linear_records_loss():
    # g'(0) = 5 at p = 5: allowed, but each degree costs valuation digits
    g = series_from_fractions(5, [5, 1], 6, 12)
    r = g.reversion()
    assert r.c((1,)).v == -1
    assert r.c((1,)).N < 12
    assert g.compose(r).equal_to_precision(PSeries.identity(5, 6, 12))


def test_reversion_needs_invertible_linear_term():
    g = series_from_fractions(3, [0, 1], 8, 4)  # x^2 only: g'(0) = 0 exactly -> no point
    g2 = PSeries(3, 1, 8, {(1,): PadicNum.zero_to_prec(3, 4), (2,): PadicNum.one(3, 4)}, 4)
    with pytest.raises(NotInvertible):
        g2.reversion()
    with pytest.raises(NotInvertible):
        g.reversion()


def test_reduce_mod_p_and_weierstrass_degree():
    p = 3
    f = series_from_fractions(p, [3, 0, 1, 3], 16, 10)  # 3x + x^3 + 3x^4
    fbar = f.reduce_mod_p()
    assert fbar.weierstrass_degree() == 3
    g = series_from_fractions(2, [2, 4], 16, 10)
    assert g.reduce_mod_p().weierstrass_degree() is None


def test_reduce_mod_p_refuses_negative_valuation():
    """2x + x^2 + x^3/2 at p = 2 has no image mod 2; dropping x^3/2 read
    it as x^2, of Weierstrass degree 2."""
    f = series_from_fractions(2, [2, 1, Fraction(1, 2)], 16, 10)
    with pytest.raises(IntegralityFailure, match=r"coefficient at \(3,\) has valuation -1") as ex:
        f.reduce_mod_p()
    assert ex.value.exponents == (3,)


def test_binomial_reduction_is_xp():
    from conftest import one_plus_x_pow

    for p in (2, 3, 5):
        fbar = one_plus_x_pow(p, p, 16, 10).reduce_mod_p()
        assert fbar.weierstrass_degree() == p
        assert sorted(e[0] for e in fbar.coeffs) == [p]


def test_reduce_mod_p_is_ring_map(rnd):
    p, M, N = 3, 10, 8
    for _ in range(8):
        a = random_s0(rnd, p, M, N)
        b = random_s0(rnd, p, M, N)
        lhs = (a * b).reduce_mod_p()
        rhs = a.reduce_mod_p() * b.reduce_mod_p()
        assert lhs.equal_to_precision(rhs)


def test_series_json_roundtrip():
    f = series_from_fractions(5, [Fraction(1, 2), 5, Fraction(3, 25)], 12, 8)
    again = PSeries.from_json(f.to_json())
    assert again.equal_to_precision(f)
    assert again.x_prec == f.x_prec


def test_multivariate_basics():
    p, M, N = 2, 8, 10
    F = PSeries(p, 2, M, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, N)
    assert F.set_var_zero(1).equal_to_precision(PSeries.identity(p, M, N))
    assert swap_vars(F, 0, 1).equal_to_precision(F)
    with pytest.raises(ValueError, match="univariate"):
        F.derivative()
    with pytest.raises(ValueError, match="series sum is univariate"):
        F + F


@pytest.mark.parametrize("p", [0, 1, 4, -3, 9])
def test_non_prime_rejected_at_the_boundary(p):
    from lubinlab import Config

    with pytest.raises(ValueError, match="prime"):
        PSeries.identity(p, 8, 10)
    with pytest.raises(ValueError, match="prime"):
        Config().resolve(p)


def test_constant_only_outer_series_keeps_its_constant():
    """g = 5 composed with anything is 5."""
    p, M, N = 3, 8, 10
    five = PSeries.from_univariate_coeffs(p, [5], M, N, shift=0)
    x = PSeries.identity(p, M, N)
    assert as_fracs(five.compose(x)) == {0: 5}


def test_compose_refuses_a_multivariate_series():
    p, M, N = 3, 8, 10
    x = PSeries.identity(p, M, N)
    xy = PSeries(p, 2, M, {(1, 0): 1, (0, 1): 1}, N)
    with pytest.raises(ValueError, match="univariate"):
        x.compose(xy)
    with pytest.raises(ValueError, match="univariate"):
        xy.compose(x)


@pytest.mark.parametrize(
    "nvars, series",
    [
        (1, lambda a: PSeries(3, 1, 4, {(1,): a}, INF)),  # its square read as {}
        (2, lambda a: PSeries(3, 2, 4, {(1, 0): a, (0, 1): a}, INF)),  # so did x a + y a
    ],
)
def test_exact_nonzero_coefficient_is_refused(nvars, series):
    """A coefficient with a finite valuation and infinite precision claims an
    exact nonzero value; the kernels read N = INF as an absent slot, so the
    squares above came out as the zero series.  The series refuses it and
    names the exponent; exact zeros and zero-like coefficients stay allowed."""
    a = PadicNum(3, 0, 2, INF)
    exps = r"\(1,\)" if nvars == 1 else r"\(1, 0\)"
    with pytest.raises(ValueError, match=rf"coefficient at {exps} has finite valuation and infinite precision"):
        series(a)
    zero, zero_like = PadicNum.exact_zero(3), PadicNum.zero_to_prec(3, 5)
    s = PSeries(3, nvars, 4, {(1,) * nvars: zero, (2,) * nvars if nvars == 1 else (1, 1): zero_like}, INF)
    assert list(s.coeffs.values()) == [zero_like]


def test_solve_from_an_exact_nonzero_is_refused():
    """The logarithm's packed solve starts from L'(0) = 1 at the series'
    precision, here INF: an exact nonzero, which the kernels read as an
    absent slot.  The recurrence refuses it up front, naming coeff_prec, not
    a coefficient the caller never gave."""
    f = PSeries(3, 1, 4, {(1,): PadicNum(3, 1, 1, 5)}, INF)
    with pytest.raises(ValueError, match=r"needs a finite coeff_prec"):
        logarithm_recurrence(f)
