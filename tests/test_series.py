"""Ring operations, composition, reversion, mod-p reduction."""

import re
from fractions import Fraction

import pytest

from lubinlab import INF, ConstantTermError, FormalGroupLaw, IntegralityFailure, NotInvertible, PadicNum, PSeries, PrimeMismatch
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
    g2 = PSeries(3, 8, {(1,): PadicNum.zero_to_prec(3, 4), (2,): PadicNum.one(3, 4)}, 4)
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


@pytest.mark.parametrize("repeat", ["6", "9", "3"])
def test_series_json_exponent_given_twice_refused(repeat):
    """The last value of a repeated exponent was kept without a word: 3x
    and then 6x read as 6x, and 9x would flip a verdict on f'(0).  Even a
    repeat of the same value is refused; ``to_json`` writes none."""
    obj = {"p": 3, "M": 8, "N": 8, "coeffs": [[[1], "3"], [[1], repeat], [[2], "1"]]}
    with pytest.raises(ValueError, match=r"^series field 'coeffs' gives exponent 1 twice$"):
        PSeries.from_json(obj)
    del obj["coeffs"][1]
    assert PSeries.from_json(obj).equal_to_precision(series_from_fractions(3, [3, 1], 8, 8))


def test_multivariate_basics():
    """The one two-variable object is a law: x + y + xy has F(x, 0) = x =
    F(0, x), and its copy with x and y exchanged equals it."""
    p, M, N = 2, 8, 10
    F = FormalGroupLaw.from_coeffs(p, M, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, N, "test")
    assert F.check_identity()
    assert FormalGroupLaw.from_coeffs(p, M, swap_vars(F.coeffs), N, "test").equal_to_precision(F)


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


@pytest.mark.parametrize(
    "nvars, build",
    [
        (1, lambda coeffs: PSeries(3, 4, coeffs, 8)),  # the square of x a read as {}
        (2, lambda coeffs: FormalGroupLaw.from_coeffs(3, 4, coeffs, 8, "test")),  # so did the powers of x a + y a
    ],
)
def test_exact_nonzero_coefficient_is_refused(nvars, build):
    """A coefficient with a finite valuation and infinite precision claims an
    exact nonzero value; the kernels read N = INF as an absent slot, so the
    products above came out as zero.  The series and the law refuse it when
    it is given, and name the exponent; exact zeros are dropped and
    zero-like coefficients stay allowed."""
    x, y = [(1,), (2,)] if nvars == 1 else [(1, 0), (1, 1)]
    with pytest.raises(ValueError, match=rf"coefficient at {re.escape(str(x))} has finite valuation and infinite precision"):
        build({x: PadicNum(3, 0, 2, INF)})
    zero, zero_like = PadicNum.exact_zero(3), PadicNum.zero_to_prec(3, 5)
    assert list(build({x: zero, y: zero_like}).coeffs.values()) == [zero_like]


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: PSeries.from_univariate_coeffs(2, [1, 2, 3], 8, 8, shift=-1), (-1,)),  # its square dropped x^-2 and x^-1
        (lambda: FormalGroupLaw.from_coeffs(2, 6, {(1, 0): 1, (0, 1): 1, (-1, 3): 1}, 8, "x"), (-1, 3)),  # associativity raised IndexError
        (lambda: PSeries(2, 8, {(1, 2): 1}, 8), (1, 2)),  # its product failed to unpack the key
        (lambda: PSeries(2, 8, {1: 1}, 8), 1),  # TypeError
        (lambda: PSeries(2, 8, {(1.0,): 1}, 8), (1.0,)),
        (lambda: PSeries(2, 8, {(True,): 1}, 8), (True,)),
    ],
    ids=["negative-shift", "law-negative-exponent", "two-exponents", "bare-int", "float-exponent", "bool-exponent"],
)
def test_malformed_coefficient_key_is_refused(build, key):
    """A negative exponent, in a series or a law, and a series key that is
    not a 1-tuple of an int are refused where the coefficients come in,
    with a ValueError that names the key.  A series lays its coefficients
    out by exponent, where x^-1 would land in the last slot."""
    with pytest.raises(ValueError, match=re.escape(str(key))):
        build()


PRECISION_BUILDS = {
    "PSeries": lambda M, N: PSeries(3, M, {(1,): 3, (2,): PadicNum(3, 0, 1, 5)}, N),
    "identity": lambda M, N: PSeries.identity(3, M, N),
    "from_univariate_coeffs": lambda M, N: PSeries.from_univariate_coeffs(3, [3, 1], M, N),
    "FormalGroupLaw": lambda M, N: FormalGroupLaw.from_coeffs(3, M, {(1, 0): 1, (0, 1): 1}, N, "test"),
}


@pytest.mark.parametrize("build", PRECISION_BUILDS.values(), ids=PRECISION_BUILDS.keys())
@pytest.mark.parametrize(
    "name, value",
    [("coeff_prec", INF), ("coeff_prec", 8.0), ("coeff_prec", True), ("x_prec", INF), ("x_prec", 8.0)],
    ids=["coeff_prec-inf", "coeff_prec-float", "coeff_prec-bool", "x_prec-inf", "x_prec-float"],
)
def test_precisions_are_checked_where_a_series_is_built(build, name, value):
    """x_prec and coeff_prec are ints, checked once where a series or a law
    is built (``series.coefficient_table``), with a ValueError naming the
    argument.  At coeff_prec INF a coefficient coerced or made later (the
    identity of the iterate limit, the 1 of the logarithm's solve, the x + y
    of the Lubin-Tate lift) would be an exact nonzero, which the kernels
    read as an absent slot, and a later operation would fail on a
    coefficient the caller never gave.  True is no int here, as in
    ``PSeries.from_json``."""
    M, N = {"x_prec": (value, 8), "coeff_prec": (8, value)}[name]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        build(M, N)
    assert build(8, 8).coeff_prec == 8
