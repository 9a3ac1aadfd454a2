"""Logarithms, commutation, normalization, Z_p-iteration, ramification."""

from fractions import Fraction

import pytest

from lubinlab import (
    CommutingPair,
    ConstantTermError,
    PadicNum,
    PSeries,
    TorsionDetected,
    check_commute,
    dlog_integrality,
    logarithm_limit,
    logarithm_recurrence,
    newton_polygon,
    normalize_u,
    ramification_index,
    zp_iterate,
)
from conftest import one_plus_x_pow, series_from_fractions


def test_check_commute_gm():
    p = 3
    f = one_plus_x_pow(p, p, 32, 20)
    u = one_plus_x_pow(p, p + 1, 32, 20)
    ok, bad, certified = check_commute(f, u)
    assert ok and bad is None and certified == 31


def test_check_commute_failure_degree():
    f = series_from_fractions(2, [2, 1], 16, 20)
    g = series_from_fractions(2, [1, 1], 16, 20)
    ok, bad, certified = check_commute(f, g)
    assert not ok and bad == 2 and certified == 1


def test_commute_with_identity():
    f = series_from_fractions(2, [2, 1], 16, 20)
    x = PSeries.identity(2, 16, 20)
    assert check_commute(f, x)[0]


def test_recurrence_on_gm_is_classical_log():
    f = one_plus_x_pow(2, 2, 32, 40)
    logf = logarithm_recurrence(f)
    for n in range(1, 32):
        assert logf.series.c((n,)).congruent(Fraction((-1) ** (n + 1), n))


def test_recurrence_hand_value():
    f = series_from_fractions(3, [3, 0, 1], 16, 24)
    logf = logarithm_recurrence(f)
    assert logf.series.c((1,)).congruent(1)
    assert logf.series.c((3,)).congruent(Fraction(-1, 24))


def test_limit_agrees_with_recurrence():
    for p, coeffs in ((2, [2, 1]), (3, [3, 0, 1])):
        f = series_from_fractions(p, coeffs, 32, 40)
        rec = logarithm_recurrence(f)
        lim = logarithm_limit(f)
        assert rec.series.equal_to_precision(lim.series)
        assert lim.stabilization


def test_limit_zero_iterations_is_identity():
    f = series_from_fractions(3, [3, 0, 1], 16, 20)
    lim = logarithm_limit(f, 0)
    assert lim.series.equal_to_precision(PSeries.identity(3, 16, 20))


def test_functional_equations():
    p = 3
    f = one_plus_x_pow(p, p, 32, 40)
    u = one_plus_x_pow(p, p + 1, 32, 40)
    logf = logarithm_recurrence(f)

    def scaled(s):
        return PSeries(p, 1, logf.series.x_prec, {e: c * s for e, c in logf.series.coeffs.items()}, logf.series.coeff_prec)

    assert logf.series.compose(f).equal_to_precision(scaled(f.linear_coeff()))
    assert logf.series.compose(u).equal_to_precision(scaled(u.linear_coeff()))


def test_log_polygon_vertices():
    p = 2
    f = one_plus_x_pow(p, p, 64, 84)
    logf = logarithm_recurrence(f)
    poly = newton_polygon(logf.series)
    assert poly.negative_vertices() == [(1, 0), (2, -1), (4, -2), (8, -3), (16, -4), (32, -5)]


def test_dlog_integrality():
    f = one_plus_x_pow(3, 3, 32, 30)
    assert dlog_integrality(logarithm_recurrence(f))
    fake = logarithm_recurrence(f)
    bad = fake.series + PSeries(
        3, 1, 32, {(2,): PadicNum.from_fraction(Fraction(1, 3), 3, 30)}, 30
    )
    fake.series = bad
    assert not dlog_integrality(fake)


def test_pair_construction_checks():
    p = 3
    f = one_plus_x_pow(p, p, 32, 20)
    u = one_plus_x_pow(p, p + 1, 32, 20)
    pair = CommutingPair(f, u)
    assert pair.commute_degree == 31
    with pytest.raises(ValueError):
        CommutingPair(series_from_fractions(p, [p], 32, 20), u)  # wdeg fails


@pytest.mark.parametrize(
    "p,gamma,expected_e",
    [(5, 2, 4), (5, 6, 1), (2, 3, 2), (3, 4, 1), (3, 2, 2)],
)
def test_normalize_iterate_count(p, gamma, expected_e):
    M, N = 32, 24
    f = one_plus_x_pow(p, p, M, N)
    u = one_plus_x_pow(p, gamma, M, N)
    pair = CommutingPair(f, u, check=False)
    npair, e = normalize_u(pair)
    assert e == expected_e
    one = PadicNum.one(p, npair.gamma.N)
    diff = npair.gamma - one
    need = 2 if p == 2 else 1
    assert diff.val_floor() >= need


def test_normalize_torsion_raises():
    p = 3
    f = one_plus_x_pow(p, p, 32, 20)
    u = one_plus_x_pow(p, -1, 32, 20)
    with pytest.raises(TorsionDetected) as exc:
        normalize_u(CommutingPair(f, u, check=False))
    assert exc.value.identity_to_precision


def test_zp_iterate_integer_matches_composition():
    p = 3
    M, Nw = 32, 46
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    pair, _ = normalize_u(CommutingPair(f, u))
    logf = logarithm_recurrence(f)
    assert zp_iterate(pair, logf, 1).equal_to_precision(pair.u)
    assert zp_iterate(pair, logf, 2).equal_to_precision(pair.u.compose(pair.u))


def test_zp_iterate_padic_root():
    # a = 1/(1+p): the (1+p)-th iterate of u^a recovers u
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    pair, _ = normalize_u(CommutingPair(f, u))
    logf = logarithm_recurrence(f)
    a = PadicNum.from_fraction(Fraction(1, 1 + p), p, Nw)
    v = zp_iterate(pair, logf, a)
    gamma_a = v.linear_coeff()
    assert (gamma_a ** (1 + p)).congruent(pair.gamma)
    w = v
    for _ in range(p):
        w = v.compose(w)
    assert w.equal_to_precision(pair.u)


def test_zp_iterate_additivity(rnd):
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    pair, _ = normalize_u(CommutingPair(f, u))
    logf = logarithm_recurrence(f)
    exp_series = logf.series.reversion()
    for _ in range(5):
        a = PadicNum.from_int(rnd.randrange(0, p**6), p, Nw)
        b = PadicNum.from_int(rnd.randrange(0, p**6), p, Nw)
        lhs = zp_iterate(pair, logf, a, exp_series).compose(
            zp_iterate(pair, logf, b, exp_series)
        )
        rhs = zp_iterate(pair, logf, a + b, exp_series)
        assert lhs.equal_to_precision(rhs)


def test_iterates_commute_with_f():
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    pair, _ = normalize_u(CommutingPair(f, u))
    logf = logarithm_recurrence(f)
    a = PadicNum.from_fraction(Fraction(1, 1 + p), p, Nw)
    v = zp_iterate(pair, logf, a)
    assert check_commute(f, v)[0]


def test_ramification_estimates():
    # reduction of (1+x)^(1+p) - 1
    p = 3
    om = one_plus_x_pow(p, p + 1, 64, 20).reduce_mod_p()
    est, stab = ramification_index(om, 1)
    assert est == [Fraction(2), Fraction(2)]
    assert stab
    om2 = one_plus_x_pow(2, 3, 64, 20).reduce_mod_p()
    est2, _ = ramification_index(om2, 0)
    assert est2 == [Fraction(1)]


def test_ramification_rejects_identity():
    x = PSeries.identity(3, 16, 1)
    with pytest.raises(Exception):
        ramification_index(x, 1)


def test_logarithm_of_series_with_constant_term_refused():
    """The recurrence solves against the power table of f, which a series
    with a constant term does not have."""
    f = series_from_fractions(2, [3, 2, 1], 8, 12, shift=0)
    with pytest.raises(ConstantTermError, match="^substituted series has a constant term$"):
        logarithm_recurrence(f)
