"""Logarithms, commutation, normalization, Z_p-iteration, ramification."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lubinlab import (
    INF,
    Config,
    ConstantTermError,
    DivisionByZeroToPrecision,
    PrecisionExhausted,
    PadicNum,
    PSeries,
    TorsionDetected,
    check_commute,
    dlog_integrality,
    logarithm_limit,
    logarithm_recurrence,
    lt_pair,
    newton_polygon,
    normalize_u,
    ramification_index,
    zp_iterate,
)
from lubinlab.dynamics import default_n_max
from conftest import one_plus_x_pow, series_from_fractions
from oracles import NoDigits, ZeroDivisor, triple_limit


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
    L = logarithm_recurrence(f)
    for n in range(1, 32):
        assert L.c((n,)).congruent(Fraction((-1) ** (n + 1), n))


def test_sparse_logarithm_reads_no_absent_power():
    """The logarithm of f = 2x has one coefficient, x; its recurrence grew
    the power table of f to 62 powers at M = 64, one per absent slot."""
    f = series_from_fractions(2, [2], 64, 20)
    assert logarithm_recurrence(f).coeffs.keys() == {(1,)}
    assert len(f.power_table().shift) == 1


def test_recurrence_hand_value():
    f = series_from_fractions(3, [3, 0, 1], 16, 24)
    L = logarithm_recurrence(f)
    assert L.c((1,)).congruent(1)
    assert L.c((3,)).congruent(Fraction(-1, 24))


def test_limit_agrees_with_recurrence():
    for p, coeffs in ((2, [2, 1]), (3, [3, 0, 1])):
        f = series_from_fractions(p, coeffs, 32, 40)
        rec = logarithm_recurrence(f)
        lim = logarithm_limit(f)
        assert rec.equal_to_precision(lim.series)
        assert lim.stabilization


def test_limit_zero_iterations_is_identity():
    f = series_from_fractions(3, [3, 0, 1], 16, 20)
    lim = logarithm_limit(f, 0)
    assert lim.series.equal_to_precision(PSeries.identity(3, 16, 20))


@st.composite
def limit_case(draw):
    """(p, M, N, {degree: triple}, n_max): f without constant term,
    its linear coefficient of valuation 0 to 2, zero-like or absent, the
    others finite (negative valuations included), zero-like or absent, some
    at or past the truncation M; n_max None for the default."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(2, 10))

    def finite(lo, hi):
        v, rel = draw(st.integers(lo, hi)), draw(st.integers(1, 6))
        return (v, draw(st.integers(1, p**rel - 1).map(lambda x: x if x % p else x + 1)), v + rel)

    coeffs = {}
    linear = draw(st.sampled_from(("finite", "finite", "finite", "zero-like", "absent")))
    if linear != "absent":
        coeffs[1] = (INF, 0, draw(st.integers(1, 6))) if linear == "zero-like" else finite(0, 2)
    for d in range(2, M + 2):
        kind = draw(st.sampled_from(("absent", "finite", "finite", "zero-like")))
        if kind != "absent":
            coeffs[d] = (INF, 0, draw(st.integers(1, 6))) if kind == "zero-like" else finite(-2, 4)
    n_max = draw(st.none() | st.integers(0, 6))
    return p, M, draw(st.integers(1, 10)), coeffs, n_max


def triples(s):
    return {e: (c.v, c.u, c.N) for (e,), c in s.coeffs.items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(limit_case())
@example((2, 2, 5, {1: (1, 5, 4)}, 2))  # no stabilization
@example((3, 3, 1, {1: (2, 4, 4), 2: (0, 7, 2)}, 1))  # the cap of (2,) is <= 0
@example((3, 3, 6, {1: (2, 4, 4), 2: (INF, 0, 2)}, 1))  # O(3^2) / c: N - v(c) = 0
@example((2, 3, 10, {1: (INF, 0, 5), 2: (0, 1, 4)}, 6))  # c zero-like
@example((3, 12, 8, {1: (1, 1, 8), 3: (0, 1, 8)}, None))  # f = 3x + x^3
def test_packed_limit_matches_dict_limit(case):
    """``logarithm_limit`` against the dict limit ``oracles.triple_limit``:
    the series and the evidence triple for triple, or the same exception
    class and message."""
    p, M, N, coeffs, n_max = case
    f = PSeries(p, M, {(d,): PadicNum(p, *t) for d, t in coeffs.items()}, N)
    try:
        want = triple_limit(p, triples(f), M, N, default_n_max(p, M) if n_max is None else n_max)
    except (NoDigits, ZeroDivisor) as ex:
        kind = PrecisionExhausted if isinstance(ex, NoDigits) else DivisionByZeroToPrecision
        with pytest.raises(kind) as got:
            logarithm_limit(f, n_max)
        assert str(got.value) == str(ex)
        return
    lim = logarithm_limit(f, n_max)
    assert (triples(lim.series), lim.stabilization) == want


def test_limit_runs_its_full_count():
    """The limit stopped after 8 of its 10 iterates, where one increment was
    zero to its precision, and returned that iterate uncapped."""
    f, _ = lt_pair(5, 30, Config(N=9, M=30).resolve(5).working_prec())
    lim = logarithm_limit(f)
    assert [n for n, _ in lim.stabilization] == list(range(1, default_n_max(5, 30) + 1))
    assert len(lim.stabilization) == 10
    assert lim.series.equal_to_precision(logarithm_recurrence(f))


def test_functional_equations():
    p = 3
    f = one_plus_x_pow(p, p, 32, 40)
    u = one_plus_x_pow(p, p + 1, 32, 40)
    L = logarithm_recurrence(f)

    def scaled(s):
        return PSeries(p, L.x_prec, {e: c * s for e, c in L.coeffs.items()}, L.coeff_prec)

    assert L.compose(f).equal_to_precision(scaled(f.linear_coeff()))
    assert L.compose(u).equal_to_precision(scaled(u.linear_coeff()))


def test_log_polygon_vertices():
    p = 2
    f = one_plus_x_pow(p, p, 64, 84)
    poly = newton_polygon(logarithm_recurrence(f))
    assert poly.negative_vertices() == [(1, 0), (2, -1), (4, -2), (8, -3), (16, -4), (32, -5)]


def test_dlog_integrality():
    f = one_plus_x_pow(3, 3, 32, 30)
    assert dlog_integrality(logarithm_recurrence(f))
    fake = logarithm_recurrence(f) + PSeries(
        3, 32, {(2,): PadicNum.from_fraction(Fraction(1, 3), 3, 30)}, 30
    )
    assert not dlog_integrality(fake)


@pytest.mark.parametrize(
    "p,gamma,expected_e",
    [(5, 2, 4), (5, 6, 1), (2, 3, 2), (3, 4, 1), (3, 2, 2)],
)
def test_normalize_iterate_count(p, gamma, expected_e):
    M, N = 32, 24
    u = one_plus_x_pow(p, gamma, M, N)
    ue, e = normalize_u(u)
    assert e == expected_e
    gamma = ue.linear_coeff()
    one = PadicNum.one(p, gamma.N)
    diff = gamma - one
    need = 2 if p == 2 else 1
    assert diff.val_floor() >= need


def test_normalize_torsion_raises():
    p = 3
    u = one_plus_x_pow(p, -1, 32, 20)
    with pytest.raises(TorsionDetected) as exc:
        normalize_u(u)
    assert exc.value.identity_to_precision


def test_zp_iterate_integer_matches_composition():
    p = 3
    M, Nw = 32, 46
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    u, _ = normalize_u(u)
    logf = logarithm_recurrence(f)
    assert zp_iterate(u, logf, 1).equal_to_precision(u)
    assert zp_iterate(u, logf, 2).equal_to_precision(u.compose(u))


def test_zp_iterate_padic_root():
    # a = 1/(1+p): the (1+p)-th iterate of u^a recovers u
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    u, _ = normalize_u(u)
    logf = logarithm_recurrence(f)
    a = PadicNum.from_fraction(Fraction(1, 1 + p), p, Nw)
    v = zp_iterate(u, logf, a)
    gamma_a = v.linear_coeff()
    assert (gamma_a ** (1 + p)).congruent(u.linear_coeff())
    w = v
    for _ in range(p):
        w = v.compose(w)
    assert w.equal_to_precision(u)


def test_zp_iterate_additivity(rnd):
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    u, _ = normalize_u(u)
    logf = logarithm_recurrence(f)
    exp_series = logf.reversion()
    for _ in range(5):
        a = PadicNum.from_int(rnd.randrange(0, p**6), p, Nw)
        b = PadicNum.from_int(rnd.randrange(0, p**6), p, Nw)
        lhs = zp_iterate(u, logf, a, exp_series).compose(
            zp_iterate(u, logf, b, exp_series)
        )
        rhs = zp_iterate(u, logf, a + b, exp_series)
        assert lhs.equal_to_precision(rhs)


def test_iterates_commute_with_f():
    p = 3
    M, Nw = 16, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    u, _ = normalize_u(u)
    logf = logarithm_recurrence(f)
    a = PadicNum.from_fraction(Fraction(1, 1 + p), p, Nw)
    v = zp_iterate(u, logf, a)
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
