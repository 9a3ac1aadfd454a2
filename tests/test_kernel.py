"""Differential test of the series kernels against the triple oracle.

Random series mix per-coefficient precisions, zero-like and absent
coefficients and negative valuations (as in logarithm coefficients), with
unequal truncation orders.  Univariate products and compositions (the packed
kernel) and two- and three-variable products (the degree-graded kernel) must
agree with ``oracles.triple_mul`` / ``oracles.triple_compose`` triple for
triple and in the same order, and raise PrecisionExhausted exactly when the
oracle finds a coefficient with no digits.  Composition is also held against
the Horner loop that formed every intermediate below M, and the product and
composition of integer series at precision N against N + k and the exact
result.
"""

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lubinlab import INF, PadicNum, PrecisionExhausted, PSeries
from oracles import NoDigits, poly_compose, poly_mul, triple_compose, triple_mul

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coefficient(draw, p):
    kind = draw(st.sampled_from(("finite", "finite", "finite", "zero-like")))
    if kind == "zero-like":
        return (INF, 0, draw(st.integers(1, 8)))
    v = draw(st.integers(-4, 5))
    rel = draw(st.integers(1, 8))
    u = draw(st.integers(1, p**rel - 1).filter(lambda x: x % p))
    return (v, u, v + rel)


@st.composite
def triple_series(draw, p, constant=True):
    """(x_prec, {degree: triple}); degrees left out are exact zeros."""
    M = draw(st.integers(1, 12))
    lo = 0 if constant else 1
    degrees = draw(st.sets(st.integers(lo, 13), max_size=10))
    return M, {d: draw(coefficient(p)) for d in sorted(degrees)}


def to_series(p, M, triples, nvars=1):
    coeffs = {(d,) if nvars == 1 else d: PadicNum(p, v, u, n) for d, (v, u, n) in triples.items()}
    return PSeries(p, nvars, M, coeffs, 30)


def as_triples(s):
    return {e[0] if s.nvars == 1 else e: (c.v, c.u, c.N) for e, c in s.coeffs.items()}


def below(triples, M):
    return {d: c for d, c in triples.items() if (d if isinstance(d, int) else sum(d)) < M}


def graded(e):
    """Sort key of the kernels' output order: total degree, then exponents."""
    return (e if isinstance(e, int) else sum(e), e)


def check(run, oracle):
    try:
        want = oracle()
    except NoDigits as ex:
        with pytest.raises(PrecisionExhausted) as got:
            run()
        assert str(got.value) == str(ex)
        return
    got = as_triples(run())
    assert got == want
    assert list(got) == sorted(want, key=graded)


pairs = st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(st.just(p), triple_series(p), triple_series(p))
)


@SETTINGS
@given(pairs)
@example((2, (6, {0: (-3, 1, -1)}), (6, {0: (INF, 0, 1)})))
@example((2, (6, {0: (-3, 3, 0), 1: (-3, 5, 0)}), (6, {0: (0, 1, 4), 1: (0, 1, 4)})))
def test_mul_matches_triple_oracle(case):
    p, (Ma, ta), (Mb, tb) = case
    a, b = to_series(p, Ma, ta), to_series(p, Mb, tb)
    M = min(Ma, Mb)
    check(lambda: a * b, lambda: triple_mul(p, below(ta, Ma), below(tb, Mb), M))
    check(lambda: b * a, lambda: triple_mul(p, below(tb, Mb), below(ta, Ma), M))


@st.composite
def ordered_series(draw, p):
    """(x_prec, {degree: triple}) with no coefficient below a drawn order t
    (the leading absent slots the product strips) and one at t, which may
    be zero-like and must then still bound the product's precision."""
    M = draw(st.integers(1, 14))
    t = draw(st.integers(0, 9))
    degrees = draw(st.sets(st.integers(t + 1, 14), max_size=8)) | {t}
    return M, {d: draw(coefficient(p)) for d in sorted(degrees)}


ordered_pairs = st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(st.just(p), ordered_series(p), ordered_series(p))
)


@SETTINGS
@given(ordered_pairs)
@example((2, (10, {3: (INF, 0, 1), 5: (0, 1, 3)}), (10, {2: (0, 1, 2), 4: (-1, 1, 1)})))
@example((3, (6, {4: (0, 1, 2)}), (9, {2: (0, 1, 2)})))
def test_mul_with_leading_absent_slots(case):
    p, (Ma, ta), (Mb, tb) = case
    a, b = to_series(p, Ma, ta), to_series(p, Mb, tb)
    M = min(Ma, Mb)
    check(lambda: a * b, lambda: triple_mul(p, below(ta, Ma), below(tb, Mb), M))
    check(lambda: b * a, lambda: triple_mul(p, below(tb, Mb), below(ta, Ma), M))


@st.composite
def multivariate_series(draw, p, nvars):
    """(x_prec, {exponents: triple}) in a random insertion order."""
    M = draw(st.integers(1, 8))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars), unique=True, max_size=12))
    return M, {e: draw(coefficient(p)) for e in exps}


multivariate_pairs = st.tuples(st.sampled_from((2, 3, 5)), st.sampled_from((2, 3))).flatmap(
    lambda pn: st.tuples(
        st.just(pn), multivariate_series(pn[0], pn[1]), multivariate_series(pn[0], pn[1])
    )
)


@SETTINGS
@given(multivariate_pairs)
@example(((2, 2), (4, {(0, 1): (-3, 1, -1), (1, 0): (0, 1, 4)}), (4, {(1, 0): (INF, 0, 1), (0, 1): (0, 1, 4)})))
def test_multivariate_mul_matches_triple_oracle(case):
    (p, nvars), (Ma, ta), (Mb, tb) = case
    a, b = to_series(p, Ma, ta, nvars), to_series(p, Mb, tb, nvars)
    M = min(Ma, Mb)
    check(lambda: a * b, lambda: triple_mul(p, below(ta, Ma), below(tb, Mb), M))
    check(lambda: b * a, lambda: triple_mul(p, below(tb, Mb), below(ta, Ma), M))


compositions = st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(st.just(p), triple_series(p), triple_series(p, constant=False))
)


@SETTINGS
@given(compositions)
@example((3, (8, {0: (0, 1, 4), 2: (1, 2, 5)}), (8, {})))
@example((2, (8, {}), (8, {1: (0, 1, 6)})))
@example((2, (8, {0: (0, 1, 6)}), (8, {1: (0, 1, 6)})))
def test_compose_matches_triple_oracle(case):
    p, (Mg, tg), (Mh, th) = case
    g, h = to_series(p, Mg, tg), to_series(p, Mh, th)
    M = min(Mg, Mh)
    check(lambda: g.compose(h), lambda: triple_compose(p, below(tg, Mg), below(th, Mh), M))


def test_compose_with_zero_inner_series():
    """g(0) keeps only the constant term of g (none of its higher terms)."""
    p, M = 3, 8
    g = to_series(p, M, {0: (0, 1, 4), 1: (0, 2, 4), 3: (1, 1, 4)})
    zero = PSeries.zero(p, 1, M, 30)
    got = g.compose(zero)
    assert as_triples(got) == {0: (0, 1, 4)} == triple_compose(p, below(as_triples(g), M), {}, M)
    assert got.x_prec == M


@SETTINGS
@given(compositions)
@example(
    (
        2,
        (8, {0: (0, 1, 1), 1: (0, 1, 1), 2: (0, 1, 1), 7: (-1, 1, 0), 8: (INF, 0, 1), 9: (0, 1, 1), 10: (0, 1, 1)}),
        (8, {1: (0, 1, 1), 2: (0, 1, 1)}),
    )
)
def test_compose_drops_only_dead_work(case):
    """Against the Horner loop that formed every intermediate below M: where
    it returns, the same triples in the same order; where it raises for a
    coefficient no result digit reads, composition may return, and then
    matches the truncated reference.  (In the example, the full-length loop
    finds no digits in acc_5 at degree 3 = M - 5, which h^5 lifts to degree
    8 or more.)"""
    p, (Mg, tg), (Mh, th) = case
    g, h = to_series(p, Mg, tg), to_series(p, Mh, th)
    M = min(Mg, Mh)
    tg, th = below(tg, Mg), below(th, Mh)
    try:
        want = triple_compose(p, tg, th, M, truncate=False)
    except NoDigits:
        try:
            got = g.compose(h)
        except PrecisionExhausted:
            return
        event("untruncated Horner raised; composition returned")
        assert as_triples(got) == triple_compose(p, tg, th, M)
        return
    got = as_triples(g.compose(h))
    assert got == want
    assert list(got) == sorted(want)


# -- N versus N + k -------------------------------------------------------------


@st.composite
def integer_pair(draw):
    """p, M, integer coefficients of g (from degree 0) and of h (from degree
    1) scaled by random powers of p, a precision N and k > 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(2, 12))

    def coeffs(n):
        return [draw(st.integers(-(p**3), p**3)) * p ** draw(st.integers(0, 4)) for _ in range(n)]

    return p, M, coeffs(M), coeffs(M - 1), draw(st.integers(1, 6)), draw(st.integers(1, 6))


def run_at(p, M, g, h, n, op):
    """op(g, h) at coefficient precision n, or the PrecisionExhausted raised."""
    gs = PSeries.from_univariate_coeffs(p, g, M, n, shift=0)
    hs = PSeries.from_univariate_coeffs(p, h, M, n, shift=1)
    try:
        return op(gs, hs)
    except PrecisionExhausted as ex:
        return ex


def check_claims(case, op, exact_op):
    """Every digit the run at N claims agrees with the run at N + k and with
    the exact value: each coefficient, absent ones (exact zeros, which claim
    every digit) included, is congruent at the lesser precision.  A run that
    raises PrecisionExhausted claims nothing, and the other run's digits
    must still be right."""
    p, M, g, h, N, k = case
    exact = exact_op(dict(enumerate(g)), {i + 1: c for i, c in enumerate(h)}, M)
    truth = [PadicNum.from_fraction(exact.get(d, 0), p, N + k + 40) for d in range(M)]
    runs = [run_at(p, M, g, h, n, op) for n in (N, N + k)]
    for s in runs:
        if isinstance(s, PSeries):
            for d in range(M):
                assert s.c(d).congruent(truth[d]), d
                assert truth[d].is_exact_zero() or not s.c(d).is_exact_zero(), d
    lo, hi = runs
    if isinstance(lo, PSeries) and isinstance(hi, PSeries):
        assert all(lo.c(d).congruent(hi.c(d)) for d in range(M))


@SETTINGS
@given(integer_pair())
def test_mul_claims_only_digits_a_more_precise_run_confirms(case):
    check_claims(case, lambda a, b: a * b, poly_mul)


@SETTINGS
@given(integer_pair())
def test_compose_claims_only_digits_a_more_precise_run_confirms(case):
    check_claims(case, lambda g, h: g.compose(h), poly_compose)
