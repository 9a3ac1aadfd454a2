"""Differential test of the series kernels against the triple oracle.

Random series mix per-coefficient precisions, zero-like and absent
coefficients and negative valuations (as in logarithm coefficients), with
unequal truncation orders.  Univariate products and compositions (the packed
kernel) and two- and three-variable products (the degree-graded kernel) must
agree with ``oracles.triple_mul`` / ``oracles.triple_compose`` triple for
triple and in the same order, and raise PrecisionExhausted exactly when the
oracle finds a coefficient with no digits.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lubinlab import INF, PadicNum, PrecisionExhausted, PSeries
from oracles import NoDigits, triple_compose, triple_mul

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
