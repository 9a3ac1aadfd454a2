"""Differential test of the series kernels against the triple oracle.

Random series mix per-coefficient precisions, zero-like and absent
coefficients and negative valuations (as in logarithm coefficients), with
unequal truncation orders.  Univariate sums and products (the packed
kernel) and compositions (the power table) must agree with
``oracles.triple_add`` / ``triple_mul`` / ``oracles.table_compose`` triple
for triple and in the same order, and raise PrecisionExhausted exactly
when the oracle finds a coefficient with no digits.  Composition is also held against Horner's rule
(``oracles.triple_compose``), which it replaced: the same values at a
precision never lower.  The product and composition of integer series at
precision N are held against N + k and the exact result, and one analysis
against a count of the products its power tables form.  The packed solve
of the Weierstrass layer (``PSeries.inverse``, the monic division and the
preparation) is held against the per-pair loops it replaced
(``oracles.triple_inverse``, ``triple_divide_monic``,
``triple_preparation``), and ``vertex_split`` against its Newton steps on
whole triple series (``oracles.triple_vertex_split``).  The packed
derivative and division by an integer are held against ``PadicNum`` times
an int and ``PadicNum.div_int``, slot by slot, and the kernels' calls of
``padic.reduce_terms``, their one normalise-and-raise rule, are counted.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lubinlab import INF, FormalGroupLaw, PadicNum, PrecisionExhausted, PSeries, analyzer, formalgroup, polygon, series
from lubinlab.padic import vp_int
from conftest import outcome
from lubinlab.polygon import _divisor, _poly_divide_monic, vertex_split, weierstrass_preparation
from oracles import (
    NoDigits,
    poly_compose,
    poly_mul,
    table_compose,
    triple_add,
    triple_compose,
    triple_divide_monic,
    triple_inverse,
    triple_mul,
    triple_neg,
    triple_preparation,
    triple_vertex_split,
)

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coefficient(draw, p):
    kind = draw(st.sampled_from(("finite", "finite", "finite", "zero-like")))
    if kind == "zero-like":
        return (INF, 0, draw(st.integers(1, 8)))
    v = draw(st.integers(-4, 5))
    rel = draw(st.integers(1, 8))
    u = draw(st.integers(1, p**rel - 1).map(lambda x: x if x % p else x + 1))
    return (v, u, v + rel)


@st.composite
def triple_series(draw, p, constant=True):
    """(x_prec, {degree: triple}); degrees left out are exact zeros."""
    M = draw(st.integers(1, 12))
    lo = 0 if constant else 1
    degrees = draw(st.sets(st.integers(lo, 13), max_size=10))
    return M, {d: draw(coefficient(p)) for d in sorted(degrees)}


def to_series(p, M, triples):
    return PSeries(p, M, {(d,): PadicNum(p, v, u, n) for d, (v, u, n) in triples.items()}, 30)


def as_triples(s):
    return {e: (c.v, c.u, c.N) for (e,), c in s.coeffs.items()}


def below(triples, M):
    return {d: c for d, c in triples.items() if d < M}


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
    assert list(got) == sorted(want)


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


@SETTINGS
@given(pairs)
@example((2, (6, {0: (-3, 1, -1)}), (6, {0: (INF, 0, 1)})))  # no digits at degree 0
@example((3, (6, {1: (0, 1, 2), 2: (INF, 0, 0)}), (6, {1: (0, 2, 2), 2: (INF, 0, 0)})))  # 1 + 2 loses a digit, degree 2 has none
def test_sum_matches_triple_oracle(case):
    """a + b, b + a and a - b (``_packed_add``) degree by degree against
    ``triple_add`` and ``triple_neg``: the least degree without digits
    raises."""
    p, (Ma, ta), (Mb, tb) = case
    a, b = to_series(p, Ma, ta), to_series(p, Mb, tb)
    ta, tb, M = below(ta, Ma), below(tb, Mb), min(Ma, Mb)

    def oracle(x, y):
        return lambda: {d: triple_add(p, x.get(d), y.get(d)) for d in sorted(x.keys() | y.keys()) if d < M}

    check(lambda: a + b, oracle(ta, tb))
    check(lambda: b + a, oracle(tb, ta))
    check(lambda: a - b, oracle(ta, {d: triple_neg(p, c) for d, c in tb.items()}))


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


@SETTINGS
@given(pairs, st.integers(2, 10**6))
@example((2, (6, {0: (-3, 1, -1)}), (6, {0: (INF, 0, 1)})), 3)  # raises, K <= 0
@example((3, (6, {1: (-2, 1, 1), 2: (0, 1, 2)}), (6, {1: (0, 2, 1)})), 5)
def test_mul_with_a_kept_ledger_matches_the_plain_call(case, k):
    """``_product`` with a ledger dict filled by a product whose operands
    have the same (N, v') lists, and other units (u k^(d+1) at degree d, k
    made prime to p), reads the ledger from the dict and gives what the
    plain call gives: the same triples, or the same exception and message,
    with ``raises`` True and False."""
    p, (Ma, ta), (Mb, tb) = case
    M = min(Ma, Mb)
    k += k % p == 0

    def other_units(triples):
        return {d: t if t[0] == INF else (t[0], t[1] * k ** (d + 1) % p ** (t[2] - t[0]), t[2]) for d, t in triples.items()}

    def packed(triples):
        return series._pack(to_series(p, M, below(triples, M)).coeffs, M)

    a, b, a2, b2 = (series._operand(p, packed(t)) for t in (ta, tb, other_units(ta), other_units(tb)))
    for raises in (True, False):
        ledgers = {}
        outcome(lambda: series._product(p, a, b, M, raises, ledgers)[0])
        kept = outcome(lambda: series._product(p, a2, b2, M, raises, ledgers)[0])
        event(kept[1] if isinstance(kept[0], type) else "product")
        assert kept == outcome(lambda: series._product(p, a2, b2, M, raises)[0])
        assert len(ledgers) <= 1


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
    check(lambda: g.compose(h), lambda: table_compose(p, below(tg, Mg), below(th, Mh), M))


@SETTINGS
@given(compositions.flatmap(lambda case: st.tuples(st.just(case), coefficient(case[0]))))
@example(((2, (8, {1: (0, 1, 4), 3: (0, 3, 4)}), (8, {1: (0, 1, 6)})), (INF, 0, 2)))  # zero-like a
@example(((3, (8, {2: (1, 1, 5), 5: (0, 2, 4)}), (8, {1: (0, 1, 6), 2: (1, 1, 3)})), (-2, 4, 1)))  # v(a) < 0
def test_compose_multiple_matches_powers_of_a(case):
    """g(a h) scales c_k by a running power a^k = a^(k-1) a; it gives what
    scaling c_k by ``a**k`` gives, results and raises."""
    (p, (Mg, tg), (Mh, th)), a = case
    g, h, a = to_series(p, Mg, tg), to_series(p, Mh, th), PadicNum(p, *a)

    def by_pow():
        scaled = {(k,): c * a**k if k else c for (k,), c in g.truncate(min(Mg, Mh)).coeffs.items()}
        return as_triples(PSeries(p, Mg, scaled, g.coeff_prec).compose(h))

    assert outcome(lambda: as_triples(g.compose(h, a))) == outcome(by_pow)


def test_compose_with_zero_inner_series():
    """g(0) keeps only the constant term of g (none of its higher terms)."""
    p, M = 3, 8
    g = to_series(p, M, {0: (0, 1, 4), 1: (0, 2, 4), 3: (1, 1, 4)})
    zero = PSeries(p, M, {}, 30)
    got = g.compose(zero)
    assert as_triples(got) == {0: (0, 1, 4)} == table_compose(p, below(as_triples(g), M), {}, M)
    assert got.x_prec == M


def no_lower(p, table, horner) -> bool:
    """The table's coefficient has Horner's value, to at least its digits."""
    (vt, ut, nt), (vh, uh, nh) = table, horner
    if nt < nh:
        return False
    if vh == INF:
        return vt == INF or vt >= nh
    return vt == vh and (ut - uh) % p ** (nh - vh) == 0


@SETTINGS
@given(compositions)
@example((2, (6, {1: (0, 3, 4), 2: (INF, 0, 5)}), (6, {1: (-1, 3, 1), 4: (-3, 29, 2)})))
def test_compose_against_horner(case):
    """Against Horner's rule: where it returns, composition returns the same
    coefficients with the same values, each at a precision no lower; where
    composition raises, Horner raises too.  (In the example Horner gives
    degree 5 as (inf, 0, 1) and the table as (inf, 0, 2): Horner's
    intermediate g_1 + g_2 h meets the imprecise h_1 once more.)"""
    p, (Mg, tg), (Mh, th) = case
    g, h = to_series(p, Mg, tg), to_series(p, Mh, th)
    try:
        want = triple_compose(p, below(tg, Mg), below(th, Mh), min(Mg, Mh))
    except NoDigits:
        event("Horner raised")
        return
    got = as_triples(g.compose(h))
    assert got.keys() == want.keys()
    assert all(no_lower(p, got[d], want[d]) for d in want), (got, want)


def generic_table(p, h: PSeries):
    """The shifts and the X, N and F columns of h's power table up to h^(M-1),
    grown as before the table kept its operands: each power one generic
    ``_product`` of the last power's and h's operands, padded to M, shifted by
    ``_kronecker``."""
    M = h.x_prec
    H = last = series._pack(h.coeffs, M)
    shift, X, N, F = [], [[] for _ in range(M)], [[] for _ in range(M)], [[] for _ in range(M)]
    for k in range(1, M):
        if k > 1:
            last = series._product(p, series._operand(p, last), series._operand(p, H), M, raises=False)[0]
        V, U, Nk = (x + [fill] * (M - len(x)) for x, fill in zip(last, (series._ABSENT, 0, series._ABSENT)))
        s, Xk = series._kronecker(p, V, U)
        shift.append(s)
        for d in range(k, M):
            X[d].append(Xk[d] if Xk else 0)
            N[d].append(Nk[d])
            F[d].append(Nk[d] if V[d] == series._ABSENT else V[d])
    return shift, X, N, F


@SETTINGS
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), triple_series(p, constant=False))))
@example((2, (12, {1: (-2, 3, 1), 2: (0, 1, 6)})))  # h shorter than M, negative valuation
@example((3, (9, {1: (INF, 0, 2), 3: (INF, 0, 1)})))  # only zero-like coefficients
@example((5, (8, {2: (INF, 0, 3), 4: (1, 2, 4)})))  # order 2, a zero-like lead
@example((2, (6, {1: (-1, 1, 0), 2: (-1, 1, 0)})))  # entries without digits
def test_power_table_matches_generic_products(case):
    """A table grown from kept operands, each power's product result being
    the next product's factor, has the shifts and the X, N and F columns of
    repeated generic products."""
    p, (M, th) = case
    h = to_series(p, M, th)
    table = h.power_table()
    table.grow(M - 1)
    assert (table.shift, table.X, table.N, table.F) == generic_table(p, h)


def operand_fields(op):
    return op.t, op.V, op.N, op.s, op.X, op.bits, op.pairs()


@SETTINGS
@given(ordered_pairs, st.booleans())
@example((2, (6, {1: (INF, 0, 2)}), (6, {1: (0, 1, 3)})), False)  # all zero-like: shift 0, no values
@example((3, (8, {1: (0, 1, 2), 2: (0, 2, 3)}), (8, {1: (0, 1, 2)})), False)  # a value vanishes
def test_product_operand_is_the_operand_of_its_result(case, raises):
    """The operand ``_product`` returns beside its packed result is the one
    the operand stage makes of that result."""
    p, (Ma, ta), (Mb, tb) = case
    M = min(Ma, Mb)
    a, b = (series._operand(p, series._pack(to_series(p, M, below(t, M)).coeffs, M)) for t in (ta, tb))
    try:
        packed, op = series._product(p, a, b, M, raises)
    except PrecisionExhausted:
        return
    assert operand_fields(op) == operand_fields(series._operand(p, packed))


def strict_powers(p, h, top, M):
    """h^1 .. h^top below degree M by products that raise NoDigits."""
    powers = [h]
    for _ in range(1, top):
        powers.append(triple_mul(p, powers[-1], h, M))
    return powers


# h = (x + x^2)/2 known to p^0 at p = 2: [h^2]_3 = 2 (1/4) has no digits (K = -1)
DEAD_H = {1: (-1, 1, 0), 2: (-1, 1, 0)}


@pytest.mark.parametrize(
    "g, M, want",
    [
        # degree 3 is not read below M = 3
        ({2: (0, 1, 5)}, 3, {2: (-2, 1, -1)}),
        # read at degree 3, where the term g_2 [h^2]_3 bounds it by K = 1
        ({2: (2, 1, 5)}, 4, {2: (0, 1, 1), 3: (INF, 0, 1)}),
        # read at degree 3 with K = -1 <= 0: that result degree has no digits
        ({2: (0, 1, 5)}, 4, "sum has no significant digits"),
    ],
)
def test_power_entry_without_digits_is_kept(g, M, want):
    """A power entry without digits is stored in the ledger, not raised; a
    composition raises only for a result degree without digits, with the
    message of ``reduce_terms``."""
    p = 2
    with pytest.raises(NoDigits):
        strict_powers(p, DEAD_H, 2, 4)
    gs, h = to_series(p, M, g), to_series(p, 4, DEAD_H)
    if isinstance(want, str):
        with pytest.raises(PrecisionExhausted, match=want):
            gs.compose(h)
        with pytest.raises(NoDigits, match=want):
            table_compose(p, g, DEAD_H, M)
    else:
        assert as_triples(gs.compose(h)) == want == table_compose(p, g, DEAD_H, M)


@st.composite
def one_digit_series(draw, p):
    """(x_prec, {degree: triple}) without constant term, each coefficient
    known to one digit at valuation -1: the powers of such a series often
    have entries without digits."""
    M = draw(st.integers(4, 10))
    degrees = draw(st.sets(st.integers(1, 4), min_size=2))
    return M, {d: (-1, draw(st.integers(1, p - 1)), 0) for d in sorted(degrees)}


@SETTINGS
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), triple_series(p), one_digit_series(p))))
def test_compose_drops_only_dead_work(case):
    """Where forming the powers of h with raising products fails, the table
    keeps the entry, and composition still matches ``table_compose``."""
    p, (Mg, tg), (Mh, th) = case
    tg, th = below(tg, Mg), below(th, Mh)
    M = min(Mg, Mh)
    try:
        strict_powers(p, th, max(tg, default=1), Mh)
    except NoDigits:
        event("a power entry has no digits")
    g, h = to_series(p, Mg, tg), to_series(p, Mh, th)
    check(lambda: g.compose(h), lambda: table_compose(p, tg, th, M))


# -- the packed derivative and division ------------------------------------------


@st.composite
def coefficient_and_exponent(draw):
    """A coefficient (v, u, N), zero-like or of any valuation below N, at a
    precision N that may be <= 0, and an exponent k, often a multiple of p^N."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(-2, 8))
    if draw(st.booleans()):
        v, u = INF, 0
    else:
        v = draw(st.integers(N - 4, N - 1))
        u = p * draw(st.integers(0, p ** (N - v - 1) - 1)) + draw(st.integers(1, p - 1))
    k = draw(st.integers(1, 60) | st.integers(1, 4).map(lambda m: m * p ** max(N, 0)))
    return p, (v, u, N), k


@settings(max_examples=400, deadline=None)
@given(coefficient_and_exponent())
@example((2, (0, 1, 1), 2))  # k = 0 mod p^N: the product keeps c's digit, to p^(N + 1)
@example((3, (-2, 1, 1), 9))  # ... and moves a negative valuation to 0
@example((5, (INF, 0, 2), 5))  # zero-like coefficient, known to p^(N + 1)
@example((3, (-3, 2, -1), 4))  # N <= 0: k is exact, so nothing raises
def test_packed_derivative_matches_padic_product(case):
    """The packed derivative of c x^k, read back at degree k - 1, against
    PadicNum ``c * k``, which takes k exact: known to N + v_p(k)."""
    p, (v, u, N), k = case
    c = PadicNum(p, v, u, N)

    def scalar():
        d = c * k
        return d.v, d.u, d.N

    def packed():
        d = series._unpack(p, series._packed_derivative(p, series._pack({(k,): c}, k + 1)), k, N).c(k - 1)
        return d.v, d.u, d.N

    assert outcome(packed) == outcome(scalar)


@SETTINGS
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), triple_series(p), st.integers(1, 3000))))
@example((3, (4, {0: (0, 5, 4), 1: (1, 2, 10)}), 2))  # (5 + O(3^4)) / 2 has the unit 43, not 9844
@example((2, (4, {1: (INF, 0, 2)}), 8))  # O(2^2) / 8 is kept at precision -1, where div_int raises
def test_packed_div_int_matches_div_int(case):
    """``_packed_div_int`` against ``PadicNum.div_int`` slot by slot: the
    same triples, each unit reduced modulo its own slot's p^(N - v).  Where
    ``div_int`` raises, for a zero-like slot known to N - v_p(q) <= 0, the
    slot is kept zero-like at that precision."""
    p, (M, triples), q = case
    a = to_series(p, M, triples)
    V, U, N = series._packed_div_int(p, series._pack(a.coeffs, M), q)
    for (d,), c in a.coeffs.items():
        got = (INF if V[d] == series._ABSENT else V[d], U[d], N[d])
        try:
            want = c.div_int(q)
        except PrecisionExhausted:
            assert c.v == INF and got == (INF, 0, c.N - vp_int(q, p)) and got[2] <= 0
            continue
        assert got == (want.v, want.u, want.N)


def test_kernels_call_reduce_terms_once_or_not_at_all(monkeypatch):
    """Counted through its bindings in ``series`` and ``formalgroup``: a
    product, a tabled sum and a part sum each normalise with exactly one
    ``padic.reduce_terms``.
    The packed solve and the monic division, whose sums here all keep
    digits, make none: they normalise each value by ``padic._scaled``."""
    p, M, calls = 3, 10, []
    reduce_terms = series.reduce_terms
    for module in (series, formalgroup):
        monkeypatch.setattr(module, "reduce_terms", lambda *args: calls.append(args) or reduce_terms(*args))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    a = PSeries.from_univariate_coeffs(p, [1, 3, 2, 5, 7], M, 12, shift=0)
    h = PSeries.from_univariate_coeffs(p, [3, 1, 4, 1, 5], M, 12)
    A, H = (series._pack(s.coeffs, M) for s in (a, h))
    table = h.power_table()
    table.grow(M - 1)
    F = FormalGroupLaw.from_coeffs(p, 6, {(1, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 2}, 12, "test")
    parts = F.parts
    D = series._pack({(0,): PadicNum(p, 1, 1, 12), (1,): PadicNum(p, 0, 2, 12), (2,): PadicNum.one(p, 12)}, 3)
    assert count(lambda: series._product(p, series._operand(p, A), series._operand(p, H), M)) == 1
    assert count(lambda: table.sum(A, 1, M)) == 1
    assert count(lambda: formalgroup._part_mul(p, parts, parts, 3)) == 1
    a1 = series._factor(p, *(x[1:] for x in A))
    assert count(lambda: series._packed_solve(p, a1, series._pack({(0,): PadicNum.one(p, 12)}, 1), M, a.c(0))) == 0
    assert count(lambda: _poly_divide_monic(p, A, 4, _divisor(p, D, 2))) == 0


# -- the Weierstrass layer's packed solve ----------------------------------------


@st.composite
def unit_series(draw, p):
    """(x_prec, {degree: triple}) with a unit constant term of finite
    precision; the other coefficients are drawn as ``coefficient`` draws
    them, finite ones sometimes without digits (N <= 0)."""
    M = draw(st.integers(1, 14))
    rel = draw(st.integers(1, 8))
    triples = {0: (0, draw(st.integers(1, p**rel - 1).map(lambda x: x if x % p else x + 1)), rel)}
    for d in sorted(draw(st.sets(st.integers(1, 14), max_size=10))):
        triples[d] = draw(coefficient(p))
    return M, triples


@SETTINGS
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), unit_series(p), st.integers(1, 10))))
# a_2 is zero-like to p^1 and b_1 has valuation -2: [a_2 b_1] keeps no digit
@example((2, (5, {0: (0, 1, 4), 1: (-2, 1, 2), 2: (INF, 0, 1)}), 4))
@example((3, (6, {0: (0, 2, 1), 2: (-1, 1, 1)}), 5))  # b_4 known to p^-1
@example((2, (5, {0: (0, 1, 3), 1: (0, 1, 1), 3: (-1, 3, 1)}), 3))  # raises, every a_k finite
@example((5, (8, {0: (0, 7, 2), 3: (2, 1, 9)}), 9))  # the 1's precision caps b_0
def test_inverse_matches_per_pair_loop(case):
    """``PSeries.inverse`` (one packed solve) against the per-pair loop it
    replaced: the same triples in the same order, or the same exception and
    message, including products of a zero-like factor that keep no digit."""
    p, (M, triples), N = case
    s = PSeries(p, M, {(d,): PadicNum(p, *t) for d, t in triples.items()}, N)
    check(s.inverse, lambda: triple_inverse(p, below(triples, M), M, N))


@st.composite
def monic_divisions(draw):
    """p, degree, P, ddeg and D monic of degree ddeg, its lead 1 known to a
    finite precision; coefficients as ``coefficient`` draws them."""
    p = draw(st.sampled_from((2, 3, 5)))
    ddeg = draw(st.integers(0, 6))
    degree = draw(st.integers(max(ddeg - 2, 0), ddeg + 8))
    P = {d: draw(coefficient(p)) for d in sorted(draw(st.sets(st.integers(0, degree + 2), max_size=12)))}
    D = {d: draw(coefficient(p)) for d in sorted(draw(st.sets(st.integers(0, max(ddeg - 1, 0)), max_size=6))) if d < ddeg}
    D[ddeg] = (0, 1, draw(st.integers(1, 9)))
    return p, degree, P, ddeg, D


@SETTINGS
@given(monic_divisions())
@example((3, 4, {4: (-2, 1, 3), 2: (0, 1, 5)}, 2, {0: (1, 1, 4), 2: (0, 1, 1)}))  # q_2 D_2 keeps no digit at x^4
@example((2, 5, {5: (1, 1, 6), 3: (0, 1, 2)}, 3, {1: (INF, 0, 1), 3: (0, 1, 2)}))
@example((5, 3, {3: (-1, 2, 1), 1: (INF, 0, 2)}, 1, {0: (INF, 0, 1), 1: (0, 1, 3)}))  # [q_1 D_0] keeps no digit
# the long division raises at a running sum; the sums, each formed once, keep digits
@example((3, 4, {3: (-1, 8, 2), 0: (2, 2, 4), 1: (-2, 13, 1)}, 2, {0: (-1, 2, 0), 1: (-1, 23, 2), 2: (0, 1, 3)}))
def test_divide_monic_matches_long_division(case):
    """``_poly_divide_monic`` (a reversed packed solve and one sum per
    remainder coefficient) against the long division it replaced.  Where
    the long division returns, the same q and r, triple for triple and in
    its order.  Where it raises, the new division raises too, unless the
    long division raised only at a running sum without digits: then it
    returns what the long division gives with such sums kept (``keep``).
    Both raise PrecisionExhausted; the message follows the first sum
    without digits, which the two meet in different orders.  The division
    takes and returns packed lists; q is read from its top slot down, the
    long division's order."""
    p, degree, tP, ddeg, tD = case
    M = degree + 3
    P, D = (series._pack(to_series(p, M, t).coeffs, M) for t in (tP, tD))

    def items(packed):
        return list(as_triples(series._unpack(p, packed, M, 30)).items())

    def run():
        q, r = _poly_divide_monic(p, P, degree, _divisor(p, D, ddeg))
        return [items(q)[::-1], items(r)]

    try:
        want = triple_divide_monic(p, below(tP, M), degree, tD, ddeg)
    except NoDigits as ex:
        try:
            want = triple_divide_monic(p, below(tP, M), degree, tD, ddeg, keep=True)
            event("only a running sum kept no digits")
        except NoDigits:
            with pytest.raises(PrecisionExhausted) as got:
                run()
            event("same message" if str(got.value) == str(ex) else "other message")
            return
    assert run() == [list(x.items()) for x in want]


@st.composite
def divisions_by_one_divisor(draw):
    """p, ddeg and D as ``monic_divisions`` draws them, with one to four
    dividends (degree, P) drawn as it draws P."""
    p, degree, P, ddeg, D = draw(monic_divisions())
    dividends = [(degree, P)]
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(max(ddeg - 2, 0), ddeg + 8))
        dividends.append((degree, {d: draw(coefficient(p)) for d in sorted(draw(st.sets(st.integers(0, degree + 2), max_size=12)))}))
    return p, ddeg, D, dividends


@SETTINGS
@given(divisions_by_one_divisor())
def test_one_divisor_serves_every_division(case):
    """One ``_divisor`` of D, read by each division in turn, against a fresh
    layout of D per division: the same q and r, or the same exception
    class and message; no division changes the layout it reads."""
    p, ddeg, tD, dividends = case
    M = max(degree for degree, _ in dividends) + 3
    D = series._pack(to_series(p, M, tD).coeffs, M)
    divisor = _divisor(p, D, ddeg)
    for degree, tP in dividends:
        P = series._pack(to_series(p, M, tP).coeffs, M)
        got = outcome(lambda: _poly_divide_monic(p, P, degree, divisor))
        event("raises" if type(got[0]) is type else "divides" if degree >= ddeg else "degree < ddeg")
        assert got == outcome(lambda: _poly_divide_monic(p, P, degree, _divisor(p, D, ddeg)))
    assert divisor == _divisor(p, D, ddeg)


def test_division_below_the_divisor_degree_solves_nothing(monkeypatch):
    """P of degree 2 (read up to x^3) by a monic D of degree 4: the quotient
    is empty and the remainder is P cut after its top present slot, with no
    ``_packed_solve``."""
    p, M = 3, 8
    solves, solve = [], polygon._packed_solve
    monkeypatch.setattr(polygon, "_packed_solve", lambda *args: solves.append(args) or solve(*args))
    P = series._pack({(0,): PadicNum(p, 1, 2, 6), (2,): PadicNum(p, INF, 0, 3)}, M)
    D = series._pack({(0,): PadicNum(p, 1, 1, 6), (4,): PadicNum.one(p, 6)}, M)
    q, r = _poly_divide_monic(p, P, 3, _divisor(p, D, 4))
    assert (q, r, solves) == (([], [], []), ([1, series._ABSENT, series._ABSENT], [2, 0, 0], [6, series._ABSENT, 3]), [])
    _poly_divide_monic(p, D, 4, _divisor(p, D, 4))
    assert len(solves) == 1


@st.composite
def preparation_inputs(draw):
    """p, M, N and an integral series with its least unit coefficient at W
    >= 1: coefficients below W divisible by p, zero-like ones included (to
    precision 0 too, which no product survives)."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(2, 14))
    N = draw(st.integers(1, 10))
    W = draw(st.integers(1, M - 1))

    def integral(lo):
        if draw(st.integers(0, 5)) == 0:
            return (INF, 0, draw(st.integers(0, N + 2)))
        n = draw(st.integers(lo + 1, N + 2))
        v = draw(st.integers(lo, n - 1))
        return (v, draw(st.integers(1, p ** (n - v) - 1).map(lambda x: x if x % p else x + 1)), n)

    g = {d: integral(1 if d < W else 0) for d in sorted(draw(st.sets(st.integers(0, M - 1), max_size=M))) if d != W}
    g[W] = (0, draw(st.integers(1, p**N - 1).map(lambda x: x if x % p else x + 1)), N)
    return p, M, N, g


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(preparation_inputs())
@example((3, 6, 4, {0: (1, 1, 4), 2: (0, 1, 4)}))
@example((2, 8, 6, {0: (INF, 0, 0), 1: (0, 1, 6)}))  # a coefficient known to no digit
def test_preparation_matches_fixed_point(case):
    """``weierstrass_preparation`` on packed lists against its fixed point on
    whole series: the same P and U triple for triple, or the same
    exception.  (P's keys came in a set's order before; compared as dicts.)"""
    p, M, N, triples = case
    g = PSeries(p, M, {(d,): PadicNum(p, *t) for d, t in triples.items()}, N)
    try:
        want_P, want_U = triple_preparation(p, triples, M, N)
    except NoDigits as ex:
        with pytest.raises(PrecisionExhausted, match=str(ex)):
            weierstrass_preparation(g)
        return
    P, U = weierstrass_preparation(g)
    assert as_triples(P) == want_P
    assert list(as_triples(U).items()) == list(want_U.items())


@st.composite
def split_inputs(draw):
    """p, M, N, degree, istar and the triples of P below degree M.  Mostly
    P = a*b, a monic of degree istar with coefficients divisible by p, and
    b with a unit constant term or Eisenstein (then a's constant term
    sometimes gains a factor p), its coefficients read to random
    precisions, some zero-like; else any triples, as ``coefficient`` draws
    them."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 12))
    if draw(st.integers(0, 7)) != 5:
        da, db = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        a = [p * draw(st.integers(-(p**3), p**3)) for _ in range(da)] + [1]
        b0 = draw(st.integers(1, p**3).map(lambda x: x if x % p else x + 1))
        kind = draw(st.sampled_from(("unit", "eisenstein", "steeper")))
        if kind == "unit":
            b = [b0] + [draw(st.integers(-(p**3), p**3)) for _ in range(db)]
        else:
            a[0] *= p if kind == "steeper" else 1
            b = [p * b0] + [p * draw(st.integers(-(p**3), p**3)) for _ in range(db - 1)] + [1]
        exact = poly_mul(dict(enumerate(a)), dict(enumerate(b)), da + db + 1)
        triples = {}
        for d in sorted(exact):
            n = max(N - draw(st.integers(0, 2)), 1)
            c = PadicNum(p, INF, 0, n) if draw(st.integers(0, 9)) == 5 else PadicNum.from_fraction(exact[d], p, n)
            if not c.is_exact_zero():
                triples[d] = (c.v, c.u, c.N)
        degree, istar = da + db, da
    else:
        degree = draw(st.integers(1, 8))
        istar = draw(st.integers(1, degree))
        triples = {d: draw(coefficient(p)) for d in sorted(draw(st.sets(st.integers(0, degree), max_size=degree + 1)))}
    return p, degree + draw(st.integers(1, 3)), N, degree, istar, triples


@SETTINGS
@given(split_inputs())
# (x^3 + 4x^2 + 10x + 6)(x^4 + 2x^3 + 6x^2 + 14x + 6) at the vertex (3, 1)
@example((2, 8, 16, 7, 3, {0: (2, 9, 16), 1: (4, 9, 16), 2: (3, 25, 16), 3: (1, 67, 16), 4: (6, 1, 16), 5: (3, 3, 16), 6: (1, 3, 16), 7: (0, 1, 16)}))
@example((5, 7, 4, 6, 3, {0: (INF, 0, 4), 1: (2, 3, 3), 2: (2, 24, 4), 3: (1, 121, 4), 4: (INF, 0, 4), 5: (1, 109, 4), 6: (0, 1, 4)}))  # keeps t
@example((2, 7, 11, 6, 4, {0: (3, 55, 9), 1: (5, 3, 11), 2: (2, 3, 10), 3: (3, 249, 11), 4: (1, 13, 10), 5: (3, 127, 10), 6: (0, 1, 11)}))  # stalls
@example((3, 5, 10, 3, 2, {0: (3, 704, 9), 1: (2, 644, 8), 2: (1, 19672, 10), 3: (0, 1, 8)}))  # does not converge
@example((2, 6, 11, 5, 4, {0: (2, 251, 10), 1: (1, 509, 10), 2: (1, 253, 9), 3: (2, 503, 11), 4: (1, 1017, 11), 5: (0, 1, 10)}))  # zero, no digits
@example((5, 6, 4, 5, 4, {0: (INF, 0, 4), 1: (1, 109, 4), 2: (1, 14, 3), 3: (INF, 0, 2), 4: (1, 11, 3), 5: (0, 1, 4)}))  # a sum, no digits
@example((2, 6, 10, 4, 1, {0: (1, 477, 10), 1: (INF, 0, 9), 2: (6, 7, 9), 3: (INF, 0, 8), 4: (2, 1, 8)}))  # unresolved vertex
def test_vertex_split_matches_whole_series_steps(case):
    """``vertex_split`` against its Newton steps on whole triple series
    (``oracles.triple_vertex_split``): the same A and B, triple for
    triple, or the same exception class and message.  The split's sums
    walk slots by degree, the oracle's the set order of ``PSeries.__add__``;
    the two can raise different messages only where two slots of one sum
    fail and one holds a zero-like coefficient of P known to no digit,
    which these inputs never hold (their zero-like coefficients have
    N >= 1)."""
    p, M, N, degree, istar, triples = case
    P = PSeries(p, M, {(d,): PadicNum(p, *t) for d, t in triples.items()}, N)
    try:
        want = triple_vertex_split(p, {(d,): t for d, t in triples.items()}, M, N, degree, istar)
    except NoDigits as ex:
        event(str(ex))
        assert outcome(lambda: vertex_split(P, degree, istar)) == (PrecisionExhausted, str(ex))
        return
    event("split")
    assert [as_triples(S) for S in vertex_split(P, degree, istar)] == [{e: c for (e,), c in S.items()} for S in want]


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


# -- work count ------------------------------------------------------------------


def test_analysis_forms_each_power_once(monkeypatch):
    """One analysis of a twisted M = 32 pair with the product stage
    (``series._product``) counted in ``series``.  No inner series gets a
    second power table, and the products outside univariate series
    multiplication, which the tables form, are at most sum(top - 1) over
    the distinct inner series (h^1 is h itself): a composition that
    multiplies series of its own fails here."""
    p, M = 2, 32
    cfg = analyzer.Config(M=M)
    w = PSeries.from_univariate_coeffs(p, [1, 2, 1, 3], M, cfg.resolve(p).working_prec())
    f, u = analyzer.make_twist_fixture("gm", w)
    tables, counts = [], {"product": 0, "series": 0}
    init, product, mul = series._PowerTable.__init__, series._product, PSeries.__mul__

    def record(table, h):
        init(table, h)
        key = (h.x_prec, tuple(sorted((e, c.v, c.u, c.N) for e, c in h.coeffs.items())))
        tables.append((key, table))

    def counted(*args, **kwargs):
        counts["product"] += 1
        return product(*args, **kwargs)

    def series_mul(a, b):
        counts["series"] += 1
        return mul(a, b)

    monkeypatch.setattr(series._PowerTable, "__init__", record)
    monkeypatch.setattr(series, "_product", counted)
    monkeypatch.setattr(PSeries, "__mul__", series_mul)
    assert analyzer.analyze(f, u, cfg).verdict == analyzer.CERTIFIED
    keys = [key for key, _ in tables]
    assert len(keys) == len(set(keys)) and len(keys) >= 2
    table_products = counts["product"] - counts["series"]
    assert 0 < table_products <= sum(max(len(t.shift) - 1, 0) for _, t in tables)


@pytest.mark.parametrize("built", [False, True])
def test_solve_by_powers_packs_at_most_once(monkeypatch, built):
    """Reversion and the logarithm recurrence keep their solution packed and
    read h's power table off h's own packed lists: no ``series._pack`` call
    packs a coefficient, whether or not h has its table already (the result's
    constructor packs only its empty dict).  The solve packed its growing
    solution at every degree, and the table packed h once."""
    h = PSeries.from_univariate_coeffs(3, [3, 1, 2, 1], 16, 20)
    if built:
        h.power_table()
    packed, pack = [], series._pack
    monkeypatch.setattr(series, "_pack", lambda coeffs, M: packed.extend(coeffs) or pack(coeffs, M))
    h.reversion()
    assert packed == []


def test_series_operations_build_no_scalar(monkeypatch):
    """A series keeps its packed lists as its one store, so sums,
    differences, products, the derivative, a truncation and a composition
    without a scalar run list to list and build no ``PadicNum`` (counted
    through ``PadicNum.__init__``); they built one per coefficient of every
    result when the store was a dict of scalars.  An inverse builds a few
    for its constant term, however long the series."""
    built = []
    init = PadicNum.__init__

    def counted(*args):
        built.append(1)
        init(*args)

    def count(run):
        built.clear()
        monkeypatch.setattr(PadicNum, "__init__", counted)
        try:
            run()
        finally:
            monkeypatch.setattr(PadicNum, "__init__", init)
        return len(built)

    f = PSeries.from_univariate_coeffs(3, [3, 1, 2, 1, 0, 5, Fraction(1, 2)], 16, 20)
    g = PSeries.from_univariate_coeffs(3, [6, 4, Fraction(2, 9), 1, 7], 13, 18)
    operations = {
        "*": lambda: f * g,
        "+": lambda: f + g,
        "-": lambda: f - g,
        "derivative": f.derivative,
        "truncate": lambda: f.truncate(9),
        "compose": lambda: f.compose(g),
    }
    assert {name: count(run) for name, run in operations.items()} == dict.fromkeys(operations, 0)
    units = [PSeries.from_univariate_coeffs(3, range(1, M + 1), M, 20, shift=0) for M in (16, 32)]
    assert count(units[0].inverse) == count(units[1].inverse) > 0
