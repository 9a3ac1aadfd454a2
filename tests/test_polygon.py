"""Hull construction, root counting, iterate shapes, Weierstrass factors."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lubinlab import (
    INF,
    PadicNum,
    PSeries,
    TruncationInconclusive,
    count_roots_open_disk,
    is_eisenstein,
    iterate,
    make_twist_fixture,
    newton_polygon,
    polygon,
    series,
    verify_iterate_shape,
    weierstrass_factor,
    weierstrass_preparation,
)
from lubinlab.errors import PrecisionExhausted
from lubinlab.polygon import vertex_split
from conftest import one_plus_x_pow, outcome, random_s0, series_from_fractions
from oracles import is_lower_hull, poly_mul


def test_hull_of_second_iterate():
    g = series_from_fractions(2, [4, 6, 4, 1], 16, 24)
    poly = newton_polygon(g)
    assert poly.vertices == [(1, 2), (2, 1), (4, 0)]
    assert [(s.slope, s.width) for s in poly.segments] == [
        (Fraction(-1), 1),
        (Fraction(-1, 2), 2),
    ]


def test_single_point_no_segment():
    poly = newton_polygon(PSeries.identity(5, 8, 10))
    assert poly.vertices == [(1, 0)]
    assert poly.segments == []
    assert count_roots_open_disk(PSeries.identity(5, 8, 10)) == 1


def test_two_point_hull():
    g = series_from_fractions(2, [2, 1], 16, 24)
    poly = newton_polygon(g)
    assert poly.vertices == [(1, 1), (2, 0)]
    assert [(s.slope, s.width) for s in poly.segments] == [(Fraction(-1), 1)]


def test_hull_oracle_random(rnd):
    for _ in range(30):
        p = rnd.choice((2, 3, 5))
        g = random_s0(rnd, p, 20, 12)
        poly = newton_polygon(g)
        assert is_lower_hull(poly.points, poly.vertices)
        slopes = [s.slope for s in poly.segments]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert all(s.width >= 1 for s in poly.segments)


def test_count_roots():
    for p in (2, 3, 5):
        f = one_plus_x_pow(p, p, 32, 20)
        assert count_roots_open_disk(f) == p
    g = series_from_fractions(2, [4, 6, 4, 1], 16, 24)
    assert count_roots_open_disk(g) == 4


def test_count_roots_matches_width_sum(rnd):
    for _ in range(20):
        p = rnd.choice((2, 3))
        g = random_s0(rnd, p, 16, 10, unit_linear=False)
        poly = newton_polygon(g)
        if not poly.negative_certified:
            continue
        total = count_roots_open_disk(g)
        assert total == poly.points[0][0] + sum(
            s.width for s in poly.negative_segments()
        )


def test_uncertain_coefficient_blocks_count():
    p = 3
    g = PSeries(
        p,
        16,
        {(1,): PadicNum.from_int(27, p, 6), (2,): PadicNum.zero_to_prec(p, 1), (3,): PadicNum.one(p, 6)},
        6,
    )
    poly = newton_polygon(g)
    assert poly.uncertain_indices == [2]
    with pytest.raises(TruncationInconclusive):
        count_roots_open_disk(g)


def test_no_unit_coefficient_blocks_count():
    g = series_from_fractions(2, [2, 4], 16, 10)
    with pytest.raises(TruncationInconclusive):
        count_roots_open_disk(g)


def test_log_like_hull_not_negative_certified():
    # negative-valuation coefficients: correct vertices, but the negative
    # region can never be certified complete from a truncation window
    L = series_from_fractions(
        3, [1, 0, Fraction(1, 3), 0, 0, 0, 0, 0, Fraction(1, 9)], 12, 10
    )
    poly = newton_polygon(L)
    assert poly.vertices == [(1, 0), (3, -1), (9, -2)]
    assert not poly.negative_certified


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_iterate_shape_gm(p, n):
    f = one_plus_x_pow(p, p, 64, 24)
    assert verify_iterate_shape(f, n)


def test_iterate_shape_edge_cases():
    f = series_from_fractions(3, [3, 0, 1], 64, 20)
    assert verify_iterate_shape(f, 1)
    assert verify_iterate_shape(f, 0)
    with pytest.raises(TruncationInconclusive):
        verify_iterate_shape(f, 4)  # 3^4 = 81 > 64


@pytest.mark.parametrize(
    "coeffs, want",
    [
        ([2, 1, 1], [True, True, True]),
        ([2, 0, 1], [False, False, False]),
        ([2, 0, 0, 1], [False, False, TruncationInconclusive]),
    ],
)
def test_iterate_shape_alone_or_on_a_given_iterate(coeffs, want):
    """Called alone, verify_iterate_shape forms f^n itself; handed the
    iterate f^n, it gives the same answer."""
    f = series_from_fractions(2, coeffs, 32, 20)
    for n, w in enumerate(want, start=1):
        if w is TruncationInconclusive:
            with pytest.raises(TruncationInconclusive):
                verify_iterate_shape(f, n)
            with pytest.raises(TruncationInconclusive):
                verify_iterate_shape(f, n, iterate(f, n))
        else:
            assert verify_iterate_shape(f, n) is w
            assert verify_iterate_shape(f, n, iterate(f, n)) is w


@st.composite
def shape_inputs(draw):
    """p, n and f with p^n below its truncation, coefficients of f drawn
    near a Frobenius lift, p x + ... + x^p: the linear one mostly of
    valuation 1, those of degree 2 .. p - 1 mostly divisible by p, x^p's
    mostly a unit, so the shape is mostly right and sometimes wrong; some
    are zero-like or absent, and a few have valuation -1 (f not integral)."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[p]))
    M = draw(st.integers(p**n + 1, p**n + 8))
    coeffs = {}
    for d in range(1, M):
        kind = draw(st.integers(0, 19))
        if kind < 3:
            continue
        N = draw(st.integers(1, 10))
        if kind < 5:
            coeffs[(d,)] = PadicNum(p, INF, 0, N)
            continue
        v = 1 if d < p else 0 if d == p else draw(st.integers(0, 2))
        v = -1 if kind == 5 else v + 1 if kind == 6 else v
        N = max(N, v + 1)
        coeffs[(d,)] = PadicNum(p, v, draw(st.integers(1, p ** (N - v) - 1).map(lambda x: x if x % p else x + 1)), N)
    return p, n, PSeries(p, M, coeffs, draw(st.integers(1, 12)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape_inputs())
@example((2, 3, series_from_fractions(2, [2, 0, 0, 1], 32, 20)))  # not certified: TruncationInconclusive
@example((2, 1, series_from_fractions(2, [2, 2, 1], 16, 20)))  # zero vertex at x^3, past x^2: the fallback
@example((2, 1, series_from_fractions(2, [2, 1, Fraction(1, 2)], 16, 20)))  # not integral: no head
@example((3, 2, one_plus_x_pow(3, 3, 12, 8)))
def test_iterate_shape_on_the_head_matches_the_whole_iterate(case):
    """``verify_iterate_shape(f, n)``, which reads an integral f's iterate
    only up to x^(p^n) when that settles the answer, against the same check
    on the whole iterate it is handed: the same answer, or the same
    exception class and message."""
    p, n, f = case
    got = outcome(lambda: verify_iterate_shape(f, n))
    event(f"{'integral' if f.min_val_floor() >= 0 else 'not integral'}: {got if type(got) is bool else got[0].__name__}")
    assert got == outcome(lambda: verify_iterate_shape(f, n, iterate(f, n)))


def reads(monkeypatch, f, n):
    """The outcome of verify_iterate_shape(f, n), with the (lo, D) of each
    tabled sum it makes and the number of whole iterates it forms."""
    sums, iterates, table_sum, whole = [], [], series._PowerTable.sum, polygon.iterate
    monkeypatch.setattr(series._PowerTable, "sum", lambda table, c, lo, D: sums.append((lo, D)) or table_sum(table, c, lo, D))
    monkeypatch.setattr(polygon, "iterate", lambda f, n: iterates.append(n) or whole(f, n))
    return outcome(lambda: verify_iterate_shape(f, n)), sums, len(iterates)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_iterate_shape_reads_only_the_head_of_an_integral_iterate(monkeypatch, p, n):
    """An integral f of the right shape: n tabled sums, each below
    x^(p^n + 1), and no whole iterate."""
    assert reads(monkeypatch, one_plus_x_pow(p, p, 64, 24), n) == (True, [(1, p**n + 1)] * n, 0)


def test_iterate_shape_falls_back_where_the_head_settles_nothing(monkeypatch):
    """2x + 2x^2 + x^3 at n = 1: its head up to x^2 has no zero vertex, so
    the whole iterate answers (its zero vertex is (3, 0), not (2, 0)).  A
    non-integral f forms no head at all; its polygon is never certified."""
    assert reads(monkeypatch, series_from_fractions(2, [2, 2, 1], 16, 20), 1) == (False, [(1, 3), (1, 16)], 1)
    f = series_from_fractions(2, [2, 1, Fraction(1, 2)], 16, 20)
    assert reads(monkeypatch, f, 1) == ((TruncationInconclusive, "iterate polygon not certified"), [(1, 16)], 1)


@st.composite
def chain_inputs(draw):
    """p, n and a univariate f whose coefficients mix finite values (of
    negative valuation too), zero-like ones and an occasional constant
    term."""
    p = draw(st.sampled_from((2, 3, 5)))
    coeffs = {}
    for d in sorted(draw(st.sets(st.integers(0 if draw(st.integers(0, 9)) == 0 else 1, 10), max_size=8))):
        N = draw(st.integers(1, 12))
        if draw(st.integers(0, 4)) == 0:
            coeffs[(d,)] = PadicNum(p, INF, 0, N)
        else:
            v = draw(st.integers(-2, N - 1))
            coeffs[(d,)] = PadicNum(p, v, draw(st.integers(1, p ** (N - v) - 1).map(lambda x: x if x % p else x + 1)), N)
    M, N = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    return p, draw(st.integers(0, 4)), PSeries(p, M, coeffs, N)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain_inputs())
@example((2, 3, PSeries(2, 8, {(1,): PadicNum(2, 1, 1, 6), (2,): PadicNum(2, -1, 1, 1)}, 10)))  # f^2 forms, f^3 raises
def test_iterate_matches_the_compose_chain(case):
    """``iterate(f, n)``, tabled sums on packed lists, against the n-fold
    ``PSeries.compose`` chain it replaced: triple for triple, or the same
    exception class and message."""
    p, n, f = case

    def chain():
        out = PSeries.identity(p, f.x_prec, f.coeff_prec)
        for _ in range(n):
            out = out.compose(f)
        return out

    def triples(run):
        return outcome(lambda: sorted((e, c.v, c.u, c.N) for e, c in run().coeffs.items()))

    assert triples(lambda: iterate(f, n)) == triples(chain)


def test_weierstrass_factor_exact():
    g = series_from_fractions(2, [2, 1], 16, 24)  # x(x+2)
    fac, cof = weierstrass_factor(g, -1)
    assert fac.c((0,)).congruent(2) and fac.c((1,)).congruent(1)
    assert (fac * cof).equal_to_precision(g)
    assert is_eisenstein(fac)


def test_weierstrass_factor_quadratic():
    g = series_from_fractions(3, [3, 0, 1], 16, 24)  # x(x^2+3)
    fac, cof = weierstrass_factor(g, Fraction(-1, 2))
    assert fac.c((0,)).congruent(3)
    assert fac.c((1,)).is_zero_like()
    assert fac.c((2,)).congruent(1)
    assert is_eisenstein(fac)
    assert (fac * cof).equal_to_precision(g)


def test_weierstrass_factor_requires_segment():
    x = PSeries.identity(2, 8, 10)
    with pytest.raises(ValueError):
        weierstrass_factor(x, -1)


def test_factor_polygon_is_single_segment():
    g = iterate(one_plus_x_pow(2, 2, 32, 24), 2)
    fac, cof = weierstrass_factor(g, Fraction(-1, 2))
    sub = newton_polygon(fac)
    assert [(s.slope, s.width) for s in sub.segments] == [(Fraction(-1, 2), 2)]
    assert (fac * cof).equal_to_precision(g)


def polynomial(p, coeffs, N):
    """sum coeffs[i] x^i at coefficient precision N, truncated well above its degree."""
    return PSeries(p, 2 * len(coeffs), {(i,): c for i, c in enumerate(coeffs)}, N)


def test_vertex_split_separates_eisenstein_factors():
    """(x^3 + 4x^2 + 10x + 6)(x^4 + 2x^3 + 6x^2 + 14x + 6) at p = 2 and
    N = 16, split at the vertex (3, 1): solving the Sylvester system at each
    step stalled ("digits cannot be separated")."""
    a, b = [6, 10, 4, 1], [6, 14, 6, 2, 1]
    P = poly_mul(dict(enumerate(a)), dict(enumerate(b)), 8)
    A, B = vertex_split(polynomial(2, [P[i] for i in range(8)], 16), 7, 3)
    for S, exact in ((A, a), (B, b)):
        assert min(c.N for c in S.coeffs.values()) >= 15
        assert all(S.c((i,)).congruent(c) for i, c in enumerate(exact))


def test_vertex_split_claims_no_digit_the_residual_leaves_open():
    """x^9 + 1864x^8 + ... + 248x + 128 at p = 2 and N = 6, split at the
    vertex (1, 3).  The split stopped as soon as P - A*B was zero to its
    precision and kept the hull's start where a coefficient was zero-like:
    it claimed A = x exactly and B_7 = 8 + O(2^6), where the factors read
    at N = 40 have A_0 of valuation 4 and B_7 = 24 mod 2^6."""
    P = [128, 248, 1280, 40, 3616, 1664, 1248, 1216, 1864, 1]
    low, high = vertex_split(polynomial(2, P, 6), 9, 1), vertex_split(polynomial(2, P, 40), 9, 1)
    assert high[0].c((0,)).v == 4 and high[1].c((7,)).cap_prec(6).congruent(24)
    for S, T in zip(low, high):
        for e in S.coeffs.keys() | T.coeffs.keys():
            assert S.c(e).congruent(T.c(e)), e


def test_eisenstein_results():
    assert is_eisenstein(series_from_fractions(2, [2, 1], 8, 10, shift=0))
    assert not is_eisenstein(series_from_fractions(3, [9, 3, 1], 8, 10, shift=0))


def test_eisenstein_lead_without_digits_is_undecided():
    """The lead 2^-2 + O(2^0) carries no digits; it was read as not 1 and
    the polynomial refused as not monic."""
    poly = PSeries(2, 3, {(0,): PadicNum.from_int(2, 2, 8), (1,): PadicNum(2, -2, 1, 0)}, 8)
    with pytest.raises(PrecisionExhausted, match=r"^compared coefficients at 1 carry no digits$"):
        is_eisenstein(poly)


def test_all_iterate_factors_eisenstein():
    f = one_plus_x_pow(2, 2, 32, 28)
    for n in (1, 2, 3):
        fn = iterate(f, n)
        assert verify_iterate_shape(f, n)
        for seg in newton_polygon(fn).negative_segments():
            fac, cof = weierstrass_factor(fn, seg.slope, target_prec=12)
            assert is_eisenstein(fac)
            assert (fac * cof).equal_to_precision(fn)


@pytest.mark.parametrize("bad", [2.5, 2.0, "4", 0, -3, True])
def test_weierstrass_factor_refuses_a_bad_target_prec(bad):
    """2.5 and "4" raised a TypeError from deep in the preparation, 0 and -3
    PrecisionExhausted, and 2.0 capped the coefficients to a float N."""
    g = series_from_fractions(2, [2, 1], 16, 24)
    with pytest.raises(ValueError, match=f"^target_prec must be None or an int >= 1, got {bad!r}$"):
        weierstrass_factor(g, -1, target_prec=bad)


def triples(s):
    return s.x_prec, s.coeff_prec, {e: (c.v, c.u, c.N) for e, c in s.coeffs.items()}


def twisted_iterates():
    """Iterates f^n, p^n < 32, of gm twisted by x + x^2 + 2x^3 at p = 2, 3, 5."""
    for p in (2, 3, 5):
        f, _ = make_twist_fixture("gm", PSeries.from_univariate_coeffs(p, [1, 1, 2], 32, 24))
        for n in range(1, 4):
            if p**n < 32:
                yield iterate(f, n)


def test_weierstrass_factor_shares_the_preparation_and_the_splits(monkeypatch):
    """Every slope of a twisted iterate, at two target_prec values in turn:
    one preparation per (series, target_prec), one split of each polynomial
    (P or a left factor peeled off it) per (degree, istar), and each
    (factor, cofactor) the one a fresh copy of the series gives, on which
    nothing is shared."""
    preps, splits, split_inputs = [], Counter(), []  # split_inputs keeps each split polynomial alive, so no id is reused

    def counting_preparation(g):
        preps.append(g)
        return weierstrass_preparation(g)

    def counting_split(P, degree, istar):
        split_inputs.append(P)
        splits[id(P), degree, istar] += 1
        return vertex_split(P, degree, istar)

    monkeypatch.setattr(polygon, "weierstrass_preparation", counting_preparation)
    monkeypatch.setattr(polygon, "vertex_split", counting_split)
    factored = 0
    for fn in twisted_iterates():
        segments, before = newton_polygon(fn).negative_segments(), len(preps)
        for seg in segments:
            for tp in (12, 8):
                fresh = PSeries(fn.prime, fn.x_prec, dict(fn.coeffs), fn.coeff_prec)
                kept, once = weierstrass_factor(fn, seg.slope, tp), weierstrass_factor(fresh, seg.slope, tp)
                assert [triples(s) for s in kept] == [triples(s) for s in once]
        # fn is prepared once per target_prec, each fresh copy once
        assert len(preps) - before == 2 + 2 * len(segments)
        assert sorted(fn._factoring) == [8, 12]
        assert fn._factoring[8][0].coeff_prec == 8 and fn._factoring[12][0].coeff_prec == 12
        factored += 1
    assert factored == 8
    assert splits and max(splits.values()) == 1


def test_weierstrass_factor_peels_right_to_left(monkeypatch):
    """Every slope, steepest first, of each twisted iterate with n >= 2
    slopes (n = 3 at p = 2 and 3), at two target_prec values in turn: n - 1
    splits per (series, target_prec), one per interior vertex, the first
    of P at the rightmost and each next of the left factor the last one
    left; 2(n - 1) cofactor products; and the slope factors multiply back
    to P.  A three-slope chain made 3 splits, two of them of P."""
    prepared, calls, products = [], [], Counter()
    mul = PSeries.__mul__

    def kept_preparation(g):
        P, U = weierstrass_preparation(g)
        prepared.append(P)
        return P, U

    def recorded_split(P, degree, istar):
        calls.append((P, degree, istar))
        return vertex_split(P, degree, istar)

    monkeypatch.setattr(polygon, "weierstrass_preparation", kept_preparation)
    monkeypatch.setattr(polygon, "vertex_split", recorded_split)
    monkeypatch.setattr(PSeries, "__mul__", lambda a, b: products.update(["mul"]) or mul(a, b))
    chains = Counter()
    for fn in twisted_iterates():
        poly = newton_polygon(fn)
        i0, n = poly.points[0][0], len(poly.negative_segments())
        if n < 2:
            continue
        vs = [i - i0 for i, _ in poly.negative_vertices()]
        for tp in (12, 8):
            calls.clear()
            products.clear()
            factors = [weierstrass_factor(fn, s.slope, tp)[0] for s in poly.negative_segments()]
            assert [(degree, istar) for _, degree, istar in calls] == [(vs[j + 1], vs[j]) for j in range(n - 1, 0, -1)]
            lefts = [prepared[-1]] + [fn._factoring[tp][2][vs[j]][0] for j in range(n - 1, 1, -1)]
            assert all(A is L for (A, _, _), L in zip(calls, lefts))
            assert products == {"mul": 2 * (n - 1)}
            whole = factors[0]
            for A in factors[1:]:
                whole = mul(whole, A)
            assert whole.equal_to_precision(prepared[-1])
        chains[fn.prime, n] += 1
    assert chains == {(2, 2): 1, (2, 3): 1, (3, 2): 1, (3, 3): 1, (5, 2): 1}


def test_weierstrass_factor_caps_and_hulls_once_per_target_prec(monkeypatch):
    """Every slope of the third iterate of a twisted gm at p = 2, at
    target_prec 12, 8 and None in turn: g is capped and its polygon formed
    once per target_prec, and a slope off the kept polygon is still refused
    on each call."""
    fn = next(fn for fn in twisted_iterates() if fn.prime == 2 and len(newton_polygon(fn).negative_segments()) == 3)
    slopes = [s.slope for s in newton_polygon(fn).negative_segments()]
    counts, cap, hull = Counter(), PSeries.cap_coeff_prec, polygon.newton_polygon
    monkeypatch.setattr(PSeries, "cap_coeff_prec", lambda g, N: counts.update(["cap"]) or cap(g, N))
    monkeypatch.setattr(polygon, "newton_polygon", lambda g: counts.update(["hull"]) or hull(g))
    for tp in (12, 8, None):
        for slope in slopes:
            weierstrass_factor(fn, slope, tp)
        for _ in range(2):
            with pytest.raises(ValueError, match="^no negative segment of slope -2$"):
                weierstrass_factor(fn, -2, tp)
    assert counts == {"cap": 2, "hull": 3}


def test_a_failing_split_raises_again(monkeypatch):
    """At N = 7 the split of P (degree 7) at istar = 4, the vertex (5, 2)
    the two slopes share and so the rightmost interior one, stalls; it is
    not kept, so each call of either slope makes it again and raises the
    same error."""
    g = PSeries.from_univariate_coeffs(2, [32, 32, 96, 48, 4, 8, 6, 1, 2, 3, 1], 16, 7)
    calls = []
    monkeypatch.setattr(polygon, "vertex_split", lambda P, degree, istar: calls.append((degree, istar)) or vertex_split(P, degree, istar))
    for _ in range(2):
        for slope in (Fraction(-3, 4), Fraction(-2, 3)):
            with pytest.raises(PrecisionExhausted, match="^vertex split stalled; digits cannot be separated$"):
                weierstrass_factor(g, slope)
    assert calls == [(7, 4)] * 4
    (_, _, splits, products), = g._factoring.values()
    assert list(splits) == [7] and products == {}


def test_preparation_reuses_its_ledgers(monkeypatch):
    """One preparation of the second iterate of gm twisted by x + x^2 + 2x^3
    at p = 3, M = 64, capped at 16 digits: its passes multiply operands
    whose (N, v') lists repeat, so it computes 8 ledgers for 33 products
    (``series._product``), and P and U are those of a preparation that
    computes every ledger (32: the first pass multiplies q = 0, which needs
    none)."""
    f, _ = make_twist_fixture("gm", PSeries.from_univariate_coeffs(3, [1, 1, 2], 64, 24))
    fn = iterate(f, 2).cap_coeff_prec(16)
    g = PSeries(3, 63, {(e - 1,): c for (e,), c in fn.coeffs.items()}, 16)
    counts = Counter()
    product, ledger = polygon._product, series._ledger

    def counted_product(*args, **kwargs):
        counts["products"] += 1
        return product(*args, **kwargs)

    def counted_ledger(*args):
        counts["ledgers"] += 1
        return ledger(*args)

    monkeypatch.setattr(polygon, "_product", counted_product)
    monkeypatch.setattr(series, "_ledger", counted_ledger)
    kept = weierstrass_preparation(g)
    assert counts == {"products": 33, "ledgers": 8}
    monkeypatch.setattr(polygon, "_product", lambda *args, ledgers=None, **kwargs: product(*args, **kwargs))
    assert [triples(s) for s in weierstrass_preparation(g)] == [triples(s) for s in kept]
    assert counts["ledgers"] == 8 + 32


def test_preparation_splits_unit():
    g = series_from_fractions(3, [3, 0, 1, 1, 2], 24, 20)
    shifted = PSeries(3, 23, {(e[0] - 1,): c for e, c in g.coeffs.items()}, 20)
    P, U = weierstrass_preparation(shifted)
    assert (P * U).equal_to_precision(shifted)
    assert U.c((0,)).v == 0
    wdeg = shifted.weierstrass_degree()
    assert P.c((wdeg,)).congruent(1)


def test_renders():
    g = series_from_fractions(2, [4, 6, 4, 1], 16, 24)
    poly = newton_polygon(g)
    js = poly.to_json()
    assert js["vertices"] == [[1, 2], [2, 1], [4, 0]]
    assert js["segments"] == [
        {"slope": "-1", "width": 1},
        {"slope": "-1/2", "width": 2},
    ]
    art = poly.ascii()
    assert "*" in art and "|" in art
    svg = poly.svg()
    assert svg.startswith("<svg") and "polyline" in svg
    assert poly.svg() == svg  # deterministic
