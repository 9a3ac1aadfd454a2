"""Group-law construction, brackets, Frobenius multiplier, independent lift."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lubinlab import (
    INF,
    AmbiguousAtPrecision,
    FormalGroupLaw,
    IntegralityFailure,
    LubinlabError,
    NoCandidate,
    NonUniqueLift,
    PadicNum,
    PrecisionExhausted,
    PSeries,
    bracket,
    exp_from_log,
    frobenius_multiplier,
    group_from_log,
    logarithm_recurrence,
    lubin_tate_lift,
)
from conftest import one_plus_x_pow, outcome, series_from_fractions
from lubinlab import formalgroup, series
from lubinlab.series import first_disagreement
from oracles import (
    NoDigits,
    NonUnique,
    NotIntegral,
    _horner_1var,
    _horner_2var,
    binom,
    horner_associative,
    swap_vars,
    taylor_assembly,
    triple_add,
    triple_mul,
    triple_substitute,
)
from oracles import lubin_tate_lift as recomputing_lift


def make_law(p, M, coeffs, N=20):
    """A test law below degree M from coefficients given as (v, u, N)
    triples, PadicNums or ints (coerced at N)."""
    return FormalGroupLaw(p, M, {e: PadicNum(p, *c) if isinstance(c, tuple) else c for e, c in coeffs.items()}, N, "test")


def coeff(F, e):
    """The coefficient of a law at e, an exact zero where absent."""
    return F.coeffs.get(e, PadicNum.exact_zero(F.prime))


def gm_log(p, M=32, N=40):
    return logarithm_recurrence(one_plus_x_pow(p, p, M, N))


def test_gm_group_is_multiplicative():
    logf = gm_log(3)
    G = group_from_log(logf)
    assert coeff(G, (1, 0)).congruent(1)
    assert coeff(G, (0, 1)).congruent(1)
    assert coeff(G, (1, 1)).congruent(1)
    for e, c in G.coeffs.items():
        if e not in ((1, 0), (0, 1), (1, 1)):
            assert c.is_zero_like()
    assert G.min_coeff_valuation() >= 0
    assert G.certify(12)
    assert G.certificates["associative"]["degree"] == 12


def test_additive_degenerate_log():
    # log = x gives the additive group
    p = 3
    x = PSeries.identity(p, 16, 20)
    G = group_from_log(x)
    assert coeff(G, (1, 0)).congruent(1) and coeff(G, (0, 1)).congruent(1)
    for e, c in G.coeffs.items():
        if e not in ((1, 0), (0, 1)):
            assert c.is_zero_like()


def test_odd_series_group_coefficient():
    f = series_from_fractions(3, [3, 0, 1], 32, 40)
    logf = logarithm_recurrence(f)
    G = group_from_log(logf)
    assert coeff(G, (2, 1)).congruent(Fraction(1, 8))
    assert coeff(G, (2, 1)).v == 0
    assert G.certify(12)


def test_lift_matches_group_from_log():
    f = series_from_fractions(3, [3, 0, 1], 32, 40)
    logf = logarithm_recurrence(f)
    G = group_from_log(logf)
    GL = lubin_tate_lift(f, 12)
    assert coeff(GL, (1, 1)).is_zero_like()  # no degree-2 term for an odd f
    assert coeff(GL, (2, 1)).congruent(Fraction(1, 8))
    assert GL.equal_to_precision(G)


def test_lift_gm():
    p = 2
    f = one_plus_x_pow(p, p, 16, 24)
    GL = lubin_tate_lift(f, 12)
    assert coeff(GL, (1, 1)).congruent(1)
    for e, c in GL.coeffs.items():
        if e not in ((1, 0), (0, 1), (1, 1)):
            assert c.is_zero_like()


def test_lift_additive_linear():
    f = series_from_fractions(3, [3], 12, 20)
    GL = lubin_tate_lift(f, 12)
    nz = {e for e, c in GL.coeffs.items() if not c.is_zero_like()}
    assert nz == {(1, 0), (0, 1)}


def test_lift_stops_at_the_truncation_of_f():
    """f known below degree 8 determines F only below degree 8."""
    f = one_plus_x_pow(2, 2, 8, 24)
    GL = lubin_tate_lift(f, 12)
    assert GL.x_prec == 8
    assert _triples(GL) == _triples(lubin_tate_lift(f, 8))


def test_bracket_closed_forms():
    p = 3
    logf = gm_log(p)
    exp_series = exp_from_log(logf)
    b = bracket(logf, PadicNum.from_int(-1, p, 40), exp_series)
    for n in range(1, 32):
        assert b.c((n,)).congruent((-1) ** n)
    bid = bracket(logf, PadicNum.one(p, 40), exp_series)
    assert bid.equal_to_precision(PSeries.identity(p, 32, 40))
    bp = bracket(logf, PadicNum.from_int(p, p, 40), exp_series)
    for n in range(1, 32):
        assert bp.c((n,)).congruent(binom(p, n))


def test_bracket_monoid_map(rnd):
    p = 3
    logf = gm_log(p, M=16)
    exp_series = exp_from_log(logf)
    for _ in range(5):
        a = PadicNum.from_int(rnd.randrange(1, p**5), p, 40)
        b = PadicNum.from_int(rnd.randrange(1, p**5), p, 40)
        lhs = bracket(logf, a, exp_series).compose(
            bracket(logf, b, exp_series)
        )
        rhs = bracket(logf, a * b, exp_series)
        assert lhs.equal_to_precision(rhs)


def test_endomorphism_identification():
    p = 3
    M, Nw = 32, 40
    f = one_plus_x_pow(p, p, M, Nw)
    u = one_plus_x_pow(p, p + 1, M, Nw)
    logf = logarithm_recurrence(f)
    exp_series = exp_from_log(logf)
    assert bracket(logf, f.linear_coeff(), exp_series).equal_to_precision(f)
    assert bracket(logf, u.linear_coeff(), exp_series).equal_to_precision(u)


def test_bracket_scales_group_law():
    """[a](F(x, y)) = F([a]x, [a]y), both sides composed by the triple
    Horner oracles and compared at the lesser precision."""
    p, M = 2, 12
    logf = gm_log(p, M=M)
    exp_series = exp_from_log(logf)
    G = group_from_log(logf)
    a = PadicNum.from_int(3, p, 40)
    ba = bracket(logf, a, exp_series)
    F = {e: (c.v, c.u, c.N) for e, c in G.coeffs.items()}
    b = {e: (c.v, c.u, c.N) for (e,), c in ba.coeffs.items()}
    lhs = _horner_2var(p, F, {(e, 0): t for e, t in b.items()}, {(0, e): t for e, t in b.items()}, M)
    rhs = _horner_1var(p, b, F, M)
    assert len(lhs) > 3
    for e in lhs.keys() | rhs.keys():
        r = rhs.get(e)
        d = triple_add(p, lhs.get(e), r if r is None or r[0] == INF else (r[0], -r[1], r[2]))
        assert d is None or d[0] == INF, e


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_gm(p):
    f = one_plus_x_pow(p, p, 64, 30 + 2 * p)
    logf = logarithm_recurrence(f)
    pi, bk = frobenius_multiplier(logf, f)
    assert pi.v == 1 and pi.u == 1  # pi = p at the recovered digits
    assert bk.equal_to_precision(f)


def test_frobenius_special_uniformizer():
    p = 3
    coeffs = [p, 0, 1]
    f = series_from_fractions(p, coeffs, 64, 40)
    logf = logarithm_recurrence(f)
    pi, bk = frobenius_multiplier(logf, f)
    assert pi.v == 1 and pi.u == 1
    assert bk.equal_to_precision(f)  # f itself is the Frobenius bracket


def test_frobenius_differs_from_fprime0():
    # f = (1+x)^(-p) - 1 has f'(0) = -p but Frobenius multiplier +p
    p = 3
    f = one_plus_x_pow(p, -p, 32, 40)
    logf = logarithm_recurrence(f)
    pi, bk = frobenius_multiplier(logf, f)
    assert pi.u == 1 and pi.v == 1
    assert not pi.congruent(f.linear_coeff())


def test_frobenius_twist_conjugate():
    p = 2
    Nw = 40
    w = series_from_fractions(p, [1, 1], 32, Nw)
    from lubinlab import make_twist_fixture

    f, u = make_twist_fixture("gm", w)
    logf = logarithm_recurrence(f)
    pi, bk = frobenius_multiplier(logf, f)
    assert pi.v == 1 and pi.u == 1


def test_frobenius_window_too_small():
    p = 5
    f = one_plus_x_pow(p, p, 5, 20)  # M=5 < p+1: no digit window at all
    logf = logarithm_recurrence(f)
    with pytest.raises((NoCandidate, AmbiguousAtPrecision)):
        frobenius_multiplier(logf, f)


# -- the tabled group law against the per-pair loop ------------------------------


def _triples(s, D=INF):
    """The (v, u, N) triples of a series, keyed by degree, or of a law below total degree D."""
    return {e if len(e) > 1 else e[0]: (c.v, c.u, c.N) for e, c in s.coeffs.items() if sum(e) < D}


def _scalar_derivative(s):
    """d/dx of a univariate series, one PadicNum product c * k per coefficient."""
    return PSeries(s.prime, s.x_prec - 1, {(k - 1,): c * k for (k,), c in s.coeffs.items() if k}, s.coeff_prec)


def _taylor_orders(L, M, N):
    """(A_j, L(y)^j) for j = 0, 1, ... in the order the per-pair loop forms them."""
    p = L.prime
    inv_dlog = _scalar_derivative(L).inverse()
    A = PSeries.identity(p, M, N)
    Ly = PSeries(p, M, {(0,): PadicNum.one(p, N)}, N)
    for j in range(M):
        yield _triples(A), _triples(Ly)
        if j + 1 >= M:
            return
        A = _scalar_derivative(A) * inv_dlog
        if not A.coeffs:
            return
        Ly = Ly * L
        if not Ly.coeffs:
            return


@st.composite
def log_series(draw):
    """x plus random coefficients: finite (negative valuations included),
    zero-like or absent, at a low precision N."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(16, 20) if p == 2 else st.integers(2, 14))
    N = draw(st.integers(2, 12))
    coeffs = {(1,): (0, 1, N)}
    for d in range(2, M):
        kind = draw(st.sampled_from(("absent", "finite", "finite", "zero-like")))
        if kind == "zero-like":
            coeffs[(d,)] = (INF, 0, draw(st.integers(1, N)))
        elif kind == "finite":
            v = draw(st.integers(-2, 3))
            rel = draw(st.integers(1, N))
            u = p * draw(st.integers(0, p ** (rel - 1) - 1)) + draw(st.integers(1, p - 1))
            coeffs[(d,)] = (v, u, v + rel)
    return p, M, N, coeffs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(log_series())
@example((2, 16, 12, {(1,): (0, 1, 12)}))
@example((3, 12, 8, {(1,): (0, 1, 8)}))
@example((3, 4, 8, {(1,): (0, 1, 8), (2,): (-1, 1, 7)}))
@example((3, 6, 6, {(1,): (0, 1, 6), (2,): (-1, 481, 5), (3,): (INF, 0, 4)}))
# with c * k taking k exact, A_3 = 2·3 + O(3^2) keeps its digit and both sides
# return the law; when k was coerced at c's precision, A_3 was O(3^1), and the
# loop raised at the zero-like term O(3^0) of (0, 3) at j = 3, the tabled sum
# at its total
@example((3, 4, 4, {(1,): (0, 1, 4), (3,): (0, 2, 1)}))
def test_group_from_log_matches_pairwise_loop(case):
    """Triple for triple, and exception class for exception class.  Where
    the loop raises, the tabled sums decide each coefficient once and may
    say why in other words.  A law with negative floors fails at a certified
    one first, then at the least exponent."""
    p, M, N, coeffs = case
    L = PSeries(p, M, {e: PadicNum(p, *t) for e, t in coeffs.items()}, N)
    try:
        want = taylor_assembly(p, M, _taylor_orders(L, M, N))
    except (NoDigits, LubinlabError) as ex:
        kind = PrecisionExhausted if isinstance(ex, NoDigits) else type(ex)
        with pytest.raises(kind):
            group_from_log(L)
        return
    floors = [(v == INF, e, v if v != INF else n) for e, (v, _, n) in want.items()]
    bad = sorted(t for t in floors if t[2] < 0)
    if bad:
        _, e, floor = bad[0]
        with pytest.raises(IntegralityFailure) as got:
            group_from_log(L)
        assert str(got.value) == f"group law from logarithm: coefficient at {e} has valuation floor {floor}"
        return
    got = group_from_log(L)
    assert _triples(got) == want


def test_group_law_reads_the_table_exp_from_log_built(monkeypatch):
    """After ``exp_from_log``, ``group_from_log`` multiplies no series: its
    products are the Taylor orders, at most M - 1, and at most one more
    power of L in the table both share."""
    M = 32
    L = gm_log(3, M=M)
    exp_from_log(L)
    table = L.power_table()
    grown = len(table.shift)
    counts = {"product": 0, "series": 0}
    product, mul = series._product, PSeries.__mul__

    def counted(*args, **kwargs):
        counts["product"] += 1
        return product(*args, **kwargs)

    def series_mul(a, b):
        counts["series"] += 1
        return mul(a, b)

    monkeypatch.setattr(series, "_product", counted)
    monkeypatch.setattr(formalgroup, "_product", counted)
    monkeypatch.setattr(PSeries, "__mul__", series_mul)
    G = group_from_log(L)
    assert counts["series"] == 0
    assert len(table.shift) <= grown + 1
    assert 0 < counts["product"] <= (M - 1) + (len(table.shift) - grown)
    assert G.certify(12)


# -- the associativity certificate ------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_associative_law_rejected(p):
    """x + y + x^2 y^2 is a unital commutative law but not associative."""
    G = FormalGroupLaw(p, 12, {(1, 0): 1, (0, 1): 1, (2, 2): 1}, 20, "test")
    assert G.check_identity()
    assert G.check_commutative()
    assert not G.check_associative(12)
    assert G.certificates["associative"] == {"ok": False, "degree": 12}


# -- the commutativity certificate -------------------------------------------------


@st.composite
def near_symmetric_laws(draw, least=1):
    """A two-variable series below degree M built symmetric (c_ab = c_ba)
    from finite coefficients, negative valuations included, and zero-like
    ones, each with N >= least, then perturbed at random mirrored places: a
    dropped mirror, a changed unit or precision, a zero-like mirror."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(1, 9))

    def coefficient():
        if draw(st.integers(0, 3)) == 0:
            return (INF, 0, draw(st.integers(least, 8)))
        v = draw(st.integers(-3, 4))
        rel = draw(st.integers(max(1, least - v), 6))
        return (v, draw(st.integers(1, p**rel - 1).map(lambda x: x if x % p else x + 1)), v + rel)

    coeffs = {}
    for a, b in draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)), max_size=12)):
        if a + b < M:
            coeffs[(a, b)] = coeffs[(b, a)] = coefficient()
    for a, b in draw(st.lists(st.sampled_from(sorted(coeffs)), max_size=3, unique=True)) if coeffs else ():
        v, u, n = coeffs[(a, b)]
        kind = draw(st.sampled_from(("drop", "unit", "precision", "zero-like")))
        if kind == "drop":
            del coeffs[(a, b)]
        elif kind == "unit" and v != INF:
            coeffs[(a, b)] = (v, u + p ** draw(st.integers(1, n - v)), n)
        elif kind == "precision":
            coeffs[(a, b)] = (v, u, draw(st.integers(max(v + 1, least) if v != INF else least, 10)))
        else:
            coeffs[(a, b)] = (INF, 0, draw(st.integers(least, 8)))
    return p, M, coeffs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_symmetric_laws())
@example((3, 6, {(1, 2): (0, 1, 4), (2, 1): (0, 4, 4)}))  # units differ mod 3
@example((3, 6, {(1, 2): (0, 1, 4), (2, 1): (0, 10, 4)}))  # ... but agree mod 3^2
@example((2, 6, {(1, 3): (INF, 0, 3)}))  # zero-like, mirror absent
@example((2, 6, {(1, 3): (2, 1, 3), (3, 1): (INF, 0, 2)}))  # agree at the lesser precision
def test_commutativity_matches_swapped_copy(case):
    """The one-walk certificate against comparing F with its swapped copy,
    which it replaced: the same answer on every law with N >= 1."""
    p, M, coeffs = case
    G = make_law(p, M, coeffs)
    assert G.check_commutative() == make_law(p, M, swap_vars(G.coeffs)).equal_to_precision(G)
    assert G.certificates["commutative"]["degree"] == M


@pytest.mark.parametrize("place", [(2, 2), (1, 2)])
def test_commutativity_raises_on_a_coefficient_without_digits(place):
    """A coefficient known to no digit (N <= 0) raises in both, on the
    diagonal and in a mirrored pair."""
    p, (a, b) = 2, place
    coeffs = {(1, 0): PadicNum.one(p, 8), (0, 1): PadicNum.one(p, 8)}
    coeffs[(a, b)] = coeffs[(b, a)] = PadicNum(p, -2, 1, 0)
    F = make_law(p, 8, coeffs, 8)
    with pytest.raises(PrecisionExhausted) as new:
        F.check_commutative()
    with pytest.raises(PrecisionExhausted) as old:
        make_law(p, 8, swap_vars(F.coeffs), 8).equal_to_precision(F)
    assert str(new.value) == str(old.value)


@st.composite
def group_laws(draw):
    """F from a log L = g(x) + (s/p) L(x^p) with g integral and g'(0) = 1,
    which Hazewinkel's functional-equation lemma makes integral, with an
    optional symmetric perturbation c (x^i y^j + x^j y^i), i, j >= 1."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(4, 9))
    N = draw(st.integers(4, 12))
    s = draw(st.integers(-p, p))
    L = [Fraction(0), Fraction(1)]
    for n in range(2, M):
        g = draw(st.integers(-(p**2), p**2))
        L.append(g + (Fraction(s, p) * L[n // p] if n % p == 0 else 0))
    # a guard of M + 4 digits, above the analyzer's ceil(M/(p-1)) + 4
    F = group_from_log(PSeries.from_univariate_coeffs(p, L[1:], M, N + M + 4))
    m2 = draw(st.integers(3, M + 2))
    if draw(st.booleans()):
        # a monomial below the certificate's degree min(m2, M)
        i = draw(st.integers(1, min(m2, M) - 2))
        j = draw(st.integers(1, min(m2, M) - 1 - i))
        c = PadicNum.from_fraction(Fraction(draw(st.integers(1, p**N))), p, F.coeff_prec)
        coeffs = {**F.coeffs, **{e: coeff(F, e) + c for e in ((i, j), (j, i))}}
        F = make_law(p, M, dict(sorted(coeffs.items())), F.coeff_prec)
    return F, m2


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_laws())
def test_associativity_matches_horner_certificate(case):
    F, m2 = case
    D = min(m2, F.x_prec)
    want = horner_associative(F.prime, _triples(F, D), D, F.coeff_prec)
    assert F.check_associative(m2) == want


# -- the bivariate layer on part lists against the per-pair loops ----------------


@st.composite
def rough_laws(draw):
    """x + y and random coefficients below degree M in a random order, some
    mirrored: finite ones with negative valuations, zero-like ones and ones
    known to no digit (N <= 0), with the certificate's m2."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(3, 8))

    def coefficient():
        kind = draw(st.sampled_from(("finite", "finite", "zero-like", "no digits")))
        if kind == "zero-like":
            return (INF, 0, draw(st.integers(-1, 6)))
        N = draw(st.integers(-2, 0)) if kind == "no digits" else draw(st.integers(-2, 6))
        v = draw(st.integers(N - 4, N - 1))
        return (v, p * draw(st.integers(0, p ** (N - v - 1) - 1)) + draw(st.integers(1, p - 1)), N)

    coeffs = {(1, 0): (0, 1, 20), (0, 1): (0, 1, 20)}
    monomials = st.integers(2, M - 1).flatmap(lambda k: st.integers(0, k).map(lambda a: (a, k - a)))
    for a, b in draw(st.lists(monomials, min_size=1, max_size=10)):
        coeffs[(a, b)] = coefficient()
        if draw(st.booleans()):
            coeffs[(b, a)] = coeffs[(a, b)]
    order = draw(st.permutations(sorted(coeffs)))
    return make_law(p, M, {e: coeffs[e] for e in order}), draw(st.integers(3, M + 1))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(group_laws(), rough_laws(), rough_laws()))
@example((make_law(2, 4, {(1, 0): 1, (0, 1): 1, (1, 1): PadicNum(2, -3, 1, -1)}), 4))
def test_associativity_sides_match_per_pair_substitution(case):
    """The sides on part lists against the per-pair loop they replaced
    (``oracles.triple_substitute`` over ``triple_mul`` powers): triple for
    triple, a side coefficient without digits kept as (INF, 0, K), and
    exception for exception where a power has a coefficient without digits.
    The certificate decides as comparing the loop's sides by
    ``first_disagreement`` does."""
    F, m2 = case
    p, D = F.prime, min(m2, F.x_prec)
    try:
        pows = [{(0, 0): None}, _triples(F, D)]
        for _ in range(2, D):
            pows.append(triple_mul(p, pows[-1], pows[1], D))
    except NoDigits as ex:
        event("a power has a coefficient without digits")
        for run in (lambda: formalgroup._sides(F, D), lambda: F.check_associative(m2)):
            assert outcome(run) == (PrecisionExhausted, str(ex))
        return
    want = [triple_substitute(p, pows[1], pows, D, left, keep=True) for left in (True, False)]
    got = [{e: (c.v, c.u, c.N) for e, c in side.items()} for side in formalgroup._sides(F, D)]
    assert got == want
    if any(t[2] <= 0 for side in want for t in side.values()):
        event("a side coefficient with N <= 0")
    left, right = ({e: PadicNum(p, *t) for e, t in side.items()} for side in want)
    zero = PadicNum.exact_zero(p)
    pairs = [(e, left.get(e, zero), right.get(e, zero)) for e in left.keys() | right.keys()]
    assert outcome(lambda: F.check_associative(m2)) == outcome(lambda: first_disagreement(pairs) is None)


def test_bivariate_layer_multiplies_no_series(monkeypatch):
    """``certify`` and ``lubin_tate_lift`` run on part lists and the law's
    own coefficient table: they make no ``PSeries`` product and build no
    ``PSeries`` at all."""
    f = one_plus_x_pow(3, 3, 12, 20)
    G = group_from_log(logarithm_recurrence(f))
    calls, built = [], []
    mul, init = PSeries.__mul__, PSeries.__init__
    monkeypatch.setattr(PSeries, "__mul__", lambda a, b: calls.append(a) or mul(a, b))
    monkeypatch.setattr(PSeries, "__init__", lambda s, *args: built.append(args) or init(s, *args))
    assert G.certify(12)
    assert G.certificates["associative"] == {"ok": True, "degree": 12}
    assert lubin_tate_lift(f, 12).equal_to_precision(G)
    assert calls == [] and built == []


# -- one comparison rule, whatever the dict order ---------------------------------


def test_a_disagreement_beside_a_pair_without_digits_decides():
    """A pair known to no digit (P <= 0) beside a certified disagreement:
    the comparison reads False in either order, and names the disagreement."""
    p = 2
    blind = ((2, 2), PadicNum(p, -2, 1, 0), PadicNum(p, -2, 3, 0))
    differ = ((1, 2), PadicNum.one(p, 4), PadicNum.from_int(3, p, 4))
    assert first_disagreement([blind, differ]) == first_disagreement([differ, blind]) == (1, 2)
    F = make_law(p, 8, {(2, 2): blind[1], (1, 2): differ[1]}, 8)
    G = make_law(p, 8, {(1, 2): differ[2], (2, 2): blind[2]}, 8)
    assert not F.equal_to_precision(G) and not G.equal_to_precision(F)


def test_a_pair_without_digits_alone_raises_even_when_its_units_differ():
    """p^-2 and 3 p^-2 known to p^0 claim no digit, so they neither agree
    nor disagree: alone, the comparison is undecided."""
    p = 2
    a, b = PadicNum(p, -2, 1, 0), PadicNum(p, -2, 3, 0)
    msg = r"^compared coefficients at \(2, 2\) carry no digits$"
    with pytest.raises(PrecisionExhausted, match=msg):
        first_disagreement([((2, 2), a, b), ((1, 0), PadicNum.one(p, 4), PadicNum.one(p, 4))])
    with pytest.raises(PrecisionExhausted, match=msg):
        make_law(p, 8, {(2, 2): a}, 8).equal_to_precision(make_law(p, 8, {(2, 2): b}, 8))


@st.composite
def reordered_laws(draw):
    """A rough law, or a near-symmetric one with coefficients known to no
    digit (N <= 0), the same law with its coefficients inserted in another
    order, and the certificate's m2."""
    F, m2 = draw(st.one_of(rough_laws(), near_symmetric_laws(least=-2).map(lambda law: (make_law(*law), 12))))
    order = draw(st.permutations(list(F.coeffs)))
    return F, make_law(F.prime, F.x_prec, {e: F.coeffs[e] for e in order}, F.coeff_prec), m2


def reordered(p, M, coeffs, order, m2):
    """A case of ``reordered_laws``: the law of ``coeffs`` in their order and in ``order``."""
    return make_law(p, M, coeffs), make_law(p, M, {e: coeffs[e] for e in order}), m2


def integrality(F):
    try:
        series.raise_if_not_integral(F, "law")
    except IntegralityFailure as ex:
        return str(ex), ex.exponents, ex.certified


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reordered_laws())
# the walks this rule replaced read False in one insertion order and raised
# in the other: check_commutative here, ...
@example(reordered(3, 3, {(1, 0): (0, 1, 20), (0, 1): (0, 1, 20), (1, 1): (-5, 7, -2), (2, 0): (-4, 7, -1)}, [(2, 0), (1, 1), (1, 0), (0, 1)], 4))
# ... equal_to_precision here, ...
@example(reordered(5, 5, {(1, 0): (0, 1, 20), (0, 1): (0, 1, 20), (1, 3): (-4, 106, -1), (2, 0): (-1, 4, 0), (0, 2): (-1, 4, 0)}, [(0, 2), (2, 0), (0, 1), (1, 0), (1, 3)], 6))
# ... and check_associative raised with two messages here
@example(reordered(2, 3, {(1, 0): (0, 1, 20), (0, 1): (0, 1, 20), (1, 1): (INF, 0, 0), (2, 0): (-2, 1, -1)}, [(1, 1), (2, 0), (1, 0), (0, 1)], 3))
def test_certificates_do_not_depend_on_the_dict_order(case):
    """The comparisons and the integrality check give the same outcome,
    exception class and message for a law whatever order its coefficients
    were inserted in."""
    F, G, m2 = case

    def outcomes(F):
        return [
            outcome(lambda: F.equal_to_precision(make_law(F.prime, F.x_prec, swap_vars(F.coeffs), F.coeff_prec))),
            outcome(F.check_commutative),
            outcome(lambda: F.check_associative(m2)),
            integrality(F),
        ]

    assert outcomes(F) == outcomes(G)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reordered_laws())
def test_certificates_decide_as_the_walks_where_every_pair_has_digits(case):
    """Where every compared pair claims a digit, the certificates decide as
    the walks they replaced, all(congruent) over the pairs; where one does
    not, they read False on a certified disagreement and raise otherwise."""
    F, _, m2 = case
    zero = PadicNum.exact_zero(F.prime)
    checks = [(F.check_commutative, [(c, coeff(F, (b, a))) for (a, b), c in F.coeffs.items()])]
    sides = outcome(lambda: formalgroup._sides(F, min(m2, F.x_prec)))
    if isinstance(sides, list):
        left, right = sides
        checks.append((lambda: F.check_associative(m2), [(left.get(e, zero), right.get(e, zero)) for e in left.keys() | right.keys()]))
    for check, pairs in checks:
        blind = [min(a.N, b.N) <= 0 for a, b in pairs]
        agree = all(a.congruent(b) for (a, b), no_digits in zip(pairs, blind) if not no_digits)
        got = outcome(check)
        assert (got[0] if isinstance(got, tuple) else got) == (PrecisionExhausted if agree and any(blind) else agree)


@st.composite
def pair_stages(draw):
    """h without constant term and the coefficients {(a, b): triple} of a
    G below degree D (zero-like ones, and ones with N <= 0, included)."""
    p = draw(st.sampled_from((2, 3, 5)))
    D = draw(st.integers(3, 9))

    def coefficient(least):
        if draw(st.integers(0, 4)) == 0:
            return (INF, 0, draw(st.integers(min(least, 1), 8)))
        v, rel = draw(st.integers(least, 3)), draw(st.integers(1, 6))
        return (v, p * draw(st.integers(0, p ** (rel - 1) - 1)) + draw(st.integers(1, p - 1)), v + rel)

    h = {d: coefficient(0) for d in draw(st.sets(st.integers(1, D - 1), min_size=1))}
    monomials = st.integers(1, D - 2).flatmap(lambda k: st.integers(0, k).map(lambda a: (a, k - a)))
    return p, D, h, {e: coefficient(-2) for e in draw(st.lists(monomials, unique=True, max_size=20))}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_stages())
def test_carried_pair_columns_match_fresh_sums(case):
    """Stage by stage, the columns G_b(h) that ``_PowerTable.sum_pair``
    carries equal the column sums formed afresh from G's coefficients below
    degree d, triple for triple, and so does the degree-d part it returns;
    where the fresh sums raise, the stage raises the same."""
    p, D, h, G = case
    table = PSeries(p, D, {(d,): PadicNum(p, *t) for d, t in h.items()}, 20).power_table()
    coeff = {e: PadicNum(p, *t) for e, t in G.items()}
    columns = []

    def fresh(d):
        cols = [series._pack({(a,): c for (a, b2), c in coeff.items() if b2 == b and a + b < d}, d + 1) for b in range(d)]
        (v,), (u,), (n,) = table.sum(cols[0], d, d + 1)
        sums = [cols[0]] + [[x[:1] + y for x, y in zip(g, table.sum(g, 1, d - b + 1))] for b, g in enumerate(cols) if b]
        top = {} if n == series._ABSENT else {(d, 0): (INF if v == series._ABSENT else v, u, n)}
        return sums, {**top, **{e: (c.v, c.u, c.N) for e, c in table.sum_orders(sums, d).items()}}

    for d in range(2, D):
        part = [(a, coeff[(a, d - 1 - a)]) for a in range(d) if (a, d - 1 - a) in coeff]
        want = outcome(lambda: fresh(d))
        got = outcome(lambda: table.sum_pair(columns, part, d))
        if isinstance(want[0], type):
            event("a stage raises")
            assert got == want
            return
        sums, rhs = want
        assert [list(col[3:]) for col in columns[1:]] == sums[1:]
        assert {e: (c.v, c.u, c.N) for e, c in got.items()} == rhs


# -- the degree-incremental lift against the recomputing reference ---------------


@st.composite
def lift_inputs(draw):
    """f with f'(0) of valuation 1 below degree fM, in a random dict order:
    multiples of p and absent coefficients with a unit at degree p (a
    Lubin-Tate series), and in some examples a unit at another degree (no
    integral lift) or zero-like coefficients, at a low precision N."""
    p = draw(st.sampled_from((2, 3, 5)))
    x_prec = draw(st.integers(4, 12))
    fM = draw(st.one_of(st.just(x_prec), st.integers(3, 14)))
    N = draw(st.integers(3, 12))
    kinds = ["absent", "multiple", "multiple"]
    if draw(st.booleans()):
        kinds.append("zero-like")

    def unit(rel):
        return p * draw(st.integers(0, p ** (rel - 1) - 1)) + draw(st.integers(1, p - 1))

    rel = draw(st.one_of(st.just(N - 1), st.integers(1, N - 1)))
    coeffs = {1: (1, unit(rel), 1 + rel)}
    stray = draw(st.integers(2, 2 * fM))
    for d in range(2, fM):
        kind = "unit" if d in (p, stray) else draw(st.sampled_from(kinds))
        if kind == "zero-like":
            coeffs[d] = (INF, 0, draw(st.integers(1, N)))
        elif kind != "absent":
            v = 0 if kind == "unit" else draw(st.integers(1, 3))
            rel = draw(st.one_of(st.just(N), st.integers(1, N)))
            coeffs[d] = (v, unit(rel), v + rel)
    order = draw(st.permutations(sorted(coeffs)))
    return p, N, fM, {d: coeffs[d] for d in order}, x_prec


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lift_inputs())
@example((2, 8, 8, {1: (1, 1, 8), 2: (0, 1, 8)}, 12))
@example((3, 6, 12, {1: (1, 1, 6), 2: (0, 1, 6), 3: (0, 1, 6), 4: (0, 2, 6)}, 12))
# stage 2 has unresolved corrections at (0, 2) and (2, 0) around a certified
# one at (1, 1): NonUniqueLift, where the first-come lift raised
# PrecisionExhausted at (0, 2)
@example((5, 3, 3, {2: (0, 1, 1), 1: (1, 6, 3)}, 4))
def test_lift_matches_recomputing_reference(case):
    """Triple for triple, and exception for exception with the lift that
    recomputed f(F) and F(f(x), f(y)) at every degree."""
    p, N, fM, coeffs, x_prec = case
    f = PSeries(p, fM, {(d,): PadicNum(p, *t) for d, t in coeffs.items()}, N)
    try:
        _, want = recomputing_lift(p, coeffs, fM, N, x_prec)
    except NoDigits:
        # the reference also computes coefficients no degree-d defect reads
        try:
            lubin_tate_lift(f, x_prec)
        except PrecisionExhausted:
            return
        event("reference raised PrecisionExhausted; the lift returned")
        return
    except (NonUnique, NotIntegral) as ex:
        with pytest.raises(NonUniqueLift if isinstance(ex, NonUnique) else IntegralityFailure) as got:
            lubin_tate_lift(f, x_prec)
        assert str(got.value) == str(ex)
        return
    F = lubin_tate_lift(f, x_prec)
    assert F.x_prec == min(x_prec, fM)
    assert _triples(F) == want


def test_certified_lift_failure_wins_over_unresolved():
    """A stage with a certified non-integral correction is decided by it,
    even when an unresolved correction comes first in exponent order."""
    f = PSeries(5, 3, {(1,): PadicNum(5, 1, 6, 3), (2,): PadicNum(5, 0, 1, 1)}, 3)
    with pytest.raises(NonUniqueLift, match=r"degree-2 correction at \(1, 1\) has valuation -1"):
        lubin_tate_lift(f, 4)


def test_unresolved_lift_correction_names_its_place():
    """A correction whose defect is known to too few digits to divide is
    reported with its degree and monomial."""
    coeffs = {(1,): PadicNum(5, 1, 1, 4), (2,): PadicNum(5, INF, 0, 1), (5,): PadicNum(5, 0, 1, 4)}
    f = PSeries(5, 6, coeffs, 4)
    msg = r"^degree-2 correction at \(0, 2\) unresolved: zero known to nonpositive precision"
    with pytest.raises(PrecisionExhausted, match=msg):
        lubin_tate_lift(f, 4)


def test_lift_from_an_exact_nonzero_is_refused():
    """The lift starts F from x + y at the series' precision, here INF:
    exact 1s, which the part-list kernels read as absent, so the Lubin-Tate
    series 3x + x^3 raised NonUniqueLift at (0, 3).  It refuses that up
    front, naming itself and coeff_prec; at coeff_prec 5 the same f lifts."""
    coeffs = {(1,): PadicNum(3, 1, 1, 5), (3,): PadicNum(3, 0, 1, 5)}
    with pytest.raises(ValueError, match=r"^lubin_tate_lift needs a finite coeff_prec"):
        lubin_tate_lift(PSeries(3, 8, coeffs, INF), 8)
    f = PSeries(3, 8, coeffs, 5)
    assert lubin_tate_lift(f, 8).equal_to_precision(group_from_log(logarithm_recurrence(f)))


def test_lift_multiplies_no_series(monkeypatch):
    """F(f(x), f(y)) reads the power table of f, grown to f^(D-2) at most:
    the lift forms no ``PSeries`` product (the powers of f were D - 3)."""
    D = 12
    f = one_plus_x_pow(3, 3, D, 20)
    calls = []
    mul = PSeries.__mul__
    monkeypatch.setattr(PSeries, "__mul__", lambda a, b: calls.append(a) or mul(a, b))
    GL = lubin_tate_lift(f, D)
    assert calls == []
    assert len(f.power_table().shift) <= D - 2
    assert GL.equal_to_precision(group_from_log(logarithm_recurrence(f)))


@st.composite
def exact_lift_inputs(draw):
    """Integer coefficients of f = p*u x + ... + (unit) x^p + ..., multiples
    of p elsewhere except, sometimes, one unit; a precision N and k > 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(4, 10))
    coeffs = [p * draw(st.integers(-(p**3), p**3)) for _ in range(1, M)]
    coeffs[0] = p * (p * draw(st.integers(-p, p)) + draw(st.integers(1, p - 1)))
    if p < M:
        coeffs[p - 1] = p * draw(st.integers(-p, p)) + draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        coeffs[draw(st.integers(1, M - 2))] += draw(st.integers(1, p - 1))
    return p, M, coeffs, draw(st.integers(3, 8)), draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(exact_lift_inputs())
def test_lift_claims_only_digits_a_more_precise_run_confirms(case):
    """Every digit the lift claims at precision N agrees with the lift of the
    same f at N + k: a certified failure stays a failure, and each
    coefficient agrees at the lesser of the two precisions (an exact zero
    claims every digit)."""
    p, M, coeffs, N, k = case

    def lift(n):
        try:
            return lubin_tate_lift(PSeries.from_univariate_coeffs(p, coeffs, M, n), M)
        except (NonUniqueLift, PrecisionExhausted) as ex:
            return ex

    lo, hi = lift(N), lift(N + k)
    if isinstance(lo, PrecisionExhausted):
        return
    if isinstance(lo, NonUniqueLift):
        assert isinstance(hi, NonUniqueLift)
        return
    assert isinstance(hi, FormalGroupLaw)
    for e in lo.coeffs.keys() | hi.coeffs.keys():
        assert coeff(lo, e).congruent(coeff(hi, e)), e
