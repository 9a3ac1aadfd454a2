"""Pipeline verdicts, twist covariance, determinism, report contents."""

import collections
import json
import random
from fractions import Fraction

import pytest

from lubinlab import (
    CERTIFIED,
    INF,
    Config,
    IntegralityFailure,
    NotInvertible,
    PadicNum,
    PrecisionExhausted,
    PSeries,
    REJECTED,
    analyze,
    analyze_fixture,
    analyzer,
    batch_run,
    count_roots_open_disk,
    dynamics,
    gm_pair,
    logarithm_recurrence,
    lt_pair,
    make_twist_fixture,
    newton_polygon,
    polygon,
    summary_table,
    verify_iterate_shape,
)
from lubinlab.series import raise_if_not_integral
from conftest import one_plus_x_pow, series_from_fractions

SMALL = Config(N=10, M=25)


def working(p, cfg=SMALL):
    return cfg.resolve(p).working_prec()


def test_gm_pair_certifies():
    p = 3
    f, u = gm_pair(p, SMALL.M, working(p))
    rep = analyze(f, u, SMALL, name="gm_p3")
    assert rep.verdict == CERTIFIED
    d = rep.data
    assert d["frobenius"]["pi_residue"] == "3"
    assert d["formal_group"]["min_coeff_valuation"] == 0
    assert d["hypotheses"]["weierstrass_degree"] == p
    assert d["frobenius"]["lift_agrees"]


def test_lt_pair_certifies():
    p = 3
    f, u = lt_pair(p, SMALL.M, working(p))
    rep = analyze(f, u, SMALL, name="lt_p3")
    assert rep.verdict == CERTIFIED
    assert rep.data["frobenius"]["pi_residue"] == "3"


def test_additive_pair_rejected():
    p = 3
    f = series_from_fractions(p, [p], SMALL.M, working(p))
    u = series_from_fractions(p, [1 + p], SMALL.M, working(p))
    rep = analyze(f, u, SMALL, name="additive")
    assert rep.verdict == REJECTED
    assert "root-count" in rep.reason


@pytest.mark.parametrize("p", [2, 3])
def test_non_integral_twist_rejected_as_non_integral(p):
    """A gm pair twisted by w = x + x^2/p has non-integral coefficients; it
    was rejected on its Weierstrass degree, read from a reduction mod p
    that dropped them."""
    cfg = Config(N=8, M=16)
    w = series_from_fractions(p, [1, Fraction(1, p)], cfg.M, working(p, cfg))
    rep = analyze(*make_twist_fixture("gm", w), cfg, name="nonintegral")
    assert rep.verdict == REJECTED
    assert rep.reason.startswith("f and u must have integral coefficients: f: coefficient at ("), rep.reason


def test_torsion_pair_rejected_with_caveat():
    p = 3
    f, _ = gm_pair(p, SMALL.M, working(p))
    u = one_plus_x_pow(p, -1, SMALL.M, working(p))
    rep = analyze(f, u, SMALL, name="torsion")
    assert rep.verdict == REJECTED
    assert "torsion" in rep.reason
    assert rep.data["hypotheses"]["torsion"]["identity_to_precision"]


def test_perturbed_pair_rejected_at_degree_two():
    p = 3
    f, u = gm_pair(p, SMALL.M, working(p))
    pert = PSeries(
        p, SMALL.M, {(2,): PadicNum.from_int(p ** (SMALL.N - 1), p, working(p))}, working(p)
    )
    rep = analyze(f, u + pert, SMALL, name="perturbed")
    assert rep.verdict == REJECTED
    assert rep.data["hypotheses"]["commute"]["first_defect_degree"] == 2


def test_twist_covariance_pi_unchanged():
    p = 3
    Nw = working(p)
    base = analyze(*gm_pair(p, SMALL.M, Nw), SMALL, name="base")
    for wc in ([1, 1], [1, p, 1]):
        w = series_from_fractions(p, wc, SMALL.M, Nw)
        f, u = make_twist_fixture("gm", w)
        rep = analyze(f, u, SMALL, name="tw")
        assert rep.verdict == CERTIFIED
        assert rep.data["frobenius"]["pi_residue"] == base.data["frobenius"]["pi_residue"]


def test_identity_twist_is_base():
    p = 3
    Nw = working(p)
    w = PSeries.identity(p, SMALL.M, Nw)
    f, u = make_twist_fixture("gm", w)
    f0, u0 = gm_pair(p, SMALL.M, Nw)
    assert f.equal_to_precision(f0) and u.equal_to_precision(u0)


def test_determinism_byte_identical():
    p = 2
    cfg = Config(N=8, M=16)
    f, u = gm_pair(p, cfg.M, cfg.resolve(p).working_prec())
    r1 = analyze(f, u, cfg, name="det")
    r2 = analyze(f, u, cfg, name="det")
    assert r1.to_json() == r2.to_json()


def test_report_json_parses_and_has_config():
    p = 2
    cfg = Config(N=8, M=16)
    f, u = gm_pair(p, cfg.M, cfg.resolve(p).working_prec())
    rep = analyze(f, u, cfg)
    parsed = json.loads(rep.to_json())
    assert parsed["config"] == {"N": 8, "M": 16, "M2": 12, "guard": 20}
    assert parsed["verdict"] == CERTIFIED


def test_batch_run_and_summary():
    fixtures = [
        {"name": "gm_p2", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"},
        {"name": "bad_pair", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "1,1@1"},
        {"name": "broken", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": {"bogus": 1}},
    ]
    reports = batch_run(fixtures)
    names = [r.data["name"] for r in reports]
    assert names == sorted(names)
    verdicts = {r.data["name"]: r.verdict for r in reports}
    assert verdicts["gm_p2"] == CERTIFIED
    assert verdicts["bad_pair"] == REJECTED
    assert verdicts["broken"] == "INCONCLUSIVE"
    table = summary_table(reports)
    assert "gm_p2" in table and "CERTIFIED" in table
    assert len(table.splitlines()) == 2 + len(reports)


def test_batch_empty():
    assert batch_run([]) == []


def test_fixture_roundtrip_series_json():
    p = 3
    Nw = working(p)
    f, u = gm_pair(p, SMALL.M, Nw)
    entry = {
        "name": "json_fixture",
        "p": p,
        "N": SMALL.N,
        "M": SMALL.M,
        "f": f.to_json(),
        "u": u.to_json(),
    }
    rep = analyze_fixture(entry, SMALL)
    assert rep.verdict == CERTIFIED


def test_monotone_precision_small_grid():
    p = 2
    f0, u0 = gm_pair(p, 40, 80)
    verdicts = {}
    for N in (6, 10):
        for M in (8, 16, 32):
            cfg = Config(N=N, M=M)
            rep = analyze(f0, u0, cfg)
            verdicts[(N, M)] = rep.verdict
    for (n1, m1), v1 in verdicts.items():
        for (n2, m2), v2 in verdicts.items():
            if n2 >= n1 and m2 >= m1 and v1 == CERTIFIED:
                assert v2 != REJECTED


@pytest.mark.parametrize("base", ["gm", "lt"])
@pytest.mark.parametrize("M,N", [(12, 12), (16, 8)])
def test_p2_twist_lift_keeps_zero_like_corrections(base, M, N):
    """The twist w = x + 2x^2 at p = 2 is valid.  A zero-like degree-d
    defect in the lift must become a zero-like correction, not an exact
    zero, or the lift over-claims precision and disagrees with G."""
    cfg = Config(N=N, M=M)
    w = series_from_fractions(2, [1, 2], M, cfg.resolve(2).working_prec())
    f, u = make_twist_fixture(base, w)
    rep = analyze(f, u, cfg, name="tw")
    assert rep.verdict == CERTIFIED, rep.reason
    assert rep.data["frobenius"]["lift_agrees"]


@pytest.mark.parametrize("m2", [0, 1, 2])
def test_vacuous_m2_refused(m2):
    """Below degree 3 the associativity and lift certificates check nothing."""
    p = 2
    f, u = gm_pair(p, 16, working(p))
    with pytest.raises(ValueError, match="M2 must be at least 3"):
        analyze(f, u, Config(N=8, M=16, m2=m2))
    assert analyze(f, u, Config(N=8, M=16, m2=3)).verdict == CERTIFIED


def test_reported_degrees_are_the_degrees_checked():
    """F is only known below M, so M2 > M checks below M; the report said M2."""
    p = 2
    f, u = gm_pair(p, 16, working(p))
    data = analyze(f, u, Config(N=8, M=16, m2=20)).data
    assert data["verdict"] == CERTIFIED
    assert data["formal_group"]["associativity_degree"] == 16
    assert data["frobenius"]["lift_degree"] == 16


def test_series_truncated_below_M_refused():
    """A series known only below degree M' < M is refused: the law, its
    certificates and the lift would be known only below M', while the
    report says M (``formal_group.truncation``).  The multiplicative group
    cut at 64 was REJECTED at M = 128."""
    f, u = gm_pair(5, 64, 40)
    with pytest.raises(ValueError, match=r"^series f is truncated at degree 64, below M=128$"):
        analyze(f, u, Config(M=128))
    p = 2
    f, u = gm_pair(p, 16, working(p))
    with pytest.raises(ValueError, match=r"^series u is truncated at degree 12, below M=16$"):
        analyze(f, u.truncate(12), Config(N=8, M=16))
    entry = {"name": "short", "p": p, "N": 8, "M": 16, "f": f.to_json(), "u": u.truncate(12).to_json()}
    (rep,) = batch_run([entry])
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.reason == "fixture error: series u is truncated at degree 12, below M=16"


# -- one logarithm construction ---------------------------------------------


def test_analyze_never_runs_the_limit(monkeypatch):
    """Stage 4 builds the logarithm by its recurrence alone.  No stage
    forms a Newton polygon: the root count, the iterate shapes and the
    logarithm polygon follow from stage 2 (see ``analyze``)."""
    p, cfg = 2, Config()
    Nw = working(p, cfg)
    f, u = make_twist_fixture(gm_pair(p, cfg.M, Nw), series_from_fractions(p, [1, 1], cfg.M, Nw))

    def boom(name):
        def raise_(*args, **kwargs):
            raise AssertionError(f"analyze called {name}")

        return raise_

    for home, name in [
        (dynamics, "logarithm_limit"),
        (polygon, "count_roots_open_disk"),
        (polygon, "verify_iterate_shape"),
        (polygon, "newton_polygon"),
    ]:
        for owner in (home, analyzer):
            monkeypatch.setattr(owner, name, boom(name), raising=False)
    report = analyze(f, u, cfg, name="gm_w1")
    assert report.verdict == CERTIFIED, report.reason


def draw_f(rnd):
    """p, M from max(9, p^2) to 40 and f near a Frobenius lift, p x + ... +
    x^p + ..., at N from 4 to 20: the linear coefficient mostly of valuation
    1, those of degree 2 .. p - 1 mostly divisible by p, x^p's mostly a
    unit.  About 40% of the coefficients have their own precision below N,
    a few are zero-like or absent, and a few have one more digit of
    valuation or valuation -1, so that some f fail stage 2."""
    p = rnd.choice((2, 3, 5))
    M, N = rnd.randint(max(9, p * p), 40), rnd.randint(4, 20)
    coeffs = {}
    for d in range(1, M):
        kind, n = rnd.randrange(40), rnd.randint(1, N) if rnd.random() < 0.4 else N
        if kind < 4:
            continue
        if kind < 8:
            coeffs[(d,)] = PadicNum(p, INF, 0, n)
            continue
        v = 1 if d < p else 0 if d == p else rnd.randint(0, 2)
        v = -1 if kind == 8 else v + 1 if kind == 9 else v
        n = max(n, v + 1)
        unit = rnd.randrange(1, p ** (n - v))
        coeffs[(d,)] = PadicNum(p, v, unit if unit % p else unit + 1, n)
    return PSeries(p, M, coeffs, N)


def passes_stage_2(f):
    """The hypotheses ``analyze`` certifies on f in stage 2: f integral,
    v(f'(0)) = 1 and Weierstrass degree p modulo p."""
    try:
        raise_if_not_integral(f, "f")
        return f.linear_coeff().v == 1 and f.reduce_mod_p().weierstrass_degree() == f.prime
    except (IntegralityFailure, PrecisionExhausted):
        return False


def test_stage_2_implies_the_roots_the_iterates_and_the_log_polygon():
    """The three checks ``analyze`` no longer runs hold on every random f
    that passes stage 2: p roots in the open disk, the vertices (p^k, n - k)
    of f^n for each n <= 3 with p^n < M, and the vertices (p^k, -k) of the
    logarithm wherever its recurrence has the digits to return."""
    rnd, seen = random.Random(20261021), collections.Counter()
    for _ in range(2000):
        f = draw_f(rnd)
        if not passes_stage_2(f):
            continue
        p, M = f.prime, f.x_prec
        seen["f"] += 1
        assert count_roots_open_disk(f) == p, f
        for n in range(1, 4):
            if p**n < M:
                seen["shape"] += 1
                assert verify_iterate_shape(f, n), (f, n)
        try:
            L = logarithm_recurrence(f)
        except (PrecisionExhausted, NotInvertible):
            continue
        seen["log"] += 1
        assert newton_polygon(L).negative_vertices() == dynamics.log_polygon_vertices(p, M), f
    assert seen["f"] >= 500 and seen["shape"] >= 1000 and seen["log"] >= 200, seen


# the cases where the iterate limit over-claimed one coefficient of a valid
# pair's logarithm, against a truth 300 digits deeper, while the recurrence
# was right at every digit: (p, base, w, M, N)
LIMIT_OVERCLAIMS = [
    (2, "lt", [3, 1], 16, 12),
    (2, "lt", [1, 3], 48, 14),
    (2, "gm", [1, 3], 36, 18),
    (3, "lt", [25, 6, 6], 72, 15),
]


@pytest.mark.parametrize("p, base, w, M, N", LIMIT_OVERCLAIMS)
def test_pairs_the_limit_over_claims_on_certify(p, base, w, M, N):
    """These valid twists were INCONCLUSIVE, "constructions disagree at
    certified digits", while analyze compared the recurrence with the
    iterate limit."""
    cfg = Config(N=N, M=M)
    w = series_from_fractions(p, w, M, working(p, cfg))
    report = analyze(*make_twist_fixture(base, w), cfg, name="twist")
    assert report.verdict == CERTIFIED, report.reason
