"""Acceptance battery: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact p-adic congruences at the declared
precision of each value; runtime bounds are asserted with monotonic clocks.
"""

import random
import time
from fractions import Fraction

import pytest

from lubinlab import (
    CERTIFIED,
    Config,
    PadicNum,
    PSeries,
    REJECTED,
    analyze,
    bracket,
    dlog_integrality,
    exp_from_log,
    frobenius_multiplier,
    gm_pair,
    group_from_log,
    is_eisenstein,
    iterate,
    logarithm_limit,
    logarithm_recurrence,
    lt_pair,
    make_twist_fixture,
    newton_polygon,
    ramification_index,
    verify_iterate_shape,
    weierstrass_factor,
)
from conftest import one_plus_x_pow, series_from_fractions

PRIMES = (2, 3, 5)
CFG = Config()  # N=16, M=64, M2=12


def working(p):
    return CFG.resolve(p).working_prec()


def twist_series(p, which, M, N):
    if which == "w1":  # x + x^2
        return series_from_fractions(p, [1, 1], M, N)
    return series_from_fractions(p, [1, p, 1], M, N)  # x + p x^2 + x^3


def f_family(p):
    """The criterion-1 family: both bases and their coordinate twists."""
    Nw = working(p)
    out = []
    fg, ug = gm_pair(p, CFG.M, Nw)
    fl, ul = lt_pair(p, CFG.M, Nw)
    out.append(("gm", fg))
    out.append(("lt", fl))
    for wname in ("w1", "w2"):
        w = twist_series(p, wname, CFG.M, Nw)
        ftw, _ = make_twist_fixture((fg, ug), w)
        out.append((f"gm_{wname}", ftw))
        ftl, _ = make_twist_fixture((fl, ul), w)
        out.append((f"lt_{wname}", ftl))
    return out


_pair_battery_cache = {}


def pair_battery(p):
    """Fixture pairs for criteria 2 and 4: bases plus twisted pairs."""
    if p in _pair_battery_cache:
        return _pair_battery_cache[p]
    Nw = working(p)
    base_gm = gm_pair(p, CFG.M, Nw)
    base_lt = lt_pair(p, CFG.M, Nw)
    w1 = twist_series(p, "w1", CFG.M, Nw)
    w2 = twist_series(p, "w2", CFG.M, Nw)
    battery = [
        (f"gm_p{p}", base_gm),
        (f"lt_p{p}", base_lt),
        (f"gm_w1_p{p}", make_twist_fixture(base_gm, w1)),
        (f"gm_w2_p{p}", make_twist_fixture(base_gm, w2)),
        (f"lt_w1_p{p}", make_twist_fixture(base_lt, w1)),
    ]
    _pair_battery_cache[p] = battery
    return battery


def test_criterion_1_iterate_polygons_and_eisenstein_factors():
    for p in PRIMES:
        for name, f in f_family(p):
            t0 = time.monotonic()
            n = 1
            while n <= 3 and p**n < CFG.M:
                assert verify_iterate_shape(f, n), (p, name, n)
                fn = iterate(f, n)
                poly = newton_polygon(fn)
                segs = poly.negative_segments()
                assert len(segs) == n, (p, name, n)
                for seg in segs:
                    fac, cof = weierstrass_factor(fn, seg.slope, target_prec=CFG.N)
                    assert is_eisenstein(fac), (p, name, n, seg.slope)
                    assert (fac * cof).equal_to_precision(fn), (p, name, n, seg.slope)
                n += 1
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, (p, name, elapsed)
    print("\nACCEPTANCE 1 (iterate polygon shape + Eisenstein factors): PASS")


def test_criterion_2_logarithm_cross_oracle():
    for p in PRIMES:
        for name, (f, u) in pair_battery(p):
            rec = logarithm_recurrence(f)
            lim = logarithm_limit(f)
            assert rec.equal_to_precision(lim.series), name
            poly = newton_polygon(rec)
            expected = []
            q, k = 1, 0
            while q < CFG.M:
                expected.append((q, -k))
                q *= p
                k += 1
            assert poly.negative_vertices() == expected, name
            assert dlog_integrality(rec), name
    print("\nACCEPTANCE 2 (logarithm cross-oracle, polygon, integral dlog): PASS")


def test_criterion_3_multiplicative_group_closed_forms():
    p = 3
    Nw = working(p)
    f, _u = gm_pair(p, CFG.M, Nw)
    t0 = time.monotonic()
    logf = logarithm_recurrence(f)
    for n in range(1, CFG.M):
        assert logf.c((n,)).congruent(Fraction((-1) ** (n + 1), n)), n
    exp_series = exp_from_log(logf)
    G = group_from_log(logf)
    for e in ((1, 0), (0, 1), (1, 1)):
        assert G.coeffs[e].congruent(1)
    for e, c in G.coeffs.items():
        if e not in ((1, 0), (0, 1), (1, 1)):
            assert c.is_zero_like(), e
    minus_one = bracket(logf, PadicNum.from_int(-1, p, Nw), exp_series)
    for n in range(1, CFG.M):
        assert minus_one.c((n,)).congruent((-1) ** n), n
    pi, _bk = frobenius_multiplier(logf, f, exp_series)
    assert pi.v == 1 and pi.u == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, elapsed
    print("\nACCEPTANCE 3 (multiplicative-group closed forms): PASS")


def test_criterion_4_integral_group_certification():
    for p in PRIMES:
        for name, (f, u) in pair_battery(p):
            t0 = time.monotonic()
            rep = analyze(f, u, CFG, name=name)
            elapsed = time.monotonic() - t0
            assert rep.verdict == CERTIFIED, (name, rep.reason)
            d = rep.data
            fg = d["formal_group"]
            assert fg["min_coeff_valuation"] >= 0, name
            assert fg["identity"] and fg["commutative"] and fg["associative"], name
            assert fg["associativity_degree"] == CFG.m2
            assert fg["endo_f"] and fg["endo_u"], name
            fr = d["frobenius"]
            assert fr["congruent_xp_mod_p"] and fr["pi_over_p_is_unit"], name
            assert fr["pi_residue"] == str(p), name
            assert fr["lift_agrees"], name
            assert elapsed < 30.0, (name, elapsed)
    print("\nACCEPTANCE 4 (integral formal group certified on every fixture): PASS")


def test_criterion_5_negative_controls():
    p = 3
    Nw = working(p)
    # additive pair: fails the root-count hypothesis
    f_add = series_from_fractions(p, [p], CFG.M, Nw)
    u_add = series_from_fractions(p, [1 + p], CFG.M, Nw)
    rep = analyze(f_add, u_add, CFG, name="additive")
    assert rep.verdict == REJECTED
    assert "root-count" in rep.reason
    # torsion u
    f, u = gm_pair(p, CFG.M, Nw)
    u_tors = one_plus_x_pow(p, -1, CFG.M, Nw)
    rep = analyze(f, u_tors, CFG, name="torsion")
    assert rep.verdict == REJECTED
    assert "torsion" in rep.reason or "infinite-order" in rep.reason
    # perturbed commutation at degree 2
    pert = PSeries(p, CFG.M, {(2,): PadicNum.from_int(p ** (CFG.N - 1), p, Nw)}, Nw)
    rep = analyze(f, u + pert, CFG, name="perturbed")
    assert rep.verdict == REJECTED
    assert rep.data["hypotheses"]["commute"]["first_defect_degree"] >= 2
    assert rep.data["hypotheses"]["commute"]["first_defect_degree"] == 2
    print("\nACCEPTANCE 5 (negative controls rejected for the right reasons): PASS")


def test_criterion_6_ramification_index_estimates():
    # p = 3: both estimates equal p - 1 = 2 exactly
    om3 = one_plus_x_pow(3, 4, CFG.M, working(3)).reduce_mod_p()
    est3, stab3 = ramification_index(om3, 1)
    assert est3 == [Fraction(2), Fraction(2)] and stab3
    # p = 2, n = 0: estimate equals p - 1 = 1 exactly
    om2 = one_plus_x_pow(2, 3, CFG.M, working(2)).reduce_mod_p()
    est2, _ = ramification_index(om2, 1)
    assert est2[0] == Fraction(1)
    print(
        "\nACCEPTANCE 6 (ramification estimates; p=3 n<=1 and p=2 n=0): PASS"
        " -- p=2 n=1 tracked separately (known issue)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="at p=2 the n=1 estimate is exactly 2, not p-1=1: for any 1-unit "
    "derivative g the valuation of 1 - g^2 is at least 3, so i(1) = "
    "v_x(omega^(2) - x) = 2^(v_2(1-g^2)) >= 8 and the estimate is >= 2; "
    "the stated target p-1 is unattainable for p=2, n=1",
)
def test_criterion_6_ramification_p2_n1_as_stated():
    om2 = one_plus_x_pow(2, 3, CFG.M, working(2)).reduce_mod_p()
    est2, _ = ramification_index(om2, 1)
    assert est2[1] == Fraction(1)


def test_criterion_7_determinism_and_monotone_precision():
    rnd = random.Random(20260810)
    p = 2
    f0, u0 = gm_pair(p, 48, 120)
    seen = {}
    configs = set()
    while len(configs) < 20:
        N = rnd.choice((6, 8, 10, 12, 14))
        M = rnd.choice((8, 12, 16, 24, 32))
        configs.add((N, M))
    for N, M in sorted(configs):
        cfg = Config(N=N, M=M)
        r1 = analyze(f0, u0, cfg, name="sweep")
        r2 = analyze(f0, u0, cfg, name="sweep")
        assert r1.to_json() == r2.to_json(), (N, M)
        seen[(N, M)] = r1.verdict
    for (n1, m1), v1 in seen.items():
        for (n2, m2), v2 in seen.items():
            if n2 >= n1 and m2 >= m1 and v1 == CERTIFIED:
                assert v2 != REJECTED, ((n1, m1), (n2, m2))
    assert sum(1 for v in seen.values() if v == CERTIFIED) >= 1
    print(
        f"\nACCEPTANCE 7 (determinism + monotone precision over {len(seen)} configs): PASS"
    )
