"""Pipeline verdicts, twist covariance, determinism, report contents."""

import json
from fractions import Fraction

import pytest

from lubinlab import (
    CERTIFIED,
    Config,
    PadicNum,
    PSeries,
    REJECTED,
    analyze,
    analyze_fixture,
    batch_run,
    gm_pair,
    lt_pair,
    make_twist_fixture,
    series,
    summary_table,
)
from lubinlab.dynamics import default_n_max
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
    assert d["hypotheses"]["root_count"] == p
    assert d["logarithm"]["methods_agree"]
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
        p, 1, SMALL.M, {(2,): PadicNum.from_int(p ** (SMALL.N - 1), p, working(p))}, working(p)
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
    assert parsed["config"] == {"N": 8, "M": 16, "M2": 12, "guard": 20, "n_shape": 3}
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_shape": 0}, "n_shape must be at least 1, got 0"),
        ({"n_shape": -1}, "n_shape must be at least 1, got -1"),
    ],
)
def test_meaningless_sizes_refused(kwargs, message):
    """No iterate shape to check passed vacuously."""
    with pytest.raises(ValueError, match=message):
        Config(N=8, M=16, **kwargs)
    p = 2
    f, u = gm_pair(p, 16, working(p))
    assert analyze(f, u, Config(N=8, M=16, n_shape=1)).data["iterate_shape"] == [{"n": 1, "ok": True}]


def test_reported_degrees_are_the_degrees_checked():
    """F is only known below M, so M2 > M checks below M; the report said M2."""
    p = 2
    f, u = gm_pair(p, 16, working(p))
    data = analyze(f, u, Config(N=8, M=16, m2=20)).data
    assert data["verdict"] == CERTIFIED
    assert data["formal_group"]["associativity_degree"] == 16
    assert data["frobenius"]["lift_degree"] == 16


def test_series_truncated_below_M_refused():
    """A series known only below degree M' < M cannot show the logarithm
    polygon's vertices up to M; the multiplicative group was REJECTED."""
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


# -- the f-iterate chain shared by the limit and the shape checks --------------


def gm_w1(p, cfg):
    Nw = cfg.resolve(p).working_prec()
    base = gm_pair(p, cfg.M, Nw)
    return make_twist_fixture(base, series_from_fractions(p, [1, 1], cfg.M, Nw))


def analyze_counting_chain(monkeypatch, f, u, cfg):
    """analyze's report and the number of links of the f-iterate chain: the
    tabled sums over the power table of f, the series analyze works on
    (truncated and capped), whose packed input is the identity or an earlier
    link, as the limit and ``polygon.iterate`` (through ``compose``) both
    form them."""
    p = f.prime
    Nw = cfg.resolve(p).working_prec()
    inner = f.truncate(cfg.M).cap_coeff_prec(Nw).to_json()

    def body(c):  # slots 1 .. of a packed series, trailing absent slots cut
        n = max((k for k, x in enumerate(c[2]) if k and x != series._ABSENT), default=0)
        return tuple(tuple(x[1 : n + 1]) for x in c)

    links = [body(series._pack(PSeries.identity(p, cfg.M, Nw).coeffs, cfg.M))]  # the start
    tables = []
    power_table, tabled_sum = PSeries.power_table, series._PowerTable.sum

    def table_spy(self):
        table = power_table(self)
        if self.to_json() == inner and not any(table is t for t in tables):
            tables.append(table)
        return table

    def sum_spy(self, c, lo, D):
        out = tabled_sum(self, c, lo, D)
        if lo == 1 and any(self is t for t in tables) and body(c) in links:
            links.append(body(([series._ABSENT] + out[0], [0] + out[1], [series._ABSENT] + out[2])))
        return out

    monkeypatch.setattr(PSeries, "power_table", table_spy)
    monkeypatch.setattr(series._PowerTable, "sum", sum_spy)
    report = analyze(f, u, cfg, name="gm_w1")
    monkeypatch.setattr(PSeries, "power_table", power_table)
    monkeypatch.setattr(series._PowerTable, "sum", tabled_sum)
    return report, len(links) - 1


def test_limit_and_shapes_share_one_chain(monkeypatch):
    cfg = Config()
    f, u = gm_w1(2, cfg)
    report, links = analyze_counting_chain(monkeypatch, f, u, cfg)
    assert report.verdict == CERTIFIED
    iterations = len(report.data["logarithm"]["limit_evidence"])
    shapes = report.data["iterate_shape"]
    assert [s["n"] for s in shapes] == [1, 2, 3] and all(s["ok"] for s in shapes)
    assert links == iterations


def test_limit_runs_its_full_count():
    """The limit stopped after 8 of its 10 iterates, where one increment was
    zero to its precision, and returned that iterate uncapped."""
    cfg = Config(N=9, M=30)
    report = analyze(*lt_pair(5, cfg.M, working(5, cfg)), cfg)
    assert report.verdict == CERTIFIED, report.reason
    evidence = report.data["logarithm"]["limit_evidence"]
    assert [n for n, _ in evidence] == list(range(1, default_n_max(5, cfg.M) + 1))
    assert len(evidence) == 10
