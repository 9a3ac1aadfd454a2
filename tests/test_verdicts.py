"""How `analyze` turns a stage's exception into a verdict.

Each case makes one layer function, as `lubinlab.analyzer` calls it, raise
on an otherwise certified pair, and pins the verdict, the reason and the
report sections written before the failing stage.  A hypothesis that fails
at certified digits is REJECTED, a precision failure is INCONCLUSIVE, and
any other error escapes.
"""

import json
import re

import pytest

from lubinlab import (
    CERTIFIED,
    INCONCLUSIVE,
    INF,
    REJECTED,
    Config,
    PadicNum,
    PSeries,
    analyze,
    analyzer,
    batch_run,
    gm_pair,
    lt_pair,
    make_twist_fixture,
)
from lubinlab.cli import main
from lubinlab.errors import (
    AmbiguousAtPrecision,
    ConstantTermError,
    DivisionByZeroToPrecision,
    DomainError,
    IntegralityFailure,
    NoCandidate,
    NonUniqueLift,
    NotInvertible,
    PrecisionExhausted,
    PrimeMismatch,
    TorsionDetected,
    TruncationInconclusive,
)
from conftest import one_plus_x_pow

CFG = Config(N=8, M=16)
NW = CFG.resolve(2).working_prec()
RETRY = "retry with N>=16 or M>=32 with f and u known below degree 32"
BASE = ["config", "name", "prime", "reason", "verdict"]
# the report sections in the order the stages write them
SECTIONS = ["hypotheses", "normalization", "logarithm", "formal_group", "frobenius"]


def pair():
    return gm_pair(2, CFG.M, NW)


def sections_through(last):
    return sorted(BASE + SECTIONS[: SECTIONS.index(last) + 1])


def raising(monkeypatch, owner, attr, ex):
    def boom(*args, **kwargs):
        raise ex

    monkeypatch.setattr(owner, attr, boom)


def starved(stage):
    return INCONCLUSIVE, f"stage {stage} starved: boom; {RETRY}"


# (patched owner, attribute, exception, verdict and reason, last section written)
CASES = [
    (PSeries, "reduce_mod_p", PrecisionExhausted("boom"), starved("weierstrass_degree"), "hypotheses"),
    (analyzer, "logarithm_recurrence", PrecisionExhausted("boom"), starved("logarithm"), "normalization"),
    (
        analyzer,
        "exp_from_log",
        IntegralityFailure("boom"),
        (REJECTED, "formal group is not integral: boom"),
        "logarithm",
    ),
    (
        analyzer,
        "group_from_log",
        IntegralityFailure("boom"),
        (REJECTED, "formal group is not integral: boom"),
        "logarithm",
    ),
    (
        analyzer,
        "group_from_log",
        IntegralityFailure("boom", certified=False),
        starved("group_integrality"),
        "logarithm",
    ),
    (analyzer, "exp_from_log", PrecisionExhausted("boom"), starved("group_from_log"), "logarithm"),
    (analyzer, "group_from_log", NotInvertible("boom"), starved("group_from_log"), "logarithm"),
    (
        analyzer,
        "frobenius_multiplier",
        NoCandidate("boom"),
        (REJECTED, "no Frobenius multiplier: boom"),
        "formal_group",
    ),
    (
        analyzer,
        "frobenius_multiplier",
        AmbiguousAtPrecision("boom"),
        starved("frobenius_multiplier"),
        "formal_group",
    ),
    (
        analyzer,
        "frobenius_multiplier",
        PrecisionExhausted("boom"),
        starved("frobenius_multiplier"),
        "formal_group",
    ),
    (
        analyzer,
        "frobenius_multiplier",
        IntegralityFailure("boom"),
        (REJECTED, "Frobenius bracket not integral: boom"),
        "formal_group",
    ),
    (
        analyzer,
        "frobenius_multiplier",
        IntegralityFailure("boom", certified=False),
        starved("frobenius_multiplier"),
        "formal_group",
    ),
    (
        analyzer,
        "lubin_tate_lift",
        NonUniqueLift("boom"),
        (REJECTED, "lift of the Frobenius bracket failed: boom"),
        "frobenius",
    ),
    (
        analyzer,
        "lubin_tate_lift",
        IntegralityFailure("boom", certified=False),
        starved("lubin_tate_lift"),
        "frobenius",
    ),
    (analyzer, "lubin_tate_lift", PrecisionExhausted("boom"), starved("lubin_tate_lift"), "frobenius"),
]


def case_id(case):
    owner, attr, ex, *_ = case
    certified = "" if getattr(ex, "certified", True) else "-uncertified"
    return f"{attr}-{type(ex).__name__}{certified}"


@pytest.mark.parametrize("owner, attr, ex, want, last", CASES, ids=[case_id(c) for c in CASES])
def test_stage_exception_verdict(monkeypatch, owner, attr, ex, want, last):
    raising(monkeypatch, owner, attr, ex)
    report = analyze(*pair(), CFG, name="pinned")
    assert (report.verdict, report.reason) == want
    assert sorted(report.data) == sections_through(last)


def test_torsion_detected_is_rejected_and_recorded(monkeypatch):
    raising(monkeypatch, analyzer, "normalize_u", TorsionDetected("boom", identity_to_precision=False))
    report = analyze(*pair(), CFG, name="pinned")
    assert report.verdict == REJECTED
    assert report.reason == (
        "u fails the infinite-order hypothesis: boom "
        "(caveat: torsion is only certified to the working precision)"
    )
    assert report.data["hypotheses"]["torsion"] == {
        "detected_to_precision": True,
        "identity_to_precision": False,
    }
    assert sorted(report.data) == sections_through("hypotheses")


def test_torsion_control_rejected():
    """u = (1+x)^-1 - 1 has u'(0) = -1, of order 2."""
    f, _ = pair()
    u = one_plus_x_pow(2, -1, CFG.M, NW)
    report = analyze(f, u, CFG, name="torsion")
    assert report.verdict == REJECTED
    assert report.reason == (
        "u fails the infinite-order hypothesis: u'(0) is a root of unity of order 2 "
        "to precision O(2^28) (caveat: torsion is only certified to the working precision)"
    )
    assert report.data["hypotheses"]["torsion"] == {
        "detected_to_precision": True,
        "identity_to_precision": True,
    }
    assert sorted(report.data) == sections_through("hypotheses")


@pytest.mark.parametrize(
    "owner, attr, ex",
    [
        (analyzer, "logarithm_recurrence", DomainError("boom")),
        (analyzer, "group_from_log", DivisionByZeroToPrecision("boom")),
        (analyzer, "frobenius_multiplier", ConstantTermError("boom")),
        (analyzer, "lubin_tate_lift", PrimeMismatch("boom")),
        # the lift returns no law that is not integral, so no verdict row
        # reads an IntegralityFailure of its stage
        (analyzer, "lubin_tate_lift", IntegralityFailure("boom")),
        # no stage of analyze calls what raises it: the polygon layer and
        # the ramification estimate
        (analyzer, "dlog_integrality", TruncationInconclusive("boom")),
    ],
    ids=lambda x: getattr(x, "__name__", type(x).__name__),
)
def test_other_errors_escape(monkeypatch, owner, attr, ex):
    raising(monkeypatch, owner, attr, ex)
    with pytest.raises(type(ex), match="^boom$"):
        analyze(*pair(), CFG)


def test_series_with_constant_term_refused(tmp_path, capsys):
    """The refusal names the series; the composition inside the commutation
    check raised "substituted series has a constant term"."""
    f, u = pair()
    shifted = PSeries.from_univariate_coeffs(2, [1, 3, 3, 1], CFG.M, NW, shift=0)
    with pytest.raises(ValueError, match="^series u has a constant term$"):
        analyze(f, shifted, CFG)
    with pytest.raises(ValueError, match="^series f has a constant term$"):
        analyze(shifted, u, CFG)

    argv = ["analyze", "--p", "3", "--N", "10", "--M", "25", "--f", "3,3,1@1", "--u", "1,4,6,4,1@0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: series u has a constant term\n"

    entry = {"name": "constant", "p": 3, "N": 10, "M": 25, "f": "3,3,1@1", "u": "1,4,6,4,1@0"}
    (report,) = batch_run([entry])
    assert (report.verdict, report.reason) == (INCONCLUSIVE, "fixture error: series u has a constant term")


def test_unpatched_pair_certifies():
    assert analyze(*pair(), CFG).verdict == CERTIFIED


# -- precision failures outside the old per-stage handlers ---------------------


def test_precision_failure_in_a_stage_without_its_own_handler_is_reported(monkeypatch):
    """check_commute, normalize_u and bracket raised PrecisionExhausted
    straight out of analyze."""
    for attr, stage, last in [
        ("check_commute", "commute", None),
        ("normalize_u", "normalization", "hypotheses"),
        ("bracket", "endomorphisms", "formal_group"),
    ]:
        with monkeypatch.context() as m:
            raising(m, analyzer, attr, PrecisionExhausted("boom"))
            report = analyze(*pair(), CFG)
        assert (report.verdict, report.reason) == starved(stage)
        assert sorted(report.data) == (sections_through(last) if last else BASE)


STARVED_DLOG = (
    "stage logarithm starved: zero known to nonpositive precision carries no digits; "
    "the inputs are the limit: they carry 3 digits, the working precision is 16; rebuild f and u with 16 digits"
)


def starved_dlog_entry():
    """A three-digit pair whose logarithm stage has no digits to claim.
    The derivative of the logarithm cannot starve any more, since c_k * k
    takes k exact (c_k known to one digit, times 2 at p = 2, keeps its
    digit), and the earlier case f = 2x + 5x^2 + 6x^3 at M = 4 now starves
    at group_from_log.  Here f = 2x + 3x^2 starves in the recurrence: a
    numerator zero to precision 1 divided by f'(0)^n - f'(0), of valuation
    1, keeps no digit."""
    f = PSeries.from_univariate_coeffs(2, [2, 3, 0], 8, 3)
    u = PSeries.from_univariate_coeffs(2, [3, 1, 1], 8, 3)
    return {"name": "starved_dlog", "p": 2, "N": 4, "M": 8, "f": f.to_json(), "u": u.to_json()}


def test_starved_logarithm_derivative_is_inconclusive(tmp_path, capsys):
    entry = starved_dlog_entry()
    f, u = PSeries.from_json(entry["f"]), PSeries.from_json(entry["u"])
    report = analyze(f, u, Config(N=entry["N"], M=entry["M"]))
    assert (report.verdict, report.reason) == (INCONCLUSIVE, STARVED_DLOG)
    assert sorted(report.data) == sections_through("normalization")

    path = tmp_path / "starved.json"
    path.write_text(json.dumps([entry]))
    assert main(["analyze", "--fixture", str(path)]) == 2
    cli_report = json.loads(capsys.readouterr().out)
    assert cli_report["verdict"] == INCONCLUSIVE and cli_report["reason"] == STARVED_DLOG

    assert main(["batch", "--fixture", str(path), "--format", "json"]) == 2
    (batch_report,) = json.loads(capsys.readouterr().out)
    assert batch_report == cli_report
    (run,) = batch_run([entry])
    assert run.data == cli_report



# -- suggestions that can be followed -------------------------------------------


def test_inputs_short_of_the_working_precision_are_named_as_the_limit():
    """The gm twist by w = x + 2x^2 + x^3 + 3x^4 at p = 2, built with 40
    digits, asked for "N>=24 or M>=128": N = 24 starved the same way and
    asked for N>=32, and M = 128 is refused, as the inputs stop at degree
    64.  Rebuilt with the 84 digits of the working precision, it certifies."""

    def twist(N):
        return make_twist_fixture("gm", PSeries.from_univariate_coeffs(2, [1, 2, 1, 3], 64, N))

    report = analyze(*twist(40))
    assert (report.verdict, report.reason) == (
        INCONCLUSIVE,
        "stage group_from_log starved: zero known to nonpositive precision carries no digits; "
        "the inputs are the limit: they carry 40 digits, the working precision is 84; rebuild f and u with 84 digits",
    )
    assert analyze(*twist(84)).verdict == CERTIFIED


@pytest.mark.parametrize(
    "p, base, w, M, N, digits",
    [
        (2, "gm", [1, 2, 1, 3], 64, 16, 40),  # the case above
        (2, "gm", [1, 2, 1, 3], 16, 8, 18),
        (2, "lt", [1, 1, 1], 32, 8, 8),
        (3, "lt", [2, 1, 1], 27, 8, 8),
        (3, "gm", [1, 3, 2], 18, 6, 12),
        (5, "gm", [3, 1], 25, 6, 6),
        (5, "lt", [2, 1, 4], 30, 6, 12),
    ],
)
def test_rebuilding_with_the_digits_named_certifies(p, base, w, M, N, digits):
    """Twists cut below the working precision Nw starve, at group_from_log
    or at stage precision, and name the inputs as the limit.  Followed once
    with the digits it names, the suggestion decides: the same twist built
    with them certifies."""

    def twist(digits):
        return make_twist_fixture(base, PSeries.from_univariate_coeffs(p, w, M, digits))

    cfg = Config(N=N, M=M)
    report = analyze(*twist(digits), cfg)
    asked = re.fullmatch(
        r"stage \w+ starved: .*; the inputs are the limit: they carry (\d+) digits, "
        r"the working precision is (\d+); rebuild f and u with (\d+) digits",
        report.reason,
    )
    assert report.verdict == INCONCLUSIVE and asked is not None
    assert (int(asked[1]), int(asked[2])) == (digits, cfg.resolve(p).working_prec()) and asked[2] == asked[3]
    assert analyze(*twist(int(asked[3])), cfg).verdict == CERTIFIED


def test_certified_keeps_the_target_digits():
    """lt_pair(2, 16, 24) cut to 16 digits certified at N = 4 with
    min_remaining 1 against the target 4.  Now it starves and names the
    inputs as the limit; the pair at the 24 digits asked for certifies with
    9 digits to spare."""
    f, u = lt_pair(2, 16, 24)
    cfg = Config(N=4, M=16)
    report = analyze(f.cap_coeff_prec(16), u.cap_coeff_prec(16), cfg)
    assert (report.verdict, report.reason) == (
        INCONCLUSIVE,
        "stage precision starved: min_remaining 1 is below the target 4; "
        "the inputs are the limit: they carry 16 digits, the working precision is 24; rebuild f and u with 24 digits",
    )
    report = analyze(f, u, cfg)
    assert report.verdict == CERTIFIED and report.data["precision"]["min_remaining"] == 9


def test_larger_m_within_the_input_truncation_is_suggested_plainly(monkeypatch):
    """RETRY's pair stops at degree M, so its M>=2M names the degree f and u
    must be known below; a pair known to degree 2M needs no such note."""
    raising(monkeypatch, analyzer, "logarithm_recurrence", PrecisionExhausted("boom"))
    report = analyze(*gm_pair(2, 2 * CFG.M, NW), CFG)
    assert report.reason == "stage logarithm starved: boom; retry with N>=16 or M>=32"

# -- linear coefficients zero to their precision -------------------------------


def linear(p, coeffs, N, M=16):
    return PSeries.from_univariate_coeffs(p, coeffs, M, N)


def test_f_derivative_zero_to_one_digit_is_inconclusive():
    """f'(0) = 2 known to one digit may still have valuation 1; this was
    REJECTED "f'(0) must have valuation exactly 1"."""
    report = analyze(linear(2, [2, 1], 1), linear(2, [3, 3, 1], 1), Config(N=4, M=16))
    assert (report.verdict, report.reason) == (
        INCONCLUSIVE,
        "stage hypotheses starved: f'(0) is zero to precision O(2^1); "
        "the inputs are the limit: they carry 1 digits, the working precision is 24; rebuild f and u with 24 digits",
    )
    assert report.data["hypotheses"]["fprime0_valuation"] is None


@pytest.mark.parametrize("coeffs, N", [([4, 1], 2), ([0, 1], 4), ([4, 1], 4), ([1, 1], 4)])
def test_f_derivative_certified_wrong_valuation_is_rejected(coeffs, N):
    """Zero to two digits, an exact zero, valuation 2 and a unit: each
    certifies a valuation other than 1 (u = x commutes with any f)."""
    report = analyze(linear(2, coeffs, N), linear(2, [1], N), Config(N=4, M=16))
    assert (report.verdict, report.reason) == (REJECTED, "f'(0) must have valuation exactly 1")


def test_u_derivative_without_digits_is_inconclusive(monkeypatch):
    """u'(0) zero to precision p^0 may still be a unit.  (A u'(0) zero to one
    digit or more is a certified non-unit, and stays REJECTED.)"""
    f, u = pair()
    coeffs = dict(u.coeffs)
    monkeypatch.setattr(analyzer, "check_commute", lambda f, u: (True, None, CFG.M - 1))
    for N, want in [
        (0, (INCONCLUSIVE, "stage hypotheses starved: u'(0) is zero to precision O(2^0); the inputs are the limit: "
             "they carry 0 digits, the working precision is 28; rebuild f and u with 28 digits")),
        (1, (REJECTED, "u'(0) is not a unit")),
    ]:
        coeffs[(1,)] = PadicNum(2, INF, 0, N)
        report = analyze(f, PSeries(2, CFG.M, coeffs, NW), CFG)
        assert (report.verdict, report.reason) == want
        assert ("u_invertible" in report.data["hypotheses"]) == (want[0] == REJECTED)


# -- where a verdict flips -----------------------------------------------------


@pytest.mark.parametrize("p, M", [(2, 32), (3, 27), (5, 25)])
def test_commutation_boundary_is_the_working_precision(p, M):
    """The gm pair at N = 8 with u + p^k x^d is REJECTED on commutation at
    k = Nw - 2 and certifies at k = Nw, where the change is below every
    digit ``analyze`` keeps.  At k = Nw - 1 it is still REJECTED, except at
    p = 5 with d = 5 or 23: there f'(0) = 5 and the unit coefficient of f^d
    sits at x^(5d), past M, so the defect gains a digit and reaches Nw."""
    cfg = Config(N=8, M=M)
    Nw = cfg.resolve(p).working_prec()
    f, u = gm_pair(p, M, Nw)
    for d in (2, 5, M - 2):
        last_rejected = Nw - 2 if (p, d) in ((5, 5), (5, 23)) else Nw - 1
        for k in (Nw - 2, Nw - 1, Nw):
            report = analyze(f, u + PSeries.from_univariate_coeffs(p, [p**k], M, Nw, shift=d), cfg)
            if k <= last_rejected:
                assert report.verdict == REJECTED and report.reason.startswith("pair does not commute"), (d, k)
            else:
                assert report.verdict == CERTIFIED, (d, k, report.reason)
