"""End-to-end certification of a commuting pair against the integral
formal-group hypotheses.

``analyze`` runs the whole pipeline, and is the one place the hypotheses
are decided: commutation check, integrality and the other hypothesis checks
on f and u, normalization of u, the logarithm by its recurrence,
integrality of the logarithm derivative, the formal group law with its
certificates, endomorphism identification, Frobenius-multiplier recovery,
and the independent degree-by-degree lift.
One handler turns a stage's exception into the verdict:

* REJECTED     - a hypothesis provably fails at certified digits;
* INCONCLUSIVE - the working precision or truncation starves a stage
                 (the report names the stage and suggests a bump);
* CERTIFIED    - every sub-certificate passed at its declared precision.

Reports are plain dicts of ints and strings, so identical input and config
produce byte-identical JSON.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .errors import (
    AmbiguousAtPrecision,
    IntegralityFailure,
    LubinlabError,
    NoCandidate,
    NonUniqueLift,
    NotInvertible,
    PrecisionExhausted,
    TorsionDetected,
    TruncationInconclusive,
)
from .padic import INF, PadicNum, require_prime
from .series import PSeries, raise_if_not_integral
from .dynamics import (
    check_commute,
    dlog_integrality,
    logarithm_recurrence,
    normalize_u,
)
from .formalgroup import (
    bracket,
    exp_from_log,
    frobenius_multiplier,
    group_from_log,
    lubin_tate_lift,
)


@dataclass
class Config:
    """Analyzer knobs; None fields resolve per prime."""

    N: int = 16
    M: int = 64
    m2: int = 12
    guard: int | None = None

    def __post_init__(self):
        # below degree 3 the associativity and lift certificates check
        # nothing, whatever the prime, so refuse before any fixture runs
        if self.m2 < 3:
            raise ValueError(f"M2 must be at least 3, got {self.m2}")

    def resolve(self, p: int) -> "Config":
        require_prime(p)
        if self.N < 4:
            raise ValueError("N must be at least 4")
        if self.M < p * p:
            raise ValueError(f"M must be at least p^2 = {p * p}")
        guard = self.guard
        min_guard = -(-self.M // (p - 1))  # ceil
        if guard is None:
            guard = min_guard + 4
        if guard < min_guard:
            raise ValueError(f"guard must be at least ceil(M/(p-1)) = {min_guard}")
        return replace(self, guard=guard)

    def working_prec(self) -> int:
        return self.N + self.guard


CERTIFIED = "CERTIFIED"
REJECTED = "REJECTED"
INCONCLUSIVE = "INCONCLUSIVE"


class AnalysisReport:
    """Thin wrapper over the deterministic report dict."""

    def __init__(self, data: dict):
        self.data = data

    @property
    def verdict(self) -> str:
        return self.data["verdict"]

    @property
    def reason(self):
        return self.data["reason"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def summary_line(self) -> str:
        d = self.data
        pi = d.get("frobenius", {}).get("pi_residue", "-")
        mv = d.get("formal_group", {}).get("min_coeff_valuation", "-")
        reason = d["reason"] or "-"
        return f"{str(d['name']):<24} {str(d['prime']):<3} {d['verdict']:<13} {str(pi):<8} {str(mv):<7} {reason}"


SUMMARY_HEADER = (
    f"{'name':<24} {'p':<3} {'verdict':<13} {'pi':<8} {'minval':<7} reason\n"
    + "-" * 78
)


def _suggest(cfg: Config, stage: str, digits, x_prec) -> str:
    """The knob to turn; digits is the fewest an input coefficient below M
    carries and x_prec the inputs' truncation, both before ``analyze`` caps."""
    Nw = cfg.working_prec()
    if digits < Nw:  # a larger N asks the inputs for digits they do not have
        return f"the inputs are the limit: they carry {digits} digits, the working precision is {Nw}; " \
            f"rebuild f and u with {Nw} digits"
    # a larger M does not reach the linear coefficients of the hypotheses
    if stage == "hypotheses":
        return f"retry with N>={cfg.N + 8}"
    M = 2 * cfg.M
    return f"retry with N>={cfg.N + 8} or M>={M}" + ("" if M <= x_prec else f" with f and u known below degree {M}")


# The verdict of a stage's exception.  REJECTED needs a hypothesis that fails
# at certified digits: a (stage, exception class) below, with its reason.
REJECTIONS = {
    ("hypotheses", IntegralityFailure): "f and u must have integral coefficients: {ex}",
    ("normalization", TorsionDetected): "u fails the infinite-order hypothesis: {ex} "
    "(caveat: torsion is only certified to the working precision)",
    ("group_from_log", IntegralityFailure): "formal group is not integral: {ex}",
    ("frobenius_multiplier", NoCandidate): "no Frobenius multiplier: {ex}",
    ("frobenius_multiplier", IntegralityFailure): "Frobenius bracket not integral: {ex}",
    ("lubin_tate_lift", NonUniqueLift): "lift of the Frobenius bracket failed: {ex}",
    ("lubin_tate_lift", IntegralityFailure): "lift of the Frobenius bracket failed: {ex}",
}
# What precision or truncation cannot decide starves the stage: INCONCLUSIVE.
# So does an IntegralityFailure with certified=False, named as below.
PRECISION_FAILURES = (
    PrecisionExhausted, TruncationInconclusive, NotInvertible, AmbiguousAtPrecision
)
UNPROVEN_INTEGRALITY = {"group_from_log": "group_integrality", "frobenius_multiplier": "frobenius_integrality"}


def analyze(f: PSeries, u: PSeries, config: Config = None, name: str = "pair") -> AnalysisReport:
    """Validate a candidate commuting pair and certify its formal group.

    The theorem assumes that f'(0) is a prime element of Z_p and that f has
    exactly p roots in the open unit disk.  Stage 2 certifies that f is
    integral, that v(f'(0)) = 1 and that f mod p has Weierstrass degree p,
    and nothing more about the roots needs checking.  By p-adic Weierstrass
    preparation f is a unit of Z_p[[x]] times a distinguished polynomial of
    degree p, so f has exactly p roots in the open disk: 0, and p - 1 of
    valuation 1/(p-1) (one polygon segment from (1, 1) to (p, 0)).  The
    roots of f^n are the preimages of f's roots under f (Lubin,
    "Nonarchimedean dynamical systems", Compositio Math. 94, 1994): a root
    of valuation s <= 1/(p-1) has p preimages of valuation s/p, so level k
    adds p^(k-1)(p-1) roots of valuation 1/(p^(k-1)(p-1)), and the polygon
    of f^n has the vertices (p^k, n - k).  The logarithm L = lim f^n /
    f'(0)^n moves them to (p^k, -k).  So the open-disk root count, the
    iterate shapes and the logarithm polygon are not checked again: no f
    that passes stage 2 can fail them.  The integrality of L' is not
    implied, since it needs u, and stage 4 checks it.
    """
    p = f.prime
    cfg = (config or Config()).resolve(p)
    # a series known only below degree M' < M is refused: the law, its
    # certificates and the lift would be known only below M', while the
    # report's formal_group.truncation and certificate degrees say M
    for label, s in (("f", f), ("u", u)):
        if s.x_prec < cfg.M:
            raise ValueError(f"series {label} is truncated at degree {s.x_prec}, below M={cfg.M}")
        if not s.s0:
            raise ValueError(f"series {label} has a constant term")
    Nw = cfg.working_prec()
    digits = min((c.N for s in (f, u) for e, c in s.coeffs.items() if sum(e) < cfg.M), default=INF)
    x_prec = min(f.x_prec, u.x_prec)
    f = f.truncate(cfg.M).cap_coeff_prec(Nw)
    u = u.truncate(cfg.M).cap_coeff_prec(Nw)
    report = {
        "name": name,
        "prime": p,
        "config": {
            "N": cfg.N,
            "M": cfg.M,
            "M2": cfg.m2,
            "guard": cfg.guard,
        },
        "verdict": None,
        "reason": None,
    }

    def rejected(reason):
        report["verdict"], report["reason"] = REJECTED, reason
        return AnalysisReport(report)

    def inconclusive(stage, detail):
        reason = f"stage {stage} starved: {detail}; {_suggest(cfg, stage, digits, x_prec)}"
        report["verdict"], report["reason"] = INCONCLUSIVE, reason
        return AnalysisReport(report)

    stage = "commute"
    try:
        # 1. commutation
        ok, first_bad, certified = check_commute(f, u)
        commute = {"ok": ok, "certified_degree": certified, "first_defect_degree": first_bad}
        report["hypotheses"] = hyp = {"commute": commute}
        if not ok:
            return rejected(f"pair does not commute (defect at degree {first_bad})")

        # 2. both series integral; hypotheses on f (zero to one digit, f'(0)
        # may have valuation 1)
        stage = "hypotheses"
        raise_if_not_integral(f, "f")
        raise_if_not_integral(u, "u")
        c = f.linear_coeff()
        hyp["fprime0_valuation"] = None if c.is_zero_like() else c.v
        if c.is_zero_like() and c.N <= 1:
            raise PrecisionExhausted(f"f'(0) is zero to precision O({p}^{c.N})")
        if c.v != 1:
            return rejected("f'(0) must have valuation exactly 1")
        stage = "weierstrass_degree"
        wdeg = f.reduce_mod_p().weierstrass_degree()
        hyp["weierstrass_degree"] = wdeg if wdeg is not None else f"none below M={cfg.M}"
        if wdeg != p:
            return rejected(f"weierstrass degree {hyp['weierstrass_degree']} != p (root-count hypothesis)")

        # 3. hypotheses on u (zero to no digits, u'(0) may be a unit), normalization
        stage = "hypotheses"
        gamma = u.linear_coeff()
        if gamma.is_zero_like() and gamma.N <= 0:
            raise PrecisionExhausted(f"u'(0) is zero to precision O({p}^{gamma.N})")
        hyp["u_invertible"] = gamma.v == 0
        if not hyp["u_invertible"]:
            return rejected("u'(0) is not a unit")
        stage = "normalization"
        ue, e = normalize_u(u)
        gamma_e = ue.linear_coeff()
        hyp["torsion"] = {"detected_to_precision": False}
        report["normalization"] = {
            "iterate": e,
            "gamma_valuation_of_1_minus": (gamma_e - PadicNum.one(p, gamma_e.N)).val_floor(),
        }

        # 4. logarithm, by its recurrence alone: L is the one series with
        # L'(0) = 1 and L(f) = f'(0) L, so any other L fails stage 6's endo_f,
        # E(f'(0) L) = f at certified digits
        stage = "logarithm"
        L = logarithm_recurrence(f)
        dlog_ok = dlog_integrality(L)
        report["logarithm"] = {"dlog_integral": dlog_ok}
        if not dlog_ok:
            return rejected("logarithm derivative is not integral")

        # no later composition reads the powers of f or u: keeping their
        # tables beside the logarithm's raises the group law's peak memory
        f.release_powers()
        u.release_powers()
        # 5. formal group from the logarithm
        stage = "group_from_log"
        exp_series = exp_from_log(L)
        G = group_from_log(L)
        law_ok = G.certify(cfg.m2)
        fg = {
            "min_coeff_valuation": _val_str(G.min_coeff_valuation()),
            "truncation": cfg.M,
            "identity": G.certificates["identity"]["ok"],
            "commutative": G.certificates["commutative"]["ok"],
            "associative": G.certificates["associative"]["ok"],
            "associativity_degree": G.certificates["associative"]["degree"],
        }
        report["formal_group"] = fg
        if not law_ok:
            return rejected("group-law certificate failed (identity/commutativity/associativity)")

        # 6. endomorphism identification
        stage = "endomorphisms"
        bf = bracket(L, c, exp_series)
        bu = bracket(L, gamma, exp_series)
        fg["endo_f"] = bf.equal_to_precision(f)
        fg["endo_u"] = bu.equal_to_precision(u)
        if not (fg["endo_f"] and fg["endo_u"]):
            return rejected("f or u is not the bracket of its derivative")

        # 7. Frobenius multiplier
        stage = "frobenius_multiplier"
        pi, bk = frobenius_multiplier(L, f, exp_series)
        report["frobenius"] = {
            "pi": pi.to_json(),
            "pi_residue": str(pi.as_fraction()),
            "pi_over_p_is_unit": pi.v == 1,
            "congruent_xp_mod_p": True,
            "bracket_integral": True,
        }

        # 8. independent lift cross-check
        stage = "lubin_tate_lift"
        GL = lubin_tate_lift(bk, cfg.m2)
        lift_agrees = GL.equal_to_precision(G)
        report["frobenius"]["lift_agrees"] = lift_agrees
        report["frobenius"]["lift_degree"] = GL.x_prec
        if not lift_agrees:
            return rejected("independent group-law lift disagrees with the logarithm construction")
    except LubinlabError as ex:
        proven = getattr(ex, "certified", True)
        reason = REJECTIONS.get((stage, type(ex))) if proven else None
        if reason is not None:
            if isinstance(ex, TorsionDetected):
                hyp["torsion"] = {"detected_to_precision": True, "identity_to_precision": ex.identity_to_precision}
            return rejected(reason.format(ex=ex))
        if proven and not isinstance(ex, PRECISION_FAILURES):
            raise
        return inconclusive(stage if proven else UNPROVEN_INTEGRALITY.get(stage, stage), ex)

    # 9. precision budget: every certificate above already passed at its
    # own declared precision, but CERTIFIED also keeps the N target digits,
    # which inputs short of Nw digits can leave out of reach
    min_prec = min(
        min((co.N for co in L.coeffs.values()), default=Nw),
        min((co.N for co in G.coeffs.values()), default=Nw),
        min((co.N for co in bk.coeffs.values()), default=Nw),
    )
    report["precision"] = {
        "working": Nw,
        "target": cfg.N,
        "min_remaining": _val_str(min_prec),
        "consumed": _val_str(Nw - min_prec),
    }
    if min_prec < cfg.N:
        return inconclusive("precision", f"min_remaining {min_prec} is below the target {cfg.N}")
    report["verdict"] = CERTIFIED
    return AnalysisReport(report)


def _val_str(v):
    return int(v) if v != float("inf") else "inf"


# -- fixtures --------------------------------------------------------------


def gm_pair(p: int, M: int, N: int):
    """The multiplicative-group pair (1+x)^p - 1, (1+x)^(1+p) - 1."""
    f = PSeries.from_univariate_coeffs(p, [comb(p, k) for k in range(1, p + 1)], M, N)
    u = PSeries.from_univariate_coeffs(
        p, [comb(p + 1, k) for k in range(1, p + 2)], M, N
    )
    return f, u


def lt_pair(p: int, M: int, N: int):
    """The special-uniformizer pair px + x^p with its (1+p)-bracket.

    The bracket construction consumes roughly M/(p-1) digits internally, so
    the pair is built with that many extra and capped back to N: fixtures
    should enter the analyzer with their full declared precision.
    """
    n_int = N + -(-M // (p - 1)) + 4
    coeffs = [0] * p
    coeffs[0] = p
    coeffs[p - 1] = 1
    f = PSeries.from_univariate_coeffs(p, coeffs, M, n_int)
    u = bracket(logarithm_recurrence(f), PadicNum.from_int(1 + p, p, n_int))
    return f.cap_coeff_prec(N), u.cap_coeff_prec(N)


def make_twist_fixture(base, w: PSeries):
    """Conjugate a base pair by an invertible integral coordinate change.

    base is "gm", "lt", or an explicit (f0, u0) pair; w must lie in S_0
    with unit derivative.  Returns (f, u) = (w^-1 f0 w, w^-1 u0 w), which
    commutes and satisfies the analyzer hypotheses whenever the base does.
    """
    p, M, N = w.prime, w.x_prec, w.coeff_prec
    if not w.s0:
        raise ValueError("twist must have zero constant term")
    w1 = w.linear_coeff()
    if w1.v != 0:
        raise NotInvertible("twist derivative must be a unit")
    if isinstance(base, str):
        f0, u0 = {"gm": gm_pair, "lt": lt_pair}[base](p, M, N)
    else:
        f0, u0 = base
    winv = w.reversion()
    f = winv.compose(f0.compose(w))
    u = winv.compose(u0.compose(w))
    return f, u


# -- fixture files and batch runs -------------------------------------------


def parse_series_arg(text, p: int, M: int, N: int) -> PSeries:
    """Accept either the JSON series object or inline "c1,c2,...@k" text,
    below x^M (or, for a JSON series, its own "M" if less), built at N
    digits or, for a JSON series known to fewer, at its own "N"."""
    if isinstance(text, dict):
        s = PSeries.from_json(text, cap=(M, N))
        if s.prime != p:
            raise ValueError("series prime differs from fixture prime")
        return s
    if isinstance(text, str):
        body, _, shift = text.partition("@")
        try:
            shift = int(shift) if shift else 1
            coeffs = [Fraction(t.strip()) for t in body.split(",") if t.strip()]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"inline series {text!r} is not c1,c2,...@k with rational c_i and integer k") from None
        if shift < 0:
            raise ValueError(f"inline series shift must be at least 0, got {shift}")
        return PSeries.from_univariate_coeffs(p, coeffs, M, N, shift=shift)
    raise ValueError(f"series must be a JSON object or an inline coefficient string, got {json.dumps(text)}")


def load_fixtures(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"fixture file must hold a JSON object or array, got {json.dumps(data)}")
    return data


def analyze_fixture(entry: dict, config: Config = None) -> AnalysisReport:
    if not isinstance(entry, dict):
        raise ValueError(f"fixture entry must be a JSON object, got {json.dumps(entry)}")
    cfg = config or Config()
    for key, default in (("p", None), ("N", cfg.N), ("M", cfg.M)):
        if type(entry.get(key, default)) is not int:  # not isinstance: true is no integer
            raise ValueError(f"fixture field {key!r} must be an integer, got {json.dumps(entry.get(key))}")
    p = entry["p"]
    cfg = replace(cfg, N=entry.get("N", cfg.N), M=entry.get("M", cfg.M))
    resolved = cfg.resolve(p)
    Nw = resolved.working_prec()
    pair = []
    for key in ("f", "u"):
        try:
            pair.append(parse_series_arg(entry.get(key), p, cfg.M, Nw))
        except ValueError as ex:
            raise ValueError(f"fixture field {key!r}: {ex}") from None
    return analyze(*pair, cfg, name=entry.get("name", "fixture"))


def batch_run(fixtures, config: Config = None):
    """Analyze a fixture collection, one after another; reports come back
    sorted by name.  Per-fixture failures are contained in the reports.
    """

    def run_one(entry):
        try:
            return analyze_fixture(entry, config)
        except (LubinlabError, ValueError) as ex:
            kind = type(ex).__name__ if isinstance(ex, LubinlabError) else "fixture error"
            named = entry if isinstance(entry, dict) else {}
            return AnalysisReport(
                {
                    "name": named.get("name", "fixture"),
                    "prime": named.get("p"),
                    "verdict": INCONCLUSIVE,
                    "reason": f"{kind}: {ex}",
                }
            )

    reports = [run_one(e) for e in fixtures]
    reports.sort(key=lambda r: str(r.data.get("name")))
    return reports


def summary_table(reports) -> str:
    lines = [SUMMARY_HEADER]
    lines.extend(r.summary_line() for r in reports)
    return "\n".join(lines) + "\n"
