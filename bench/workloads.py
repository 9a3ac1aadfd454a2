"""Seeded inputs, expected results and calls of the three workloads.

Each workload's ``setup(rng, sizes, work_dir)`` builds every input from the
random generator alone and returns the list of calls one cycle makes.  A
call runs the program on its inputs, checks each item against the expected
result stored beside it, and returns (items, failed items, report bytes).
The program is always reached through module attributes
(``analyzer.analyze``, ``cli.main``, ...), so a tracer that rebinds them
sees every call.
"""

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from math import comb

from lubinlab import analyzer, cli, polygon
from lubinlab.analyzer import CERTIFIED, INCONCLUSIVE, REJECTED, Config
from lubinlab.series import PSeries


@dataclass(frozen=True)
class Sizes:
    """Truncations of the generated inputs."""

    primes: tuple = (2, 3, 5)
    M: int = 64  # x-adic truncation of certify_dense and factor_polygons
    N: int = 16  # target digits of certify_dense, factor precision of factor_polygons
    batch_M_max: int = 32  # cap on the truncation of batch_screen entries


FULL = Sizes()
TINY = Sizes(primes=(2, 3), M=16, N=8, batch_M_max=12)


@dataclass(frozen=True)
class Expected:
    verdict: str
    pi_residue: str = None
    reason: str = None

    def matches(self, report: dict) -> bool:
        if report.get("verdict") != self.verdict:
            return False
        if self.pi_residue is not None:
            if report.get("frobenius", {}).get("pi_residue") != self.pi_residue:
                return False
        return self.reason is None or self.reason in (report.get("reason") or "")


@dataclass
class Call:
    """One top-level call: ``run()`` returns (items, failed, report bytes)."""

    label: str
    items: int
    run: Callable
    inputs: tuple = field(default=())


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def fingerprint(calls) -> str:
    """sha256 of every call's inputs, to show that set-up is deterministic."""
    h = hashlib.sha256()
    for call in calls:
        h.update(call.label.encode())
        for x in call.inputs:
            data = x.to_json() if isinstance(x, PSeries) else x
            h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()


def _bases(primes, first):
    """Alternate the gm and lt bases over the primes: both appear, and the
    set-up cost does not depend on the seed."""
    order = ("gm", "lt") if first == "gm" else ("lt", "gm")
    return {p: order[i % 2] for i, p in enumerate(primes)}


def _twist(rng, p, M, N, higher):
    """w = a1 x + a2 x^2 + ... with a1 a unit and a2 nonzero, so that the
    conjugated pair is dense below the truncation."""
    a1 = rng.randrange(1, p**3)
    while a1 % p == 0:
        a1 = rng.randrange(1, p**3)
    coeffs = [a1, rng.randrange(1, p * p)] + [rng.randrange(0, p * p) for _ in range(higher - 1)]
    return PSeries.from_univariate_coeffs(p, coeffs, M, N)


# -- certify_dense ------------------------------------------------------------


def _certify(f, u, cfg, name, expected):
    report = analyzer.analyze(f, u, cfg, name=name)
    return 1, 0 if expected.matches(report.data) else 1, report.to_json().encode()


def setup_certify_dense(rng, sizes, work_dir):
    """One twisted gm or lt pair per prime, analysed at the default Config."""
    cfg = Config(N=sizes.N, M=sizes.M)
    calls = []
    for p, base in _bases(sizes.primes, "gm").items():
        w = _twist(rng, p, sizes.M, cfg.resolve(p).working_prec(), higher=3)
        f, u = analyzer.make_twist_fixture(base, w)
        name = f"{base}_tw_p{p}"
        expected = Expected(CERTIFIED, pi_residue=str(p))
        calls.append(Call(name, 1, partial(_certify, f, u, cfg, name, expected), (f, u)))
    return calls


# -- batch_screen ---------------------------------------------------------------

# (kind, M) per prime for the certified entries; N is drawn from 6..14.
BATCH_TABLE = {
    2: (("gm", 8), ("lt", 16), ("tw", 32)),
    3: (("gm", 12), ("lt", 24), ("tw", 24)),
    5: (("gm", 26), ("lt", 30), ("tw", 32)),
}


def _inline(coeffs):
    return ",".join(str(c) for c in coeffs) + "@1"


def _gm_inline(p):
    return _inline(comb(p, k) for k in range(1, p + 1)), [comb(p + 1, k) for k in range(1, p + 2)]


def _batch_entries(rng, sizes):
    """Certified entries (untwisted and lightly twisted gm/lt pairs) and the
    three negative controls, each with its expected result."""
    entries = []
    bases = _bases(sizes.primes, "gm")
    for p in sizes.primes:
        for kind, M in BATCH_TABLE[p]:
            M = max(min(M, sizes.batch_M_max), p * p + 1)
            N = rng.randrange(6, 15)
            entry = {"name": f"{kind}_p{p}", "p": p, "M": M, "N": N}
            if kind == "gm":
                f, u = _gm_inline(p)
                entry.update(f=f, u=_inline(u))
            else:
                Nw = Config(N=N, M=M).resolve(p).working_prec()
                if kind == "lt":
                    f, u = analyzer.lt_pair(p, M, Nw)
                else:
                    base = bases[p]
                    entry["name"] = f"tw_{base}_p{p}"
                    w = PSeries.from_univariate_coeffs(p, [1, rng.randrange(1, p * p)], M, Nw)
                    f, u = analyzer.make_twist_fixture(base, w)
                entry.update(f=f.to_json(), u=u.to_json())
            entries.append((entry, Expected(CERTIFIED, pi_residue=str(p))))

    def control(name, p, f, u, reason):
        M = max(min(16, sizes.batch_M_max), p * p + 1)
        entry = {"name": name, "p": p, "M": M, "N": rng.randrange(6, 15), "f": f, "u": u}
        entries.append((entry, Expected(REJECTED, reason=reason)))
        return entry

    # u perturbed by p^(N-1) x^d breaks commutation at degree d
    p = rng.choice(sizes.primes)
    f, u = _gm_inline(p)
    entry = control("ctl_perturbed", p, f, None, "pair does not commute")
    u += [0] * (4 - len(u))
    u[rng.randrange(1, 4)] += p ** (entry["N"] - 1)
    entry["u"] = _inline(u)
    # the additive pair has no unit coefficient: root-count hypothesis fails
    p = rng.choice(sizes.primes)
    control("ctl_additive", p, _inline([p]), _inline([1 + p]), "root-count")
    # u = (1+x)^-1 - 1 is torsion
    p = rng.choice(sizes.primes)
    M = max(min(16, sizes.batch_M_max), p * p + 1)
    control("ctl_torsion", p, _gm_inline(p)[0], _inline((-1) ** k for k in range(1, M)), "infinite-order")
    return entries


def _batch(fixture, out, expected):
    code = cli.main(["batch", "--fixture", str(fixture), "--format", "json", "--out", str(out)])
    body = out.read_bytes()
    reports = {r.get("name"): r for r in json.loads(body)}
    failed = sum(1 for name, exp in expected.items() if not exp.matches(reports.get(name, {})))
    verdicts = {e.verdict for e in expected.values()}
    want = 1 if REJECTED in verdicts else 2 if INCONCLUSIVE in verdicts else 0
    if code != want:
        failed = len(expected)
    return len(expected), failed, body


def setup_batch_screen(rng, sizes, work_dir):
    """One fixture file; a call is one ``lubinlab batch`` run over it."""
    entries = _batch_entries(rng, sizes)
    body = json.dumps([e for e, _ in entries], sort_keys=True, indent=1)
    fixture = work_dir / "batch_screen-fixture.json"
    fixture.write_text(body, encoding="utf-8")
    out = work_dir / "batch_screen-report.json"
    expected = {e["name"]: exp for e, exp in entries}
    return [Call("batch", len(entries), partial(_batch, fixture, out, expected), (body,))]


# -- factor_polygons --------------------------------------------------------------


def _factor_chain(f, n, target_prec):
    """verify_iterate_shape, iterate, newton_polygon, then one Weierstrass
    factor per negative slope; each factor must be Eisenstein and multiply
    back to the iterate."""
    failed = 0 if polygon.verify_iterate_shape(f, n) else n
    fn = polygon.iterate(f, n)
    segments = polygon.newton_polygon(fn).negative_segments()
    if len(segments) != n:
        failed = n
    report = []
    for seg in segments:
        fac, cof = polygon.weierstrass_factor(fn, seg.slope, target_prec=target_prec)
        ok = polygon.is_eisenstein(fac) and (fac * cof).equal_to_precision(fn)
        failed += not ok
        report.append({"slope": str(seg.slope), "factor": fac.to_json(), "ok": ok})
    return n, min(failed, n), json.dumps(report, sort_keys=True).encode()


def setup_factor_polygons(rng, sizes, work_dir):
    """One twisted f per prime; a call is the chain for one n <= 3 with p^n < M."""
    cfg = Config(N=sizes.N, M=sizes.M)
    calls = []
    for p, base in _bases(sizes.primes, "lt").items():
        w = _twist(rng, p, sizes.M, cfg.resolve(p).working_prec(), higher=3)
        f, _u = analyzer.make_twist_fixture(base, w)
        n = 1
        while n <= 3 and p**n < sizes.M:
            label = f"{base}_tw_p{p}_n{n}"
            calls.append(Call(label, n, partial(_factor_chain, f, n, sizes.N), (f, n)))
            n += 1
    return calls


WORKLOADS = {
    "certify_dense": setup_certify_dense,
    "batch_screen": setup_batch_screen,
    "factor_polygons": setup_factor_polygons,
}
