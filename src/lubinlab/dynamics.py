"""Dynamics of a commuting pair (f, u) on the p-adic open unit disk.

f is a noninvertible integral series with f'(0) of valuation one and p
roots in the open disk; u is an invertible series of infinite order
commuting with f.  The central object is the logarithm of f: the unique
series L with L'(0) = 1 and L(f(x)) = f'(0) L(x).  Every series commuting
with f shares the same logarithm, and conjugation by it linearizes the
whole centralizer, which is what makes Z_p-iterates of u computable.
The functions here take f and u as plain series and assume these
hypotheses; ``analyzer.analyze`` is the one place that decides them.

Two constructions of the logarithm are provided.  The functional-equation
recurrence, with its deterministic per-coefficient precision ledger, is
the one ``analyze`` runs, and returns L as a PSeries.  The
normalized-iterate limit f^n / f'(0)^n is the paper's construction, kept
as a library function that acceptance criterion 2 and
``demos/02_logarithm.py`` compare with the recurrence; its ``Logarithm``
result carries its stabilization record too.  It always forms a fixed
number of iterates, and its only claim is the ultrametric Cauchy cap at
the last increment; a run that leaves a coefficient no digits raises
PrecisionExhausted.  Each iterate is one tabled sum on the power table of
f (``series._iterates``); the rest is the public rules of series and
scalars: the division by f'(0)^n, the increment and the cap.
"""

from fractions import Fraction

from .errors import (
    DomainError,
    NotInvertible,
    PrecisionExhausted,
    TorsionDetected,
    TruncationInconclusive,
)
from .padic import INF, PadicNum, ceil_log, is_root_of_unity, order_mod_p, padic_pow
from .series import PSeries, _iterates, _solve_by_powers, _unpack, first_disagreement
from .polygon import iterate


def check_commute(f: PSeries, u: PSeries):
    """Compare f∘u with u∘f degree by degree at the working precision, by
    ``first_disagreement``.

    Returns (ok, first_defect_degree, max_degree_certified).
    """
    fu = f.compose(u)
    uf = u.compose(f)
    M = min(fu.x_prec, uf.x_prec)
    first_bad = first_disagreement((i, fu.c((i,)), uf.c((i,))) for i in range(1, M))
    if first_bad is None:
        return True, None, M - 1
    return False, first_bad, first_bad - 1


class Logarithm:
    """The result of ``logarithm_limit``: the limit ``series``, with linear
    coefficient 1 and series∘f = f'(0)·series to precision, and its
    ``stabilization``, per iteration the least valuation of the increment
    between consecutive normalized iterates.  ``logarithm_recurrence``
    returns its series bare.
    """

    __slots__ = ("series", "stabilization")

    def __init__(self, series, stabilization):
        self.series = series
        self.stabilization = stabilization


def logarithm_recurrence(f: PSeries) -> PSeries:
    """Solve L(f(x)) = f'(0) L(x) degree by degree with L'(0) = 1.

    Degree n costs one division by f'(0)^n - f'(0); with v(f'(0)) = 1 that
    denominator has valuation exactly 1, and the per-coefficient ledger of
    the scalars records the cumulative loss.  This is the solve of
    ``series.reversion`` with lam = f'(0) (``_solve_by_powers``).
    """
    if f.coeff_prec == INF:
        raise ValueError("logarithm_recurrence needs a finite coeff_prec: its solve starts from 1 known to coeff_prec")
    c = f.linear_coeff()
    if c.is_zero_like():
        raise NotInvertible("f'(0) is zero to precision")
    if c.v == 0:
        torsion, _ = is_root_of_unity(c)
        if torsion:
            raise DomainError("f'(0) must not be a root of unity")
    return _solve_by_powers(f, PadicNum.one(f.prime, f.coeff_prec), c)


def default_n_max(p: int, M: int) -> int:
    """The iterate count ``logarithm_limit`` runs to by default below degree M."""
    return 2 * ceil_log(M, p) + 4


def logarithm_limit(f: PSeries, n_max: int = None) -> Logarithm:
    """Limit of the normalized iterates f^n / f'(0)^n.

    Always forms exactly n_max iterates (``default_n_max`` by default).  Each
    returned coefficient is capped at the valuation of its last increment
    (Cauchy estimate); that cap is the limit's only claim, so downstream
    comparisons happen at capped digits only.  A run whose last increment is
    no smaller than its first, or whose cap leaves a coefficient no digits,
    raises PrecisionExhausted.  The iterates are ``polygon.iterate``'s chain,
    f^(n+1) = f^n ∘ f (``series._iterates``); each becomes a series divided
    by f'(0)^n coefficient by coefficient in degree order (``PadicNum``
    division), each increment is a series difference, and the cap is
    ``PadicNum.cap_prec``.
    """
    if f.coeff_prec == INF:
        raise ValueError("logarithm_limit needs a finite coeff_prec: its iterates are normalised from the identity known to coeff_prec")
    p = f.prime
    M = f.x_prec
    c = f.linear_coeff()
    if n_max is None:
        n_max = default_n_max(p, M)
    norm = PSeries.identity(p, M, f.coeff_prec)
    if n_max == 0:
        return Logarithm(norm, [])
    evidence = []
    for n, fn in zip(range(1, n_max + 1), _iterates(f)):
        cn, fn = c**n, _unpack(p, fn, M, f.coeff_prec)
        prev, norm = norm, PSeries(p, M, {e: a / cn for e, a in sorted(fn.coeffs.items())}, f.coeff_prec)
        incr = norm - prev
        evidence.append((n, incr.min_val_floor()))
    if len(evidence) >= 2 and evidence[-1][1] <= evidence[0][1]:
        raise PrecisionExhausted(f"no stabilization after {n_max} iterates")
    capped = {}
    for e, a in sorted(norm.coeffs.items()):
        cap = incr.coeffs[e].val_floor()  # the increment's floor; norm's coefficient is in it
        if cap <= 0:
            raise PrecisionExhausted(f"coefficient {e} certifies no digits after {n_max} iterates")
        capped[e] = a.cap_prec(cap)
    return Logarithm(PSeries(p, M, capped, f.coeff_prec), evidence)


def log_polygon_vertices(p: int, M: int) -> list:
    """The negative-slope vertices (p^k, -k), p^k < M, that the Newton
    polygon of a logarithm truncated below degree M must have."""
    return [(p**k, -k) for k in range(ceil_log(M, p))]


def dlog_integrality(L: PSeries) -> bool:
    """True iff every coefficient of L' certifies valuation >= 0."""
    return L.derivative().min_val_floor() >= 0


def normalize_u(u: PSeries):
    """The minimal iterate of u with u'(0) = 1 mod p (mod 4 if p=2).

    Returns (iterate, e) with e the iterate taken: the order of u'(0) in
    (Z/p)^x (``padic.order_mod_p``), doubled when p = 2 and u'(0) = 3 mod 4
    (u itself when e = 1).  After this, v_p((1-u'(0))^m) = v_p(1-u'(0)) +
    v_p(m) for all m, which is exactly what the Z_p-iteration needs.
    Raises TorsionDetected when u'(0) is a root of unity to precision; the
    flag on the exception records whether the matching iterate of u is
    itself the identity to precision.
    """
    p = u.prime
    gamma = u.linear_coeff()
    torsion, order = is_root_of_unity(gamma)
    if torsion:
        ue = iterate(u, order)
        ident = PSeries.identity(p, u.x_prec, u.coeff_prec)
        is_id = ue.equal_to_precision(ident)
        raise TorsionDetected(
            f"u'(0) is a root of unity of order {order} to precision "
            f"O({p}^{gamma.N})",
            identity_to_precision=is_id,
        )
    e = (2 if gamma.u % 4 == 3 else 1) if p == 2 else order_mod_p(gamma)
    if e == 1:
        return u, 1
    return iterate(u, e), e


def zp_iterate(u: PSeries, L: PSeries, a, exp_series: PSeries = None) -> PSeries:
    """The Z_p-iterate of u with derivative u'(0)^a: rev(L)(u'(0)^a · L(x)).

    a may be an integer or a scalar in Z_p; for p-adic a, u must be
    normalized (``normalize_u``) so that u'(0) is a 1-unit.
    """
    gamma_a = padic_pow(u.linear_coeff(), a)
    if exp_series is None:
        exp_series = L.reversion()
    return exp_series.compose(L, gamma_a)


def ramification_index(omega: PSeries, n_max: int):
    """Estimate sequence for the absolute ramification index of an invertible
    mod-p series with derivative 1.

    Returns (estimates, stabilized): estimates[n] = (p-1)·i(n)/p^(n+1) as an
    exact rational, where i(n) is the x-adic valuation of the p^n-th iterate
    minus the identity; stabilized reports whether the last two agree.
    """
    p = omega.prime
    gamma = omega.linear_coeff()
    if gamma.is_zero_like() or gamma.v != 0:
        raise NotInvertible("series must be invertible")
    if not gamma.congruent(PadicNum.one(p, 1), 1):
        raise DomainError("derivative at 0 must be 1 mod p")
    ident = PSeries.identity(p, omega.x_prec, omega.coeff_prec)
    if omega.equal_to_precision(ident):
        raise DomainError("series is the identity below the truncation order")
    estimates = []
    current = omega  # omega^(p^n)
    for n in range(0, n_max + 1):
        diff = current - ident
        support = [e[0] for e, c in diff.coeffs.items() if not c.is_zero_like()]
        if not support:
            raise TruncationInconclusive(
                f"iterate p^{n} is the identity below degree {omega.x_prec}"
            )
        i_n = min(support)
        estimates.append(Fraction((p - 1) * i_n, p ** (n + 1)))
        if n < n_max:
            current = iterate(current, p)
    stabilized = len(estimates) >= 2 and estimates[-1] == estimates[-2]
    return estimates, stabilized
