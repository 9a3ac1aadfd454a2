"""Formal group laws attached to a p-adic dynamical system.

Two independent constructions are implemented and cross-checked.

``group_from_log`` builds F(x, y) = E(L(x) + L(y)), L the logarithm and E
its compositional inverse, without a two-variable composition: the Taylor
orders A_j = E^(j)(L(x)) satisfy A_0 = x and A_{j+1} = A_j' / L'(x), so
F = sum_a x^a g_a(L(y)) with g_a(t) = sum_j [A_j]_a t^j / j!.  The orders
stay packed, one product each, and each row g_a is one tabled sum against
the power table of L that ``exp_from_log`` built.

``FormalGroupLaw.check_associative`` expands both sides of
F(F(x,y),z) = F(x,F(y,z)) as linear combinations of the powers of F, which
are formed once as two-variable products.

``lubin_tate_lift`` solves f(F(x,y)) = F(f(x), f(y)) degree by degree with
F = x + y mod degree 2, below the truncation of f; for f congruent to x^p
mod p with f'(0) of valuation 1 the solution is integral and unique, which
is what makes it an independent oracle for the first construction.  Stage d
forms only the degree-d parts of both sides: the Horner intermediates of
f(F) are kept by degree across stages and extended with the degree-graded
product of ``series``, and F(f(x), f(y)) = sum_b G_b(f(x)) f(y)^b, G_b the
column of y^b in F, is read from the power table of f: each column is one
tabled sum, and each x^i y^(d-i) coefficient one more, at degree d - i
(``_PowerTable.sum_pair``).

``frobenius_multiplier`` recovers the scalar pi with v(pi) = 1 whose
bracket endomorphism exp(pi * L) reduces to x^p mod p, one base-p digit at
a time: the digit at p^k first influences the mod-p coefficients at degree
p^(k+1), so testing the congruence below min(M, p^(k+1)+1) pins it.
"""

from .errors import (
    AmbiguousAtPrecision,
    IntegralityFailure,
    NoCandidate,
    NonUniqueLift,
    PrecisionExhausted,
)
from .padic import INF, PadicNum, reduce_terms
from .series import PSeries, _graded, _graded_mul, _pack, _packed_derivative, _packed_div_int, _packed_mul
from .dynamics import Logarithm


class FormalGroupLaw:
    """Two-variable group law with certification flags.

    Certificates are computed, not assumed: ``certify`` runs the identity,
    commutativity and (at a smaller truncation) associativity checks and
    records the truncation degree each was verified at.
    """

    __slots__ = ("F", "construction", "certificates")

    def __init__(self, F: PSeries, construction: str):
        self.F = F
        self.construction = construction
        self.certificates = {}

    def min_coeff_valuation(self):
        """Least certified valuation floor over all coefficients."""
        return self.F.min_val_floor()

    def check_identity(self) -> bool:
        p = self.F.prime
        x = PSeries.identity(p, self.F.x_prec, self.F.coeff_prec)
        ok = self.F.set_var_zero(1).equal_to_precision(x) and self.F.set_var_zero(
            0
        ).equal_to_precision(x)
        self.certificates["identity"] = {"ok": ok, "degree": self.F.x_prec}
        return ok

    def check_commutative(self) -> bool:
        """F(x, y) = F(y, x) at the lesser precision of each pair, in one
        walk over the coefficients: c_ab against c_ba for a <= b, and
        against the exact zero where the mirror is absent.  (A diagonal
        coefficient meets itself, which only one without digits fails, by
        raising.)"""
        coeffs = self.F.coeffs
        zero = PadicNum.exact_zero(self.F.prime)
        ok = all(
            c.congruent(coeffs.get((b, a), zero)) for (a, b), c in coeffs.items() if a <= b or (b, a) not in coeffs
        )
        self.certificates["commutative"] = {"ok": ok, "degree": self.F.x_prec}
        return ok

    def check_associative(self, m2: int) -> bool:
        """F(F(x,y),z) = F(x,F(y,z)) in the 3-variable ring below degree
        D = min(m2, F.x_prec), the degree the certificate records.

        With F = sum c_ab x^a y^b, both sides are linear combinations of the
        powers of F:

            F(F(x,y), z) = sum c_ab F(x,y)^a z^b,
            F(x, F(y,z)) = sum c_ab x^a F(y,z)^b,

        so the powers F^k are formed once, as two-variable products, and
        each coefficient of each side is one ledgered sum (``reduce_terms``)
        of the products c_ab * [F^k]_e.  Both expansions claim only digits
        their ledgers support, so agreement at the lesser precision of each
        coefficient certifies associativity at those digits.
        """
        F = self.F.truncate(m2)
        D = F.x_prec
        pows = [{(0, 0): None}, F.coeffs]  # coefficients of F^k; None is the exact 1
        power = F
        for _ in range(2, D):
            power = power * F
            pows.append(power.coeffs)
        ok = _substitute(F, pows, D, True).equal_to_precision(_substitute(F, pows, D, False))
        self.certificates["associative"] = {"ok": ok, "degree": D}
        return ok

    def certify(self, m2: int) -> bool:
        return self.check_identity() and self.check_commutative() and self.check_associative(m2)


def _substitute(F: PSeries, pows, D: int, left: bool) -> PSeries:
    """F(F(x,y), z) (left) or F(x, F(y,z)) below total degree D, from the
    coefficient dicts pows[k] of F^k."""
    p = F.prime
    terms: dict = {}
    for (a, b), c in F.coeffs.items():
        k, free = (a, b) if left else (b, a)
        for (i, j), d in pows[k].items():
            if i + j + free >= D:
                continue
            e = (i, j, free) if left else (free, i, j)
            if d is None:
                t = (c.v, c.u, c.N)
            elif c.v == INF or d.v == INF:
                t = (INF, 0, c.val_floor() + d.val_floor())
            else:
                t = (c.v + d.v, c.u * d.u, min(c.N + d.v, c.v + d.N))
            terms.setdefault(e, []).append(t)
    return PSeries(p, 3, D, {e: reduce_terms(p, t) for e, t in terms.items()}, F.coeff_prec)


class Bracket:
    """An endomorphism exp(a * L) with derivative a at the origin."""

    __slots__ = ("a", "series")

    def __init__(self, a: PadicNum, series: PSeries):
        self.a = a
        self.series = series


def exp_from_log(logf: Logarithm) -> PSeries:
    """The exponential E, the compositional inverse of the logarithm.

    This is the named exponential: callers form it once and pass it to
    ``bracket`` and ``frobenius_multiplier``, and ``bench/tracer.py`` times
    it as its own layer.
    """
    return logf.series.reversion()


def group_from_log(logf: Logarithm) -> FormalGroupLaw:
    """F(x,y) = E(L(x) + L(y)) = sum_a x^a g_a(L(y)), g_a(t) = sum_j [A_j]_a t^j / j!.

    The orders A_0 = x, A_{j+1} = A_j' / L' (below degree M - j - 1) stay
    packed, one derivative and one product with 1/L' each, and are divided
    by j! exactly (``series._packed_div_int``).  Each row g_a is one tabled
    sum over degrees 1 <= b < M - a against the power table of L
    (``_PowerTable.sum_orders``), grown at most to the last order; F_10 = 1
    is the j = 0 term.  The monomials come in the order (j, a, b) that
    first reaches them.  A coefficient without digits at precision <= 0
    raises PrecisionExhausted, as ``reduce_terms`` does.

    Raises IntegralityFailure when a coefficient certifies negative
    valuation; a merely unresolved coefficient raises with certified=False.
    """
    L = logf.series
    p, M, N = L.prime, L.x_prec, L.coeff_prec
    inv_dlog = _pack(L.derivative().inverse().coeffs, M - 1)
    A = _pack({(1,): PadicNum.one(p, N)}, M)
    orders = [A]  # A_j / j!
    factorial = 1
    for j in range(1, M):
        A = _packed_mul(p, _packed_derivative(p, A), inv_dlog, M - j)
        factorial *= j
        orders.append(_packed_div_int(p, A, factorial))
    coeffs = L.power_table().sum_orders(orders)
    del orders, A
    F = PSeries(p, 2, M, {(1, 0): PadicNum.one(p, N), **coeffs}, N)
    _raise_if_not_integral(F, "group law from logarithm")
    return FormalGroupLaw(F, "from-log")


def _raise_if_not_integral(F: PSeries, what: str):
    for e, c in F.coeffs.items():
        if c.val_floor() < 0:
            raise IntegralityFailure(
                f"{what}: coefficient at {e} has valuation floor {c.val_floor()}",
                exponents=e,
                certified=c.v != INF,
            )


def lubin_tate_lift(f: PSeries, x_prec: int) -> FormalGroupLaw:
    """Unique integral F with f(F(x,y)) = F(f(x), f(y)) and F = x+y mod deg 2.

    Solved degree by degree below min(x_prec, f.x_prec); the degree-d
    correction is the degree-d defect divided by f'(0)^d - f'(0), a scalar of
    valuation exactly 1 when v(f'(0)) = 1.  Non-integral corrections mean the
    preconditions fail and raise NonUniqueLift (certified) or
    PrecisionExhausted (unresolved).

    Stage d forms only degree-d parts.  The left side keeps the Horner
    intermediates acc_i = sum_{k>=i} c_k F^(k-i) of f(F) by degree: the
    degree-e part of acc_i reads F below degree e+1 and acc_{i+1} below
    degree e, which earlier stages fixed, so stage d adds the degree-(d-i)
    part of each acc_i and takes [acc_1 F]_d.  The right side is the
    degree-d part of F(f(x), f(y)) as tabled sums against the power table of
    f (``_PowerTable.sum_pair``), so the lift forms no univariate product
    beyond the powers of f that table grows.  The corrections of a stage
    are checked in exponent order.  A certified failure anywhere in the
    stage decides the lift: the first one raises NonUniqueLift, and a stage
    raises PrecisionExhausted (its first unresolved correction) only when
    it has no certified failure.
    """
    p = f.prime
    N = f.coeff_prec
    c = f.linear_coeff()
    D = min(x_prec, f.x_prec)
    f = f.truncate(D)
    one = PadicNum.one(p, N)
    F = PSeries(p, 2, D, {(1, 0): one, (0, 1): one}, N)
    Fparts = _graded(F, 2)
    # acc[i][e]: the degree-e part of acc_i; its degree-0 part is c_i
    acc = [None] + [[[((0, 0), f.coeffs[(i,)])] if (i,) in f.coeffs else []] for i in range(1, D)]
    powers = f.power_table()
    cpow = c
    for d in range(2, D):
        cpow = cpow * c  # c^d
        for i in range(d - 1, 0, -1):
            acc[i].append(list(_graded_mul(p, acc[i + 1], Fparts, d - i).items()))
        lhs = _graded_mul(p, acc[1], Fparts, d)
        rhs = powers.sum_pair(F.coeffs, d)
        denom = cpow - c
        corr = {}
        unresolved = None
        for e in sorted(lhs.keys() | rhs.keys()):
            left, right = lhs.get(e), rhs.get(e)
            try:
                coeff = -right if left is None else left if right is None else left - right
                # a zero-like defect still bounds the correction: storing it
                # (rather than leaving an exact zero) keeps F's precision honest
                delta = coeff / denom
            except PrecisionExhausted as ex:
                unresolved = unresolved or PrecisionExhausted(
                    f"degree-{d} correction at {e} unresolved: {ex}"
                )
                continue
            # a zero-like quotient keeps a positive precision, so a negative
            # floor is a certified valuation
            if delta.val_floor() < 0:
                raise NonUniqueLift(
                    f"no integral lift: degree-{d} correction at {e} has valuation {delta.val_floor()}"
                )
            corr[e] = delta
        if unresolved is not None:
            raise unresolved
        Fparts.append(list(corr.items()))
        if corr:
            F = F + PSeries(p, 2, D, corr, N)
    _raise_if_not_integral(F, "group law lift")
    return FormalGroupLaw(F, "lubin-tate-lift")


def bracket(logf: Logarithm, a: PadicNum, exp_series: PSeries = None) -> Bracket:
    """The endomorphism [a] = E(a * L(x)) with derivative a."""
    if exp_series is None:
        exp_series = exp_from_log(logf)
    series = exp_series.compose(logf.series, a)
    return Bracket(a, series)


def _is_xp_mod_p(series: PSeries, D: int) -> bool:
    p = series.prime
    red = series.truncate(D).reduce_mod_p()
    for (i,), c in red.coeffs.items():
        if c.is_zero_like():
            continue
        if i != p or c.u % p != 1:
            return False
    return not red.c((p,)).is_zero_like() if D > p else True


def frobenius_multiplier(logf: Logarithm, f: PSeries, exp_series: PSeries = None):
    """Recover the unique pi with v(pi) = 1 and [pi] = x^p mod p.

    Returns (pi, bracket_series) where pi carries only the digits the
    truncation window could pin (the digit at p^k needs degree p^(k+1)+1
    to be visible mod p) and the bracket is taken at the zero-filled
    candidate, which is a genuine endomorphism at full working precision.
    Raises NoCandidate when no digit passes and AmbiguousAtPrecision when
    several do.
    """
    p = f.prime
    M = f.x_prec
    N = f.coeff_prec
    if exp_series is None:
        exp_series = exp_from_log(logf)
    L = logf.series

    def candidate_bracket(unit_digits: int, D: int) -> PSeries:
        return exp_series.truncate(D).compose(L, PadicNum(p, 1, unit_digits, N))

    unit = 0
    ndigits = 0
    k = 0
    while True:
        D = p ** (k + 1) + 1
        if D > M:
            break
        winners = []
        lo = 1 if k == 0 else 0
        for d in range(lo, p):
            cand = unit + d * p**k
            if cand == 0:
                continue
            if _is_xp_mod_p(candidate_bracket(cand, D), D):
                winners.append(d)
        if not winners:
            raise NoCandidate(
                f"no digit at p^{k} satisfies the Frobenius congruence below degree {D}"
            )
        if len(winners) > 1:
            raise AmbiguousAtPrecision(
                f"digits {winners} all satisfy the congruence below degree {D}; raise M"
            )
        unit += winners[0] * p**k
        ndigits += 1
        k += 1
    if ndigits == 0:
        raise NoCandidate("truncation order is too small to pin any digit; raise M")
    series = candidate_bracket(unit, M)
    if not _is_xp_mod_p(series, M):
        raise NoCandidate("recovered scalar fails the congruence at full truncation")
    _raise_if_not_integral(series, "Frobenius bracket")
    pi_report = PadicNum(p, 1, unit, 1 + ndigits)
    pi_full = PadicNum(p, 1, unit, N)
    if not series.c((1,)).congruent(pi_full):
        raise NoCandidate("bracket derivative does not match the recovered scalar")
    return pi_report, Bracket(pi_full, series)
