"""Formal group laws attached to a p-adic dynamical system.

Two independent constructions are implemented and cross-checked.

``group_from_log`` builds F(x, y) = E(L(x) + L(y)) where L is the logarithm
and E its compositional inverse, but never forms a two-variable composition:
writing A_j = E^(j)(L(x)), the chain rule gives A_0 = x and
A_{j+1} = A_j' / L'(x), so F = sum_j A_j(x) L(y)^j / j! costs one univariate
multiplication per Taylor order.  Each order is added into running integer
sums as soon as it is formed (``_TaylorSum``): L(y)^j is divided by j! once,
every monomial keeps its least precision and valuation and one raw sum,
and each coefficient of F is normalised once at the end.

``FormalGroupLaw.check_associative`` expands both sides of
F(F(x,y),z) = F(x,F(y,z)) as linear combinations of the powers of F, which
are formed once as two-variable products.

``lubin_tate_lift`` solves f(F(x,y)) = F(f(x), f(y)) degree by degree with
F = x + y mod degree 2, below the truncation of f; for f congruent to x^p
mod p with f'(0) of valuation 1 the solution is integral and unique, which
is what makes it an independent oracle for the first construction.  Stage d
forms only the degree-d parts of both sides: the Horner intermediates of
f(F) are kept by degree across stages and extended with the degree-graded
product of ``series``, and F(f(x), f(y)) is restricted to the monomials of
degree d.

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
from .padic import INF, PadicNum, reduce_terms, vp_int
from .series import _ABSENT, PSeries, _graded, _graded_mul
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
        ok = self.F.swap_vars(0, 1).equal_to_precision(self.F)
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


def group_from_log(logf: Logarithm, x_prec=None) -> FormalGroupLaw:
    """F(x,y) = E(L(x) + L(y)) via Taylor orders A_j = E^(j)(L(x)).

    Raises IntegralityFailure when a coefficient certifies negative
    valuation; a merely unresolved coefficient raises with certified=False.
    """
    L = logf.series
    p = L.prime
    M = L.x_prec if x_prec is None else min(x_prec, L.x_prec)
    N = L.coeff_prec
    L = L.truncate(M)
    dlog = L.derivative()
    inv_dlog = dlog.inverse()
    acc = _TaylorSum(p, M)
    # Taylor orders in x: A_0 = x, A_{j+1} = A_j' / L'
    A = PSeries.identity(p, M, N)
    Ly_pow = PSeries(p, 1, M, {(0,): PadicNum.one(p, N)}, N)  # L(y)^j
    factorial = 1
    for j in range(0, M):
        if j > 0:
            factorial *= j
        acc.add_order(A, Ly_pow, factorial, j > 0)
        if j + 1 >= M:
            break
        A = A.derivative() * inv_dlog
        if not A.coeffs:
            break
        Ly_pow = Ly_pow * L
        if not Ly_pow.coeffs:
            break
    F = PSeries(p, 2, M, acc.coefficients(), N)
    _raise_if_not_integral(F, "group law from logarithm")
    return FormalGroupLaw(F, "from-log")


class _TaylorSum:
    """Running sums F_ab = sum_j A_j[a] * L(y)^j[b] / j! for a + b < M.

    Each monomial keeps its least term precision K, its least finite term
    valuation m and the raw integer sum R of its finite terms in units of
    p^m; ``coefficients`` normalises each once.  A term's ledger is the
    product rule min(N_a + v'_b, v'_a + N_b), with v' = N for a zero-like
    factor, less v_p(j!).  The result is what adding the terms one by one as
    PadicNum values gives, exceptions included: a zero-like term without
    digits raises, and so does a partial sum once its precision reaches
    K <= 0 with no digit below it.  Monomials come out in the order they
    were first reached.
    """

    __slots__ = ("p", "M", "K", "m", "R", "order")

    def __init__(self, p: int, M: int):
        self.p = p
        self.M = M
        self.K = [_ABSENT] * (M * M)
        self.m = [_ABSENT] * (M * M)
        self.R = [0] * (M * M)
        self.order = []

    def add_order(self, A: PSeries, Ly_pow: PSeries, factorial: int, skip_constant: bool):
        """Add A(x) * Ly_pow(y) / factorial below total degree M."""
        p, M = self.p, self.M
        K, m, R, order = self.K, self.m, self.R, self.order
        w = vp_int(factorial, p)
        rel = max((c.N - c.v for c in Ly_pow.coeffs.values() if c.v != INF), default=1)
        inv = pow(factorial // p**w, -1, p**rel)
        # Ly_pow / j! as (b, v, unit, N, v') in ascending b, the order the
        # packed kernel stores degrees in
        row = []
        for (b,), c in Ly_pow.coeffs.items():
            if b == 0 and skip_constant:
                continue
            if c.v == INF:
                row.append((b, _ABSENT, 0, c.N - w, c.N - w))
            else:
                row.append((b, c.v - w, c.u * inv, c.N - w, c.v - w))
        for (a,), ca in A.coeffs.items():
            za = ca.v == INF
            va, ua, na = ca.v, ca.u, ca.N
            fa = na if za else va
            base = a * M
            for b, vb, ub, nb, fb in row:
                if a + b >= M:
                    break
                if za or vb == _ABSENT:
                    v, r, n = _ABSENT, 0, fa + fb
                    if n <= 0:
                        PadicNum.zero_to_prec(p, n)  # raises, as the product would
                else:
                    v, r = va + vb, ua * ub
                    n = na + vb if na + vb < va + nb else va + nb
                i = base + b
                k = K[i]
                if k == _ABSENT:
                    K[i], m[i], R[i] = n, v, r
                    order.append(i)
                    continue
                if n <= 0 or k <= 0:
                    # the pairwise sum raises here if no digit survives
                    self.value(i) + PadicNum(p, INF if v == _ABSENT else v, r, n)
                if n < k:
                    K[i] = n
                if v != _ABSENT:
                    mi = m[i]
                    if mi == _ABSENT:
                        m[i], R[i] = v, r
                    elif v >= mi:
                        R[i] += r * p ** (v - mi)
                    else:
                        m[i], R[i] = v, R[i] * p ** (mi - v) + r

    def value(self, i: int) -> PadicNum:
        """The normalised sum of monomial i so far."""
        k = self.K[i]
        return PadicNum._from_scaled(self.p, min(self.m[i], k), self.R[i], k)

    def coefficients(self) -> dict:
        return {divmod(i, self.M): self.value(i) for i in self.order}


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
    part of each acc_i and takes [acc_1 F]_d.  The corrections of a stage
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
    acc = [None]
    for i in range(1, D):
        ci = f.coeffs.get((i,))
        acc.append([[((0, 0), ci)] if ci is not None else []])
    # univariate powers of f, reused for F(f(x), f(y)) at every stage
    fpow = [PSeries(p, 1, D, {(0,): one}, N), f]
    for _ in range(2, D - 1):
        fpow.append(fpow[-1] * f)
    cpow = c
    for d in range(2, D):
        cpow = cpow * c  # c^d
        for i in range(d - 1, 0, -1):
            acc[i].append(list(_graded_mul(p, acc[i + 1], Fparts, d - i).items()))
        lhs = _graded_mul(p, acc[1], Fparts, d)
        rhs = _compose_pair(F, fpow, d)
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


def _compose_pair(F: PSeries, fpow, d: int) -> dict:
    """Degree-d part of F(f(x), f(y)) from cached univariate powers of f.

    For each power y^b of F, the inner sum over a of c_ab [f^a]_i comes
    first, then one product with [f^b]_(d-i) per monomial (i, d-i).
    """
    rows: dict = {}
    for (a, b), c in F.coeffs.items():
        rows.setdefault(b, {})[a] = c
    acc: dict = {}
    for b, row in rows.items():
        fy = fpow[b].coeffs
        inner: dict = {}
        for a, c in row.items():
            for (i,), ci in fpow[a].coeffs.items():
                if (d - i,) in fy:
                    t = ci * c
                    prev = inner.get(i)
                    inner[i] = t if prev is None else prev + t
        for i, ci in inner.items():
            t = ci * fy[(d - i,)]
            prev = acc.get((i, d - i))
            acc[(i, d - i)] = t if prev is None else prev + t
    return acc


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
