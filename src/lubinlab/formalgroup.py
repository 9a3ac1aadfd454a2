"""Formal group laws attached to a p-adic dynamical system.

Two independent constructions are implemented and cross-checked.

The logarithm L is taken as a plain PSeries, so this module imports
nothing from ``dynamics``.  A ``PSeries`` has one variable; the law
F(x, y) is a ``FormalGroupLaw``, which keeps its own coefficient table.

``group_from_log`` builds F(x, y) = E(L(x) + L(y)), L the logarithm and E
its compositional inverse, without a two-variable composition: the Taylor
orders A_j = E^(j)(L(x)) satisfy A_0 = x and A_{j+1} = A_j' / L'(x), so
F = sum_a x^a g_a(L(y)) with g_a(t) = sum_j [A_j]_a t^j / j!.  The orders
stay packed, one product each, and each row g_a is one tabled sum against
the power table of L that ``exp_from_log`` built.

``FormalGroupLaw.check_associative`` expands both sides of
F(F(x,y),z) = F(x,F(y,z)) as linear combinations of the powers of F, which
are formed once as part lists (homogeneous parts, see ``series``).

``lubin_tate_lift`` solves f(F(x,y)) = F(f(x), f(y)) degree by degree with
F = x + y mod degree 2, below the truncation of f; for f congruent to x^p
mod p with f'(0) of valuation 1 the solution is integral and unique, which
is what makes it an independent oracle for the first construction.  Stage d
forms only the degree-d parts of both sides: the Horner intermediates of
f(F) are part lists that gain one part per stage, and F(f(x), f(y)) =
sum_b G_b(f(x)) f(y)^b, G_b the column of y^b in F, is read from the power
table of f, each column G_b(f) carried from stage to stage
(``_PowerTable.sum_pair``).

``frobenius_multiplier`` recovers the scalar pi with v(pi) = 1 whose
bracket endomorphism exp(pi * L) reduces to x^p mod p, one base-p digit at
a time: the digit at p^k first influences the mod-p coefficients at degree
p^(k+1), so testing the congruence below min(M, p^(k+1)+1) pins it.  It
returns pi with the series [pi], as ``bracket`` returns the series [a].
"""

from .errors import (
    AmbiguousAtPrecision,
    NoCandidate,
    NonUniqueLift,
    PrecisionExhausted,
)
from .padic import _ABSENT, INF, PadicNum, require_prime
from .series import PSeries, _operand, _pack, _packed_derivative, _packed_div_int, _part, _part_mul, _part_sum, _parts, _product, coefficient_table, coefficients_agree, first_disagreement, raise_if_not_integral


class FormalGroupLaw:
    """Two-variable group law with certification flags: the coefficients
    {(a, b): PadicNum} of x^a y^b below total degree x_prec, cleaned as a
    series' are (``series.coefficient_table``), with the prime and the
    coefficient precision.

    Certificates are computed, not assumed: ``certify`` runs the identity,
    commutativity and (at a smaller truncation) associativity checks and
    records the truncation degree each was verified at.
    """

    __slots__ = ("prime", "x_prec", "coeffs", "coeff_prec", "construction", "certificates")

    def __init__(self, prime, x_prec, coeffs, coeff_prec, construction: str):
        self.prime = require_prime(prime)
        self.x_prec = x_prec
        self.coeffs = coefficient_table(self.prime, x_prec, coeffs, coeff_prec)
        self.coeff_prec = coeff_prec
        self.construction = construction
        self.certificates = {}

    def min_coeff_valuation(self):
        """Least certified valuation floor over all coefficients."""
        return min((c.val_floor() for c in self.coeffs.values()), default=INF)

    def equal_to_precision(self, other: "FormalGroupLaw") -> bool:
        """Coefficient-wise congruence below the lesser truncation, by
        ``series.coefficients_agree``."""
        return coefficients_agree(self.prime, self.coeffs, other.coeffs, min(self.x_prec, other.x_prec))

    def check_identity(self) -> bool:
        """F(x, 0) = x and F(0, y) = y, each side keyed (a,) as a series, by
        ``series.coefficients_agree``."""
        p, M = self.prime, self.x_prec
        x = {(1,): PadicNum.one(p, self.coeff_prec)}
        ok = all(coefficients_agree(p, {(e[i],): c for e, c in self.coeffs.items() if not e[1 - i]}, x, M) for i in (0, 1))
        self.certificates["identity"] = {"ok": ok, "degree": M}
        return ok

    def check_commutative(self) -> bool:
        """F(x, y) = F(y, x) by ``first_disagreement`` over the pairs c_ab
        and c_ba, a <= b, and c_ab against the exact zero where the mirror
        is absent.  (A diagonal coefficient meets itself, which only one
        without digits leaves undecided.)"""
        coeffs = self.coeffs
        zero = PadicNum.exact_zero(self.prime)
        pairs = (((a, b), c, coeffs.get((b, a), zero)) for (a, b), c in coeffs.items() if a <= b or (b, a) not in coeffs)
        ok = first_disagreement(pairs) is None
        self.certificates["commutative"] = {"ok": ok, "degree": self.x_prec}
        return ok

    def check_associative(self, m2: int) -> bool:
        """F(F(x,y),z) = F(x,F(y,z)) in the 3-variable ring below degree
        D = min(m2, x_prec), the degree the certificate records, compared
        coefficient by coefficient by ``series.coefficients_agree``
        (``_sides``).  Both expansions claim only digits their ledgers
        support, so agreement certifies associativity at those digits."""
        D = min(m2, self.x_prec)
        ok = coefficients_agree(self.prime, *_sides(self, D))
        self.certificates["associative"] = {"ok": ok, "degree": D}
        return ok

    def certify(self, m2: int) -> bool:
        return self.check_identity() and self.check_commutative() and self.check_associative(m2)


def _sides(F: FormalGroupLaw, D: int) -> list:
    """F(F(x,y), z) = sum c_ab z^b F(x,y)^a and F(x, F(y,z)) = sum c_ab x^a
    F(y,z)^b below total degree D, {(x, y, z) exponents: coefficient}: the
    powers F^k = F^(k-1) F are part lists, and the degree-e part of a side
    is one ``_part_sum`` over the pairs of c_ab and a part of F^k.  A
    coefficient of a power without digits raises, at the first in graded
    order; one of a side is kept, zero-like at its precision K <= 0, for the
    comparison to decide."""
    p, parts = F.prime, _parts(F, D)
    powers = [[(0, [(0, 1, _ABSENT, 0)])] + [(0, [])] * (D - 1), parts]  # F^0 is the exact 1
    for _ in range(2, D):
        powers.append([_part(p, _part_mul(p, powers[-1], parts, e)) for e in range(D)])
    # left: x^i y^j z^l at key i D + j; right: x^a y^i z^j at key a D + i
    lpow = [[(s, [(i * D + k - i, *t) for i, *t in P]) for k, (s, P) in enumerate(pw)] for pw in powers]
    sides = [{}, {}]
    for side, left in zip(sides, (True, False)):
        cs = [(a, b, _part(p, [(0 if left else a * D, c)])) for (a, b), c in F.coeffs.items() if a + b < D]
        for e in range(D):
            pairs = [(c, lpow[a][e - b] if left else powers[b][e - a]) for a, b, c in cs if (b if left else a) <= e]
            for key, c in _part_sum(p, pairs, e * D + 1, raises=False):
                side[key // D, key % D, e - key // D - key % D] = c
    return sides


def exp_from_log(L: PSeries) -> PSeries:
    """The exponential E, the compositional inverse of the logarithm
    series L.

    This is the named exponential: callers form it once and pass it to
    ``bracket`` and ``frobenius_multiplier``, and ``bench/tracer.py`` times
    it as its own layer.
    """
    return L.reversion()


def group_from_log(L: PSeries) -> FormalGroupLaw:
    """F(x,y) = E(L(x) + L(y)) = sum_a x^a g_a(L(y)), g_a(t) = sum_j [A_j]_a t^j / j!.

    The orders A_0 = x, A_{j+1} = A_j' / L' (below degree M - j - 1) stay
    packed, one derivative and one product with 1/L' each (1/L' laid out
    once as an operand of ``series._product``), and are divided
    by j! exactly (``series._packed_div_int``).  Each row g_a is one tabled
    sum over degrees 1 <= b < M - a against the power table of L
    (``_PowerTable.sum_orders``), grown at most to the last order; F_10 = 1
    is the j = 0 term.  A coefficient without digits at precision <= 0
    raises PrecisionExhausted, as ``reduce_terms`` does.

    Raises IntegralityFailure as ``series.raise_if_not_integral`` does.
    """
    p, M, N = L.prime, L.x_prec, L.coeff_prec
    inv_dlog = _operand(p, _pack(L.derivative().inverse().coeffs, M - 1))
    A = _pack({(1,): PadicNum.one(p, N)}, M)
    orders = [A]  # A_j / j!
    factorial = 1
    for j in range(1, M):
        A = _product(p, _operand(p, _packed_derivative(p, A)), inv_dlog, M - j)[0]
        factorial *= j
        orders.append(_packed_div_int(p, A, factorial))
    coeffs = L.power_table().sum_orders(orders)
    del orders, A
    G = FormalGroupLaw(p, M, {(1, 0): PadicNum.one(p, N), **coeffs}, N, "from-log")
    raise_if_not_integral(G, "group law from logarithm")
    return G


def lubin_tate_lift(f: PSeries, x_prec: int) -> FormalGroupLaw:
    """Unique integral F with f(F(x,y)) = F(f(x), f(y)) and F = x+y mod deg 2.

    Solved degree by degree below min(x_prec, f.x_prec); the degree-d
    correction is the degree-d defect divided by f'(0)^d - f'(0), a scalar of
    valuation exactly 1 when v(f'(0)) = 1.  Non-integral corrections mean the
    preconditions fail and raise NonUniqueLift (certified) or
    PrecisionExhausted (unresolved).

    Stage d forms only degree-d parts, on part lists.  The Horner
    intermediates acc_i = sum_{k>=i} c_k F^(k-i) of f(F) gain their
    degree-(d-i) part, [acc_(i+1) F]_(d-i), which reads only parts earlier
    stages fixed, and the left side is [acc_1 F]_d.  The right side is the
    degree-d part of F(f(x), f(y)) from the power table of f
    (``_PowerTable.sum_pair``), and F gains the corrections as its part d.
    The corrections of a stage are checked in exponent order.  A certified
    failure anywhere in the stage decides the lift: the first one raises
    NonUniqueLift, and a stage raises PrecisionExhausted (its first
    unresolved correction) only when it has no certified failure.
    """
    if f.coeff_prec == INF:
        raise ValueError("lubin_tate_lift needs a finite coeff_prec: its law starts from x + y known to coeff_prec")
    p, N, c = f.prime, f.coeff_prec, f.linear_coeff()
    D = min(x_prec, f.x_prec)
    f = f.truncate(D)
    part = [(1, PadicNum.one(p, N)), (0, PadicNum.one(p, N))]  # F's degree-1 part, x^a y^(1-a) at key a
    F, Fparts = {(a, 1 - a): x for a, x in part}, [_part(p, []), _part(p, part)]
    # acc[i][e]: the degree-e part of acc_i; its degree-0 part is c_i
    acc = [None] + [[_part(p, [(0, f.coeffs[(i,)])] if (i,) in f.coeffs else [])] for i in range(1, D)]
    powers, columns, cpow = f.power_table(), [], c
    for d in range(2, D):
        cpow = cpow * c  # c^d
        for i in range(d - 1, 0, -1):
            acc[i].append(_part(p, _part_mul(p, acc[i + 1], Fparts, d - i)))
        lhs = {(a, d - a): x for a, x in _part_mul(p, acc[1], Fparts, d)}
        rhs = powers.sum_pair(columns, part, d)
        denom, corr, unresolved = cpow - c, {}, None
        for e in sorted(lhs.keys() | rhs.keys()):
            left, right = lhs.get(e), rhs.get(e)
            try:
                coeff = -right if left is None else left if right is None else left - right
                # a zero-like defect still bounds the correction: storing it
                # (rather than leaving an exact zero) keeps F's precision honest
                delta = coeff / denom
            except PrecisionExhausted as ex:
                unresolved = unresolved or PrecisionExhausted(f"degree-{d} correction at {e} unresolved: {ex}")
                continue
            # a zero-like quotient keeps a positive precision, so a negative
            # floor is a certified valuation
            if delta.val_floor() < 0:
                raise NonUniqueLift(f"no integral lift: degree-{d} correction at {e} has valuation {delta.val_floor()}")
            corr[e] = delta
        if unresolved is not None:
            raise unresolved
        part = [(a, delta) for (a, _), delta in corr.items()]
        Fparts.append(_part(p, part))
        F.update(corr)
    G = FormalGroupLaw(p, D, F, N, "lubin-tate-lift")
    raise_if_not_integral(G, "group law lift")
    return G


def bracket(L: PSeries, a: PadicNum, exp_series: PSeries = None) -> PSeries:
    """The endomorphism [a] = E(a * L(x)) with derivative a."""
    if exp_series is None:
        exp_series = exp_from_log(L)
    return exp_series.compose(L, a)


def _is_xp_mod_p(series: PSeries, D: int) -> bool:
    p = series.prime
    red = series.truncate(D).reduce_mod_p()
    for (i,), c in red.coeffs.items():
        if c.is_zero_like():
            continue
        if i != p or c.u % p != 1:
            return False
    return not red.c((p,)).is_zero_like() if D > p else True


def frobenius_multiplier(L: PSeries, f: PSeries, exp_series: PSeries = None):
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
        exp_series = exp_from_log(L)

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
    raise_if_not_integral(series, "Frobenius bracket")
    pi_report = PadicNum(p, 1, unit, 1 + ndigits)
    pi_full = PadicNum(p, 1, unit, N)
    if first_disagreement([(1, series.c((1,)), pi_full)]) is not None:
        raise NoCandidate("bracket derivative does not match the recovered scalar")
    return pi_report, series
