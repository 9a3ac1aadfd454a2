"""Truncated power series in one variable over p-adic scalars.

A series stores its coefficients below x^x_prec as the packed lists laid
out below (``PSeries.packed``); the dict {(e,): PadicNum} of ``coeffs``
is a view.  An absent slot is an exact zero; a coefficient that merely
vanished to its working precision stays stored, so the truncation-honesty
machinery downstream (Newton polygons) can see the difference.
``coeff_prec`` is the ambient p-adic precision used when coercing plain
integers or rationals into coefficients (``coefficient_table``, which
also cleans the coefficients of the law of ``formalgroup``, and is the one
place that checks that x_prec and coeff_prec are ints).  The kernels
read and return packed lists, made a series by ``_unpack``: a sum
slot by slot under the rule of ``PadicNum.__add__`` (``_packed_add``), a
product in two stages: an operand stage (``_operand``) drops a series'
leading exact zeros (its x-adic order) and lays out its values and
precision pairs once, and a product stage (``_product``) multiplies two
operands and returns the result both packed and as an operand; a
series product is the two in a row.  Each product and tabled sum
normalises its slots with one ``padic.reduce_terms``, the one
normalise-and-raise rule of the kernels.
A derivative multiplies slot k by the exact integer k
(``_packed_derivative`` under ``padic.scale_int``).  Inverses and the
quotients of monic divisions are one recurrence on the same lists
(``_packed_solve``): each coefficient is one sum against those already
found (``_fold``), normalised by ``padic._scaled``, the rule of a scalar,
and divided by ``padic.div_triples``, the rule of
``PadicNum.__truediv__``, with no ``PadicNum`` per coefficient.  The
min-plus ledger min(N_a + v'_b, v'_a + N_b) has three copies here:
``_ledger`` for products, ``_fold`` for the solve and ``_PowerTable.sum``
for tabled sums.  The fourth, the part kernel of a two-variable law
(``formalgroup._part_sum``), lives with the law: this module knows
nothing of a law.

Series and certificates compare by one rule, ``first_disagreement`` on
(v, u, N) triples under ``padic.congruent_triples``: a pair of
coefficients disagrees only at digits both claim, and a pair with no such
digit leaves the comparison undecided unless another pair disagrees,
whatever order the pairs come in.  A series compares its packed slots
(``PSeries.disagreement``), and a law of ``formalgroup`` its parts.

Composition costs no series products of its own: the first series
substituted into another gets a power table (``_PowerTable``),
the powers h^1, h^2, ... kept as per-degree columns and grown only to the
highest power a composition reads, each one product of h's operand and
the last power's.  g(h) is then, at each degree d, the sum of c_k
[h^k]_d (``_PowerTable.sum``); so are a multiple g(a h) and a
truncation, which is how the iterate chain (``_iterates``), the brackets
and the Frobenius search share the tables of f and of the logarithm.  On
inner series without constant term truncation commutes with
composition, so no x-adic accuracy is lost beyond min(x_prec).  Reversion
and the logarithm recurrence of ``dynamics`` are one degree-by-degree solve
against the same table (``_solve_by_powers``), and each row of the group
law of ``formalgroup`` is one sum against the table of the logarithm, as
are the columns and rows of the Lubin-Tate lift's F(f(x), f(y)) against
the table of f; ``formalgroup`` lays those rows out itself.
"""

import json
from fractions import Fraction
from operator import add, mul

from .errors import (
    ConstantTermError,
    IntegralityFailure,
    NotInvertible,
    PrecisionExhausted,
    PrimeMismatch,
)
from .padic import _ABSENT, _HALF, INF, PadicNum, _scaled, add_triples, congruent_triples, div_triples, neg_unit, prime_powers, reduce_terms, require_prime, scale_int, vp_int


class PSeries:
    """Dense truncated power series in one variable, stored as the packed
    lists below x_prec (``packed``, laid out as ``_cut`` cuts them) of the
    coefficients {(e,): value} given; ``coeffs`` derives that dict back."""

    __slots__ = ("prime", "x_prec", "packed", "coeff_prec", "_powers", "_factoring")
    nvars = 1  # the benchmark's tracer names series spans by it

    def __init__(self, prime, x_prec, coeffs, coeff_prec):
        self.prime = require_prime(prime)
        self.x_prec = x_prec
        self.coeff_prec = coeff_prec
        for e in coeffs:
            if type(e) is not tuple or len(e) != 1 or type(e[0]) is not int:  # not isinstance: true is no exponent
                raise ValueError(f"series coefficient key {e!r} is not one exponent (e,)")
        self.packed = _pack(coefficient_table(self.prime, x_prec, coeffs, coeff_prec), x_prec)
        self._powers = None  # the power table, once the series is substituted
        self._factoring = None  # the Weierstrass work of ``polygon.weierstrass_factor``, once factored

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, p, M, N):
        """The series x in one variable."""
        return cls(p, M, {(1,): PadicNum.one(p, N)}, N)

    @classmethod
    def from_univariate_coeffs(cls, p, coeffs, M, N, shift=1):
        """Series sum_i coeffs[i] * x^(shift+i) from ints/Fractions."""
        return cls(p, M, {(shift + i,): Fraction(c) for i, c in enumerate(coeffs) if shift + i < M}, N)

    # -- basic access ------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The dict {(e,): PadicNum} of the present slots, built on each read."""
        return {(e,): self.c(e) for e, n in enumerate(self.packed[2]) if n != _ABSENT}

    def c(self, e) -> PadicNum:
        """The coefficient of x^e, e an int or (e,), read off the lists (an
        exact zero where the slot is absent)."""
        if not isinstance(e, int):
            (e,) = e
        V, U, N = self.packed
        if 0 <= e < len(N) and N[e] != _ABSENT:
            return PadicNum(self.prime, INF if V[e] == _ABSENT else V[e], U[e], N[e])
        return PadicNum.exact_zero(self.prime)

    @property
    def s0(self) -> bool:
        """True when the constant term is exactly zero."""
        return self.packed[2][0] == _ABSENT

    def linear_coeff(self) -> PadicNum:
        return self.c(1)

    def min_val_floor(self):
        """Least certified valuation lower bound over stored coefficients."""
        return min((n if v == _ABSENT else v for _, v, n in self.valuations()), default=INF)

    def valuations(self) -> list:
        """(exponents, v, N) of each stored coefficient, v _ABSENT where it is
        zero-like, read off the packed lists, as a law gives them."""
        V, _, N = self.packed
        return [((e,), v, n) for e, (v, n) in enumerate(zip(V, N)) if n != _ABSENT]

    def __repr__(self):
        coeffs = sorted(self.coeffs.items())
        items = ", ".join(f"{exps}:{c!r}" for exps, c in coeffs[:6])
        more = "..." if len(coeffs) > 6 else ""
        return f"PSeries(p={self.prime}, M={self.x_prec}, {{{items}{more}}})"

    # -- compatibility ------------------------------------------------------

    def _align(self, other) -> "PSeries":
        if not isinstance(other, PSeries):
            raise TypeError("expected PSeries")
        if other.prime != self.prime:
            raise PrimeMismatch("mixed primes in series operation")
        return other

    # -- ring operations -----------------------------------------------------

    def __add__(self, other, negate=False):
        """Sum (with ``negate`` difference) of two series: ``_packed_add``."""
        other = self._align(other)
        M, p = min(self.x_prec, other.x_prec), self.prime
        N = min(self.coeff_prec, other.coeff_prec)
        return _unpack(p, _packed_add(p, self.truncate(M).packed, other.truncate(M).packed, negate), M, N)

    def __sub__(self, other):
        return self.__add__(other, negate=True)

    def __mul__(self, other):
        """Product of two series: the ``_product`` of their operands."""
        other = self._align(other)
        M, p = min(self.x_prec, other.x_prec), self.prime
        N = min(self.coeff_prec, other.coeff_prec)
        return _unpack(p, _product(p, _operand(p, self.truncate(M).packed), _operand(p, other.truncate(M).packed), M)[0], M, N)

    def derivative(self) -> "PSeries":
        """Formal derivative; the truncation order drops by 1
        (``_packed_derivative``, which the Taylor orders of ``formalgroup``
        share)."""
        return _unpack(self.prime, _packed_derivative(self.prime, self.packed), self.x_prec - 1, self.coeff_prec)

    def truncate(self, M: int) -> "PSeries":
        if M >= self.x_prec:
            return self
        return _unpack(self.prime, self.packed, M, self.coeff_prec)

    def cap_coeff_prec(self, N) -> "PSeries":
        return PSeries(self.prime, self.x_prec, {e: c.cap_prec(N) for e, c in self.coeffs.items()}, min(self.coeff_prec, N))

    # -- composition ------------------------------------------------------------

    def compose(self, h, a: PadicNum = None) -> "PSeries":
        """g(a h) below the lesser x_prec of g and h, for h(0) = 0: at
        degree d, the sum of c_k a^k [h^k]_d over the power table of h.  a
        defaults to 1."""
        h = self._align(h)
        M = min(self.x_prec, h.x_prec)
        g = self.truncate(M).packed
        if a is not None:
            apow = [None, a]  # a^k = a^(k-1) a
            for _ in range(2, len(g[0])):
                apow.append(apow[-1] * a)
            g = _pack({(k,): c * apow[k] if k else c for (k,), c in self.truncate(M).coeffs.items()}, M)
        V, U, N = h.power_table().sum(g, 1, M)
        packed = g[0][:1] + V, g[1][:1] + U, g[2][:1] + N
        return _unpack(self.prime, packed, M, min(self.coeff_prec, h.coeff_prec))

    def power_table(self) -> "_PowerTable":
        """The power table of this series, built on first use;
        a series with a constant term has none (ConstantTermError)."""
        if not self.s0:
            raise ConstantTermError("substituted series has a constant term")
        self._powers = self._powers or _PowerTable(self)
        return self._powers

    def release_powers(self):
        """Free the power table of this series; a later composition into it
        builds the table again."""
        self._powers = None

    def reversion(self) -> "PSeries":
        """Compositional inverse h with h(g(x)) = x = g(h(x)) to truncation.

        Solved degree by degree from rev(g(x)) = x against the powers of g
        (``_solve_by_powers`` with lam = 0); each step divides by g'(0)^n,
        so a non-unit linear coefficient costs n*v(g'(0)) digits at degree n
        (recorded by the scalars themselves).
        """
        a1 = self.linear_coeff()
        if a1.is_zero_like():
            raise NotInvertible("linear coefficient is zero to precision")
        one = PadicNum.one(self.prime, self.coeff_prec)
        return _solve_by_powers(self, one / a1, PadicNum.exact_zero(self.prime))

    def inverse(self) -> "PSeries":
        """Multiplicative inverse of a series with unit constant term a_0:
        b_0 = 1/a_0 and b_n = -(sum_(k=1..n) a_k b_(n-k)) / a_0, one packed
        solve (``_packed_solve``) whose sums follow the ledger rule of
        ``reduce_terms``."""
        a0 = self.c(0)
        if a0.v != 0:
            raise NotInvertible("constant term is not a unit")
        M, p = self.x_prec, self.prime
        one = _pack({(0,): PadicNum.one(p, self.coeff_prec)}, 1)
        a = _factor(p, *(x[1:] for x in self.packed))  # a_1, a_2, ...
        return _unpack(p, _packed_solve(p, a, one, M, a0), M, self.coeff_prec)

    # -- reduction and shape mod p -------------------------------------------

    def reduce_mod_p(self) -> "PSeries":
        """Image in F_p[[x]]: every coefficient reduced modulo p (precision 1),
        on the packed lists.  The first coefficient, by degree, of certified
        negative valuation has no image and raises IntegralityFailure, or
        the first zero-like one known to no digit PrecisionExhausted."""
        V, U, _ = self.packed
        for e, v, n in self.valuations():
            if v < 0:
                raise IntegralityFailure(f"coefficient at {e} has valuation {v}, no image modulo p", exponents=e)
            if v == _ABSENT and n < 1:
                raise PrecisionExhausted("coefficient unresolved modulo p")
        unit = [v == 0 for v in V]
        return _unpack(self.prime, ([0 if w else _ABSENT for w in unit], [u % self.prime if w else 0 for w, u in zip(unit, U)], [1 if w else _ABSENT for w in unit]), self.x_prec, 1)

    def weierstrass_degree(self):
        """Least index with a unit coefficient, or None below the truncation."""
        return next((i for i, v in enumerate(self.packed[0]) if v == 0), None)

    def equal_to_precision(self, other) -> bool:
        """Coefficient-wise congruence below the lesser truncation."""
        return self.disagreement(other) is None

    def disagreement(self, other):
        """The least degree below the lesser truncation at which the
        coefficients of self and other disagree, or None, by
        ``first_disagreement`` over their packed slots (an absent one the
        exact zero)."""
        other = self._align(other)
        M = min(self.x_prec, other.x_prec)
        return first_disagreement(self.prime, zip(range(M), zip(*_padded(self.packed, M)), zip(*_padded(other.packed, M))))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        entries = [[list(e), str(c.as_fraction())] for e, c in sorted(self.coeffs.items()) if not c.is_zero_like()]
        return {"p": self.prime, "M": self.x_prec, "N": self.coeff_prec, "coeffs": entries}

    @classmethod
    def from_json(cls, obj: dict, cap=(INF, INF)) -> "PSeries":
        """The univariate series of ``to_json`` below x^min(M, cap M), built
        at min(N, cap N) digits, cap the (M, N) of a run.  A malformed object
        raises ValueError naming its field: p, M and N are JSON integers, N >=
        1, and each entry of coeffs is [[exponent], value], one nonnegative
        integer exponent, given once, and an integer or "a/b" value."""
        for key in ("p", "M", "N"):
            if type(obj.get(key)) is not int:  # not isinstance: true is no integer
                raise ValueError(f"series field {key!r} must be an integer, got {json.dumps(obj.get(key))}")
        if obj["N"] < 1:
            raise ValueError(f"series field 'N' must be at least 1, got {obj['N']}")
        if not isinstance(obj.get("coeffs"), list):
            raise ValueError(f"series field 'coeffs' must be a list, got {json.dumps(obj.get('coeffs'))}")
        p, M, N = require_prime(obj["p"]), min(obj["M"], cap[0]), min(obj["N"], cap[1])
        coeffs = {}
        for item in obj["coeffs"]:
            try:
                (e,), value = item
                if type(value) not in (int, str) or type(e) is not int or e < 0:
                    raise ValueError
                c = PadicNum.from_fraction(Fraction(value), p, N)
            except (TypeError, ValueError, ZeroDivisionError):
                msg = f"series field 'coeffs' needs univariate [[exponent >= 0], value] entries, got {json.dumps(item)}"
                raise ValueError(msg) from None
            if (e,) in coeffs:
                raise ValueError(f"series field 'coeffs' gives exponent {e} twice")
            coeffs[(e,)] = c
        return cls(p, M, coeffs, N)


def coefficient_table(p: int, x_prec, coeffs: dict, coeff_prec) -> dict:
    """The coefficients {exponents: PadicNum} of total degree below x_prec,
    ints and Fractions coerced at coeff_prec and exact zeros dropped, of a
    series or of a two-variable law (``formalgroup.FormalGroupLaw``), the
    one check of both precisions: x_prec and coeff_prec are ints, or
    ValueError names the one that is not.  A coefficient of another prime
    raises PrimeMismatch, and ValueError one at a negative exponent, which
    has no slot, or one given of finite valuation and infinite precision,
    which the kernels read as an absent slot."""
    if type(x_prec) is not int or type(coeff_prec) is not int:  # not isinstance: True is no precision
        name, prec = ("x_prec", x_prec) if type(x_prec) is not int else ("coeff_prec", coeff_prec)
        raise ValueError(f"{name} must be an integer, got {prec!r}")
    clean = {}
    for exps, c in coeffs.items():
        if min(exps) < 0:
            raise ValueError(f"coefficient at {exps} has a negative exponent")
        if sum(exps) >= x_prec:
            continue
        if not isinstance(c, PadicNum):
            c = PadicNum.from_fraction(Fraction(c), p, coeff_prec)
        elif c.p != p:
            raise PrimeMismatch("coefficient prime differs from series prime")
        if c.N == INF and c.v != INF:
            raise ValueError(f"coefficient at {exps} has finite valuation and infinite precision")
        if not c.is_exact_zero():
            clean[exps] = c
    return clean


def first_disagreement(p: int, pairs):
    """The key of the first (key, a, b) in ``pairs`` whose triples a = (v, u,
    N) and b are not congruent at P = min of their N
    (``padic.congruent_triples``), or None when no pair disagrees.  A pair
    with P <= 0 has no digits and neither agrees nor disagrees: when no
    pair disagrees and one has no digits, the comparison is undecided and
    raises PrecisionExhausted, naming the least such key.  So the outcome
    does not depend on the order of the pairs; only which disagreement is
    named does."""
    unresolved = []
    for key, a, b in pairs:
        P = min(a[2], b[2])
        if P <= 0:
            unresolved.append(key)
        elif a != b and not congruent_triples(p, a[0], a[1], b[0], b[1], P):
            return key
    if unresolved:
        raise PrecisionExhausted(f"compared coefficients at {min(unresolved)} carry no digits")
    return None


def raise_if_not_integral(F, what: str):
    """Raise IntegralityFailure at the least exponent whose coefficient in
    F.valuations() (F a series or a law) certifies a negative valuation,
    or else, with certified=False, at the least whose valuation floor is
    merely unresolved below 0."""
    bad = [(v == _ABSENT, e, floor) for e, v, n in F.valuations() if (floor := n if v == _ABSENT else v) < 0]
    if bad:
        unresolved, e, floor = min(bad)
        raise IntegralityFailure(f"{what}: coefficient at {e} has valuation floor {floor}", exponents=e, certified=not unresolved)


def _solve_by_powers(h: PSeries, a1: PadicNum, lam: PadicNum) -> PSeries:
    """The series sum a_n x^n with a_1 = a1 and, for 2 <= n < M,

        (c^n - lam) a_n = -sum_{k<n} a_k [h^k]_n,        c = h'(0),

    against the power table of a univariate h without constant term.  lam
    = 0 and a1 = 1/c give the compositional inverse of h; lam = c and a1 = 1
    the logarithm of h.  Each degree is one tabled sum over the a_k found so
    far, cut at the last present one, so a sparse solution reads no power
    of h past it; the denominator c^n - lam (c^n one multiplication after
    c^(n-1)) is formed after the sum, and one that is zero to its precision
    raises PrecisionExhausted.
    """
    p, table = h.prime, h.power_table()
    V, U, N = [_ABSENT, _ABSENT if a1.v == INF else a1.v], [0, a1.u], [_ABSENT, a1.N]  # packed a_0, a_1
    cpow = c = h.linear_coeff()
    top = 2  # every slot from top on is absent
    for n in range(2, h.x_prec):
        cpow = cpow * c  # c^n
        (v,), (u,), (K,) = table.sum((V[:top], U[:top], N[:top]), n, n + 1)
        denom = cpow - lam
        if denom.is_zero_like():
            raise PrecisionExhausted(f"recurrence denominator vanishes at degree {n}")
        if K != _ABSENT:
            a = -PadicNum(p, INF if v == _ABSENT else v, u, K) / denom
            v, u, K = _ABSENT if a.v == INF else a.v, a.u, a.N
            top = n + 1
        V.append(v)
        U.append(u)
        N.append(K)
    return _unpack(p, (V, U, N), h.x_prec, h.coeff_prec)


def _iterates(f: PSeries, M: int = None):
    """The packed iterates f^1, f^2, ... of a univariate f without constant
    term, f^(n+1) = f^n ∘ f, below x^M (f's truncation by default, at most
    that): each one tabled sum on the power table of f of the last, cut at
    its highest present slot as ``compose`` packs it.  A degree is one sum
    over the lower degrees of the last iterate, so the iterates below a
    lesser M hold exactly the slots of the whole ones there."""
    M = f.x_prec if M is None else M
    fn, table = PSeries.identity(f.prime, M, f.coeff_prec).packed, f.power_table()
    while True:
        V, U, N = table.sum(fn, 1, M)
        top = max((d for d, n in enumerate(N, 1) if n != _ABSENT), default=0)
        fn = [_ABSENT] + V[:top], [0] + U[:top], [_ABSENT] + N[:top]
        yield fn


# -- packed univariate kernel ------------------------------------------------
#
# A univariate series below degree M is packed as three lists indexed by
# degree: V (valuation), U (unit residue) and N (absolute precision).  The
# int ``padic._ABSENT`` stands for INF in V (coefficient zero-like or absent)
# and in N (coefficient absent, i.e. an exact zero); keeping every entry an
# int keeps the min-plus ledger in integer arithmetic.


def _pack(coeffs: dict, M: int):
    """(V, U, N) lists of univariate coefficients below degree M, at least
    one slot long (slot 0 absent when there is no coefficient)."""
    top = max((e for (e,) in coeffs if e < M), default=0)
    V = [_ABSENT] * (top + 1)
    U = [0] * (top + 1)
    N = [_ABSENT] * (top + 1)
    for (e,), c in coeffs.items():
        if e < M:
            if c.v != INF:
                V[e] = c.v
                U[e] = c.u
            N[e] = c.N
    return V, U, N


def _unpack(p: int, packed, M: int, coeff_prec) -> PSeries:
    """The series whose store is a kernel's packed result, cut at M by
    ``_cut``, with no ``PadicNum``: a kernel's slots have finite precisions."""
    s = PSeries(p, M, {}, coeff_prec)
    s.packed = _cut(packed, M)
    return s


def _cut(a, M: int = _ABSENT):
    """Packed a below degree M, cut after its highest present slot, one
    slot at least (new lists): the layout of a series' store."""
    top = max((e for e, n in enumerate(a[2][: max(M, 0)]) if n != _ABSENT), default=-1)
    return tuple(x[: top + 1] or [fill] for x, fill in zip(a, (_ABSENT, 0, _ABSENT)))


def _packed_add(p: int, a, b, negate: bool = False):
    """a + b, or a - b with ``negate``, of packed lists slot by slot: a slot
    absent on one side is the other's (b's negated as ``PadicNum.__neg__``
    negates), and two present slots meet under ``padic.add_triples``, the
    rule of ``PadicNum.__add__``, which raises at the first slot, by
    degree, that keeps no digit."""
    V, U, N = _padded(a, max(len(a[0]), len(b[0])))
    for k, (vb, ub, nb) in enumerate(zip(*b)):
        if nb == _ABSENT:
            continue
        if negate and vb != _ABSENT:
            ub = neg_unit(p, vb, ub, nb)
        if N[k] != _ABSENT:
            vb, ub, nb = add_triples(p, INF if V[k] == _ABSENT else V[k], U[k], N[k], INF if vb == _ABSENT else vb, ub, nb)
            vb = _ABSENT if vb == INF else vb
        V[k], U[k], N[k] = vb, ub, nb
    return V, U, N


def _padded(a, L: int):
    """Packed a cut, or padded with absent slots, to max(L, 0) slots (new lists)."""
    return tuple(x[: max(L, 0)] + [fill] * (L - len(x)) for x, fill in zip(a, (_ABSENT, 0, _ABSENT)))


def _packed_derivative(p: int, c):
    """The derivative of a packed series: slot k - 1 is c_k times the exact
    integer k (``padic.scale_int``, the rule of ``PadicNum`` times an int).
    The lists end at the highest present slot, as ``_pack`` lays them out."""
    V, U, N = c
    top = max((k for k, n in enumerate(N) if k and n < _HALF), default=1)
    dV, dU, dN = [_ABSENT] * top, [0] * top, [_ABSENT] * top
    for k in range(1, len(N)):
        if N[k] < _HALF:
            v, u, n = scale_int(p, INF if V[k] == _ABSENT else V[k], U[k], N[k], k)
            dV[k - 1], dU[k - 1], dN[k - 1] = _ABSENT if v == INF else v, u, n
    return dV, dU, dN


def _packed_div_int(p: int, c, q: int):
    """A packed series divided exactly by an integer q >= 1, slot by slot as
    ``PadicNum.div_int`` divides: valuations and precisions drop by v_p(q),
    and each unit is multiplied by the inverse of q's unit part modulo its
    own slot's p^(N - v).  A zero-like slot whose N - v_p(q) is <= 0 is
    kept at that precision, where ``div_int`` raises."""
    V, U, N = c
    w = vp_int(q, p)
    top = max((n - v for v, n in zip(V, N) if v != _ABSENT), default=1)
    P = prime_powers(p, top)
    inv = pow(q // p**w, -1, P[top])
    return (
        [v if v == _ABSENT else v - w for v in V],
        [u if v == _ABSENT else u * inv % P[n - v] for v, u, n in zip(V, U, N)],
        [n if n >= _HALF else n - w for n in N],
    )


def _kronecker(p: int, V, U):
    """Shift to the least finite valuation s; return (s, nonnegative ints)."""
    s = min(V, default=_ABSENT)
    if s >= _HALF:
        return 0, None
    P = prime_powers(p, max(filter(_HALF.__gt__, V)) - s)
    return s, [u * P[v - s] if v < _HALF else 0 for v, u in zip(V, U)]


def _order(N) -> int:
    """Number of leading absent slots (exact zeros) of a packed series."""
    return next((i for i, n in enumerate(N) if n < _HALF), len(N))


class _Operand:
    """A packed series as a factor of ``_product``: its x-adic order t (the
    leading absent slots, dropped here) and, of the slots from t on, the
    valuations V, the precisions N, the least finite valuation s and the
    values X over p^s (None when no slot has a finite valuation).  The
    interleaved (N, v') ledger pairs and the byte layout of X, at the slot
    width last asked for (a table's products mostly repeat the width), are
    made on first use."""

    __slots__ = ("t", "V", "N", "s", "X", "bits", "_pairs", "width", "laid")

    def __init__(self, t: int, V, N, s: int, X):
        self.t, self.V, self.N, self.s, self.X = t, V, N, s, X
        self.bits = max(X).bit_length() if X else 0
        self._pairs = self.width = self.laid = None

    def pairs(self) -> list:
        """[N_0, v'_0, N_1, v'_1, ...], v' the valuation floor."""
        if self._pairs is None:
            self._pairs = [x for v, n in zip(self.V, self.N) for x in (n, n if v >= _HALF else v)]
        return self._pairs

    def layout(self, w: int, n: int) -> int:
        """The first n values of X as one integer of w-byte slots."""
        if w != self.width:
            self.width, self.laid = w, int.from_bytes(b"".join(y.to_bytes(w, "little") for y in self.X), "little")
        return self.laid if n >= len(self.X) else self.laid & ((1 << 8 * w * n) - 1)


def _operand(p: int, packed) -> _Operand:
    """The operand stage: a packed series as a factor of ``_product``."""
    V, U, N = packed
    t = _order(N)
    V, U, N = V[t:], U[t:], N[t:]
    return _Operand(t, V, N, *_kronecker(p, V, U))


def _product(p: int, a: _Operand, b: _Operand, M: int, raises: bool = True, ledgers: dict = None):
    """The product stage: the product of two operands below degree M, as
    (packed series, operand).

    Values come from one big-integer product (Kronecker substitution): each
    operand's X is laid out in byte slots wide enough that no slot of the
    product overflows.  The precision of degree k is the min-plus
    convolution

        K_k = min over i+j=k of min(N_a[i] + v'_b[j], v'_a[i] + N_b[j])

    with v' the valuation floor (v, or N for a zero-like coefficient), the
    ledger of the dict product's term triples.  One ``reduce_terms`` then
    normalises every output coefficient, raising PrecisionExhausted where
    one keeps no digit (or, without ``raises``, keeping it zero-like).

    Leading absent slots (the x-adic orders ta and tb) add nothing to a
    value, to the ledger or to the raise path, and every degree below
    ta + tb of the product is absent.  So the product is formed on the
    operands' slots from their orders on, below M - (ta + tb), and is
    min(M, La + Lb - 1) slots long for packed lengths La and Lb; its first
    ta + tb slots are absent.  A power f^k, which starts at degree k,
    costs a product of length M - k.

    The ledger (``_ledger``) depends only on the operands' (N, v') pairs so
    cut and on the product's length.  A caller that multiplies operands
    whose pairs repeat, as the passes of the Weierstrass preparation do,
    passes a dict ``ledgers`` that it owns: the ledger is then looked up
    there by those pairs and computed only on a miss.  The raise path reads
    the current valuations either way.
    """
    La, Lb, t = len(a.V), len(b.V), a.t + b.t
    nout = min(M, t + La + Lb - 1)
    if not La or not Lb or t >= nout:
        return ([_ABSENT] * nout, [0] * nout, [_ABSENT] * nout), _Operand(nout, [], [], 0, None)
    nin = nout - t
    La, Lb = min(La, nin), min(Lb, nin)
    if a.X is None or b.X is None:
        C = [0] * nin
    else:
        w = (a.bits + b.bits + min(La, Lb).bit_length() + 8) // 8
        raw = (a.layout(w, La) * b.layout(w, Lb)).to_bytes((La + Lb - 1) * w, "little")
        C = [int.from_bytes(raw[k * w : (k + 1) * w], "little") for k in range(nin)]
    s = a.s + b.s
    A2, B2 = a.pairs()[: 2 * La], b.pairs()[2 * Lb - 1 :: -1]  # b's pairs reversed, (v', N)
    if ledgers is None:
        ledger = _ledger(A2, B2, nin)
    else:
        key = (nin, tuple(A2), tuple(B2))
        ledger = ledgers.get(key)
        if ledger is None:
            ledger = ledgers[key] = _ledger(A2, B2, nin)

    def least_term(k):  # the least valuation among the terms of degree k
        i0 = max(0, k - Lb + 1)
        return min(map(add, a.V[i0:], b.V[k - i0 :: -1]))

    V, U, R = reduce_terms(p, s, C, ledger, least_term if raises else None)  # R: the values over p^s
    least = min(V)
    if least >= _HALF:
        op = _Operand(t, V, ledger, 0, None)
    else:
        q = p ** (least - s)
        op = _Operand(t, V, ledger, least, R if q == 1 else [r // q for r in R])
    return ([_ABSENT] * t + V, [0] * t + U, [_ABSENT] * t + ledger), op


def _ledger(A2, B2, nin: int) -> list:
    """The precisions K_0 .. K_(nin-1) of ``_product``'s product from a's
    interleaved (N, v') pairs A2 and b's reversed (v', N) pairs B2: one list
    of sums covers both halves of the min-plus convolution.  A slot no pair
    reaches is _ABSENT."""
    Lb = len(B2) // 2
    K = []
    for k in range(nin):
        if k < Lb:
            m = min(map(add, A2, B2[2 * (Lb - 1 - k) :]))
        else:
            m = min(map(add, A2[2 * (k - Lb + 1) :], B2))
        K.append(_ABSENT if m >= _HALF else m)
    return K


def _factor(p: int, V, U, N):
    """A packed series as a factor of ``_fold``: its least valuation s and
    the lists (V, F, N, X) of valuations, valuation floors v' (N where
    zero-like), precisions and units over p^s."""
    s, X = _kronecker(p, V, U)
    return s, (V, [n if v == _ABSENT else v for v, n in zip(V, N)], N, X or [0] * len(V))


def _fold(p: int, c, a, b, s: int):
    """c - sum_k a_k b_k for a packed slot c = (v, u, N) and the aligned
    factors a and b of ``_factor``, s the sum of their shifts, as a packed
    slot: the ledger K is the least of c's precision and the rule of
    ``_product``, min(N_a + v'_b, v'_a + N_b) over k, two min(map(add)), and
    the value one integer sum, normalised by ``padic._scaled``, the rule of
    a scalar.  At K <= 0 it raises where the per-pair products and a sum of
    terms do: first where a zero-like factor's product keeps no digits (as
    ``PadicNum.__mul__``), then as ``reduce_terms`` does from the least term
    valuation.  Without terms it is c itself."""
    (Va, Fa, Na, Xa), (Vb, Fb, Nb, Xb) = a, b
    K = min(min(map(add, Na, Fb), default=_ABSENT), min(map(add, Fa, Nb), default=_ABSENT))
    if K >= _HALF:
        return c
    cv, cu, cn = c
    t, S, K = s, -sum(map(mul, Xa, Xb)), min(K, cn)
    if cv < _HALF:
        t = min(s, cv)
        S = cu * p ** (cv - t) + S * p ** (s - t)
    if K > 0:
        v, u, K = _scaled(p, t, S, K)
        return _ABSENT if v == INF else v, u, K
    if any(f + g <= 0 for x, y, f, g in zip(Va, Vb, Fa, Fb) if _ABSENT in (x, y)):
        PadicNum.zero_to_prec(p, 0)  # raises, as the zero-like product does
    (v,), (u,), _ = reduce_terms(p, t, [S], [K], lambda _: min(min(map(add, Va, Vb), default=_ABSENT), cv))
    return v, u, K


def _packed_solve(p: int, a, c, M: int, a0: PadicNum = None):
    """The packed b below degree M with

        b_n = (c_n - sum_(k=1..n) a_k b_(n-k)) / a0

    for a the ``_factor`` of a_1, a_2, ... and packed c, without the
    division when a0 is None: 1/a is c = 1, a0 = a_0, and the reversed
    quotient of a monic division is a = rev(D), c = rev(P).  Each numerator
    is one ``_fold`` of c_n and a_1 .. a_n against the b found so far,
    newest first, whose integers are rescaled when a lower valuation
    appears, so the shift is the least valuation of a plus that of b.  The
    fold zips a to the b found so far and its value does not depend on the
    shift, so a factor longer than M - 1 slots gives the same b.  The
    division by a0, of finite valuation and precision, is
    ``padic.div_triples``, the rule of ``PadicNum.__truediv__``.
    """
    sa, A = a
    V, U, N, F, X = [], [], [], [], []  # V, N, F and X hold b_(n-1) .. b_0: b_(n-k) meets a_k
    sb = 0
    for cn in zip(*_padded(c, M)):
        v, u, k = _fold(p, cn, A, (V, F, N, X), sa + sb)
        if k != _ABSENT:
            if a0 is not None:
                v, u, k = div_triples(p, INF if v == _ABSENT else v, u, k, a0.v, a0.u, a0.N)
                v = _ABSENT if v == INF else v
            if v < sb:
                X = [x * p ** (sb - v) for x in X]
                sb = v
        V.insert(0, v)
        U.append(u)
        N.insert(0, k)
        F.insert(0, k if v == _ABSENT else v)
        X.insert(0, 0 if v == _ABSENT else u * p ** (v - sb))
    return V[::-1], U, N[::-1]


class _PowerTable:
    """The powers h^1 .. h^top of a univariate h without constant term below
    its truncation M, grown as sums read higher powers: h is laid out once
    as an operand (``_operand``), and each new power is one ``_product`` of
    the last power's operand, the only one kept, and h's, whose result
    operand fills the columns and is the next product's factor.

    Column d lists [h^k]_d for k = 1 .. min(d, top) as X, the value over
    p^s_k (s_k the least valuation in h^k), N and F, the valuation floor v'
    (v, or N if zero-like); absent is X = 0, N = F = _ABSENT.  An entry
    without digits stays zero-like at K <= 0: only a sum that reads it
    decides whether to raise.
    """

    __slots__ = ("p", "M", "H", "last", "shift", "X", "N", "F")

    def __init__(self, h: PSeries):
        self.p, self.M = h.prime, h.x_prec
        self.H = self.last = _operand(self.p, h.packed)
        self.shift = []
        self.X = [[] for _ in range(self.M)]
        self.N = [[] for _ in range(self.M)]
        self.F = [[] for _ in range(self.M)]

    def grow(self, top: int):
        p, M = self.p, self.M
        while len(self.shift) < top:
            k = len(self.shift) + 1
            if k > 1:
                self.last = _product(p, self.last, self.H, M, raises=False)[1]
            op = self.last
            self.shift.append(op.s)
            t, n = op.t, len(op.V)
            X = [0] * t + (op.X or [0] * n) + [0] * (M - t - n)
            N = [_ABSENT] * t + op.N + [_ABSENT] * (M - t - n)
            F = [_ABSENT] * t + op.pairs()[1::2] + [_ABSENT] * (M - t - n)
            for d in range(k, M):
                self.X[d].append(X[d])
                self.N[d].append(N[d])
                self.F[d].append(F[d])

    def sum(self, c, lo: int, D: int):
        """Packed sum_k c_k [h^k]_d for lo <= d < D from packed c_k (slot 0
        unread): the ledger K_d = min_k min(N_c_k + v'[h^k]_d, v'_c_k +
        N[h^k]_d), and one integer sum of the c_k, scaled to the least
        valuation t of c_k p^s_k, against column d; one ``reduce_terms``
        normalises the degrees, and one without digits at K_d <= 0 raises."""
        p = self.p
        top = min(len(c[0]), D) - 1
        self.grow(top)
        Vc, Uc, Nc = (x[1 : top + 1] for x in c)
        Fc = [n if v == _ABSENT else v for v, n in zip(Vc, Nc)]
        scaled = [v + s for v, s in zip(Vc, self.shift) if v != _ABSENT]
        t = min(scaled, default=0)
        P = prime_powers(p, max(scaled, default=t) - t)
        C = [0 if v == _ABSENT else u * P[v + s - t] for v, u, s in zip(Vc, Uc, self.shift)]
        S, N = [0] * (D - lo), [_ABSENT] * (D - lo)
        for d in range(lo, D):
            K = min(min(map(add, Nc, self.F[d]), default=_ABSENT), min(map(add, Fc, self.N[d]), default=_ABSENT))
            if K < _HALF:
                N[d - lo] = K
                if K > t:
                    S[d - lo] = sum(map(mul, C, self.X[d]))

        def least_term(i):  # the least valuation among the terms of degree lo + i
            return min((a + b for a, b, x in zip(Vc, self.F[lo + i], self.X[lo + i]) if a != _ABSENT and x), default=INF)

        V, U, _ = reduce_terms(p, t, S, N, least_term)
        return V, U, N
