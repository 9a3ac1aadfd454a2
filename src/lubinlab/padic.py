"""Exact p-adic scalars with explicit absolute-precision tracking.

A nonzero value is stored as ``p^v * u`` with ``u`` a unit (``u % p != 0``,
``0 < u < p^(N - v)``) together with an absolute precision ``N``: the triple
asserts the value is known modulo ``p^N``.  The model is absolute rather
than relative because every downstream certificate is of the form
"integral modulo p^N"; division by ``d`` costs exactly ``v_p(d)`` digits of
absolute precision and the loss is recorded per value, not globally.

Zero comes in two flavors.  ``exact_zero`` is the true zero (valuation and
precision both infinite).  ``zero_to_prec(N)`` records only that the value
is divisible by ``p^N``: its true valuation is some unknown quantity >= N.
An exact nonzero value (N INF, such as ``one(p, INF)``) is known whole:
sums, differences and products of exact values are exact, and so is a
quotient by +-p^w; any other quotient of two exact values has no finite
expansion and raises ValueError naming the divisor.  Series refuse exact
nonzero coefficients, which their kernels would read as absent.

The packed kernels of ``series`` and the part kernel of ``formalgroup``
apply the same rules to bare triples: ``_scaled`` normalises one value,
``add_triples``, ``mul_triples``, ``div_triples`` and ``scale_int`` are
``PadicNum``'s sum, product, quotient and product by an int, and
``reduce_terms`` normalises whole lists of slot sums, raising where one
keeps no digit.  The min-plus ledger of a sum of products,
min(N_a + v'_b, v'_a + N_b), sits in those two modules: three copies in
``series`` (products, the solve, tabled sums) and one in ``formalgroup``
(the parts of a law).  Every quotient of scalars, and of the slots of a
packed series by a scalar, is ``div_triples``; only
``series._packed_div_int``, which divides a whole series by one exact
integer, inverts a unit apart from it.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZeroToPrecision,
    DomainError,
    PrecisionExhausted,
    PrimeMismatch,
)

INF = math.inf
_ZERO_NO_DIGITS = "zero known to nonpositive precision carries no digits"

# The packed lists of ``series`` keep every entry an int: _ABSENT stands for
# INF as a valuation (a zero-like or absent coefficient) and as a precision
# (an absent coefficient, an exact zero), and a sum at or above _HALF
# involves an absent entry.
_ABSENT = 1 << 62
_HALF = _ABSENT >> 1


_PRIME_POWERS = {}  # p -> [1, p, p^2, ...], grown on demand to p^_POWERS_KEPT at most
_POWERS_KEPT = 512  # so a list holds at most 512^2 log2(p) / 2 bits


class _Powers:
    """p's powers to p^top past the kept list, each formed when read."""

    __slots__ = ("p", "top")

    def __init__(self, p: int, top: int):
        self.p, self.top = p, top

    def __len__(self):
        return self.top + 1

    def __getitem__(self, e: int) -> int:
        return self.p**e


def prime_powers(p: int, top: int):
    """The list [1, p, p^2, ...] of p's powers, at least to p^top: one list
    per prime, grown on demand, which the packed kernels of ``series`` and
    the normalisation of every scalar read instead of forming p ** e.  Past
    p^_POWERS_KEPT a ``_Powers`` forms them on each read instead."""
    if top > _POWERS_KEPT:
        return _Powers(p, top)
    P = _PRIME_POWERS.get(p)
    if P is None:
        P = _PRIME_POWERS[p] = [1]
    while len(P) <= top:
        P.append(P[-1] * p)
    return P


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer: the low zero bits at p = 2,
    and at odd p blocks of p^8 stripped before single factors of p."""
    if n == 0:
        raise ValueError("vp_int of 0")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    if n % p == 0:
        q = p**8
        while n % q == 0:
            n //= q
            v += 8
        while n % p == 0:
            n //= p
            v += 1
    return v


@lru_cache(maxsize=None)
def require_prime(p) -> int:
    """Return p if it is a prime (checked by trial division), else raise
    ValueError.  Every entry point that takes a prime calls this."""
    if isinstance(p, int) and p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)):
        return p
    raise ValueError(f"p must be a prime, got {p!r}")


def ceil_log(n: int, p: int) -> int:
    """Least k with p^k >= n, for n >= 1 (an upper bound on v_p(n))."""
    k, q = 0, 1
    while q < n:
        q *= p
        k += 1
    return k


class PadicNum:
    """One p-adic scalar: prime, valuation, unit part, absolute precision."""

    __slots__ = ("p", "v", "u", "N")

    def __init__(self, p, v, u, N):
        self.p = p
        self.v = v
        self.u = u
        self.N = N

    # -- constructors -------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNum":
        return cls(p, INF, 0, INF)

    @classmethod
    def zero_to_prec(cls, p: int, N: int) -> "PadicNum":
        """The class of values divisible by p^N (valuation bounded below by N)."""
        if N <= 0:
            raise PrecisionExhausted(_ZERO_NO_DIGITS)
        return cls(p, INF, 0, N)

    @classmethod
    def from_int(cls, c: int, p: int, N: int) -> "PadicNum":
        if c == 0:
            return cls.exact_zero(p)
        return cls(p, *_scaled(p, 0, c, N))

    @classmethod
    def from_fraction(cls, q, p: int, N: int) -> "PadicNum":
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        num, den = q.numerator, q.denominator
        a, b = vp_int(num, p), vp_int(den, p)  # num known to N + b, over the exact den
        top = (a, num // p**a) if a < N + b else (INF, 0)
        return cls(p, *div_triples(p, *top, N + b, b, den // p**b, INF))

    @classmethod
    def one(cls, p: int, N: int) -> "PadicNum":
        """1 known modulo p^N; at N <= 0 it would carry no digit, and raises."""
        if N <= 0:
            raise PrecisionExhausted(f"one known to precision {N} carries no digits")
        return cls(p, 0, 1, N)

    # -- predicates ----------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.v == INF and self.N == INF

    def is_zero_like(self) -> bool:
        """True when the value is indistinguishable from 0 at its precision."""
        return self.v == INF

    def val_floor(self):
        """Certified lower bound on the valuation (the valuation itself if finite)."""
        return self.v if self.v != INF else self.N

    # -- representations -----------------------------------------------

    def residue(self) -> int:
        """Canonical integer representative modulo p^N (requires v >= 0)."""
        if self.is_zero_like():
            return 0
        if self.v < 0:
            raise ValueError("negative valuation has no integer residue")
        return self.u * self.p**self.v

    def as_fraction(self) -> Fraction:
        """The canonical representative as an exact rational p^v * u."""
        if self.is_zero_like():
            return Fraction(0)
        if self.v >= 0:
            return Fraction(self.u * self.p**self.v)
        return Fraction(self.u, self.p ** (-self.v))

    def __repr__(self):
        if self.is_exact_zero():
            return f"0 (exact, p={self.p})"
        if self.is_zero_like():
            return f"O({self.p}^{self.N})"
        frac = self.as_fraction()
        return f"{frac} + O({self.p}^{self.N})"

    # -- precision plumbing ---------------------------------------------

    def cap_prec(self, N) -> "PadicNum":
        """Forget digits beyond absolute precision N."""
        if N >= self.N:
            return self
        if self.is_zero_like() or self.v >= N:
            return PadicNum.zero_to_prec(self.p, N)
        rel = N - self.v
        return PadicNum(self.p, self.v, self.u % self.p**rel, N)

    # -- ring operations -------------------------------------------------

    def _check(self, other) -> "PadicNum":
        """other as a ``PadicNum``: an int or a Fraction is coerced at this
        value's precision, which must be finite (ValueError)."""
        if not isinstance(other, PadicNum):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if self.N == INF:
                raise ValueError(f"no finite precision to coerce {other!r} at")
            coerce = PadicNum.from_int if isinstance(other, int) else PadicNum.from_fraction
            other = coerce(other, self.p, self.N)
        if other.p != self.p:
            raise PrimeMismatch(f"primes differ: {self.p} vs {other.p}")
        return other

    def __neg__(self):
        if self.is_zero_like():
            return self
        return PadicNum(self.p, self.v, neg_unit(self.p, self.v, self.u, self.N), self.N)

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero():
            return b
        if b.is_exact_zero():
            return a
        return PadicNum(a.p, *add_triples(a.p, a.v, a.u, a.N, b.v, b.u, b.N))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):  # k is exact: ``scale_int``
            if other == 0 or self.is_exact_zero():
                return PadicNum.exact_zero(self.p)
            return PadicNum(self.p, *scale_int(self.p, self.v, self.u, self.N, other))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero() or b.is_exact_zero():
            return PadicNum.exact_zero(a.p)
        return PadicNum(a.p, *mul_triples(a.p, a.v, a.u, a.N, b.v, b.u, b.N))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        return PadicNum(a.p, *div_triples(a.p, a.v, a.u, a.N, b.v, b.u, b.N))

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def div_int(self, k: int) -> "PadicNum":
        """Divide by a nonzero integer (handy for factorial denominators),
        the exact divisor (v_p(k), k / p^v_p(k), INF) of ``div_triples``."""
        if k == 0:
            raise DivisionByZeroToPrecision("division by integer 0")
        p = self.p
        w = vp_int(k, p)
        return PadicNum(p, *div_triples(p, self.v, self.u, self.N, w, k // p**w, INF))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:  # the exact 1 over x, with x's N - v relative digits
            return PadicNum(self.p, *div_triples(self.p, 0, 1, INF, self.v, self.u, self.N)) ** (-k)
        if k == 0:
            rel = self.N - self.v if self.v != INF else self.N
            return PadicNum.one(self.p, max(rel, 1))
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- comparisons -------------------------------------------------------

    def congruent(self, other, prec=None) -> bool:
        """Equality of residues modulo p^P, P = min(precisions[, prec]).

        For finite P > 0 this is decided on the integers (v, u, N); the
        difference is formed only where P <= 0, which raises, or P = INF.
        """
        other = self._check(other)
        P = min(self.N, other.N) if prec is None else min(self.N, other.N, prec)
        if 0 < P < INF:
            if self.v >= P or other.v >= P:
                return self.v >= P and other.v >= P
            return self.v == other.v and (self.u - other.u) % self.p ** (P - self.v) == 0
        d = self - other
        if prec is not None:
            d = d.cap_prec(min(prec, d.N if d.N != INF else prec))
        return d.is_zero_like()

    def __eq__(self, other):
        try:
            return self.congruent(other)
        except PrimeMismatch:
            return False

    __hash__ = None

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "val": "inf" if self.v == INF else self.v,
            "unit": str(self.u),
            "prec": "inf" if self.N == INF else self.N,
        }

    @classmethod
    def from_json(cls, obj: dict, p: int) -> "PadicNum":
        v = INF if obj["val"] == "inf" else int(obj["val"])
        N = INF if obj["prec"] == "inf" else int(obj["prec"])
        return cls(p, v, int(obj["unit"]), N)


def _scaled(p: int, m, r: int, K) -> tuple:
    """(v, u, K) of the value p^m * r, the integer r known modulo p^(K - m)
    (m INF: no value at all), v INF where it is zero to precision K; raises
    where no digit survives.  At K INF the value is exact, r kept whole."""
    if m < K:
        if K == INF:
            w = vp_int(r, p) if r else INF
            return (m + w, r // p**w, K) if r else (INF, 0, K)
        P = prime_powers(p, K - m)
        r %= P[K - m]
        if r:
            w = vp_int(r, p)
            return m + w, r // P[w], K
    elif m != INF and K <= 0:
        raise PrecisionExhausted("result has no significant digits")
    if K <= 0:
        raise PrecisionExhausted(_ZERO_NO_DIGITS)
    return INF, 0, K


def add_triples(p: int, va, ua, na, vb, ub, nb) -> tuple:
    """The rule of ``PadicNum.__add__`` on two values p^v u known modulo
    p^n, neither an exact zero (v INF where zero-like), as a (v, u, N)
    triple: N = min(n) and the units summed at the least valuation, then
    ``_scaled``.  The packed sums of ``series`` call it slot by slot."""
    m = min(va, vb)
    r = (ua * p ** (va - m) if va != INF else 0) + (ub * p ** (vb - m) if vb != INF else 0)
    return _scaled(p, m, r, min(na, nb))


def mul_triples(p: int, va, ua, na, vb, ub, nb) -> tuple:
    """The rule of ``PadicNum.__mul__`` on two values, neither an exact
    zero, as a (v, u, N) triple: a zero-like factor gives a zero known to
    the sum of the valuation floors, which raises where that is <= 0, and
    two finite ones keep the lesser relative precision (two exact ones
    multiply exactly)."""
    if va == INF or vb == INF:  # v(ab) >= bound(a) + floor(b)
        return _scaled(p, INF, 0, (na if va == INF else va) + (nb if vb == INF else vb))
    rel = min(na - va, nb - vb)
    if rel == INF:
        return va + vb, ua * ub, INF
    return va + vb, ua * ub % p**rel, va + vb + rel


def div_triples(p: int, va, ua, na, vb, ub, nb) -> tuple:
    """The rule of ``PadicNum.__truediv__`` on two values p^v u known modulo
    p^n, as a (v, u, N) triple: a zero-like divisor raises
    DivisionByZeroToPrecision, a zero-like dividend is known to
    na - v(divisor) (``_scaled``, which raises where that is <= 0, and
    keeps an exact zero exact), and two finite values keep the lesser
    relative precision.  An exact integer divisor p^w k' is (w, k', INF).
    Two exact values give an exact quotient by +-p^w and raise ValueError,
    naming the divisor, by any other."""
    if vb == INF:
        raise DivisionByZeroToPrecision(f"divisor is zero to precision O({p}^{nb})")
    if va == INF:
        return _scaled(p, INF, 0, na - vb)
    rel = min(na - va, nb - vb)
    if rel == INF:
        if ub not in (1, -1):
            raise ValueError(f"the quotient of an exact value by the exact {Fraction(ub) * Fraction(p) ** vb} has no finite {p}-adic expansion")
        return va - vb, ua * ub, INF
    mod = prime_powers(p, rel)[rel]
    return va - vb, ua * pow(ub, -1, mod) % mod, va - vb + rel


def scale_int(p: int, v, u, N, k: int) -> tuple:
    """The rule of ``PadicNum`` times a nonzero int k, which is exact
    (Caruso, Roe and Vaccon, "Tracking p-adic precision", 2014): with
    k = p^w k', the value p^v u known modulo p^N becomes
    (v + w, u k' mod p^(N - v), N + w), and a zero-like one (v INF) is
    known to N + w.  ``series._packed_derivative`` applies it slot by slot."""
    w = vp_int(k, p)
    if v == INF:
        return INF, 0, N + w
    u *= k // p**w
    if N != INF:  # an exact nonzero, such as PadicNum.one(p, INF), keeps its unit whole
        u %= prime_powers(p, N - v)[N - v]
    return v + w, u, N + w


def neg_unit(p: int, v, u, N) -> int:
    """The unit of -p^v u known modulo p^N (v finite), as ``PadicNum.__neg__``;
    an exact value (N INF) negates whole."""
    return -u if N == INF else -u % p ** (N - v)


def reduce_terms(p: int, t: int, S, K, least=None) -> tuple:
    """The one normalise-and-raise rule of the packed kernels of ``series``:
    slot k is the integer sum S[k] of its terms at the shift t, known modulo
    p^K[k] (absent where K[k] >= _HALF), K the caller's ledger (Caruso, Roe
    and Vaccon, "Tracking p-adic precision", 2014).  Returns the lists (V,
    U, R), R[k] = S[k] mod p^(K[k] - t): where R[k] != 0 the slot has
    valuation t + v_p(R[k]) and the unit left after stripping p, else it is
    zero-like (V[k] = _ABSENT, U[k] = 0).  A zero-like slot at K <= 0 keeps
    no digit; without ``least`` it is kept, and given ``least``, from k to
    the least valuation m among slot k's terms, the first raises
    PrecisionExhausted ("sum has no significant digits" where m >= K, else
    that of a zero without digits)."""
    P = prime_powers(p, 0)  # grown as the slots need
    V, U, R = [_ABSENT] * len(K), [0] * len(K), [0] * len(K)
    for k, n in enumerate(K):
        if n >= _HALF:
            continue
        if n - t >= len(P):
            P = prime_powers(p, n - t)
        if n > t and (r := S[k] % P[n - t]):
            w = vp_int(r, p)
            V[k], U[k], R[k] = t + w, r // P[w], r
        elif n <= 0 and least is not None:
            raise PrecisionExhausted("sum has no significant digits" if least(k) >= n else _ZERO_NO_DIGITS)
    return V, U, R


# -- analytic functions ------------------------------------------------------


def _log_domain_val(x: PadicNum) -> int:
    """Valuation of x - 1 required for log convergence: >= 1, >= 2 if p = 2."""
    return 2 if x.p == 2 else 1


def padic_log(x: PadicNum) -> PadicNum:
    """Principal p-adic logarithm of a 1-unit.

    Requires x = 1 mod p (mod 4 when p = 2).  Computed as the partial sum of
    sum_{k>=1} (-1)^(k+1) (x-1)^k / k, stopped once the proven tail bound
    k*t - log_p(k) (with t = v(x-1)) clears the input's absolute precision.
    """
    p = x.p
    y = x - PadicNum.one(p, x.N)
    tmin = _log_domain_val(x)
    if y.val_floor() < tmin:
        raise DomainError(
            f"log requires congruence to 1 mod {p**tmin} (valuation of x-1 is {y.val_floor()})"
        )
    if y.is_exact_zero():
        return PadicNum.exact_zero(p)
    if y.is_zero_like():
        return PadicNum.zero_to_prec(p, y.N)
    target = y.N
    t = y.v
    acc = y
    ypow = y
    k = 1
    while True:
        k += 1
        if k * t - ceil_log(k, p) >= target and k > 2:
            break
        ypow = ypow * y
        term = ypow.div_int(k)
        if k % 2 == 0:
            term = -term
        acc = acc + term
    return acc


def padic_exp(x: PadicNum) -> PadicNum:
    """p-adic exponential; requires v(x) >= 1 (>= 2 when p = 2)."""
    p = x.p
    tmin = 2 if p == 2 else 1
    if x.val_floor() < tmin:
        raise DomainError(
            f"exp requires valuation >= {tmin} (got bound {x.val_floor()})"
        )
    if x.is_zero_like():
        return PadicNum.one(p, x.N if x.N != INF else 1)
    target = x.N
    t = x.v
    one = PadicNum.one(p, target - t + t)  # known mod p^N like x
    acc = one + x
    term = x
    k = 1
    while True:
        k += 1
        # v(x^k / k!) >= k*t - (k-1)/(p-1), increasing in k
        if Fraction(k * t) - Fraction(k - 1, p - 1) >= target:
            break
        term = (term * x).div_int(k)
        acc = acc + term
    return acc


def padic_pow(gamma: PadicNum, a) -> PadicNum:
    """gamma^a for integer a, or a in Z_p when gamma is a 1-unit.

    Integer exponents reduce to repeated squaring.  For a p-adic exponent the
    value is exp(a * log gamma), which requires gamma = 1 mod p (mod 4 when
    p = 2) so that the logarithm converges.
    """
    if isinstance(a, int):
        return gamma**a
    a = gamma._check(a)
    if a is NotImplemented:
        raise DomainError("exponent must be an integer or a PadicNum")
    if a.val_floor() < 0:
        raise DomainError("p-adic exponent must lie in Z_p")
    lg = padic_log(gamma)
    return padic_exp(a * lg)


def is_root_of_unity(gamma: PadicNum):
    """Torsion test at working precision.

    Returns ``(True, order)`` when gamma^(p-1) = 1 to precision (p odd) or
    gamma = +-1 to precision (p = 2); the order is then the multiplicative
    order of gamma mod p (resp. 1 or 2).  Finite precision can never prove
    torsion, only fail to refute it, so a True answer means "torsion to
    precision N" and callers are expected to report it with that caveat.
    """
    if gamma.v != 0:
        raise DomainError("torsion test requires a unit")
    p = gamma.p
    one = PadicNum.one(p, gamma.N)
    if p == 2:
        if (gamma - one).is_zero_like():
            return True, 1
        if (gamma + one).is_zero_like():
            return True, 2
        return False, None
    w = gamma ** (p - 1) - one
    if not w.is_zero_like():
        return False, None
    return True, order_mod_p(gamma)


def order_mod_p(gamma: PadicNum) -> int:
    """The multiplicative order of the unit gamma mod p: the least e >= 1
    with gamma^e = 1 mod p."""
    p, g0 = gamma.p, gamma.u % gamma.p
    e, acc = 1, g0
    while acc != 1:
        acc = acc * g0 % p
        e += 1
    return e
