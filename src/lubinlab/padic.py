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
Nonzero values never carry infinite precision: a generic unit has an
infinite p-adic expansion, so exactness is reserved for zero.
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


_PRIME_POWERS = {}  # p -> [1, p, p^2, ...], grown on demand


def prime_powers(p: int, top: int) -> list:
    """The list [1, p, p^2, ...] of p's powers, at least to p^top: one list
    per prime, grown on demand, which the packed kernels of ``series`` and
    the normalisation of every scalar read instead of forming p ** e."""
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


def floor_log(n: int, p: int) -> int:
    """Greatest k with p^k <= n, for n >= 1."""
    k, q = 0, p
    while q <= n:
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
        return cls._from_scaled(p, 0, c, N)

    @classmethod
    def from_fraction(cls, q, p: int, N: int) -> "PadicNum":
        q = Fraction(q)
        if q == 0:
            return cls.exact_zero(p)
        num, den = q.numerator, q.denominator
        a = vp_int(num, p)
        b = vp_int(den, p)
        v = a - b
        rel = N - v
        if rel <= 0:
            return cls.zero_to_prec(p, N)
        mod = p ** rel
        u = (num // p**a) * pow(den // p**b, -1, mod) % mod
        return cls(p, v, u, N)

    @classmethod
    def one(cls, p: int, N: int) -> "PadicNum":
        """1 known modulo p^N; at N <= 0 it would carry no digit, and raises."""
        if N <= 0:
            raise PrecisionExhausted(f"one known to precision {N} carries no digits")
        return cls(p, 0, 1, N)

    @classmethod
    def _from_scaled(cls, p: int, m, r: int, K) -> "PadicNum":
        """Value p^m * r where the integer r is known modulo p^(K - m)."""
        return cls(p, *_scaled(p, m, r, K))

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
        if not isinstance(other, PadicNum):
            if isinstance(other, int):
                other = PadicNum.from_int(other, self.p, self.N if self.N != INF else 64)
            elif isinstance(other, Fraction):
                other = PadicNum.from_fraction(other, self.p, self.N if self.N != INF else 64)
            else:
                return NotImplemented
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
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero() or b.is_exact_zero():
            return PadicNum.exact_zero(a.p)
        if a.v == INF or b.v == INF:
            # v(ab) >= bound(a) + floor(b)
            return PadicNum.zero_to_prec(a.p, a.val_floor() + b.val_floor())
        rel = min(a.N - a.v, b.N - b.v)
        u = a.u * b.u % a.p**rel
        return PadicNum(a.p, a.v + b.v, u, a.v + b.v + rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if b.is_zero_like():
            raise DivisionByZeroToPrecision(
                f"divisor is zero to precision O({b.p}^{b.N})"
            )
        if a.is_exact_zero():
            return a
        if a.v == INF:
            return PadicNum.zero_to_prec(a.p, a.N - b.v)
        rel = min(a.N - a.v, b.N - b.v)
        mod = a.p**rel
        u = a.u * pow(b.u, -1, mod) % mod
        return PadicNum(a.p, a.v - b.v, u, a.v - b.v + rel)

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def div_int(self, k: int) -> "PadicNum":
        """Divide by a nonzero integer (handy for factorial denominators)."""
        if k == 0:
            raise DivisionByZeroToPrecision("division by integer 0")
        if self.is_exact_zero():
            return self
        p = self.p
        w = vp_int(k, p)
        kk = abs(k) // p**w
        sign = 1 if k > 0 else -1
        if self.v == INF:
            return PadicNum.zero_to_prec(p, self.N - w)
        rel = self.N - self.v
        mod = p**rel
        u = sign * self.u * pow(kk, -1, mod) % mod
        return PadicNum(p, self.v - w, u, self.v - w + rel)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:  # 1/x = p^-v u^-1, with x's N - v relative digits
            if self.v == INF:
                raise DivisionByZeroToPrecision(f"divisor is zero to precision O({self.p}^{self.N})")
            rel = self.N - self.v
            inverse = PadicNum(self.p, -self.v, pow(self.u, -1, self.p**rel), rel - self.v)
            return inverse ** (-k)
        if k == 0:
            rel = self.N - self.v if self.v != INF else self.N
            return PadicNum.one(self.p, max(int(rel), 1))
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
    where no digit survives."""
    if m < K:
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
    ``_scaled``.  The packed sums of ``polygon`` call it slot by slot."""
    m = min(va, vb)
    r = (ua * p ** (va - m) if va != INF else 0) + (ub * p ** (vb - m) if vb != INF else 0)
    return _scaled(p, m, r, min(na, nb))


def neg_unit(p: int, v, u, N) -> int:
    """The unit of -p^v u known modulo p^N (v finite), as ``PadicNum.__neg__``."""
    return -u % p ** (N - v)


def reduce_terms(p: int, terms) -> PadicNum:
    """Sum a list of (valuation, unit, abs_prec) triples in one pass.

    Triples with valuation INF contribute only their precision bound.  This
    is the accumulation kernel behind series multiplication: it avoids one
    normalization per addition.
    """
    K = INF
    m = INF
    for v, _, n in terms:
        if n < K:
            K = n
        if v < m:
            m = v
    if K == INF:
        return PadicNum.exact_zero(p)
    if m == INF or m >= K:
        if K <= 0:
            raise PrecisionExhausted("sum has no significant digits")
        return PadicNum.zero_to_prec(p, K)
    P = prime_powers(p, K - m)
    r = 0
    for v, u, _ in terms:
        if v != INF and v - m < K - m:
            r += u * P[v - m]
    return PadicNum._from_scaled(p, m, r % P[K - m], K)


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
    g0 = gamma.u % p
    order = 1
    acc = g0
    while acc != 1:
        acc = acc * g0 % p
        order += 1
    return True, order
