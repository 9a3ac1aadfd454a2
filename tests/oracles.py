"""Independent reference implementations used to freeze expected values.

Everything here works over exact Fractions, integer triples and plain dicts,
with no imports from the package under test, so a bug cannot cancel across
both sides of an assertion.
"""

from fractions import Fraction
from math import comb


def binom(n: int, k: int) -> int:
    """Binomial coefficient for any integer n (generalized for n < 0)."""
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(-n + k - 1, k)


def frac_val(q: Fraction, p: int):
    """p-adic valuation of a rational (None for 0)."""
    q = Fraction(q)
    if q == 0:
        return None
    v = 0
    n = abs(q.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def frac_mod(q: Fraction, p: int, N: int) -> int:
    """Residue of a rational with p-coprime reduced denominator mod p^N."""
    q = Fraction(q)
    mod = p**N
    if q.denominator % p == 0:
        raise ValueError("denominator not coprime to p")
    return q.numerator * pow(q.denominator, -1, mod) % mod


# -- dense polynomial arithmetic over Fractions (dict: degree -> Fraction) --


def poly_mul(a: dict, b: dict, M: int) -> dict:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j < M:
                out[i + j] = out.get(i + j, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def poly_compose(g: dict, h: dict, M: int) -> dict:
    """g(h) truncated below degree M; h must have no constant term."""
    assert h.get(0, Fraction(0)) == 0
    out = {}
    hp = {0: Fraction(1)}
    for k in range(0, max(g) + 1):
        if k > 0:
            hp = poly_mul(hp, h, M)
            if not hp:
                break
        c = g.get(k)
        if c:
            for d, v in hp.items():
                out[d] = out.get(d, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def poly_pow(a: dict, k: int, M: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(k):
        out = poly_mul(out, a, M)
    return out


def lagrange_inversion(g: dict, M: int) -> dict:
    """Compositional inverse of g = g1 x + ... via h_n = [x^(n-1)](x/g)^n / n."""
    g1 = g[1]
    # x/g as a power series: invert sum g_{i+1} x^i
    base = {i - 1: c for i, c in g.items()}
    inv = {0: Fraction(1) / g1}
    for n in range(1, M):
        s = Fraction(0)
        for k in range(1, n + 1):
            if k in base and (n - k) in inv:
                s += base[k] * inv[n - k]
        inv[n] = -s / g1
    out = {}
    for n in range(1, M):
        xg_n = poly_pow(inv, n, M)
        out[n] = xg_n.get(n - 1, Fraction(0)) / n
    return {k: v for k, v in out.items() if v != 0}


# -- partial sums for log/exp ------------------------------------------------


def log_partial_mod(x: int, p: int, N: int) -> int:
    """log(x) mod p^N for x = 1 mod p (mod 4 if p = 2) by exact partial sums."""
    y = Fraction(x - 1)
    t = frac_val(y, p)
    acc = Fraction(0)
    k = 0
    while True:
        k += 1
        # remaining terms all have valuation >= k*t - log_p k >= N
        bound = k * t
        q = 1
        L = 0
        while q < k:
            q *= p
            L += 1
        if bound - L >= N and k > 2:
            break
        acc += Fraction((-1) ** (k + 1), k) * y**k
    return frac_mod(acc, p, N)


def exp_partial_mod(x: int, p: int, N: int) -> int:
    """exp(x) mod p^N for v(x) >= 1 (>= 2 if p = 2) by exact partial sums."""
    t = frac_val(Fraction(x), p)
    acc = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        if k > 0:
            term = term * x / k
        acc += term
        k += 1
        if Fraction(k * t) - Fraction(k - 1, p - 1) >= N:
            break
    return frac_mod(acc, p, N)


# -- hull verification ---------------------------------------------------------


def is_lower_hull(points, vertices) -> bool:
    """Soundness check: vertices trace the lower convex hull of points.

    Requires: vertices are points, endpoints are the extreme abscissas,
    slopes strictly increase, and every point lies on or above the
    piecewise-linear boundary.
    """
    if not points:
        return vertices == []
    pts = sorted(points)
    if not vertices:
        return False
    if vertices[0] != pts[0] or vertices[-1][0] != pts[-1][0]:
        return False
    if any(v not in pts for v in vertices):
        return False
    slopes = [
        Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(vertices, vertices[1:])
    ]
    if any(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:])):
        return False
    for i, v in pts:
        h = None
        for a, b in zip(vertices, vertices[1:]):
            if a[0] <= i <= b[0]:
                h = Fraction(a[1]) + Fraction(b[1] - a[1], b[0] - a[0]) * (i - a[0])
                break
        if h is None:
            h = Fraction(vertices[0][1])
        if Fraction(v) < h:
            return False
    return True


# -- univariate series over precision-tracked triples -------------------------
#
# A coefficient is a (valuation, unit, absolute precision) triple, with
# valuation INF for a value that is zero to its precision; an absent degree
# is an exact zero.  These are the dict triple loop and Horner composition
# that lubinlab used before its packed kernel, kept as the reference for it.

INF = float("inf")


class NoDigits(Exception):
    """A coefficient would carry no significant digits (PrecisionExhausted)."""


def _no_digits_msg(m, K):
    if m == INF or m >= K:
        return "sum has no significant digits"
    return "zero known to nonpositive precision carries no digits"


def reduce_triples(p: int, terms):
    """Sum (v, u, N) triples as ``padic.reduce_terms`` does; None is an
    exact zero, a NoDigits instance a sum without digits."""
    K = min(n for _, _, n in terms)
    m = min(v for v, _, _ in terms)
    if K == INF:
        return None
    if m < K:
        r = sum(u * p ** (v - m) for v, u, _ in terms if v < K) % p ** (K - m)
        if r:
            w = 0
            while r % p == 0:
                r //= p
                w += 1
            return (m + w, r, K)
    if K <= 0:
        return NoDigits(_no_digits_msg(m, K))
    return (INF, 0, K)


def triple_mul(p: int, a: dict, b: dict, M: int) -> dict:
    """Product of two triple series below degree M.

    Raises NoDigits with the message of the lowest degree that has none.
    """
    acc = {}
    for i, (va, ua, na) in a.items():
        for j, (vb, ub, nb) in b.items():
            if i + j >= M:
                continue
            if va == INF or vb == INF:
                fa = va if va != INF else na
                fb = vb if vb != INF else nb
                triple = (INF, 0, fa + fb)
            else:
                triple = (va + vb, ua * ub, min(na + vb, va + nb))
            acc.setdefault(i + j, []).append(triple)
    out = {}
    for k in sorted(acc):
        c = reduce_triples(p, acc[k])
        if isinstance(c, NoDigits):
            raise c
        if c is not None:
            out[k] = c
    return out


def triple_compose(p: int, g: dict, h: dict, M: int) -> dict:
    """Horner evaluation of g at h (h without constant term) below degree M."""
    assert 0 not in h
    top = min(max(g, default=0), M - 1)
    acc = None
    for i in range(top, 0, -1):
        if acc is not None:
            acc = triple_mul(p, acc, h, M)
        if i in g:
            acc = dict(acc or {})
            acc[0] = g[i]
    if acc is None:
        return {}
    res = triple_mul(p, acc, h, M)
    if 0 in g:
        res[0] = g[0]
    return res
