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


def poly_inverse(g: dict, M: int) -> dict:
    """Multiplicative inverse of g below degree M; g[0] must be nonzero."""
    inv = {0: Fraction(1) / g[0]}
    for n in range(1, M):
        s = Fraction(0)
        for k in range(1, n + 1):
            if k in g and (n - k) in inv:
                s += g[k] * inv[n - k]
        inv[n] = -s / g[0]
    return inv


def lagrange_inversion(g: dict, M: int) -> dict:
    """Compositional inverse of g = g1 x + ... via h_n = [x^(n-1)](x/g)^n / n."""
    # x/g as a power series: invert sum g_{i+1} x^i
    inv = poly_inverse({i - 1: c for i, c in g.items()}, M)
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


def triple_product(a, b):
    """The term triple of one product of coefficients, as the kernels form it."""
    (va, ua, na), (vb, ub, nb) = a, b
    if va == INF or vb == INF:
        return (INF, 0, (va if va != INF else na) + (vb if vb != INF else nb))
    return (va + vb, ua * ub, min(na + vb, va + nb))


def triple_mul(p: int, a: dict, b: dict, M: int, keep: bool = False) -> dict:
    """Product of two triple series below total degree M; keys are degrees
    or, for several variables, exponent tuples.  The result is in graded
    order: by total degree, then by exponents.

    Raises NoDigits with the message of the first key in that order that
    has none; with ``keep`` such a key is kept as (INF, 0, K) instead.
    """
    acc = {}
    for i, ca in a.items():
        for j, cb in b.items():
            e = i + j if isinstance(i, int) else tuple(x + y for x, y in zip(i, j))
            if (e if isinstance(e, int) else sum(e)) >= M:
                continue
            acc.setdefault(e, []).append(triple_product(ca, cb))
    out = {}
    for k in sorted(acc, key=lambda e: (e if isinstance(e, int) else sum(e), e)):
        c = reduce_triples(p, acc[k])
        if isinstance(c, NoDigits):
            if not keep:
                raise c
            c = (INF, 0, min(n for _, _, n in acc[k]))
        if c is not None:
            out[k] = c
    return out


def triple_compose(p: int, g: dict, h: dict, M: int) -> dict:
    """Horner evaluation of g at h (h without constant term) below degree M,
    the composition lubinlab ran before its power tables.

    The intermediate acc_i = sum_{l>=i} g_l h^(l-i) is multiplied by h i
    more times, so it is formed below M - i only.
    """
    assert 0 not in h
    top = min(max(g, default=0), M - 1)
    acc = None
    for i in range(top, 0, -1):
        if acc is not None:
            acc = triple_mul(p, acc, h, M - i)
        if i in g:
            acc = dict(acc or {})
            acc[0] = g[i]
    res = {} if acc is None else triple_mul(p, acc, h, M)
    if 0 in g:
        res[0] = g[0]
    return res


def table_compose(p: int, g: dict, h: dict, M: int) -> dict:
    """g(h) below degree M as a sum over the powers of h (h without
    constant term): degree d is one ``reduce_triples`` over the products
    g_k [h^k]_d.  The powers are formed by ``triple_mul`` with ``keep``, so
    a power entry without digits only bounds the degrees that read it.
    Raises NoDigits for the first degree that has none.
    """
    assert 0 not in h
    top = min(max(g, default=0), M - 1)
    powers = [None, {d: c for d, c in h.items() if d < M}]
    for _ in range(2, top + 1):
        powers.append(triple_mul(p, powers[-1], h, M, keep=True))
    out = {0: g[0]} if 0 in g else {}
    for d in range(1, M):
        terms = [triple_product(g[k], powers[k][d]) for k in range(1, top + 1) if k in g and d in powers[k]]
        c = reduce_triples(p, terms) if terms else None
        if isinstance(c, NoDigits):
            raise c
        if c is not None:
            out[d] = c
    return out


# -- formal-group references over triples --------------------------------------
#
# The Taylor assembly of group_from_log and the associativity certificate as
# lubinlab ran them before the streamed sum and the shared powers of F: one
# PadicNum operation per pair of coefficients, emulated here on triples
# (None is an exact zero), and a 3-variable Horner composition.

ZERO_NO_DIGITS = "zero known to nonpositive precision carries no digits"


def triple_times(p: int, a, b):
    """One scalar product, as ``PadicNum.__mul__``."""
    (va, ua, na), (vb, ub, nb) = a, b
    if va == INF or vb == INF:
        n = (va if va != INF else na) + (vb if vb != INF else nb)
        if n <= 0:
            raise NoDigits(ZERO_NO_DIGITS)
        return (INF, 0, n)
    rel = min(na - va, nb - vb)
    return (va + vb, ua * ub % p**rel, va + vb + rel)


def triple_div_int(p: int, a, k: int):
    """Division by a positive integer, as ``PadicNum.div_int``."""
    v, u, n = a
    w = frac_val(k, p)
    if v == INF:
        if n - w <= 0:
            raise NoDigits(ZERO_NO_DIGITS)
        return (INF, 0, n - w)
    mod = p ** (n - v)
    return (v - w, u * pow(k // p**w, -1, mod) % mod, n - w)


def triple_add(p: int, a, b):
    """One scalar sum, as ``PadicNum.__add__``, exceptions included."""
    if a is None:
        return b
    if b is None:
        return a
    K = min(a[2], b[2])
    vals = [t[0] for t in (a, b) if t[0] != INF]
    if not vals:
        if K <= 0:
            raise NoDigits(ZERO_NO_DIGITS)
        return (INF, 0, K)
    m = min(min(vals), K)
    if K - m <= 0:
        if K <= 0:
            raise NoDigits("result has no significant digits")
        return (INF, 0, K)
    r = sum(u * p ** (v - m) for v, u, _ in (a, b) if v != INF) % p ** (K - m)
    if r == 0:
        if K <= 0:
            raise NoDigits(ZERO_NO_DIGITS)
        return (INF, 0, K)
    w = frac_val(r, p)
    return (m + w, r // p**w, K)


def taylor_assembly(p: int, M: int, orders) -> dict:
    """F = sum_j A_j(x) L(y)^j / j! below total degree M, one product,
    factorial division and sum per pair of coefficients.

    ``orders`` yields (A_j, L(y)^j) for j = 0, 1, ... as {degree: triple};
    it is consumed lazily, so an exception while producing order j + 1
    surfaces after order j is assembled.  Returns {(a, b): triple} in the
    order monomials are first reached; raises NoDigits as PrecisionExhausted.
    """
    acc = {}
    factorial = 1
    for j, (A, Ly) in enumerate(orders):
        if j > 0:
            factorial *= j
        for a, ca in A.items():
            for b, cb in Ly.items():
                if a + b >= M or (b == 0 and j > 0):
                    continue
                c = triple_div_int(p, triple_times(p, ca, cb), factorial)
                acc[(a, b)] = triple_add(p, acc.get((a, b)), c)
    return acc


def _series_add(p: int, a: dict, b: dict) -> dict:
    out = {e: triple_add(p, a.get(e), b.get(e)) for e in a.keys() | b.keys()}
    return {e: c for e, c in out.items() if c is not None}


def _horner_1var(p: int, g: dict, h: dict, M: int) -> dict:
    """g(h) for univariate g and multivariate h without constant term."""
    zero = (0,) * len(next(iter(h)))
    acc, wrote = {}, False
    for i in range(min(max(g, default=0), M - 1), 0, -1):
        if wrote:
            acc = triple_mul(p, acc, h, M)
        if i in g:
            acc = _series_add(p, acc, {zero: g[i]})
            wrote = True
    res = triple_mul(p, acc, h, M) if wrote else {}
    if 0 in g:
        res = _series_add(p, res, {zero: g[0]})
    return res


def _horner_2var(p: int, g: dict, h1: dict, h2: dict, M: int) -> dict:
    """g(h1, h2) by Horner along the second variable of g."""
    rows = {}
    for (a, b), c in g.items():
        if a < M:
            rows.setdefault(b, {})[a] = c
    acc = None
    for b in range(max(rows, default=-1), -1, -1):
        if acc is not None:
            acc = triple_mul(p, acc, h2, M)
        if b in rows:
            val = _horner_1var(p, rows[b], h1, M)
            acc = val if acc is None else _series_add(p, acc, val)
    return acc or {}


def horner_associative(p: int, F: dict, M: int, N: int) -> bool:
    """F(F(x,y),z) = F(x,F(y,z)) below total degree M, both sides composed
    in three variables, compared coefficient by coefficient at the lesser
    precision.  F is {(a, b): triple} below degree M; N is the precision of
    the substituted variables x and z."""
    one = (0, 1, N)
    fxy = {(a, b, 0): c for (a, b), c in F.items()}
    fyz = {(0, a, b): c for (a, b), c in F.items()}
    lhs = _horner_2var(p, F, fxy, {(0, 0, 1): one}, M)
    rhs = _horner_2var(p, F, {(1, 0, 0): one}, fyz, M)
    for e in lhs.keys() | rhs.keys():
        b = rhs.get(e)
        neg = b if b is None or b[0] == INF else (b[0], -b[1], b[2])
        d = triple_add(p, lhs.get(e), neg)
        if d is not None and d[0] != INF:
            return False
    return True


def triple_substitute(p: int, F: dict, pows: list, D: int, left: bool, keep: bool = False) -> dict:
    """F(F(x,y), z) (left) or F(x, F(y,z)) below total degree D, the
    associativity sides as lubinlab formed them before its part lists: one
    term triple per pair of c_ab (in F's order) and a coefficient of F^k,
    k = a (left) or b, from the dicts pows[k] of {(i, j): triple} (pows[0]
    is {(0, 0): None}, the exact 1).  Returns {(x, y, z) exponents: triple}
    in the order the pairs first reach them, each reduced in that order;
    raises NoDigits at the first without digits, or with ``keep`` keeps
    such a key as (INF, 0, K), as ``triple_mul`` does."""
    terms = {}
    for (a, b), c in F.items():
        k, free = (a, b) if left else (b, a)
        for (i, j), d in pows[k].items():
            if i + j + free < D:
                e = (i, j, free) if left else (free, i, j)
                terms.setdefault(e, []).append(c if d is None else triple_product(c, d))
    out = {}
    for e, t in terms.items():
        c = reduce_triples(p, t)
        if isinstance(c, NoDigits):
            if not keep:
                raise c
            c = (INF, 0, min(n for _, _, n in t))
        out[e] = c
    return out


def swap_vars(coeffs: dict) -> dict:
    """The coefficients {(a, b): c} of a two-variable law with x and y
    exchanged: the reference for the symmetry of a law."""
    return {(b, a): c for (a, b), c in coeffs.items()}


# -- the Lubin-Tate lift as it ran before the degree-incremental stages ----------
#
# At every degree d this recomputes f(F) by a full Horner composition with the
# two-variable F below degree d + 1 and F(f(x), f(y)) from the powers of f,
# and keeps only the degree-d part of the difference.  Series are plain dicts
# in insertion order, and sums iterate ``a.keys() | b.keys()`` as
# ``PSeries.__add__`` does.  The degree-d monomials of the difference are
# checked in exponent order, as the degree-incremental lift checks them; the
# recomputing lift went through them in the slot order of a Python set that
# also held every lower monomial.  The first certified non-integral
# correction of a stage raises NonUnique even after an unresolved one; the
# recomputing lift raised at whichever came first.


class NonUnique(Exception):
    """A lift correction certifies negative valuation (NonUniqueLift)."""


class NotIntegral(Exception):
    """A coefficient of the lifted law is not integral (IntegralityFailure)."""


def triple_neg(p: int, a):
    """Negation, as ``PadicNum.__neg__``."""
    v, u, n = a
    return a if v == INF else (v, -u % p ** (n - v), n)


def triple_div(p: int, a, b):
    """Division by a value that is not zero-like, as ``PadicNum.__truediv__``."""
    (va, ua, na), (vb, ub, nb) = a, b
    if va == INF:
        if na - vb <= 0:
            raise NoDigits(ZERO_NO_DIGITS)
        return (INF, 0, na - vb)
    rel = min(na - va, nb - vb)
    mod = p**rel
    return (va - vb, ua * pow(ub, -1, mod) % mod, va - vb + rel)


def _floor(t):
    return t[0] if t[0] != INF else t[2]


def _dict_add(p: int, a: dict, b: dict, M: int) -> dict:
    """``triple_add`` per exponent tuple below total degree M, in one or
    two variables: the rule of the univariate ``PSeries.__add__`` (and of
    ``series._packed_add``), which the two-variable oracles apply too."""
    out = {}
    for e in a.keys() | b.keys():
        if sum(e) < M:
            c = triple_add(p, a.get(e), b.get(e))
            if c is not None:
                out[e] = c
    return out


def _dict_mul(p: int, a: dict, b: dict, M: int) -> dict:
    """The multivariate dict product: term triples per monomial in
    first-reached order, each monomial reduced in that order."""
    a_items, b_items = list(a.items()), list(b.items())
    if len(a_items) > len(b_items):
        a_items, b_items = b_items, a_items
    acc = {}
    for ea, (va, ua, na) in a_items:
        for eb, (vb, ub, nb) in b_items:
            if sum(ea) + sum(eb) >= M:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            if va == INF or vb == INF:
                t = (INF, 0, _floor((va, ua, na)) + _floor((vb, ub, nb)))
            else:
                t = (va + vb, ua * ub, min(na + vb, va + nb))
            acc.setdefault(e, []).append(t)
    out = {}
    for e, terms in acc.items():
        c = reduce_triples(p, terms)
        if isinstance(c, NoDigits):
            raise c
        if c is not None:
            out[e] = c
    return out


def _horner_after(p: int, f: dict, fM: int, F: dict, M: int) -> dict:
    """f(F) below total degree M by Horner in two-variable dict products."""
    M = min(fM, M)
    F = {e: c for e, c in F.items() if sum(e) < M}
    top = min(max((i for i in f if i < M), default=0), M - 1)
    acc, wrote = {}, False
    for i in range(top, 0, -1):
        if wrote:
            acc = _dict_mul(p, acc, F, M)
        if i in f and i < M:
            acc = _dict_add(p, acc, {(0, 0): f[i]}, M)
            wrote = True
    res = _dict_mul(p, acc, F, M) if wrote else {}
    return _dict_add(p, res, {(0, 0): f[0]}, M) if 0 in f else res


def _pair_after(p: int, F: dict, fpow, trunc: int) -> dict:
    """F(f(x), f(y)) below total degree trunc: for each power of y, the
    inner sum over the powers of x, then one product per degree of f^b."""
    rows = {}
    for (a, b), c in F.items():
        if a + b < trunc:
            rows.setdefault(b, {})[a] = c
    acc = {}
    for b, row in rows.items():
        if b >= len(fpow):
            continue
        inner = {}
        for a, c in row.items():
            if a >= len(fpow):
                continue
            for i, ci in fpow[a].items():
                if i < trunc:
                    inner[i] = triple_add(p, inner.get(i), triple_times(p, ci, c))
        for i, ci in inner.items():
            for j, cj in fpow[b].items():
                if i + j < trunc:
                    acc[(i, j)] = triple_add(p, acc.get((i, j)), triple_times(p, ci, cj))
    return acc


def lubin_tate_lift(p: int, f: dict, fM: int, N: int, x_prec: int):
    """The lift F with f(F(x,y)) = F(f(x), f(y)), F = x + y mod degree 2.

    f is {degree: triple} below degree fM, in its dict order, with coefficient
    precision N.  Returns (x_prec of F, {(a, b): triple} in order).  Raises
    NonUnique or NoDigits where the lift raises NonUniqueLift or
    PrecisionExhausted, with the same message.
    """
    D = x_prec
    c = f.get(1)
    fM = min(fM, D)
    f = {i: t for i, t in f.items() if i < fM}
    one = (0, 1, N)
    F = {e: one for e in ((1, 0), (0, 1)) if D > 1}
    fpow = [{0: one}, f]
    for _ in range(2, D):
        fpow.append(triple_mul(p, fpow[-1], f, fM))
    cpow = c
    for d in range(2, D):
        cpow = triple_times(p, cpow, c)
        lhs = _horner_after(p, f, fM, F, d + 1)
        rhs = _pair_after(p, F, fpow, d + 1)
        neg = {e: triple_neg(p, t) for e, t in rhs.items()}
        # the defect below degree d, which the recomputing lift also formed
        # (and which may raise NoDigits)
        _dict_add(p, lhs, neg, min(fM, d))
        denom = triple_add(p, cpow, triple_neg(p, c))
        corr, unresolved = {}, None
        top = sorted(e for e in lhs.keys() | neg.keys() if sum(e) == d) if d < fM else ()
        for e in top:
            # a certified failure anywhere in the stage wins over an
            # unresolved correction, whichever comes first
            try:
                delta = triple_div(p, triple_add(p, lhs.get(e), neg.get(e)), denom)
            except NoDigits as ex:
                unresolved = unresolved or NoDigits(f"degree-{d} correction at {e} unresolved: {ex}")
                continue
            if _floor(delta) < 0:
                msg = f"no integral lift: degree-{d} correction at {e} has valuation {_floor(delta)}"
                if delta[0] != INF:
                    raise NonUnique(msg)
                unresolved = unresolved or NoDigits(msg)
                continue
            corr[e] = delta
        if unresolved is not None:
            raise unresolved
        if corr:
            F = _dict_add(p, F, corr, D)
    for e, t in F.items():
        if _floor(t) < 0:
            raise NotIntegral(f"group law lift: coefficient at {e} has valuation floor {_floor(t)}")
    return D, F


# -- the Weierstrass layer as it ran before its packed solve ----------------------
#
# ``PSeries.inverse`` and ``polygon._poly_divide_monic`` as per-pair loops of
# ``PadicNum`` products and sums, emulated on triples, and the preparation's
# fixed point on whole triple series.  Dicts map degrees to triples (None or
# an absent key is an exact zero) and keep the order the loops produced.


def triple_inverse(p: int, a: dict, M: int, N: int) -> dict:
    """1/a below degree M for a with unit constant term a_0: b_0 = 1/a_0
    with the 1 known to p^N, b_n = -(sum_k a_k b_(n-k)) / a_0, each product
    as ``PadicNum.__mul__`` and each sum one ``reduce_triples``."""
    inv = {0: triple_div(p, (0, 1, N), a[0])}
    for n in range(1, M):
        terms = [triple_times(p, a[k], inv[n - k]) for k in range(1, n + 1) if k in a and n - k in inv]
        if terms:
            total = reduce_triples(p, terms)
            if isinstance(total, NoDigits):
                raise total
            inv[n] = triple_div(p, triple_neg(p, total), a[0])
    return inv


def triple_divide_monic(p: int, P: dict, degree: int, D: dict, ddeg: int, keep: bool = False):
    """The long division (q, r) of P, read up to x^degree, by D, monic of
    degree ddeg.  For k = degree - ddeg .. 0 the quotient coefficient q_k is
    the running sum at x^(k + ddeg), and q_k D_j is subtracted at x^(k + j)
    for every D_j, the lead's included: one product and one subtraction
    each.  q comes in that order, r by ascending degree.

    With ``keep``, a running sum that keeps no digits is kept as (INF, 0, K),
    its value modulo p^K, and the division goes on.  Products and the lead's
    subtraction still raise, and so does a coefficient of q or r formed by
    subtractions that keeps no digits once all are in: that is where a
    division summing each coefficient once raises.
    """
    rem = {i: P.get(i) for i in range(degree + 1)}
    summed = set()
    quot = {}

    def subtract(e, t, strict):
        try:
            rem[e] = triple_add(p, rem[e], triple_neg(p, t))
        except NoDigits:
            if strict or not keep:
                raise
            rem[e] = (INF, 0, min(rem[e][2], t[2]))
        summed.add(e)

    def check(e):
        c = rem[e]
        if keep and e in summed and c is not None and c[0] == INF and c[2] <= 0:
            raise NoDigits("sum has no significant digits")

    for k in range(degree - ddeg, -1, -1):
        lead = rem[k + ddeg]
        if lead is None:
            continue
        check(k + ddeg)
        quot[k] = lead
        for j in range(ddeg + 1):
            if j in D:
                subtract(k + j, triple_times(p, lead, D[j]), j == ddeg)
    for e in range(min(ddeg, degree + 1)):
        check(e)
    return quot, {e: c for e, c in rem.items() if e < ddeg and c is not None}


def triple_congruent(p: int, a, b) -> bool:
    """``PadicNum.congruent`` at the lesser precision, which is positive or
    infinite here (None is an exact zero)."""
    a, b = a or (INF, 0, INF), b or (INF, 0, INF)
    P = min(a[2], b[2])
    if P == INF:
        return True
    if a[0] >= P or b[0] >= P:
        return a[0] >= P and b[0] >= P
    return a[0] == b[0] and (a[1] - b[1]) % p ** (P - a[0]) == 0


def triple_preparation(p: int, g: dict, M: int, N: int):
    """(P, U) with g = P U for integral g below degree M whose least unit
    coefficient is at W >= 1: the fixed point q <- shift_W(x^W - q g_low)
    (1/g_hi) on whole series, ``triple_mul`` products and ``triple_inverse``,
    until q repeats at the lesser precision (at most N + 9 passes, else
    NoDigits), then P = x^W - (x^W - q g below x^W) and U = 1/q."""
    W = min(i for i, (v, _, _) in g.items() if v == 0)
    one = (0, 1, N)

    def shift(s):
        return {e - W: c for e, c in s.items() if e >= W}

    def xw_minus(s):
        out = {e: triple_neg(p, c) for e, c in s.items()}
        out[W] = triple_add(p, one, out.get(W))
        return out

    low = {e: c for e, c in g.items() if e < W}
    inv_hi = triple_inverse(p, shift(g), M, N)
    q = {}
    for _ in range(N + 9):
        q, last = triple_mul(p, shift(xw_minus(triple_mul(p, q, low, M))), inv_hi, M), q
        if all(triple_congruent(p, q.get(e), last.get(e)) for e in q.keys() | last.keys()):
            break
    else:
        raise NoDigits("weierstrass division did not stabilize")
    r = xw_minus(triple_mul(p, q, g, M))
    P = {e: triple_neg(p, c) for e, c in r.items() if e < W}
    P[W] = one
    return P, triple_inverse(p, q, M, N)


# -- the vertex split as it ran on whole series ---------------------------------
#
# ``polygon.vertex_split`` as it ran before its packed lists: every Newton
# step through whole series, each sum one ``triple_add`` per key in the order
# of ``PSeries.__add__`` (the set union of the keys), each product
# ``triple_mul`` and each monic division the reversed solve of
# ``polygon._poly_divide_monic``.  Series are dicts keyed by 1-tuples (d,),
# in the insertion order the series would have had, so the unions walk the
# same sets.


def _fold_triples(p: int, c, pairs):
    """c - sum a b over the pairs (a, b) of triples or None, as
    ``series._fold``: c itself without a pair of present factors, else one
    ``reduce_triples`` of c and the negated products, raising first where a
    zero-like product keeps no digit (``triple_times``)."""
    present = [(a, b) for a, b in pairs if a is not None and b is not None]
    if not present:
        return c
    terms = [triple_neg(p, triple_times(p, a, b)) for a, b in present]
    total = reduce_triples(p, ([c] if c is not None else []) + terms)
    if isinstance(total, NoDigits):
        raise total
    return total


def triple_poly_divide_monic(p: int, P: dict, degree: int, D: dict, ddeg: int):
    """(q, r) of ``polygon._poly_divide_monic`` on 1-tuple dicts: rev(q) solved
    degree by degree, rev(q)_n = rev(P)_n - sum_(k=1..n) rev(D)_k rev(q)_(n-k),
    q in that order (q_qdeg first); then q_k less q_k times D's lead wherever
    that keeps no digit; then r_e = P_e - sum_k q_k D_(e-k), e < ddeg, by
    ascending e."""
    qdeg = degree - ddeg
    rP = {degree - e: c for (e,), c in P.items() if e <= degree}
    rD = {ddeg - e: c for (e,), c in D.items() if e <= ddeg}
    rq = {}
    for n in range(qdeg + 1):
        b = _fold_triples(p, rP.get(n), [(rD.get(k), rq.get(n - k)) for k in range(1, n + 1)])
        if b is not None:
            rq[n] = b
    quot = {(qdeg - n,): b for n, b in rq.items()}
    lead = D.get((ddeg,))
    for b in quot.values() if lead is not None else ():
        if min(b[2], b[2] + _floor(lead), _floor(b) + lead[2]) <= 0:
            triple_add(p, b, triple_neg(p, triple_times(p, b, lead)))  # raises where it keeps no digit
    rem = {}
    for e in range(min(ddeg, degree + 1)):
        r = _fold_triples(p, P.get((e,)), [(D.get((e - k,)), quot.get((k,))) for k in range(e + 1)])
        if r is not None:
            rem[(e,)] = r
    return quot, rem


def triple_vertex_split(p: int, P: dict, M: int, N: int, degree: int, istar: int):
    """(A, B) of ``polygon.vertex_split`` for the series P (1-tuple keys,
    below degree M, coefficient precision N), or NoDigits with its message:
    the same start, Newton steps, cofactor updates, stall and step limits."""

    def mul(a, b):
        return triple_mul(p, a, b, M)

    def neg(a):
        return {e: triple_neg(p, c) for e, c in a.items()}

    def add(a, b):
        return _dict_add(p, a, b, M)

    def mod_a(s, sdeg):
        return triple_poly_divide_monic(p, s, sdeg, A, istar)[1]

    cstar = P.get((istar,))
    if cstar is None or cstar[0] == INF:
        raise NoDigits("vertex coefficient unresolved")
    A = {(i,): triple_div(p, P[(i,)], cstar) for i in range(istar) if (i,) in P}
    A[(istar,)] = (0, 1, max(int(N - cstar[0]), 1))
    B = {(i - istar,): P[(i,)] for i in range(istar, degree + 1) if (i,) in P}
    one = {(0,): (0, 1, N)}
    t = {(0,): triple_div(p, (0, 1, N), cstar)}
    last_gap, stalls = -INF, 0
    for _ in range(40):
        R = add(P, neg(mul(A, B)))
        dA = mod_a(mul(mod_a(R, degree), t), 2 * istar - 2)
        dB = triple_poly_divide_monic(p, add(R, neg(mul(dA, B))), degree - 1, A, istar)[0]
        A, B = add(A, dA), add(B, dB)
        if all(c[0] == INF for c in R.values()):
            return A, B
        gap = min(_floor(c) for c in R.values())
        stalls = stalls + 1 if gap <= last_gap else 0
        if stalls == 3:
            raise NoDigits("vertex split stalled; digits cannot be separated")
        last_gap = gap
        try:
            inner = mod_a(mul(t, mod_a(B, degree - istar)), 2 * istar - 2)
            t = add(t, mod_a(mul(t, add(one, neg(inner))), 2 * istar - 2))
        except NoDigits:
            pass  # keep the old multiplier
    raise NoDigits("vertex split did not converge")


# -- the iterate limit of the logarithm as it ran on dicts -----------------------
#
# ``dynamics.logarithm_limit`` before its packed lists: each iterate one
# composition, each coefficient divided by c^n as ``PadicNum.__truediv__``
# divides, and each increment a difference of whole series.


class ZeroDivisor(Exception):
    """A divisor zero to its precision (DivisionByZeroToPrecision)."""


def triple_limit(p: int, f: dict, M: int, N: int, n_max: int):
    """(series, evidence) of the normalized iterates
    f^n / c^n, c = f_1, for f without constant term below degree M.  f^1 ..
    f^n_max are ``table_compose`` of the last on f from the identity x known
    to p^N; evidence lists (n, least valuation floor of the increment), INF
    for an increment without coefficients.  The result is the last
    normalized iterate, each coefficient capped at the floor of its last
    increment.  Raises NoDigits ("no stabilization") when n_max >= 2 and the
    last floor is no greater than the first, or where a cap is <= 0."""
    x = {1: (0, 1, N)}
    if n_max == 0:
        return x, []
    fn, norm, evidence = x, x, []
    for n in range(1, n_max + 1):
        fn = table_compose(p, fn, f, M)
        v, u, m = f.get(1, (INF, 0, INF))  # c^n keeps c's relative digits
        if fn and v == INF:
            raise ZeroDivisor(f"divisor is zero to precision O({p}^{n * m})")
        cn = (n * v, pow(u, n, p ** (m - v)), n * v + m - v) if v != INF else None
        prev, norm = norm, {d: triple_div(p, a, cn) for d, a in sorted(fn.items())}
        incr = {}
        for d in sorted(norm.keys() | prev.keys()):
            b = prev.get(d)
            incr[d] = triple_add(p, norm.get(d), None if b is None else triple_neg(p, b))
        evidence.append((n, min(map(_floor, incr.values()), default=INF)))
    if len(evidence) >= 2 and evidence[-1][1] <= evidence[0][1]:
        raise NoDigits(f"no stabilization after {n_max} iterates")
    capped = {}
    for d, (v, u, n) in sorted(norm.items()):
        cap = _floor(incr[d])
        if cap <= 0:
            raise NoDigits(f"coefficient {(d,)} certifies no digits after {n_max} iterates")
        if cap >= n:
            capped[d] = (v, u, n)
        elif v == INF or v >= cap:
            capped[d] = (INF, 0, cap)
        else:
            capped[d] = (v, u % p ** (cap - v), cap)
    return capped, evidence
