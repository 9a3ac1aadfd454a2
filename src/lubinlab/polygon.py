"""Newton polygons of p-adic power series and Weierstrass factorization.

The polygon of g = sum a_i x^i is the lower convex hull of the points
(i, v_p(a_i)).  Only coefficients with *certified* valuations contribute
points; a coefficient that is merely zero to its working precision
contributes an unknown at height >= its precision bound, and any unknown
that could dip below the computed hull poisons the answers that depend on
that region.  Slopes are exact rationals throughout, never floats.

Factorization walks the hull.  A Weierstrass preparation (the division of
x^W by the series, a fixed point on the quotient) peels off the
distinguished polynomial carrying every open-disk root.  Two-factor Hensel
splits seeded at the hull vertices then cut that polynomial into one monic
factor per slope.  A split solves no linear system: each Newton step is a
few polynomial products and exact divisions by a monic factor
(``_poly_divide_monic``), driven by a cofactor t ~ B^-1 mod A that the same
steps refine.  A slope's cofactor is the unit series times the factors
split off beside it.  The layer has one recurrence, ``series._packed_solve``:
it forms the preparation's inverses 1/g_hi and 1/q, and a monic division
is the same solve on the reversed polynomials, rev(D) rev(q) = rev(P).  The
preparation and the splits run on the packed lists of ``series``: products
are ``_product`` and ``_packed_mul``, and sums and differences
``_packed_add``, the addition of ``PSeries`` too.  A preparation lays out
its fixed operands once and keeps the precision ledgers of its products
by their operands' precision lists, which settle after a few passes, so
most passes compute none.  A series is prepared once per ``target_prec``,
and P split once per vertex, for all its slopes: ``weierstrass_factor``
keeps that work on the series.
"""

from fractions import Fraction

from .errors import PrecisionExhausted, TruncationInconclusive
from .padic import INF, PadicNum
from .series import _ABSENT, _HALF, PSeries, _coeff, _factor, _fold, _operand, _pack, _packed_add, _packed_mul, _packed_solve, _product, _unpack, first_disagreement


class Segment:
    """One edge of the lower hull: exact slope, integer width, endpoints."""

    __slots__ = ("slope", "width", "start", "end")

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.width = end[0] - start[0]
        self.slope = Fraction(end[1] - start[1], self.width)

    def __repr__(self):
        return f"Segment(slope={self.slope}, width={self.width}, {self.start}->{self.end})"


class NewtonPolygon:
    """Lower convex hull of (index, valuation) with truncation honesty."""

    def __init__(self, points, unknowns, x_prec):
        self.points = sorted(points)
        self.unknowns = sorted(unknowns)
        self.x_prec = x_prec
        self.vertices = _lower_hull(self.points)
        self.segments = [
            Segment(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        ]
        self.uncertain_indices = [
            i for i, bound in self.unknowns if bound < self.hull_height(i)
        ]

    def hull_height(self, i):
        """Height of the hull boundary above abscissa i (INF outside)."""
        if not self.vertices:
            return INF
        if i < self.vertices[0][0] or i > self.vertices[-1][0]:
            return INF
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a[0] <= i <= b[0]:
                return Fraction(a[1]) + Fraction(b[1] - a[1], b[0] - a[0]) * (i - a[0])
        return Fraction(self.vertices[0][1])

    def negative_segments(self):
        return [s for s in self.segments if s.slope < 0]

    def negative_vertices(self):
        """Endpoints of the negative-slope edges, as a sorted list."""
        out = []
        for s in self.negative_segments():
            for pt in (s.start, s.end):
                if pt not in out:
                    out.append(pt)
        return sorted(out)

    @property
    def negative_certified(self) -> bool:
        """True when no truncated or unresolved coefficient can alter the
        negative-slope region: the series is integral to precision, a unit
        coefficient occurs below the truncation, and no unknown lies under
        the hull left of it."""
        if not self.vertices:
            return False
        if any(v < 0 for _, v in self.points):
            return False
        if any(b < 0 for _, b in self.unknowns):
            return False
        zero_vertex = next((i for i, v in self.vertices if v == 0), None)
        if zero_vertex is None:
            return False
        return not any(i <= zero_vertex for i in self.uncertain_indices)

    # -- rendering ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [[i, v] for i, v in self.vertices],
            "segments": [
                {"slope": str(s.slope), "width": s.width} for s in self.segments
            ],
        }

    def ascii(self) -> str:
        if not self.points:
            return "(empty polygon)"
        vset = set(self.vertices)
        vs = [v for _, v in self.points]
        rows = []
        imax = max(i for i, _ in self.points)
        for v in range(max(vs), min(vs) - 1, -1):
            row = [f"{v:4d} |"]
            for i in range(0, imax + 1):
                if (i, v) in vset:
                    row.append("*")
                elif (i, v) in set(self.points):
                    row.append("o")
                else:
                    row.append(".")
            rows.append(" ".join(row))
        rows.append("     +" + "--" * (imax + 1))
        rows.append("      " + " ".join(f"{i%10}" for i in range(0, imax + 1)))
        return "\n".join(rows)

    def svg(self) -> str:
        if not self.points:
            return '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 10 10"/>'
        imax = max(i for i, _ in self.points)
        vmax = max(v for _, v in self.points)
        vmin = min(v for _, v in self.points)
        sx, sy = 20, 20
        w = (imax + 2) * sx
        h = (vmax - vmin + 2) * sy
        tx = lambda i: (i + 1) * sx
        ty = lambda v: (vmax - v + 1) * sy
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">'
        ]
        pts = " ".join(f"{tx(i)},{ty(v)}" for i, v in self.vertices)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
        )
        for i, v in self.points:
            parts.append(f'<circle cx="{tx(i)}" cy="{ty(v)}" r="2" fill="gray"/>')
        for i, v in self.vertices:
            parts.append(f'<circle cx="{tx(i)}" cy="{ty(v)}" r="3" fill="black"/>')
            parts.append(
                f'<text x="{tx(i) + 4}" y="{ty(v) - 4}" font-size="10">({i},{v})</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(g: PSeries) -> NewtonPolygon:
    """Polygon of a univariate series from its certified coefficient valuations."""
    if g.nvars != 1:
        raise ValueError("newton polygon is univariate")
    points = []
    unknowns = []
    for (i,), c in g.coeffs.items():
        if c.v == INF:
            unknowns.append((i, c.N))
        else:
            points.append((i, c.v))
    return NewtonPolygon(points, unknowns, g.x_prec)


def count_roots_open_disk(g: PSeries) -> int:
    """Number of roots of g in the open unit disk, with multiplicity.

    Equals the x-adic valuation plus the total width of the finite
    negative-slope segments.  Raises TruncationInconclusive unless the
    negative-slope region of the hull is certified complete.
    """
    poly = newton_polygon(g)
    if not poly.negative_certified:
        raise TruncationInconclusive(
            "negative-slope region not certified below the truncation order"
        )
    first = poly.points[0][0]
    if any(i < first for i, _ in poly.unknowns):
        raise TruncationInconclusive("x-adic valuation depends on unresolved coefficients")
    return first + sum(s.width for s in poly.negative_segments())


def iterate(f: PSeries, n: int) -> PSeries:
    """n-fold self-composition of a univariate series, f^(k+1) = f^k ∘ f."""
    out = PSeries.identity(f.prime, f.x_prec, f.coeff_prec)
    for _ in range(n):
        out = out.compose(f)
    return out


def verify_iterate_shape(f: PSeries, n: int, fn: PSeries = None) -> bool:
    """Check that the negative-slope vertices of the n-th iterate's polygon
    are exactly (p^k, n-k) for 0 <= k <= n.

    fn, when given, is the iterate f^n as ``iterate(f, n)`` forms it, so a
    caller that already holds the chain of iterates skips recomputing it.
    """
    p = f.prime
    if n == 0:
        poly = newton_polygon(PSeries.identity(p, f.x_prec, f.coeff_prec))
        return poly.vertices == [(1, 0)]
    if p**n >= f.x_prec:
        raise TruncationInconclusive(
            f"iterate degree p^{n} exceeds truncation order {f.x_prec}"
        )
    if fn is None:
        fn = iterate(f, n)
    poly = newton_polygon(fn)
    if not poly.negative_certified:
        raise TruncationInconclusive("iterate polygon not certified")
    expected = sorted((p**k, n - k) for k in range(0, n + 1))
    return poly.negative_vertices() == expected


# -- Weierstrass machinery -----------------------------------------------------


def weierstrass_preparation(g: PSeries):
    """Factor an integral series with unit coefficient below the truncation
    as (distinguished monic polynomial) * (unit series).

    Requires g(0) not zero-like (peel x-powers first).  Returns (P, U) with
    g = P * U, P monic of degree W = weierstrass_degree(g), P distinguished.
    P = x^W - r and U = 1/q come from the division x^W = q*g + r, deg r < W,
    as the fixed point q <- shift_W(x^W - q*g_low) * (1/g_hi), g_low the
    sub-W block of g, g_hi = shift_W(g) and shift_W the division by x^W that
    drops the lower terms.  g_low is divisible by p, so each pass gains at
    least one p-adic digit.  The passes run on packed lists: products are
    ``series._product``, 1/g_hi and 1/q one ``_packed_solve`` each, and the
    stop test (q repeats at the lesser precision of each coefficient)
    decides on the integers, as ``PadicNum.congruent`` does.  Each pass
    multiplies a fixed operand (g_low or 1/g_hi, laid out once by
    ``series._operand``, as is g) by q, the operand of the last pass's
    product, or by the shifted remainder, whose (N, v') pairs soon repeat:
    the products share one dict of ledgers, so a ledger is computed once
    per distinct pair of lists.
    """
    W = g.weierstrass_degree()
    if W is None:
        raise TruncationInconclusive("no unit coefficient below the truncation order")
    p = g.prime
    M = g.x_prec
    N = g.coeff_prec
    if g.min_val_floor() < 0:
        raise ValueError("preparation requires an integral series")
    one = PadicNum.one(p, N)
    if W == 0:
        return PSeries(p, 1, M, {(0,): one}, N), g
    G = _pack(g.coeffs, M)
    low = _operand(p, tuple(x[:W] for x in G))
    unit = _pack({(0,): one}, 1)
    inv_hi = _operand(p, _packed_solve(p, tuple(x[W:] for x in G), unit, M, g.c((W,))))
    q = [_ABSENT] * M, [0] * M, [_ABSENT] * M
    qop = _operand(p, q)
    ledgers = {}  # the ledgers of the passes' products, by their operands' (N, v') pairs
    for _ in range(int(N) + 9):  # the first pass, from q = 0, forms 1/g_hi
        # shift_W(x^W - q*g_low): 1 less the slots of q*g_low from x^W on
        s = _packed_add(p, unit, tuple(x[W:] for x in _product(p, qop, low, M, ledgers=ledgers)[0]), negate=True)
        last, (q, qop) = q, _product(p, _operand(p, s), inv_hi, M, ledgers=ledgers)
        if _repeats(p, q, last):
            break
    else:
        raise PrecisionExhausted("weierstrass division did not stabilize")
    # x^W - r is 1 at x^W and [q*g]_e below it
    P = _unpack(p, _product(p, qop, _operand(p, G), W)[0], M, N)
    P.coeffs[(W,)] = one
    return P, _unpack(p, q, M, N).inverse()


def _repeats(p: int, a, b) -> bool:
    """Each coefficient of packed a congruent to b's (of the same length) at
    the lesser precision P of the two: both zero-like at P, or one valuation
    and units equal modulo p^(P - v).  (Every P here is positive: the
    preparation's series are integral, and a coefficient without digits has
    raised.)"""
    for va, ua, na, vb, ub, nb in zip(*a, *b):
        P = min(na, nb)
        if P < _HALF and ((va >= P) != (vb >= P) or va < P and (va != vb or (ua - ub) % p ** (P - va))):
            return False
    return True


_SPLIT_STEPS = 40  # Newton steps before a split gives up
_SPLIT_PATIENCE = 3  # steps in a row without a gain in the residual's floor


def vertex_split(P: PSeries, degree: int, istar: int):
    """Two-factor Hensel split of a monic polynomial at an interior vertex.

    Returns monic (A, B) with P = A*B to precision, deg A = istar carrying
    the polygon left of the vertex (the higher-valuation roots).  The start
    is read off the hull: with c = P_istar the vertex coefficient,
    A = x^istar + sum_(i<istar) (P_i / c) x^i, B = sum_(i>=istar) P_i
    x^(i-istar), and t = 1/c approximates B^-1 mod A, because B is
    dominated by its constant term on the disk that holds A's roots.  Each
    Newton step (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    Alg. 15.10) takes the residual R = P - A*B to

        dA = (R mod A) * t mod A,    dB = (R - dA*B) div A  (below x^degree),

    so B's monic lead keeps its digits, and then refines the cofactor,
    t += t * (1 - t*(B mod A) mod A) mod A, on the new A and B.  R and B
    are reduced mod A before they meet t, so no product passes x^degree;
    every mod and div is ``_poly_divide_monic``.  The step on a residual
    that is zero to its precision is taken too and ends the iteration: its
    zero-like corrections cap each claimed digit at what the residual
    leaves open.  t is only a multiplier, so an update that runs out of
    digits keeps the old t, which still contracts the residual, only more
    slowly.  A split whose residual floor does not grow for
    ``_SPLIT_PATIENCE`` steps in a row cannot separate its digits and
    raises PrecisionExhausted.

    P is packed once and the steps run on packed lists, with no series
    between them; A and B are unpacked on return.  A sum or difference
    walks its slots by degree (``series._packed_add``), so where two slots
    keep no digit the lower degree's error is raised.
    """
    p, M, N = P.prime, P.x_prec, P.coeff_prec

    def mul(a, b):
        return _packed_mul(p, a, b, M)

    def mod_a(s, sdeg):  # by A as it stands
        return _poly_divide_monic(p, s, sdeg, A, istar)[1]

    cstar = P.c((istar,))
    if cstar.is_zero_like():
        raise PrecisionExhausted("vertex coefficient unresolved")
    A = {(i,): P.coeffs[(i,)] / cstar for i in range(istar) if (i,) in P.coeffs}
    A[(istar,)] = PadicNum.one(p, max(int(N - cstar.v), 1))
    A = _pack(A, M)
    B = _pack({(i - istar,): c for (i,), c in P.coeffs.items() if istar <= i <= degree}, M)
    one = PadicNum.one(p, N)
    t = _pack({(0,): one / cstar}, 1)
    one = _pack({(0,): one}, 1)
    P = _pack(P.coeffs, M)
    last_gap, stalls = -INF, 0
    for _ in range(_SPLIT_STEPS):
        R = _packed_add(p, P, mul(A, B), negate=True)
        dA = mod_a(mul(mod_a(R, degree), t), 2 * istar - 2)
        dB = _poly_divide_monic(p, _packed_add(p, R, mul(dA, B), negate=True), degree - 1, A, istar)[0]
        A, B = _packed_add(p, A, dA), _packed_add(p, B, dB)
        if all(v == _ABSENT for v in R[0]):
            return _unpack(p, A, M, N), _unpack(p, B, M, N)
        gap = min(n if v == _ABSENT else v for v, n in zip(R[0], R[2]) if n != _ABSENT)
        stalls = stalls + 1 if gap <= last_gap else 0
        if stalls == _SPLIT_PATIENCE:
            raise PrecisionExhausted("vertex split stalled; digits cannot be separated")
        last_gap = gap
        try:
            tb = _packed_add(p, one, mod_a(mul(t, mod_a(B, degree - istar)), 2 * istar - 2), negate=True)
            t = _packed_add(p, t, mod_a(mul(t, tb), 2 * istar - 2))
        except PrecisionExhausted:
            pass  # keep the old multiplier
    raise PrecisionExhausted("vertex split did not converge")


def _reverse(a, d: int):
    """Packed a read up to x^d and reversed: slot j holds a_(d - j)."""
    return tuple((x[: d + 1] + [fill] * (d + 1 - len(x)))[::-1] for x, fill in zip(a, (_ABSENT, 0, _ABSENT)))


def _poly_divide_monic(p: int, P, degree: int, D, ddeg: int):
    """Packed (q, r) with P = q*D + r, deg r < ddeg, for packed P read up to
    x^degree and packed D monic of degree ddeg; q has degree - ddeg + 1
    slots, and r has none from x^ddeg on.  The reversed polynomials satisfy
    rev(D) rev(q) = rev(P) below degree qdeg + 1, a power-series division
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, §9.1), so rev(q)
    is one ``_packed_solve`` with no a0: the division never divides by D's
    lead 1, whatever its precision.  r_e = P_e - sum_k q_k D_(e-k), e <
    ddeg, is one ``_fold`` each.  Each coefficient is formed as one sum, so
    it is the schoolbook long division's wherever that keeps digits at
    every subtraction; it raises where the whole sum keeps none, and, as
    the long division does, where q_k less q_k times D's lead keeps none.
    """
    qdeg = degree - ddeg
    rD = _reverse(D, ddeg)
    rq = _packed_solve(p, rD, _reverse(P, degree), qdeg + 1)
    lead = _coeff(p, rD, 0)
    for i, (v, n) in enumerate(zip(rq[0], rq[2]) if lead is not None else ()):
        if n != _ABSENT and min(n, n + lead.val_floor(), (n if v == _ABSENT else v) + lead.N) <= 0:
            b = _coeff(p, rq, i)
            b - b * lead  # raises where it keeps no digits
    # r_e pairs D_(e-k), from rD's slots 1.. (D_(ddeg-1) .. D_0), with q_k
    sd, Dlow = _factor(p, *(x[1:] for x in rD))
    q = tuple(x[::-1] for x in rq)
    sq, Q = _factor(p, *q)
    rem = {}
    for e in range(min(ddeg, degree + 1)):
        r = _fold(p, _coeff(p, P, e), [x[ddeg - 1 - e :] for x in Dlow], Q, sd + sq)
        if r is not None:
            rem[(e,)] = r
    return q, _pack(rem, ddeg)


def weierstrass_factor(g: PSeries, slope, target_prec=None):
    """Monic factor carrying exactly the roots on one negative-slope segment.

    Returns (poly, cofactor) with g = poly * cofactor to combined precision,
    deg(poly) = segment width, and poly's roots the roots of g of valuation
    -slope.  g must be integral to precision.  ``target_prec``, None or an
    int >= 1, caps the p-adic precision of the factorization (the division
    iteration gains one digit per pass, so capping is the honest way to
    trade digits for time).

    The preparation (P, U) and each split of P are kept on g, per
    ``target_prec``, and read back by the calls for the other slopes; they
    live and die with g.  An exception is not kept, so a call that failed
    raises again.  Returned series may be shared between calls: treat them
    as values.
    """
    if target_prec is not None and (type(target_prec) is not int or target_prec < 1):  # bool too
        raise ValueError(f"target_prec must be None or an int >= 1, got {target_prec!r}")
    memo = g._factoring = g._factoring or {}
    if target_prec is not None:
        g = g.cap_coeff_prec(target_prec)
    slope = Fraction(slope)
    if slope >= 0:
        raise ValueError("requested slope must be negative")
    poly = newton_polygon(g)
    if not poly.negative_certified:
        raise TruncationInconclusive("hull not certified in the negative-slope region")
    seg = next((s for s in poly.negative_segments() if s.slope == slope), None)
    if seg is None:
        raise ValueError(f"no negative segment of slope {slope}")
    p = g.prime
    i0 = poly.points[0][0]
    if any(i < i0 for i, _ in poly.unknowns):
        raise TruncationInconclusive("x-adic valuation depends on unresolved coefficients")
    if target_prec not in memo:
        coeffs = {(e[0] - i0,): c for e, c in g.coeffs.items() if e[0] >= i0}
        shifted = PSeries(p, 1, g.x_prec - i0, coeffs, g.coeff_prec)
        memo[target_prec] = weierstrass_preparation(shifted) + (shifted.weierstrass_degree(), {})
    P, U, wdeg, splits = memo[target_prec]

    def split(A, degree, istar):  # a split of P (degree wdeg) is kept by istar, one of its factors is not
        if A is not P:
            return vertex_split(A, degree, istar)
        if istar not in splits:
            splits[istar] = vertex_split(P, degree, istar)
        return splits[istar]

    jl, jr = seg.start[0] - i0, seg.end[0] - i0
    factor, cof = P, U
    if jr < wdeg:
        factor, hi = split(factor, wdeg, jr)
        cof = cof * hi
    if jl > 0:
        lo, factor = split(factor, jr, jl)
        cof = cof * lo
    cofactor = {(e[0] + i0,): c for e, c in cof.coeffs.items() if e[0] + i0 < g.x_prec}
    return factor, PSeries(p, 1, g.x_prec, cofactor, g.coeff_prec)


def is_eisenstein(poly: PSeries, degree=None) -> bool:
    """Eisenstein test for a monic polynomial over Z_p at working precision.

    True iff every non-leading coefficient has valuation >= 1 and the
    constant term has valuation exactly 1.  Raises PrecisionExhausted when
    the lead carries no digits or the constant term's valuation is
    unresolved at the working precision.
    """
    if degree is None:
        finite = [e[0] for e, c in poly.coeffs.items() if not c.is_zero_like()]
        if not finite:
            raise ValueError("zero polynomial")
        degree = max(finite)
    lead = poly.c((degree,))
    one = PadicNum.one(poly.prime, max(lead.N, 1) if lead.N != INF else 1)
    if first_disagreement([(degree, lead, one)]) is not None:
        raise ValueError("polynomial is not monic to precision")
    const = poly.c((0,))
    if const.is_zero_like():
        if const.is_exact_zero() or const.N <= 1:
            raise PrecisionExhausted("constant-term valuation unresolved")
        return False  # valuation >= bound > 1
    if const.v != 1:
        return False
    for i in range(1, degree):
        if poly.c((i,)).val_floor() < 1:
            return False
    return True
