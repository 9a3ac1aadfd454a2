"""Newton polygons of p-adic power series and Weierstrass factorization.

The polygon of g = sum a_i x^i is the lower convex hull of the points
(i, v_p(a_i)).  Only coefficients with *certified* valuations contribute
points; a coefficient that is merely zero to its working precision
contributes an unknown at height >= its precision bound, and any unknown
that could dip below the computed hull poisons the answers that depend on
that region.  Slopes are exact rationals throughout, never floats.

Factorization walks the hull: a Weierstrass preparation (fixed-point
division by the first-unit-coefficient block) peels off the distinguished
polynomial carrying every open-disk root, and two-factor Hensel iterations
seeded at interior vertices slice that polynomial into one monic factor per
slope.
"""

from fractions import Fraction

from .errors import PrecisionExhausted, TruncationInconclusive
from .padic import INF, PadicNum
from .series import PSeries


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


def weierstrass_divide(h: PSeries, g: PSeries, W: int, max_iter=None):
    """Division h = q*g + r with deg r < W, for g integral with first unit
    coefficient at index W.

    Fixed-point iteration on q: the sub-W block of g is divisible by p, so
    each pass gains at least one p-adic digit.
    """
    p = g.prime
    M = min(g.x_prec, h.x_prec)
    g_low = PSeries(p, 1, M, {e: c for e, c in g.coeffs.items() if e[0] < W}, g.coeff_prec)
    g_hi = PSeries(
        p, 1, M, {(e[0] - W,): c for e, c in g.coeffs.items() if e[0] >= W}, g.coeff_prec
    )
    inv_hi = g_hi.inverse()
    if max_iter is None:
        max_iter = int(g.coeff_prec) + 8

    def shift_w(s):
        return PSeries(
            p, 1, M, {(e[0] - W,): c for e, c in s.coeffs.items() if e[0] >= W}, s.coeff_prec
        )

    q = shift_w(h) * inv_hi
    for _ in range(max_iter):
        q_next = shift_w(h - q.truncate(M) * g_low) * inv_hi
        if q_next.equal_to_precision(q):
            q = q_next
            break
        q = q_next
    else:
        raise PrecisionExhausted("weierstrass division did not stabilize")
    r = h - q * g
    r_low = PSeries(p, 1, M, {e: c for e, c in r.coeffs.items() if e[0] < W}, r.coeff_prec)
    return q, r_low


def weierstrass_preparation(g: PSeries):
    """Factor an integral series with unit coefficient below the truncation
    as (distinguished monic polynomial) * (unit series).

    Requires g(0) not zero-like (peel x-powers first).  Returns (P, U) with
    g = P * U, P monic of degree W = weierstrass_degree(g), P distinguished.
    """
    W = g.weierstrass_degree()
    if W is None:
        raise TruncationInconclusive("no unit coefficient below the truncation order")
    p = g.prime
    M = g.x_prec
    if g.min_val_floor() < 0:
        raise ValueError("preparation requires an integral series")
    if W == 0:
        return (
            PSeries(p, 1, M, {(0,): PadicNum.one(p, g.coeff_prec)}, g.coeff_prec),
            g,
        )
    xw = PSeries(p, 1, M, {(W,): PadicNum.one(p, g.coeff_prec)}, g.coeff_prec)
    q, r = weierstrass_divide(xw, g, W)
    P = xw - r
    U = q.inverse()
    return P, U


def _solve_linear(p, rows, rhs):
    """Gaussian elimination over Q_p with min-valuation pivoting.

    rows: list of lists of PadicNum; rhs: list of PadicNum.  Mutates copies.
    """
    n = len(rows)
    A = [row[:] for row in rows]
    b = rhs[:]
    perm = list(range(n))
    for col in range(n):
        piv, best = None, None
        for r in range(col, n):
            c = A[r][col]
            if c.is_zero_like():
                continue
            if best is None or c.v < best:
                piv, best = r, c.v
        if piv is None:
            raise PrecisionExhausted("singular system at working precision")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = PadicNum.one(p, A[col][col].N) / A[col][col]
        for r in range(col + 1, n):
            c = A[r][col]
            if c.is_zero_like():
                continue
            factor = c * inv
            for k in range(col, n):
                A[r][k] = A[r][k] - factor * A[col][k]
            b[r] = b[r] - factor * b[col]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for k in range(i + 1, n):
            acc = acc - A[i][k] * x[k]
        x[i] = acc / A[i][i]
    return x


def vertex_split(P: PSeries, degree: int, istar: int, max_iter: int = 40):
    """Two-factor Hensel split of a monic polynomial at an interior vertex.

    Returns monic (A, B) with P = A*B to precision, deg A = istar carrying
    the polygon left of the vertex (the higher-valuation roots).  The
    initial factors are read off the hull; the Newton step solves the
    Sylvester system exactly at working precision, so convergence is
    quadratic in the gauge valuation.
    """
    p = P.prime
    M = P.x_prec
    N = P.coeff_prec
    cstar = P.c((istar,))
    if cstar.is_zero_like():
        raise PrecisionExhausted("vertex coefficient unresolved")
    A = {(i,): P.c((i,)) / cstar for i in range(istar) if not P.c((i,)).is_zero_like()}
    A[(istar,)] = PadicNum.one(p, max(int(N - cstar.v), 1))
    A = PSeries(p, 1, M, A, N)
    B = {
        (i - istar,): P.c((i,))
        for i in range(istar, degree + 1)
        if not P.c((i,)).is_zero_like()
    }
    B = PSeries(p, 1, M, B, N)
    degB = degree - istar
    last_gap = None
    for _ in range(max_iter):
        R = P - A * B
        floors = [c.val_floor() for c in R.coeffs.values() if not c.is_exact_zero()]
        if not floors or all(c.is_zero_like() for c in R.coeffs.values()):
            return A, B
        gap = min(floors)
        if last_gap is not None and gap <= last_gap:
            raise PrecisionExhausted("vertex split stalled; digits cannot be separated")
        last_gap = gap
        # columns: delta-A coefficients 0..istar-1, delta-B coefficients 0..degB-1
        rows = []
        for row_deg in range(degree):
            row = []
            for j in range(istar):
                row.append(B.c((row_deg - j,)) if 0 <= row_deg - j <= degB else PadicNum.exact_zero(p))
            for j in range(degB):
                row.append(A.c((row_deg - j,)) if 0 <= row_deg - j <= istar else PadicNum.exact_zero(p))
            rows.append(row)
        rhs = [R.c((d,)) for d in range(degree)]
        sol = _solve_linear(p, rows, rhs)
        dA = PSeries(p, 1, M, {(j,): sol[j] for j in range(istar)}, N)
        dB = PSeries(p, 1, M, {(j,): sol[istar + j] for j in range(degB)}, N)
        A = A + dA
        B = B + dB
    raise PrecisionExhausted("vertex split did not converge")


def _poly_divide_monic(P: PSeries, degree: int, D: PSeries, ddeg: int):
    """Exact long division of polynomials with monic divisor D."""
    p = P.prime
    rem = {(i,): P.c((i,)) for i in range(degree + 1)}
    qdeg = degree - ddeg
    quot = {}
    for k in range(qdeg, -1, -1):
        lead = rem.get((k + ddeg,), PadicNum.exact_zero(p))
        if lead.is_exact_zero():
            continue
        quot[(k,)] = lead
        for j in range(ddeg + 1):
            c = D.c((j,))
            if c.is_exact_zero():
                continue
            key = (k + j,)
            rem[key] = rem.get(key, PadicNum.exact_zero(p)) - lead * c
    q = PSeries(p, 1, P.x_prec, quot, P.coeff_prec)
    r = PSeries(
        p, 1, P.x_prec, {e: c for e, c in rem.items() if e[0] < ddeg}, P.coeff_prec
    )
    return q, r


def weierstrass_factor(g: PSeries, slope, target_prec=None):
    """Monic factor carrying exactly the roots on one negative-slope segment.

    Returns (poly, cofactor) with g = poly * cofactor to combined precision,
    deg(poly) = segment width, and poly's roots the roots of g of valuation
    -slope.  g must be integral to precision.  ``target_prec`` caps the
    p-adic precision of the factorization (the division iteration gains one
    digit per pass, so capping is the honest way to trade digits for time).
    """
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
    shifted = PSeries(
        p,
        1,
        g.x_prec - i0,
        {(e[0] - i0,): c for e, c in g.coeffs.items() if e[0] >= i0},
        g.coeff_prec,
    )
    P, U = weierstrass_preparation(shifted)
    wdeg = shifted.weierstrass_degree()
    jl, jr = seg.start[0] - i0, seg.end[0] - i0
    target = P
    tdeg = wdeg
    if jr < wdeg:
        target, _hi = vertex_split(target, tdeg, jr)
        tdeg = jr
    if jl > 0:
        _lo, target = vertex_split(target, tdeg, jl)
        tdeg = tdeg - jl
    factor = target
    q, rem = _poly_divide_monic(P, wdeg, factor, tdeg)
    cof = q * U
    cofactor = PSeries(
        p,
        1,
        g.x_prec,
        {(e[0] + i0,): c for e, c in cof.coeffs.items() if e[0] + i0 < g.x_prec},
        g.coeff_prec,
    )
    return factor, cofactor


def is_eisenstein(poly: PSeries, degree=None) -> bool:
    """Eisenstein test for a monic polynomial over Z_p at working precision.

    True iff every non-leading coefficient has valuation >= 1 and the
    constant term has valuation exactly 1.  Raises PrecisionExhausted when
    the constant term's valuation is unresolved at the working precision.
    """
    if degree is None:
        finite = [e[0] for e, c in poly.coeffs.items() if not c.is_zero_like()]
        if not finite:
            raise ValueError("zero polynomial")
        degree = max(finite)
    lead = poly.c((degree,))
    if not lead.congruent(PadicNum.one(poly.prime, lead.N if lead.N != INF else 1)):
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
