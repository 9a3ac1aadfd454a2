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
(``_poly_divide_monic``, its divisor laid out once by ``_divisor``, as
``series._operand`` lays out a factor of a product), driven by a cofactor
t ~ B^-1 mod A that the same steps refine.  A slope's cofactor is the
unit series times the factors split off beside it.  The layer has one
recurrence, ``series._packed_solve``: it forms the preparation's inverses
1/g_hi and 1/q, and a monic division is the same solve on the reversed
polynomials, rev(D) rev(q) = rev(P), with no scalar per coefficient.  The
polygon, the preparation and the splits read a series' packed lists:
products are ``_product``, sums and differences ``_packed_add``, the
addition of ``PSeries`` too, a division's quotient and remainder stay
packed, and a factor's shifts by x^i0 shift the lists.  A preparation
lays out its fixed operands once and keeps the precision ledgers of its
products by their operands' precision lists, which settle after a few
passes, so most passes compute none.  A series is prepared once per
``target_prec``, and its n slopes take n - 1 splits, right to left: P at
its rightmost interior vertex, then each left factor at the next vertex
left of it.  ``weierstrass_factor`` keeps that work on the series, with
the capped series and its polygon.  The
iterate shape test reads an integral f's iterate f^n first up to x^(p^n)
only, the chain of tabled sums of ``series._iterates`` cut there, and
forms the whole iterate only when that head's polygon is not certified.
"""

from fractions import Fraction
from itertools import islice

from .errors import PrecisionExhausted, TruncationInconclusive
from .padic import _ABSENT, INF, PadicNum, add_triples, mul_triples, neg_unit
from .series import PSeries, _cut, _factor, _fold, _iterates, _operand, _pack, _packed_add, _packed_solve, _padded, _product, _unpack, first_disagreement


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

    def __init__(self, points, unknowns):
        self.points = sorted(points)
        self.unknowns = sorted(unknowns)
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
        vset, pset = set(self.vertices), set(self.points)
        vs = [v for _, v in self.points]
        rows = []
        imax = max(i for i, _ in self.points)
        for v in range(max(vs), min(vs) - 1, -1):
            row = [f"{v:4d} |"]
            for i in range(0, imax + 1):
                if (i, v) in vset:
                    row.append("*")
                elif (i, v) in pset:
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
    V, _, N = g.packed
    points = [(i, v) for i, v in enumerate(V) if v != _ABSENT]
    unknowns = [(i, n) for i, (v, n) in enumerate(zip(V, N)) if v == _ABSENT != n]
    return NewtonPolygon(points, unknowns)


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
    """n-fold self-composition of a univariate series, f^(k+1) = f^k ∘ f,
    on packed lists: the chain of tabled sums of ``series._iterates``."""
    if n <= 0:
        return PSeries.identity(f.prime, f.x_prec, f.coeff_prec)
    return _unpack(f.prime, next(islice(_iterates(f), n - 1, None)), f.x_prec, f.coeff_prec)


def verify_iterate_shape(f: PSeries, n: int, fn: PSeries = None) -> bool:
    """Check that the negative-slope vertices of the n-th iterate's polygon
    are exactly (p^k, n-k) for 0 <= k <= n.

    fn, when given, is the iterate f^n as ``iterate(f, n)`` forms it, so a
    caller that already holds the chain of iterates skips recomputing it.
    Without fn, an integral f (every valuation floor >= 0) is first read
    only up to x^(p^n): the head of f^n, the same chain of tabled sums
    below x^(p^n + 1), holds exactly the iterate's coefficients there.
    Past x^(p^n) an integral iterate has only valuations >= 0 and zero-like
    bounds >= 1, which cannot move the negative part of the hull, its zero
    vertex or the unknowns left of it; so a head whose polygon is
    ``negative_certified`` answers for the whole iterate, and any other
    head falls back to the whole iterate.
    """
    p = f.prime
    if n == 0:
        poly = newton_polygon(PSeries.identity(p, f.x_prec, f.coeff_prec))
        return poly.vertices == [(1, 0)]
    if p**n >= f.x_prec:
        raise TruncationInconclusive(
            f"iterate degree p^{n} exceeds truncation order {f.x_prec}"
        )
    poly = None
    if fn is None and f.min_val_floor() >= 0:
        head = next(islice(_iterates(f, p**n + 1), n - 1, None))
        poly = newton_polygon(_unpack(p, head, p**n + 1, f.coeff_prec))
    if poly is None or not poly.negative_certified:
        poly = newton_polygon(iterate(f, n) if fn is None else fn)
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
    ``series._product``, 1/g_hi and 1/q one ``_packed_solve`` each (1/q on
    q's lists), and the stop test (q repeats at the lesser precision of
    each coefficient) is ``series.first_disagreement`` on the slots.  Each
    pass multiplies a fixed operand (g_low or 1/g_hi, laid out once by
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
        return PSeries(p, M, {(0,): one}, N), g
    G = g.packed
    low = _operand(p, tuple(x[:W] for x in G))
    unit = _pack({(0,): one}, 1)
    inv_hi = _operand(p, _packed_solve(p, _factor(p, *(x[W + 1 :] for x in G)), unit, M, g.c((W,))))
    q = [_ABSENT] * M, [0] * M, [_ABSENT] * M
    qop = _operand(p, q)
    ledgers = {}  # the ledgers of the passes' products, by their operands' (N, v') pairs
    for _ in range(N + 9):  # the first pass, from q = 0, forms 1/g_hi
        # shift_W(x^W - q*g_low): 1 less the slots of q*g_low from x^W on
        s = _packed_add(p, unit, tuple(x[W:] for x in _product(p, qop, low, M, ledgers=ledgers)[0]), negate=True)
        last, (q, qop) = q, _product(p, _operand(p, s), inv_hi, M, ledgers=ledgers)
        # every precision here is positive: the series are integral, and a
        # coefficient without digits has raised
        if first_disagreement(p, zip(range(M), zip(*q), zip(*last))) is None:
            break
    else:
        raise PrecisionExhausted("weierstrass division did not stabilize")
    # x^W - r is 1 at x^W and [q*g]_e below it
    V, U, K = _padded(_product(p, qop, _operand(p, G), W)[0], W)
    P = _unpack(p, (V + [0], U + [1], K + [N]), M, N)
    # q_0 is a unit: 1/g_W times 1 less [q*g_low]_W, which p divides, each
    # known to a digit at least, since a product slot that keeps none raises
    a0 = PadicNum(p, 0, q[1][0], q[2][0])
    return P, _unpack(p, _packed_solve(p, _factor(p, *(x[1:] for x in q)), unit, M, a0), M, N)


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
    between them; A and B are unpacked on return.  A is laid out as a
    divisor (``_divisor``) once per update, for the six divisions by it
    that follow, and B and t as operands of ``_product`` once per update,
    for the two or three products that read each.  A sum or difference
    walks its slots by degree (``series._packed_add``), so where two slots
    keep no digit the lower degree's error is raised.
    """
    p, M, N = P.prime, P.x_prec, P.coeff_prec

    def op(a):
        return _operand(p, a)

    def mul(a, b):  # of two operands
        return _product(p, a, b, M)[0]

    def mod_a(s, sdeg):  # by A as last laid out
        return _poly_divide_monic(p, s, sdeg, divisor)[1]

    cstar = P.c((istar,))
    if cstar.is_zero_like():
        raise PrecisionExhausted("vertex coefficient unresolved")
    A = {e: c / cstar for e, c in P.truncate(istar).coeffs.items()}
    A[(istar,)] = PadicNum.one(p, max(N - cstar.v, 1))
    A = _pack(A, M)
    P = P.packed
    B = _cut(tuple(x[istar : degree + 1] for x in P))
    one = PadicNum.one(p, N)
    t = _pack({(0,): one / cstar}, 1)
    one = _pack({(0,): one}, 1)
    divisor, bop, top = _divisor(p, A, istar), op(B), op(t)
    last_gap, stalls = -INF, 0
    for _ in range(_SPLIT_STEPS):
        R = _packed_add(p, P, mul(op(A), bop), negate=True)
        dA = mod_a(mul(op(mod_a(R, degree)), top), 2 * istar - 2)
        dB = _poly_divide_monic(p, _packed_add(p, R, mul(op(dA), bop), negate=True), degree - 1, divisor)[0]
        A, B = _packed_add(p, A, dA), _packed_add(p, B, dB)
        if all(v == _ABSENT for v in R[0]):
            return _unpack(p, A, M, N), _unpack(p, B, M, N)
        gap = min(n if v == _ABSENT else v for v, n in zip(R[0], R[2]) if n != _ABSENT)
        stalls = stalls + 1 if gap <= last_gap else 0
        if stalls == _SPLIT_PATIENCE:
            raise PrecisionExhausted("vertex split stalled; digits cannot be separated")
        last_gap = gap
        divisor, bop = _divisor(p, A, istar), op(B)
        try:
            tb = _packed_add(p, one, mod_a(mul(top, op(mod_a(B, degree - istar))), 2 * istar - 2), negate=True)
            t = _packed_add(p, t, mod_a(mul(top, op(tb)), 2 * istar - 2))
            top = op(t)
        except PrecisionExhausted:
            pass  # keep the old multiplier
    raise PrecisionExhausted("vertex split did not converge")


def _reverse(a, d: int):
    """Packed a read up to x^d and reversed: slot j holds a_(d - j)."""
    return tuple(x[::-1] for x in _padded(a, d + 1))


def _divisor(p: int, D, ddeg: int):
    """The divisor stage of ``_poly_divide_monic``: packed D, monic of
    degree ddeg, laid out once for any number of divisions by it, as
    ``series._operand`` lays out a factor of ``_product``.  D is reversed
    once; its lower slots D_(ddeg-1) .. D_0, rev(D)'s slots from 1 on, are
    one ``series._factor``, which the reversed solve and the remainder's
    folds both read, and its lead is kept as a packed slot."""
    rD = _reverse(D, ddeg)
    return ddeg, tuple(x[0] for x in rD), _factor(p, *(x[1:] for x in rD))


def _poly_divide_monic(p: int, P, degree: int, divisor):
    """Packed (q, r) with P = q*D + r, deg r < ddeg, for packed P read up to
    x^degree and D monic of degree ddeg as ``_divisor`` lays it out; q has
    degree - ddeg + 1 slots, and r has none from x^ddeg on.  Where degree <
    ddeg, q is empty and r is P, with no solve.  The reversed polynomials
    satisfy rev(D) rev(q) = rev(P) below degree degree - ddeg + 1, a
    power-series division (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, §9.1), so rev(q) is one ``_packed_solve`` with no a0: the
    division never divides by D's lead 1, whatever its precision.  r_e =
    P_e - sum_k q_k D_(e-k), e < ddeg, is one ``_fold`` each.  Each
    coefficient is formed as one sum, so it is the schoolbook long
    division's wherever that keeps digits at every subtraction; it raises
    where the whole sum keeps none, and, as the long division does, where
    q_k less q_k times D's lead keeps none (by ``padic.mul_triples`` and
    ``add_triples``).
    """
    ddeg, (lv, lu, ln), (sd, Dlow) = divisor  # ln: the lead's precision
    if degree < ddeg:
        return ([], [], []), _cut(_padded(P, degree + 1))
    rq = _packed_solve(p, (sd, Dlow), _reverse(P, degree), degree - ddeg + 1)
    m = min(0, lv, ln)  # q_k less q_k times the lead loses every digit only if n + m <= 0 or v + ln <= 0
    for v, u, n in zip(*rq) if ln != _ABSENT else ():
        if n != _ABSENT and (n + m <= 0 or v + ln <= 0):
            b, lead = (INF if v == _ABSENT else v, u, n), (INF if lv == _ABSENT else lv, lu, ln)
            pv, pu, pn = mul_triples(p, *b, *lead)
            add_triples(p, *b, pv, pu if pv == INF else neg_unit(p, pv, pu, pn), pn)  # raises where it keeps no digits
    # r_e pairs D_(e-k), from rD's slots 1.. (D_(ddeg-1) .. D_0), with q_k
    q = tuple(x[::-1] for x in rq)
    sq, Q = _factor(p, *q)
    R = [], [], []
    for e, c in enumerate(zip(*_padded(P, min(ddeg, degree + 1)))):
        for r, y in zip(R, _fold(p, c, [x[ddeg - 1 - e :] for x in Dlow], Q, sd + sq)):
            r.append(y)
    return q, _cut(R)


def weierstrass_factor(g: PSeries, slope, target_prec=None):
    """Monic factor carrying exactly the roots on one negative-slope segment.

    Returns (poly, cofactor) with g = poly * cofactor to combined precision,
    deg(poly) = segment width, and poly's roots the roots of g of valuation
    -slope.  g must be integral to precision.  ``target_prec``, None or an
    int >= 1, caps the p-adic precision of the factorization (the division
    iteration gains one digit per pass, so capping is the honest way to
    trade digits for time).

    With the x-power peeled off, the hull's negative vertices sit at
    0 = v_0 < ... < v_n = W, and the preparation gives g = P * U, P of
    degree W.  The factors are peeled off P right to left, n - 1 splits in
    all (von zur Gathen & Gerhard, *Modern Computer Algebra*, §15.5, the
    factor tree): L_n = P, and L_(j+1) split at v_j gives (L_j, A_(j+1)).
    The k-th slope's factor is A_k (A_1 = L_1), one part of the split at
    v_m, m = max(k - 1, 1), and its cofactor is the other part times
    R_(m+1), where R_j = U * A_(j+1) * ... * A_n.

    The splits by vertex (the preparation's (P, U) at W, P dropped once it
    is split), the products R_j (1 < j < n) by vertex, and g capped at
    ``target_prec`` with its Newton polygon are kept on g, per
    ``target_prec``, and read back by the calls for the other slopes, which
    check the kept polygon as the first call checked it; they live and die
    with g.  So one call per slope makes n - 1 splits and 2(n - 1) products
    in all, in any order.  An exception is not kept, so a call that failed
    raises again; a stall at v_(n-1) fails every slope.  Returned series
    may be shared between calls: treat them as values.
    """
    if target_prec is not None and (type(target_prec) is not int or target_prec < 1):  # bool too
        raise ValueError(f"target_prec must be None or an int >= 1, got {target_prec!r}")
    memo = g._factoring = g._factoring or {}  # target_prec -> (capped g, its polygon, splits, products)
    slope = Fraction(slope)
    if slope >= 0:
        raise ValueError("requested slope must be negative")
    if target_prec in memo:
        g, poly = memo[target_prec][:2]
    else:
        g = g if target_prec is None else g.cap_coeff_prec(target_prec)
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
    vs = [i - i0 for i, _ in poly.negative_vertices()]  # v_0 .. v_n
    if target_prec not in memo:
        shifted = _unpack(p, tuple(x[i0:] for x in g.packed), g.x_prec - i0, g.coeff_prec)
        memo[target_prec] = g, poly, {vs[-1]: weierstrass_preparation(shifted)}, {}
    splits, products = memo[target_prec][2:]  # by vertex v_j: (L_j, A_(j+1)), and R_j
    n, k = len(vs) - 1, vs.index(seg.end[0] - i0)  # the factor is A_k
    m = max(k - 1, 1)
    for j in range(n - 1, m - 1, -1):  # L_(j+1) split at v_j into (L_j, A_(j+1)), right to left
        if vs[j] not in splits:
            splits[vs[j]] = vertex_split(splits[vs[j + 1]][0], vs[j + 1], vs[j])
            if j == n - 1:
                splits[vs[n]] = None, splits[vs[n]][1]  # P is split for good
    R = splits[vs[n]][1]  # R_n = U
    for j in range(n - 1, m, -1):  # R_j = R_(j+1) * A_(j+1)
        if vs[j] not in products:
            products[vs[j]] = R * splits[vs[j]][1]
        R = products[vs[j]]
    factor, other = splits[vs[m]] if k == 1 else splits[vs[m]][::-1]  # A_1 = L_1, else A_k is the right part
    cof = R * other if n > 1 else other
    return factor, _unpack(p, tuple([fill] * i0 + x for x, fill in zip(cof.packed, (_ABSENT, 0, _ABSENT))), g.x_prec, g.coeff_prec)


def is_eisenstein(poly: PSeries) -> bool:
    """Eisenstein test for a monic polynomial over Z_p at working precision.

    True iff every non-leading coefficient has valuation >= 1 and the
    constant term has valuation exactly 1.  Raises PrecisionExhausted when
    the lead carries no digits or the constant term's valuation is
    unresolved at the working precision.
    """
    finite = [e for e, v in enumerate(poly.packed[0]) if v != _ABSENT]
    if not finite:
        raise ValueError("zero polynomial")
    degree = max(finite)
    lead = poly.c((degree,))
    if first_disagreement(poly.prime, [(degree, (lead.v, lead.u, lead.N), (0, 1, max(lead.N, 1)))]) is not None:
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
