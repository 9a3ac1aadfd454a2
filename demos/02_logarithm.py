"""The logarithm of a noninvertible series, two ways.

The recurrence solves L(f(x)) = f'(0) L(x) degree by degree; the limit of
the normalized iterates f^n / f'(0)^n converges to the same series and
serves as an independent oracle.

Run:  python demos/02_logarithm.py
"""

from lubinlab import (
    PSeries,
    dlog_integrality,
    logarithm_limit,
    logarithm_recurrence,
    newton_polygon,
)

p, M, N = 3, 32, 40
f = PSeries.from_univariate_coeffs(p, [3, 0, 1], M, N)  # 3x + x^3

rec = logarithm_recurrence(f)
lim = logarithm_limit(f)

print("first coefficients of log_f (note the precision ledger):")
for n in range(1, 10):
    c = rec.c((n,))
    if not c.is_zero_like():
        print(f"  x^{n}: {c!r}")
print()

print("agrees with the iterate-limit construction:",
      rec.equal_to_precision(lim.series))
print("limit stabilization evidence (n, min increment valuation):",
      lim.stabilization[-4:])
print()

# The polygon of the logarithm has vertices (p^k, -k): it converges on the
# whole open unit disk and its root set matches the iterated preimages of 0.
poly = newton_polygon(rec)
print("negative vertices of N(log_f):", poly.negative_vertices())
print()

# The derivative of the logarithm is integral; its zero set is empty.
print("log_f' integral:", dlog_integrality(rec))
