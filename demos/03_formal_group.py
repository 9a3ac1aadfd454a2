"""From a logarithm to an integral formal group law and its Frobenius.

Run:  python demos/03_formal_group.py
"""

from lubinlab import (
    PadicNum,
    PSeries,
    bracket,
    exp_from_log,
    frobenius_multiplier,
    group_from_log,
    logarithm_recurrence,
    lubin_tate_lift,
)

p, M, N = 3, 32, 40
f = PSeries.from_univariate_coeffs(p, [3, 0, 1], M, N)  # 3x + x^3
logf = logarithm_recurrence(f)
exp_series = exp_from_log(logf)

# ----------------------------------------------------------------------
# F(x,y) = E(L(x) + L(y)) assembled from univariate Taylor orders.
# ----------------------------------------------------------------------
G = group_from_log(logf)
print("low-degree coefficients of F:")
for (a, b), c in sorted(G.F.coeffs.items()):
    if a + b <= 4 and not c.is_zero_like():
        print(f"  x^{a} y^{b}: {c.as_fraction()} + O({p}^{c.N})")
print("minimum coefficient valuation:", G.min_coeff_valuation())
print("group axioms:", G.certify(12), "->", G.certificates)
print()

# ----------------------------------------------------------------------
# Brackets: the endomorphism with a prescribed derivative.  f itself is
# the bracket of f'(0), and integer brackets are iterated additions.
# ----------------------------------------------------------------------
bf = bracket(logf, f.linear_coeff(), exp_series)
print("[f'(0)] recovers f:", bf.equal_to_precision(f))
b2 = bracket(logf, PadicNum.from_int(2, p, N), exp_series)
print("[2] has derivative 2:", b2.c((1,)).congruent(2))
print()

# ----------------------------------------------------------------------
# The Frobenius multiplier: the unique scalar of valuation 1 whose bracket
# reduces to x^p mod p.  Its digits are pinned one truncation window at a
# time, and the bracket admits its own degree-by-degree integral lift,
# which must reproduce F.
# ----------------------------------------------------------------------
pi, bk = frobenius_multiplier(logf, f, exp_series)
print("pi =", repr(pi))
lift = lubin_tate_lift(bk, 12)
print("independent lift agrees with F:",
      lift.F.equal_to_precision(G.F.truncate(12)))
