"""Central elements of the necklace bracket.

The cyclic classes c_n of [x,x*]^n bracket to zero with everything.  They
are pairwise distinct and nonzero for n >= 2: evaluating on an explicit
3x3 matrix pair whose commutator is diag(lam, -2lam, lam) gives the value
2 lam^n + (-2)^n lam^n, which separates them.
"""

from fractions import Fraction

from necklaces import center_check, center_element, center_witness

for n in (1, 2, 3):
    print(f"c_{n} =", center_element(1, n))
print()

for n in (2, 3):
    report = center_check(1, n, 6)
    print(
        f"{{c_{n}, w}} over all {len(report.entries)} necklaces of degree <= 6: "
        f"{len(report.failures())} violations"
    )
print()

print("witness values 2 lam^n + (-2)^n lam^n on the 3x3 pair:")
print("  n\\lam      1        2       -3      1/2")
for n in range(1, 5):
    row = [center_witness(n, lam) for lam in (1, 2, -3, Fraction(1, 2))]
    print(f"  {n}    " + "".join(f"{str(v):>9}" for v in row))
print()
print("n = 1 vanishes (xx* and x*x are the same necklace); all n >= 2 differ,")
print("so the center contains an infinite independent family.")

# two symbol pairs: c = [x1,x1*] + [x2,x2*] is already central
report = center_check(2, 1, 4)
print(
    f"\nd=2: {{c_1, w}} over {len(report.entries)} necklaces of degree <= 4: "
    f"{len(report.failures())} violations"
)
