"""Transporting the bracket to traces of 2x2 matrices.

Evaluating necklaces on generic matrices lands in the ring generated by
tr(x), tr(x*), tr(x^2), tr((x*)^2), tr(xx*).  The necklace bracket then
induces a Poisson bracket there; after the shift to traceless matrices
(primed coordinates) the structure splits into an sl2 block and a
Heisenberg block, with Casimir H'^2 + 4E'F'.
"""

from fractions import Fraction

from necklaces import (
    casimir_check,
    casimir_image,
    center_element,
    change_coordinates,
    classify_point,
    express_in_trace_generators,
    table2,
    verify_cayley_hamilton,
)

t = table2()
width = 14
print("bracket table of the five generators:")
print(" " * 14 + "".join(f"{g:>{width}}" for g in t.generators))
for g, row in zip(t.generators, t.table):
    print(f"{g:>13} " + "".join(f"{s!r:>{width}}" for s in row))
print("antisymmetric:", True)  # table2() refuses any other table
print()

print("tr of the degree-4 central element, rewritten in the generators:")
print("  tr([x,x*]^2) =", express_in_trace_generators(center_element(1, 2)))
print()

print(verify_cayley_hamilton())
print()
print(casimir_image())
print()
print(change_coordinates())
print()
print(casimir_check())
print()

print("pointwise classification of the 5-dim quotient (X, Y, E, F, H):")
for coords in [(0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 1, 0, 0), (2, -1, 1, Fraction(1, 4), 1)]:
    print(f"  {coords} -> {classify_point(coords)}")
