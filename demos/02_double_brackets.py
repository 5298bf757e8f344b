"""From a generator rule to three brackets.

The rule {{x_i, x_i*}} = 1 (x) 1 extends to all words as a twisted
antisymmetric outer derivation.  Collapsing the tensor gives the Loday
bracket on the free algebra; projecting to cyclic words gives a Lie
bracket on necklaces, which a purely combinatorial cut-and-join rule
reproduces independently.
"""

from necklaces import (
    BracketRule,
    NecklaceElement,
    double_bracket,
    kontsevich_bracket,
    loday_bracket,
    necklace_bracket,
    parse_element,
    verify_double_jacobi,
    word,
)

rule = BracketRule.canonical(1)
x = parse_element("x")
xs = parse_element("x*")

print("{{x, x*}}      =", double_bracket(rule, x, xs))
print("{{x, x}}       =", double_bracket(rule, x, x))
comm = x * xs - xs * x
print("{{[x,x*], x}}  =", double_bracket(rule, comm, x))
print()

print("Loday bracket {xx*, x}_L =", loday_bracket(rule, "xx*", "x"))
print("and on cyclic words {xx*, x} =", necklace_bracket(rule, "xx*", "x"))
print()

# the combinatorial rule: remove x from one necklace and x* from the
# other, join the opened strands, subtract the swapped version
print("cut-and-join {xx, x*x*} =", kontsevich_bracket("xx", "x*x*"))
print("engine       {xx, x*x*} =", necklace_bracket(rule, "xx", "x*x*"))
print()

# the double Jacobi identity holds on the nose, in A (x) A (x) A
lhs = verify_double_jacobi(rule, word("xx*"), word("x*x"), word("xx"))
print("double Jacobi on (xx*, x*x, xx):", lhs, "(must be 0)")

# degree bookkeeping: the bracket removes one x and one x*
h = NecklaceElement.of("xx*")
print("\n{xx*, -} lowers degree by 2:")
for target in ("x", "x*", "xx*", "xxx*"):
    print(f"  {{xx*, {target}}} =", necklace_bracket(rule, h, target))
