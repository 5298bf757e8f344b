"""Bad input to a library entry point raises, naming what is wrong.

One row per refusal: the call, the exception type and the whole message.
"""

import re

import pytest

from necklaces import (
    BracketRule,
    FreeElement,
    PolyMatrix,
    StructureConstants,
    TensorElement,
    center_check,
    center_element,
    center_witness,
    classify_point,
    cn_multiplicity,
    double_bracket,
    enumerate_necklaces,
    generic_matrices,
    gl_constants,
    lyndon_count,
    multiplicity_formula,
    necklace_count_by_enumeration,
    necklace_dimension,
    ngl,
    sl2_heisenberg_algebra,
    table1,
    tensor_multiplicity,
    word,
)
from necklaces.counting import mobius
from necklaces.traces import word_matrix
from necklaces.words import Letter

x1, x2 = Letter(1), Letter(2)

REFUSALS = {
    "rule_letter": (
        lambda: BracketRule((x1,), {(x1, x2): TensorElement.unit(1)}),
        ValueError, "rule mentions letter outside generator set: x1, x2",
    ),
    "constants_dim": (lambda: StructureConstants(0, {}), ValueError, "dim must be >= 1"),
    "constants_index": (
        lambda: StructureConstants(1, {(1, 2, 1): 1}),
        ValueError, "index out of range in entry (1, 2, 1)",
    ),
    "constants_json_entries": (
        lambda: StructureConstants.from_json('{"dim": 1, "a": 5}'),
        ValueError, '"a" must be a list of [i, j, k, value] entries',
    ),
    "ngl": (lambda: ngl(0), ValueError, "n must be >= 1"),
    "free_element_set": (
        lambda: setattr(FreeElement.of(word("x1")), "terms", {}),
        AttributeError, "FreeElement is immutable",
    ),
    "poly_matrix_set": (
        lambda: setattr(PolyMatrix.identity(2), "size", 3),
        AttributeError, "PolyMatrix is immutable",
    ),
    "poisson_algebra_set": (
        lambda: setattr(sl2_heisenberg_algebra(), "table", None),
        AttributeError, "PoissonPolyAlgebra is immutable",
    ),
    "constants_set": (
        lambda: setattr(gl_constants(1), "dim", 2),
        AttributeError, "StructureConstants is immutable",
    ),
    "poly_matrix_sizes": (
        lambda: PolyMatrix.identity(2) + PolyMatrix.identity(3),
        ValueError, "matrix size mismatch",
    ),
    "poisson_generator": (
        lambda: sl2_heisenberg_algebra().variable("Z"), ValueError, "unknown generator Z",
    ),
    "classify_coordinates": (
        lambda: classify_point((0, 0, 0)), ValueError, "expected coordinates (X, Y, E, F, H)",
    ),
    "double_bracket_float": (
        lambda: double_bracket(BracketRule.canonical(1), 1.5, "x"),
        TypeError, "expected a free-algebra element, got float",
    ),
    "mobius": (lambda: mobius(0), ValueError, "mobius is defined for n >= 1"),
    "necklace_dimension": (lambda: necklace_dimension(0, 1), ValueError, "need d >= 1 and k >= 0"),
    "lyndon_count": (lambda: lyndon_count(0, 0), ValueError, "length must be >= 1"),
    "enumerate_necklaces": (
        lambda: list(enumerate_necklaces(0, 1)), ValueError, "need d >= 1 and n >= 0",
    ),
    "count_by_enumeration_d": (
        lambda: necklace_count_by_enumeration(0, 3), ValueError, "need d >= 1 and n >= 0",
    ),
    "count_by_enumeration_n": (
        lambda: necklace_count_by_enumeration(1, -1), ValueError, "need d >= 1 and n >= 0",
    ),
    "enumerate_necklaces_float_d": (
        lambda: enumerate_necklaces(1.5, 2),
        TypeError, "'float' object cannot be interpreted as an integer",
    ),
    "enumerate_necklaces_float_n": (
        lambda: enumerate_necklaces(1, 2.0),
        TypeError, "can't multiply sequence by non-int of type 'float'",
    ),
    "count_by_enumeration_float_d": (
        lambda: necklace_count_by_enumeration(1.5, 2),
        TypeError, "'float' object cannot be interpreted as an integer",
    ),
    "count_by_enumeration_float_n": (
        lambda: necklace_count_by_enumeration(1, 2.0),
        TypeError, "can't multiply sequence by non-int of type 'float'",
    ),
    "tensor_multiplicity": (lambda: tensor_multiplicity(3, 2), ValueError, "need 0 <= m <= n/2"),
    "multiplicity_formula": (lambda: multiplicity_formula(0, 0), ValueError, "n must be >= 1"),
    "table1": (lambda: table1(0), ValueError, "max_degree must be >= 1"),
    "generic_matrices": (lambda: generic_matrices(0, 2), ValueError, "need d >= 1 and n >= 1"),
    "center_witness": (lambda: center_witness(-1, 1), ValueError, "n must be >= 0"),
    "word_matrix_letter": (
        lambda: word_matrix(word("x2"), generic_matrices(1, 2)),
        ValueError, "letter x2 has no matrix",
    ),
    "word_float": (lambda: word(1.5), TypeError, "cannot make a word from 1.5"),
    "word_bool": (lambda: word(True), TypeError, "cannot make a word from True"),
    "cn_multiplicity": (lambda: cn_multiplicity(3, 2), ValueError, "need 0 <= m <= n/2"),
    "center_element": (lambda: center_element(1, -1), ValueError, "n must be >= 0"),
    "center_check": (lambda: center_check(1, 2, 0), ValueError, "degree_bound must be >= 1"),
    "letter_int_star": (
        lambda: Letter(1, 1),
        TypeError, "a letter takes an int index and a bool star, got int and int",
    ),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS)
def test_bad_input_is_refused_with_its_message(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()
