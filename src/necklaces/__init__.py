"""Exact computations in necklace Lie algebras of free algebras.

The core objects are cyclic words (necklaces) over a doubled alphabet
x1, x1*, ..., xd, xd*, with all coefficients kept as exact rationals.
A generator-level double bracket induces the Loday bracket on the free
algebra and the necklace Lie bracket on cyclic words; evaluating necklaces
on generic matrices transports the bracket to trace rings.
"""

from .brackets import (
    BracketRule,
    center_check,
    center_element,
    check_grading,
    double_bracket,
    kontsevich_bracket,
    loday_bracket,
    necklace_bracket,
    verify_double_jacobi,
    verify_loday_properties,
)
from .counting import (
    enumerate_necklaces,
    lyndon_count,
    necklace_count_by_enumeration,
    necklace_dimension,
)
from .elements import (
    FreeElement,
    Necklace,
    NecklaceElement,
    TensorElement,
    TripleTensor,
    format_element,
    parse_element,
    project_to_necklace,
)
from .linear_rules import (
    AssociativityError,
    StructureConstants,
    check_degree1_commutator,
    gl_constants,
    linear_rule,
    ngl,
)
from .multipoly import Polynomial, PolyMatrix, symplectic_poisson
from .poisson import (
    PoissonPolyAlgebra,
    casimir,
    casimir_check,
    change_coordinates,
    sl2_heisenberg_algebra,
    trace_generator_algebra,
)
from .sl2 import (
    Sl2Generators,
    WeightDecomposition,
    check_low_degree_structure,
    cn_multiplicity,
    decompose_bruteforce,
    decompose_by_formula,
    multiplicity_formula,
    sl2_generators,
    table1,
    tensor_multiplicity,
    word_weight,
)
from .traces import (
    LeafClass,
    casimir_image,
    casimir_image_as_displayed,
    center_witness,
    classify_point,
    express_in_trace_generators,
    generic_matrices,
    table2,
    trace_of,
    verify_cayley_hamilton,
)
from .words import Letter, Word, canonical_rotation, letters, parse_word, word

__version__ = "0.1.0"
