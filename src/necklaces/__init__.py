"""Exact computations in necklace Lie algebras of free algebras.

The core objects are cyclic words (necklaces) over a doubled alphabet
x1, x1*, ..., xd, xd*, with all coefficients kept as exact rationals.
A generator-level double bracket induces the Loday bracket on the free
algebra and the necklace Lie bracket on cyclic words; evaluating necklaces
on generic matrices transports the bracket to trace rings.

Importing the package registers every library module in ``sys.modules``
without running it; a module is compiled and run the first time one of its
attributes is read, so a command loads only the modules it uses.
"""

import importlib.util
import sys

# the public names, by the module that defines them
_EXPORTS = {
    "brackets": (
        "BracketRule",
        "center_check",
        "center_element",
        "check_grading",
        "double_bracket",
        "kontsevich_bracket",
        "loday_bracket",
        "necklace_bracket",
        "verify_double_jacobi",
        "verify_loday_properties",
    ),
    "counting": (
        "enumerate_necklaces",
        "lyndon_count",
        "necklace_count_by_enumeration",
        "necklace_dimension",
    ),
    "elements": (
        "FreeElement",
        "Necklace",
        "NecklaceElement",
        "TensorElement",
        "format_element",
        "parse_element",
        "project_to_necklace",
    ),
    "linear_rules": (
        "AssociativityError",
        "StructureConstants",
        "check_degree1_commutator",
        "gl_constants",
        "linear_rule",
        "ngl",
    ),
    "multipoly": ("Polynomial", "PolyMatrix", "symplectic_poisson"),
    "poisson": (
        "LeafClass",
        "PoissonPolyAlgebra",
        "casimir",
        "casimir_check",
        "change_coordinates",
        "classify_point",
        "sl2_heisenberg_algebra",
        "trace_generator_algebra",
    ),
    "sl2": (
        "Sl2Generators",
        "WeightDecomposition",
        "check_low_degree_structure",
        "cn_multiplicity",
        "decompose_bruteforce",
        "decompose_by_formula",
        "multiplicity_formula",
        "sl2_generators",
        "table1",
        "tensor_multiplicity",
        "word_weight",
    ),
    "traces": (
        "casimir_image",
        "casimir_image_as_displayed",
        "center_witness",
        "express_in_trace_generators",
        "generic_matrices",
        "table2",
        "trace_of",
        "verify_cayley_hamilton",
    ),
    "words": ("Letter", "Word", "canonical_rotation", "letters", "parse_word", "word"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)
__version__ = "0.1.0"


def _register(name: str):
    """Put a lazily loaded module `name` of this package in sys.modules.
    Not used for cli: `python -m necklaces.cli` warns when it finds its
    target in sys.modules before running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("linalg", "report", "sampling", *_EXPORTS):
    _register(_name)
del _name


def __getattr__(name):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
