"""Commutative polynomial Poisson algebras from generator tables.

A PoissonPolyAlgebra is a polynomial algebra with a bracket given on
generators by an antisymmetric table and extended to all polynomials as a
biderivation; antisymmetry and Jacobi on generator triples are checked at
construction.  Two presets: the bracket table of the five trace generators
of pairs of 2x2 matrices, and the same structure in the coordinates
(X, Y, E, F, H) of sl2 ⋉ h, with the central {X, Y} set to 2, whose
symplectic leaves classify_point tells apart at a point.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .multipoly import Polynomial, PolyMatrix, _dot
from .report import CheckReport


class PoissonPolyAlgebra:
    """A bracket on polynomials in `generators` given by `table`, read as a
    square PolyMatrix (scalars become constants) with a row per generator,
    kept as a tuple of tuples, so that an algebra can be shared."""

    __slots__ = ("generators", "table")

    def __init__(self, generators, table):
        gens = tuple(generators)
        entries = PolyMatrix(table).entries
        if len(entries) != len(gens):
            raise ValueError("table must be square over the generators")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "table", tuple(map(tuple, entries)))
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("PoissonPolyAlgebra is immutable")

    def _validate(self):
        k = len(self.generators)
        for i in range(k):
            for j in range(k):
                if self.table[i][j] != -self.table[j][i]:
                    raise ValueError(
                        f"table is not antisymmetric at "
                        f"({self.generators[i]}, {self.generators[j]})"
                    )
        for i, j, l in itertools.combinations(range(k), 3):
            gi, gj, gl = (Polynomial.variable(self.generators[t]) for t in (i, j, l))
            jac = (
                self.bracket(gi, self.bracket(gj, gl))
                + self.bracket(gj, self.bracket(gl, gi))
                + self.bracket(gl, self.bracket(gi, gj))
            )
            if not jac.is_zero:
                raise ValueError(
                    f"Jacobi identity fails on generators "
                    f"({self.generators[i]}, {self.generators[j]}, {self.generators[l]})"
                )

    def variable(self, name: str) -> Polynomial:
        if name not in self.generators:
            raise ValueError(f"unknown generator {name}")
        return Polynomial.variable(name)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = sum_{i,j} df/dg_i dg/dg_j {g_i, g_j}, over the i with
        df/dg_i nonzero."""
        fd = [(d, row) for name, row in zip(self.generators, self.table) if (d := f.diff(name))]
        gd = [g.diff(name) for name in self.generators]
        return _dot([d for d, _ in fd], [_dot(gd, row) for _, row in fd])


# --- presets ---------------------------------------------------------------

TRACE_GENERATORS = ("tr(x)", "tr(x*)", "tr(x^2)", "tr((x*)^2)", "tr(xx*)")


def trace_generator_algebra() -> PoissonPolyAlgebra:
    """The bracket table of the five trace generators at matrix size 2.

    The entries agree cell by cell with necklaces.traces.table2(), which
    recomputes them from the necklace bracket; the test suite pins the two
    routes against each other.
    """
    t1, t2, t3, t4, t5 = (Polynomial.variable(g) for g in TRACE_GENERATORS)
    table = [
        [0, 2, 0, 2 * t2, t1],
        [-2, 0, -2 * t1, 0, -t2],
        [0, 2 * t1, 0, 4 * t5, 2 * t3],
        [-2 * t2, 0, -4 * t5, 0, -2 * t4],
        [-t1, t2, -2 * t3, 2 * t4, 0],
    ]
    return PoissonPolyAlgebra(TRACE_GENERATORS, table)


SEMIDIRECT_GENERATORS = ("X", "Y", "E", "F", "H")


def semidirect_coordinates() -> dict[str, Polynomial]:
    """X = tr(x*), Y = -tr(x), E = tr((x*)^2)/2, F = -tr(x^2)/2, H = tr(xx*):
    the coordinates of sl2 ⋉ h as polynomials in TRACE_GENERATORS."""
    t1, t2, t3, t4, t5 = (Polynomial.variable(g) for g in TRACE_GENERATORS)
    return {"X": t2, "Y": -t1, "E": t4 / 2, "F": -t3 / 2, "H": t5}


@lru_cache(maxsize=None)
def sl2_heisenberg_algebra() -> PoissonPolyAlgebra:
    """The trace-generator structure in semidirect_coordinates(), with the
    central element {X, Y} already evaluated to 2; built and validated once
    per process, and shared, as the algebra is immutable."""
    x, y, e, f, h = (Polynomial.variable(g) for g in SEMIDIRECT_GENERATORS)
    table = [
        # columns X, Y, E, F, H
        [0, 2, 0, -y, -x],  # X
        [-2, 0, -x, 0, y],  # Y
        [0, x, 0, h, -2 * e],  # E
        [y, 0, -h, 0, 2 * f],  # F
        [x, -y, 2 * e, -2 * f, 0],  # H
    ]
    return PoissonPolyAlgebra(SEMIDIRECT_GENERATORS, table)


def primed_generators() -> dict[str, Polynomial]:
    """H' = H + XY/2, E' = E - X^2/4, F' = F + Y^2/4, X' = X, Y' = Y."""
    x, y, e, f, h = (Polynomial.variable(g) for g in SEMIDIRECT_GENERATORS)
    return {
        "X'": x,
        "Y'": y,
        "E'": e - x * x / 4,
        "F'": f + y * y / 4,
        "H'": h + x * y / 2,
    }


def casimir() -> Polynomial:
    p = primed_generators()
    return p["H'"] ** 2 + 4 * p["E'"] * p["F'"]


def change_coordinates() -> CheckReport:
    """All pairwise brackets of the primed generators: the structure
    decouples into an sl2 block and a Heisenberg block."""
    alg = sl2_heisenberg_algebra()
    p = primed_generators()
    br = alg.bracket
    report = CheckReport("primed coordinate change decouples the structure")
    report.add("{H',E'} = 2E'", br(p["H'"], p["E'"]) == 2 * p["E'"])
    report.add("{H',F'} = -2F'", br(p["H'"], p["F'"]) == -2 * p["F'"])
    report.add("{E',F'} = H'", br(p["E'"], p["F'"]) == p["H'"])
    for a in ("H'", "E'", "F'"):
        for b in ("X'", "Y'"):
            report.add(f"{{{a},{b}}} = 0", br(p[a], p[b]).is_zero)
    report.add("{X',Y'} = 2", br(p["X'"], p["Y'"]) == 2)
    return report


def casimir_check() -> CheckReport:
    """{H'^2 + 4E'F', g} = 0 for every generator g."""
    alg = sl2_heisenberg_algebra()
    c = casimir()
    report = CheckReport("Casimir centrality")
    for g in SEMIDIRECT_GENERATORS:
        report.add(f"{{c, {g}}} = 0", alg.bracket(c, alg.variable(g)).is_zero)
    return report


TAU1 = "[(2,1)]"
TAU2 = "[(1,1);(1,1)]"
TAU3 = "[(1,2)]"


class LeafClass:
    """Symplectic-leaf and representation-type classification of a point.

    `leaf` is "S_lambda", "S_0'" or "S_0''"; `casimir` is the exact value
    of H'^2 + 4E'F' at the point; `primed` is (E', F', H').
    """

    __slots__ = ("leaf", "luna_type", "casimir", "primed")

    def __init__(self, leaf: str, luna_type: str, casimir, primed: tuple):
        self.leaf, self.luna_type, self.casimir, self.primed = leaf, luna_type, casimir, primed

    def __str__(self):
        if self.leaf == "S_lambda":
            return f"S_lambda with lambda = {self.casimir}, Luna type {self.luna_type}"
        return f"{self.leaf}, Luna type {self.luna_type}"


def classify_point(coords) -> LeafClass:
    """Classify (X, Y, E, F, H) with exact rational coordinates, by
    evaluating the primed generators and the Casimir at the point; a float
    or complex coordinate raises TypeError."""
    if len(coords) != 5:
        raise ValueError("expected coordinates (X, Y, E, F, H)")
    point = dict(zip(SEMIDIRECT_GENERATORS, coords))
    primed = primed_generators()
    value = lambda p: p.substitute(point).constant_term()
    ep, fp, hp = (value(primed[g]) for g in ("E'", "F'", "H'"))
    c = value(casimir())
    if not (ep or fp or hp):
        return LeafClass("S_0''", TAU3, c, (ep, fp, hp))
    if not c:
        return LeafClass("S_0'", TAU2, c, (ep, fp, hp))
    return LeafClass("S_lambda", TAU1, c, (ep, fp, hp))
