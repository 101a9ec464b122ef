"""Cochain complexes from twisted cell data.

A cell complex here is combinatorial input: ordered cell labels per degree
and, for each ((q+1)-cell, q-cell) pair, a group-ring word describing how
the attaching data winds through the symmetry group.  A representation
turns each word into its stack of blocks (``word_blocks``), these assemble
into the stacks of the differentials (see ``vn.HilbertModule``), and
everything downstream (torsion, duality, gluing) is the machinery of the
complexes/exact modules applied to the result.

Over ``cyclic_group(m)`` the regular representation works by characters:
a word is its Laurent polynomial at the m-th roots of unity, from the one
phase kernel ``kernel.symbol_at_roots``, one block per character, and
torsion, Hodge data, duality and gluing are computed block by block, with
the rank decisions of the dense matrix (the cutoff is sized by m n, so
over Z/2^16 the circle's characters j = +-1 fall under the default cutoff
and ``hodge`` warns).  A product with a cell complex over the complex
field keeps the blocks, the field factor's index outermost; a product of
two group factors is refused.  Every other representation, including a
regular one over a ``finite_group`` table, has one dense block.

Words are lists of (element, coefficient) pairs.  Every representation
reads an element as (label, power) (``kernel.word_element``): a label
("t", or "t^k" over ``cyclic_group``) is its first power, an integer n is
("t", n), and a pair is itself; "e" is the identity.  The adjoint of a
word negates every power and conjugates every coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .complexes import (
    CochainComplex,
    extension_maps,
    tensor_product,
    torsion,
    torsion_via_laplacians,
)
from .errors import DataValidationError
from .kernel import laurent_terms, symbol_at_roots, word_element
from .vn import (
    HilbertModule,
    Morphism,
    TraceContext,
    assemble_blocks,
    complex_field,
    group_ring_matrix,
    vanishes,
)

if TYPE_CHECKING:
    from .exact import ComplexSES

Word = Sequence[tuple[object, complex]]


# ---------------------------------------------------------------------------
# representations


class RegularRepresentation:
    """Finite group acting on itself, optionally tensored with a trivial fiber.

    One cell contributes an l^2(Gamma) (x) C^fiber block; incidence words
    act by right-regular permutation blocks and therefore commute with the
    left algebra action.  Over ``cyclic_group(m)``, which has no table, the
    cells have one block per character: a word is its Laurent polynomial
    in t at exp(2 pi i j / m) at the character j, one (fiber x fiber) block
    per character instead of a dense m x m block.  This is where a module
    gets its number of blocks.
    """

    def __init__(self, context: TraceContext, fiber_dim: int = 1):
        if not context.is_group:
            raise DataValidationError(
                "the regular representation needs a finite-group context")
        if fiber_dim < 1:
            raise DataValidationError("fiber dimension must be >= 1")
        self.context = context
        self.fiber_dim = int(fiber_dim)
        self.block_dim = context.size * self.fiber_dim
        self.blocks = 1 if context.table is not None else context.size

    def module(self, ncells: int) -> HilbertModule:
        return HilbertModule(self.context, ncells * self.block_dim,
                             fiber_dim=self.fiber_dim, blocks=self.blocks)

    def element(self, spec) -> int:
        """The group index of a word element (an unknown label raises)."""
        label, power = word_element(spec)
        ctx = self.context
        return ctx.power(ctx.element_index(label), power)

    def word_blocks(self, word: Word) -> np.ndarray:
        """The stack of a word: over a table, its one dense right-regular
        block; over Z/m, its (fiber x fiber) blocks at the m characters, the
        Laurent polynomial at the m-th roots of unity."""
        if self.context.table is not None:
            resolved = [(self.element(e), complex(c)) for e, c in word]
            return group_ring_matrix(resolved, self.context, self.fiber_dim).array
        m = self.blocks
        poly = laurent_terms((self.element(e), c) for e, c in word)
        return symbol_at_roots([[poly]], np.arange(m), m) * np.eye(self.fiber_dim)


class UnitaryRepresentation:
    """Explicit unitary matrices over the complex field, one per generator.

    Useful for holonomy twists: circle(holonomy lambda) uses the 1x1
    representation {"t": [[lambda]]}.  Each supplied matrix U must be unitary
    (U* U - I ``vanishes``); inverses are adjoints, so negative powers are fine.
    """

    def __init__(self, generators: Mapping[str, object]):
        self.context = complex_field()
        self.generators: dict[str, np.ndarray] = {}
        dim = None
        for label, raw in generators.items():
            mat = np.asarray(raw, dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DataValidationError(f"generator {label!r} is not square")
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise DataValidationError("generators act on different fibers")
            if not vanishes(mat.conj().T @ mat - np.eye(dim), 1.0):
                raise DataValidationError(f"generator {label!r} is not unitary")
            self.generators[label] = mat
        if dim is None:
            raise DataValidationError("a unitary representation needs generators")
        self.fiber_dim = int(dim)
        self.block_dim = self.fiber_dim

    def module(self, ncells: int) -> HilbertModule:
        return HilbertModule(self.context, ncells * self.block_dim)

    def word_blocks(self, word: Word) -> np.ndarray:
        """The one (fiber x fiber) block of a word: sum of coeff x U^power."""
        total = np.zeros((1, self.fiber_dim, self.fiber_dim), np.complex128)
        for elem, coeff in word:
            total += complex(coeff) * self._elem_matrix(elem)
        return total

    def element(self, spec) -> tuple[str, int]:
        """A word element as (label, power); the label must be "e" or a generator."""
        label, power = word_element(spec)
        if label != "e" and label not in self.generators:
            raise DataValidationError(f"unknown generator {label!r}")
        return label, power

    def _elem_matrix(self, spec) -> np.ndarray:
        label, power = self.element(spec)
        if label == "e":
            return np.eye(self.fiber_dim, dtype=np.complex128)
        base = self.generators[label]
        if power < 0:
            base, power = base.conj().T, -power
        return np.linalg.matrix_power(base, power)



class InfiniteCyclic:
    """Marker representation for cells twisted over the integers.

    There is no finite matrix for the generator; complexes over Z live in
    the Laurent-operator world and are handled by the tower module
    (cw_to_laurent).  build_complex refuses these with a pointer there.
    """

    fiber_dim = 1
    block_dim = 1


def adjoint_word(word: Word) -> list[tuple[object, complex]]:
    """Formal adjoint: negate every power, conjugate every coefficient."""
    return [((label, -power), np.conj(complex(c)))
            for (label, power), c in ((word_element(e), c) for e, c in word)]


# ---------------------------------------------------------------------------
# cell complexes


@dataclass(frozen=True)
class TwistedCellComplex:
    """Combinatorial cells plus group-ring incidences plus a representation.

    cells maps degree -> ordered cell labels (degrees without cells may be
    omitted); incidences maps (to_cell, from_cell) with deg(to) =
    deg(from) + 1 to a word; top_degree fixes the degree window 0..d, which
    duality needs even when the top cells are absent.
    """

    representation: object
    cells: Mapping[int, Sequence[str]]
    incidences: Mapping[tuple[str, str], Word]
    top_degree: int

    def __post_init__(self):
        if self.top_degree < 0:
            raise DataValidationError("top degree must be >= 0")
        seen: dict[str, int] = {}
        for q, labels in self.cells.items():
            if not 0 <= q <= self.top_degree:
                raise DataValidationError(
                    f"cells in degree {q} outside window 0..{self.top_degree}")
            for label in labels:
                if label in seen:
                    raise DataValidationError(f"duplicate cell label {label!r}")
                seen[label] = q
        for (to_cell, from_cell), _ in self.incidences.items():
            if to_cell not in seen or from_cell not in seen:
                missing = to_cell if to_cell not in seen else from_cell
                raise DataValidationError(f"incidence names unknown cell {missing!r}")
            if seen[to_cell] != seen[from_cell] + 1:
                raise DataValidationError(
                    f"incidence ({to_cell!r}, {from_cell!r}) does not drop "
                    "exactly one degree")

    def degree_cells(self, q: int) -> list[str]:
        return list(self.cells.get(q, ()))

    def cell_degree(self, label: str) -> int:
        for q, labels in self.cells.items():
            if label in labels:
                return q
        raise DataValidationError(f"unknown cell {label!r}")


def build_complex(cw: TwistedCellComplex) -> CochainComplex:
    """Assemble the cochain complex of a cell complex under its representation.

    Each differential is the stack of the representation's word blocks:
    (m, rows x fiber, cols x fiber) over the regular representation of
    ``cyclic_group(m)``, one dense block for every other representation.

    Raises DataValidationError naming the offending ((q+2)-cell, q-cell)
    pair if the incidence words do not compose to zero.
    """
    rep = cw.representation
    if isinstance(rep, InfiniteCyclic):
        raise DataValidationError(
            "infinite-cyclic twists have no finite matrices; convert with "
            "the tower module (cw_to_laurent) instead")
    cell = rep.module(1)
    layers = [cw.degree_cells(q) for q in range(cw.top_degree + 1)]
    modules = [rep.module(len(layer)) for layer in layers]
    # one summand per cell; an empty layer is its (zero) module
    parts = [[cell] * len(layer) or [module] for layer, module in zip(layers, modules)]
    diffs = []
    for q in range(cw.top_degree):
        cols, rows = layers[q], layers[q + 1]
        blocks = {(rows.index(y), cols.index(x)): rep.word_blocks(word)
                  for (y, x), word in cw.incidences.items() if x in cols and y in rows}
        diffs.append(Morphism(modules[q], modules[q + 1],
                              assemble_blocks(blocks, parts[q + 1], parts[q])))
    c = CochainComplex(modules, diffs, 0, validate=False)
    q = c.first_nonzero_square()
    if q is not None:
        raise _worst_cell_pair(c, q, layers, cell.width)
    return c


def _worst_cell_pair(c: CochainComplex, q: int, layers, block: int) -> DataValidationError:
    """The error naming the ((q+2)-cell, q-cell) pair with the largest block of d d."""
    product = c.differentials[q + 1].array @ c.differentials[q].array
    worst, worst_pair = 0.0, None
    for iz, z in enumerate(layers[q + 2]):
        for ix, x in enumerate(layers[q]):
            blk = product[..., iz * block:(iz + 1) * block,
                          ix * block:(ix + 1) * block]
            norm = float(np.linalg.norm(blk))
            if norm > worst:
                worst, worst_pair = norm, (z, x)
    return DataValidationError(
        "incidence words do not compose to zero "
        f"(worst block norm {worst:.3e})",
        location=f"cells {worst_pair}")


def t_comb(cw: TwistedCellComplex, rank_tol: float | None = None) -> float:
    """Combinatorial torsion: alternating weighted log det' of the Laplacians."""
    return torsion_via_laplacians(build_complex(cw), rank_tol)


# ---------------------------------------------------------------------------
# duality


def dual_complex(cw: TwistedCellComplex) -> TwistedCellComplex:
    """Poincare dual: q-cells become (d-q)-cells, words become signed adjoints.

    The dual incidence for the pair dual(x) <- dual(y) is
    (-1)^(q(d-q)) times the adjoint of the original word for y <- x, which
    makes the built differentials satisfy delta^D_(d-q-1) = sign * delta_q^*
    with the identity reindexing of cells.
    """
    rep = cw.representation
    d = cw.top_degree
    cells = {d - q: tuple(labels) for q, labels in cw.cells.items()}
    incidences: dict[tuple[str, str], list] = {}
    for (to_cell, from_cell), word in cw.incidences.items():
        q = cw.cell_degree(from_cell)
        sign = (-1) ** (q * (d - q))
        flipped = [(e, sign * c) for e, c in adjoint_word(word)]
        incidences[(from_cell, to_cell)] = flipped
    return TwistedCellComplex(rep, cells, incidences, d)


def duality_residual(cw: TwistedCellComplex, rank_tol: float | None = None) -> float:
    """|T_comb(M, lower) - (-1)^(d+1) T_comb of the dual| (Poincare duality)."""
    sign = (-1) ** (cw.top_degree + 1)
    return abs(t_comb(cw, rank_tol) - sign * t_comb(dual_complex(cw), rank_tol))


def flip_cell_signs(cw: TwistedCellComplex, labels: Iterable[str]) -> TwistedCellComplex:
    """Reverse the orientation of the named cells (negate their words)."""
    chosen = set(labels)
    unknown = chosen - {x for ls in cw.cells.values() for x in ls}
    if unknown:
        raise DataValidationError(f"unknown cells {sorted(unknown)!r}")
    incidences = {}
    for (to_cell, from_cell), word in cw.incidences.items():
        sign = (-1) ** ((to_cell in chosen) + (from_cell in chosen))
        incidences[(to_cell, from_cell)] = [(e, sign * c) for e, c in word]
    return TwistedCellComplex(cw.representation, cw.cells, incidences,
                              cw.top_degree)


# ---------------------------------------------------------------------------
# built-in examples


def point(rep) -> TwistedCellComplex:
    """One 0-cell, nothing else."""
    return TwistedCellComplex(rep, {0: ("pt",)}, {}, 0)


def interval_tau1(rep) -> TwistedCellComplex:
    """Interval rel one endpoint, gradient flowing through: no cells at all."""
    return TwistedCellComplex(rep, {}, {}, 1)


def interval_tau2(rep) -> TwistedCellComplex:
    """Interval rel both endpoints: a single interior minimum, no 1-cells."""
    return TwistedCellComplex(rep, {0: ("c",)}, {}, 1)


def circle(rep) -> TwistedCellComplex:
    """One minimum, one maximum, attaching word rho(t) - 1."""
    word = (("t", 1.0), ("e", -1.0))
    return TwistedCellComplex(rep, {0: ("min",), 1: ("max",)},
                              {("max", "min"): word}, 1)


def circle_holonomy(lam: complex) -> TwistedCellComplex:
    """The circle twisted by a 1-dimensional holonomy lambda (|lambda| = 1)."""
    return circle(UnitaryRepresentation({"t": [[lam]]}))


def disjoint_union(a: TwistedCellComplex, b: TwistedCellComplex) -> TwistedCellComplex:
    if a.representation is not b.representation and not _compatible_reps(
            a.representation, b.representation):
        raise DataValidationError("factors use different representations")
    overlap = ({x for ls in a.cells.values() for x in ls}
               & {x for ls in b.cells.values() for x in ls})
    if overlap:
        raise DataValidationError(f"cell labels collide: {sorted(overlap)!r}")
    d = max(a.top_degree, b.top_degree)
    cells = {q: tuple(a.degree_cells(q)) + tuple(b.degree_cells(q))
             for q in range(d + 1)
             if a.degree_cells(q) or b.degree_cells(q)}
    incidences = dict(a.incidences)
    incidences.update(b.incidences)
    return TwistedCellComplex(a.representation, cells, incidences, d)


def relabel(cw: TwistedCellComplex, prefix: str) -> TwistedCellComplex:
    """Prefix every cell label (to make unions and gluings collision-free)."""
    cells = {q: tuple(prefix + x for x in labels)
             for q, labels in cw.cells.items()}
    incidences = {(prefix + y, prefix + x): word
                  for (y, x), word in cw.incidences.items()}
    return TwistedCellComplex(cw.representation, cells, incidences,
                              cw.top_degree)


def _compatible_reps(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, RegularRepresentation):
        return a.context.matches(b.context) and a.fiber_dim == b.fiber_dim
    if isinstance(a, UnitaryRepresentation):
        return (set(a.generators) == set(b.generators)
                and all(np.array_equal(a.generators[k], b.generators[k])
                        for k in a.generators))
    return isinstance(a, InfiniteCyclic)


# ---------------------------------------------------------------------------
# gluing


class GluingSpec(NamedTuple):
    """Cut system: upper subcomplex, lower quotient, and interface words.

    coupling maps ((q+1)-cell of upper, q-cell of lower) to the word carried
    by gradient lines crossing the cut; the assembled differential is block
    triangular, so the upper complex includes and the lower one quotients,
    giving the short exact sequence of the gluing formula.
    """

    lower: TwistedCellComplex
    upper: TwistedCellComplex
    coupling: Mapping[tuple[str, str], Word]


def check_windows(lower: TwistedCellComplex, upper: TwistedCellComplex) -> None:
    """Gluing factors must share one degree window."""
    if lower.top_degree != upper.top_degree:
        raise DataValidationError("gluing factors must share a degree window")


def check_coupling(lower: TwistedCellComplex, upper: TwistedCellComplex,
                   to_cell: str, from_cell: str) -> None:
    """A coupling runs from a lower q-cell to an upper (q+1)-cell."""
    if not any(to_cell in labels for labels in upper.cells.values()):
        raise DataValidationError(f"coupling target {to_cell!r} is not an upper cell")
    if not any(from_cell in labels for labels in lower.cells.values()):
        raise DataValidationError(f"coupling source {from_cell!r} is not a lower cell")
    if upper.cell_degree(to_cell) != lower.cell_degree(from_cell) + 1:
        raise DataValidationError(
            f"coupling ({to_cell!r}, {from_cell!r}) does not raise the degree by one")


def glue(spec: GluingSpec, rank_tol: float | None = None) -> tuple[TwistedCellComplex, ComplexSES]:
    """Assemble the glued complex and its inclusion/restriction sequence (cutoff ``rank_tol``).

    The built glued complex has modules upper_q + lower_q, so the sequence
    takes its maps from ``complexes.extension_maps``."""
    from .exact import ComplexSES
    lower, upper = spec.lower, spec.upper
    check_windows(lower, upper)
    union = disjoint_union(upper, lower)
    for to_cell, from_cell in spec.coupling:
        check_coupling(lower, upper, to_cell, from_cell)
    glued = TwistedCellComplex(union.representation, union.cells,
                               {**union.incidences, **spec.coupling}, union.top_degree)
    built = build_complex(glued)
    include, restrict = extension_maps(build_complex(upper), built, build_complex(lower))
    ses = ComplexSES(include, restrict, rank_tol=rank_tol)
    return glued, ses


def glue_check(spec: GluingSpec, rank_tol: float | None = None) -> dict:
    """Evaluate the gluing formula: T_comb of the whole against the pieces.

    Returns t_comb (glued), t_comb_upper, t_comb_lower, t_h (torsion of the
    long sequence of the gluing SES) and the residual
    |t_comb - t_comb_upper - t_comb_lower - t_h|.
    """
    from .exact import long_sequence
    _, ses = glue(spec, rank_tol)
    total, upper, lower = (torsion_via_laplacians(c, rank_tol)
                           for c in (ses.middle, ses.first, ses.last))
    t_h = torsion(long_sequence(ses), rank_tol)
    return {
        "t_comb": total,
        "t_comb_upper": upper,
        "t_comb_lower": lower,
        "t_h": t_h,
        "residual": abs(total - upper - lower - t_h),
    }


def circle_from_arcs(rep, coupling_word: Word | None = None) -> GluingSpec:
    """The circle cut into two arcs: lower arc keeps the minimum, upper the
    maximum, and the interface carries 1 - t (or a custom coupling word)."""
    word = (("e", 1.0), ("t", -1.0)) if coupling_word is None else coupling_word
    lower = TwistedCellComplex(rep, {0: ("low_min",)}, {}, 1)
    upper = TwistedCellComplex(rep, {1: ("up_max",)}, {}, 1)
    return GluingSpec(lower=lower, upper=upper,
                      coupling={("up_max", "low_min"): word})


# ---------------------------------------------------------------------------
# products


def product_complex(a: TwistedCellComplex, b: TwistedCellComplex) -> CochainComplex:
    """Built complex of the product cell structure (tensor of the factors)."""
    return tensor_product(build_complex(a), build_complex(b))
