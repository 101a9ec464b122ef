"""Cochain complexes of Hilbert modules and their torsion.

A complex here is a finite run of modules over one trace context with
differentials d_i raising degree by one and d_{i+1} o d_i = 0 (validated
numerically on construction).  Complexes may start at any degree: the
``offset`` records the true degree of the first module, and every
degree-sensitive formula (torsion signs, Euler characteristics, Laplacian
weights) uses true degrees.

Torsion is computed by two deliberately independent routes:

* ``torsion``              -- alternating sum of log-volumes of the reduced
                              differentials coming out of the orthogonal
                              (Hodge) decomposition;
* ``torsion_via_laplacians`` -- (1/2) sum over q of (-1)^(q+1) q log det'
                              of the degree-q Laplacian.

They are cross-checked in the tests, never merged.

Complexes in character coordinates (cell complexes over the regular
representation of ``cyclic_group(m)``, see ``vn.HilbertModule``) are
computed by characters: every step below runs block by block on the
(m, rows, cols) stacks of their differentials, in batched eigensolves.
Rank decisions are those of the dense direct sum, since ``vn.spectrum``
sizes the floor and the cutoff by the full dimension m n; over Z/2^16 the
circle's characters j = +-1 (sigma ~ 9.6e-5) fall under the default cutoff
(~1.2e-4), and ``hodge`` warns.  Direct sums, mapping cones and tensor
products with a complex-field factor stay in the coordinates of their
inputs: ``vn.assemble_blocks`` builds dense matrices and stacks alike, and
in a tensor product the field factor's index is outermost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .vn import (
    RANK_AMBIGUITY_FACTOR,
    HilbertModule,
    Morphism,
    TraceContext,
    array_shape,
    assemble_blocks,
    direct_sum_modules,
    gram_spectrum,
    log_vol,
    norm_lower_bound,
    spectrum,
    vanishes,
)


def _phase_normalize(columns: np.ndarray) -> np.ndarray:
    """Rotate each column (of each block of a stack) so that its first entry
    above 1e-12 x max(1, largest magnitude in the column) is positive real."""
    if 0 in columns.shape[-2:]:
        return columns.copy()
    mag = np.abs(columns)
    above = mag > 1e-12 * np.maximum(1.0, mag.max(axis=-2, keepdims=True))
    # hypot is the scalar abs() of the column loop this replaced (np.abs may
    # round differently), which keeps the output bitwise the same
    if above[..., 0, :].all():  # every pivot in the first row: six calls fewer
        pivot = columns[..., :1, :]
        return columns * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))
    first = (above.argmax(axis=-2), np.arange(columns.shape[-1]))
    if columns.ndim == 3:
        first = (np.arange(columns.shape[0])[:, None],) + first
    pivot, found = columns[first], above[first]
    size = np.where(found, np.hypot(pivot.real, pivot.imag), 1.0)
    rotated = columns * (np.conj(pivot) / size)[..., None, :]
    return np.where(found[..., None, :], rotated, columns)


def _kept(stack: np.ndarray) -> np.ndarray:
    """Mask of the present columns of a stack of character blocks (the
    dropped ones are exact zeros)."""
    return np.any(stack != 0, axis=-2)


@dataclass(eq=False)
class CochainComplex:
    """Modules C_offset, ..., C_{offset+n} with differentials between them."""

    modules: list[HilbertModule]
    differentials: list[Morphism]
    offset: int = 0

    def __init__(self, modules: Sequence[HilbertModule], differentials: Sequence[Morphism],
                 offset: int = 0, validate: bool = True):
        self.modules = list(modules)
        self.differentials = list(differentials)
        self.offset = int(offset)
        if not self.modules:
            raise DataValidationError("a complex needs at least one module")
        if len(self.differentials) != len(self.modules) - 1:
            raise DataValidationError(
                f"{len(self.modules)} modules need {len(self.modules) - 1} "
                f"differentials, got {len(self.differentials)}")
        ctx = self.modules[0].context
        for i, m in enumerate(self.modules):
            if not m.context.matches(ctx):
                raise DataValidationError("all modules must share one trace context",
                                          location=f"degree {self.offset + i}")
        for i, d in enumerate(self.differentials):
            if not (d.domain.matches(self.modules[i]) and d.codomain.matches(self.modules[i + 1])):
                raise DataValidationError(
                    "differential does not connect consecutive modules",
                    location=f"degree {self.offset + i}")
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check that every d_{i+1} o d_i vanishes (see ``first_nonzero_square``)."""
        i = self.first_nonzero_square()
        if i is not None:
            raise DataValidationError(
                "d o d != 0",
                location=f"degrees {self.offset + i} -> {self.offset + i + 2}")

    def first_nonzero_square(self) -> int | None:
        """Stored index i of the first d_{i+1} o d_i that does not vanish, or None."""
        for i, (b, a) in enumerate(zip(self.differentials, self.differentials[1:])):
            scale = norm_lower_bound(a.array) * norm_lower_bound(b.array)
            if not vanishes(a.array @ b.array, scale):
                return i
        return None

    # -- structure ---------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        return self.modules[0].context

    @property
    def top_degree(self) -> int:
        return self.offset + len(self.modules) - 1

    def degrees(self) -> range:
        return range(self.offset, self.top_degree + 1)

    def module(self, q: int) -> HilbertModule:
        """Module at true degree q (zero module outside the stored window)."""
        i = q - self.offset
        if 0 <= i < len(self.modules):
            return self.modules[i]
        return HilbertModule(self.context, 0, characters=self.modules[0].characters)

    def differential(self, q: int) -> Morphism:
        """d_q : C_q -> C_{q+1} at true degree q (zero outside the window)."""
        i = q - self.offset
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return Morphism.zero(self.module(q), self.module(q + 1))

    def euler_characteristic(self) -> float:
        """Sum of (-1)^q vn_dim(C_q) over true degrees."""
        return float(sum((-1) ** q * self.module(q).vn_dim for q in self.degrees()))

    def shifted(self, by: int) -> "CochainComplex":
        """Same data placed ``by`` degrees higher."""
        return CochainComplex(self.modules, self.differentials, self.offset + by,
                              validate=False)


def pad_complex(c: CochainComplex, lo: int, hi: int) -> CochainComplex:
    """Extend with zero modules so the window covers true degrees [lo, hi]."""
    if lo > c.offset or hi < c.top_degree:
        raise DataValidationError("padding window must contain the complex")
    modules = [c.module(q) for q in range(lo, hi + 1)]
    diffs = [c.differential(q) for q in range(lo, hi)]
    return CochainComplex(modules, diffs, lo, validate=False)


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise orthogonal direct sum (blocks of a first)."""
    if not a.context.matches(b.context):
        raise DataValidationError("direct sum needs a common trace context")
    lo, hi = min(a.offset, b.offset), max(a.top_degree, b.top_degree)
    parts = [[a.module(q), b.module(q)] for q in range(lo, hi + 1)]
    modules = [direct_sum_modules(p) for p in parts]
    diffs = [Morphism(modules[i], modules[i + 1], assemble_blocks(
        {(0, 0): a.differential(q).array, (1, 1): b.differential(q).array},
        parts[i + 1], parts[i])) for i, q in enumerate(range(lo, hi))]
    return CochainComplex(modules, diffs, lo, validate=False)


# ---------------------------------------------------------------------------
# Hodge decomposition


@dataclass(eq=False)
class HodgeData:
    """Orthogonal decomposition C_i = harmonic + image(d_{i-1}) + image(d_i^*).

    Per stored index i (true degree offset + i):

    * ``plus_bases[i]``  -- orthonormal columns spanning image(d_{i-1}),
    * ``minus_bases[i]`` -- orthonormal columns spanning image(d_i^*),
    * ``harmonic_bases[i]`` -- orthonormal columns spanning the complement,
    * ``harmonic_dims[i]`` -- their number,
    * ``reduced[i]``     -- the invertible matrix of d_i from the minus
                            subspace at i to the plus subspace at i+1, in
                            those bases.

    Bases are deterministic: eigensolver order (ascending) plus fixed-phase
    normalization, so repeated runs agree bitwise.
    """

    complex: CochainComplex
    harmonic_bases: list[np.ndarray]
    harmonic_dims: list[int]
    plus_bases: list[np.ndarray]
    minus_bases: list[np.ndarray]
    reduced: list[np.ndarray]
    warnings: list[str] = field(default_factory=list)

    @property
    def offset(self) -> int:
        return self.complex.offset

    def harmonic_dim(self, q: int) -> int:
        i = q - self.offset
        if 0 <= i < len(self.harmonic_dims):
            return self.harmonic_dims[i]
        return 0

    def harmonic_basis(self, q: int) -> np.ndarray:
        """Orthonormal columns spanning the harmonic space; in character
        coordinates a stack of per-block columns, dropped ones zero."""
        i = q - self.offset
        if 0 <= i < len(self.harmonic_bases):
            return self.harmonic_bases[i]
        module = self.complex.module(q)
        return np.zeros(array_shape(module, module)[:-1] + (0,), np.complex128)

    def harmonic_module(self, q: int) -> HilbertModule:
        return self._carrier(self.harmonic_basis(q))

    def _carrier(self, basis: np.ndarray) -> HilbertModule:
        """The subspace carrier spanned by the present columns of ``basis``."""
        if basis.ndim == 2:
            return HilbertModule(self.complex.context, basis.shape[1], free=False)
        kept = _kept(basis)
        return HilbertModule(self.complex.context, int(kept.sum()), free=False,
                             characters=True, block_mask=kept)

    def reduced_morphism(self, q: int) -> Morphism:
        """Reduced differential at true degree q as a morphism of carriers."""
        i = q - self.offset
        if not 0 <= i < len(self.reduced):
            zero = HilbertModule(self.complex.context, 0, free=False,
                                 characters=self.complex.modules[0].characters)
            return Morphism.zero(zero, zero)
        return Morphism(self._carrier(self.minus_bases[i]),
                        self._carrier(self.plus_bases[i + 1]), self.reduced[i])

    def is_acyclic(self) -> bool:
        return not any(self.harmonic_dims)


def _range_basis(matrix: np.ndarray, dim: int, rank_tol: float | None,
                 warnings: list[str], label: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (V of the coimage, U of the range) of a matrix.

    Both come from one Hermitian eigendecomposition of m* m; columns are
    ordered by descending singular value and phase-normalized.  A stack of
    character blocks keeps every column, the dropped ones set to zero.
    ``dim`` sizes the rank decision (see ``gram_spectrum``).
    """
    rows, cols = matrix.shape[-2:]
    if rows == 0 or cols == 0:
        return (np.zeros(matrix.shape[:-2] + (cols, 0), np.complex128),
                np.zeros(matrix.shape[:-2] + (rows, 0), np.complex128))
    s = gram_spectrum(matrix, rank_tol, vectors=True, dim=dim)
    if s.ambiguous:
        warnings.append(
            f"{label}: singular value within a factor {RANK_AMBIGUITY_FACTOR:g} "
            f"of the rank tolerance {s.tol:.3e}")
    if matrix.ndim == 2:
        order = np.argsort(-s.sigma[s.keep])
        v_kept = _phase_normalize(s.vectors[:, s.keep][:, order])
        u = matrix @ v_kept
        u /= np.linalg.norm(u, axis=0, keepdims=True)
    else:  # the dropped columns stay, as zeros
        v_kept = _phase_normalize(s.vectors * s.keep[..., None, :])
        u = matrix @ v_kept
        u /= np.maximum(np.linalg.norm(u, axis=-2, keepdims=True), np.finfo(float).tiny)
    return v_kept, _phase_normalize(u)


def hodge(c: CochainComplex, rank_tol: float | None = None) -> HodgeData:
    """Orthogonal decomposition of every module and the reduced differentials.

    The reduced differential at degree q is invertible from the coimage of
    d_q onto its range; the degree-q harmonic space is the kernel of d_q
    intersected with the kernel of d_{q-1}^*, realized as the orthogonal
    complement of range(d_{q-1}) + range(d_q^*).  In character coordinates
    every step runs block by block, in batched eigensolves, with the rank
    decisions of the dense direct sum.
    """
    n = len(c.modules)
    warnings: list[str] = []
    minus, plus_next = [], []
    for i, d in enumerate(c.differentials):
        v, u = _range_basis(d.array, max(d.shape + (1,)), rank_tol, warnings,
                            f"d at degree {c.offset + i}")
        minus.append(v)
        plus_next.append(u)

    harmonic_bases, harmonic_dims, plus_bases, minus_bases, reduced = [], [], [], [], []
    for i in range(n):
        module = c.modules[i]
        shape = array_shape(module, module)
        dim = shape[-1]
        none = np.zeros(shape[:-1] + (0,), np.complex128)
        plus = plus_next[i - 1] if i >= 1 else none
        mnus = minus[i] if i < len(minus) else none
        span = np.concatenate([plus, mnus], axis=-1)
        mask = module.block_mask  # the coordinates each block has, if not all
        if span.ndim == 2:
            h_dim = h_least = h_total = dim - span.shape[1]
        else:
            h_dim = (dim if mask is None else mask.sum(-1)) - _kept(span).sum(-1)
            h_least, h_total = int(h_dim.min()), int(h_dim.sum())
        if h_least < 0:
            raise DataValidationError(
                "rank bookkeeping failed (image + coimage exceed the module)",
                location=f"degree {c.offset + i}")
        if h_total == 0 or dim == 0:
            harm = none
        else:
            ident = np.eye(dim, dtype=np.complex128)
            if mask is not None:
                ident = ident * mask[:, None, :]
            proj = ident - span @ span.conj().swapaxes(-1, -2)
            proj = 0.5 * (proj + proj.conj().swapaxes(-1, -2))
            w, vecs = np.linalg.eigh(proj)
            if vecs.ndim == 2:
                harm = vecs[:, dim - h_dim:]
            else:  # the top h_dim eigenvectors of each block
                harm = vecs * (np.arange(dim) >= (dim - h_dim)[:, None])[:, None, :]
            harm = _phase_normalize(harm)
        harmonic_bases.append(harm)
        harmonic_dims.append(h_total)
        plus_bases.append(plus)
        minus_bases.append(mnus)

    for i, d in enumerate(c.differentials):
        reduced.append(plus_next[i].conj().swapaxes(-1, -2) @ d.array @ minus[i])

    return HodgeData(c, harmonic_bases, harmonic_dims, plus_bases, minus_bases, reduced,
                     warnings)


# ---------------------------------------------------------------------------
# torsion, route one: reduced differentials


def torsion(c: CochainComplex, rank_tol: float | None = None,
            hodge_data: HodgeData | None = None) -> float:
    """Alternating sum over true degrees q of (-1)^q log-volume of the
    reduced differential at q."""
    h = hodge_data if hodge_data is not None else hodge(c, rank_tol)
    total = 0.0
    for i, r in enumerate(h.reduced):
        q = c.offset + i
        if min(r.shape[-2:]) == 0:
            continue
        total += (-1) ** q * log_vol(h.reduced_morphism(q), rank_tol)
    return float(total)


# ---------------------------------------------------------------------------
# torsion, route two: Laplacians


def laplacian(c: CochainComplex, q: int) -> Morphism:
    """delta_q^* delta_q + delta_{q-1} delta_{q-1}^* on the degree-q module."""
    d_q = c.differential(q)
    d_prev = c.differential(q - 1)
    mod = c.module(q)
    acc = np.zeros(array_shape(mod, mod), np.complex128)
    if d_q.shape[0] and d_q.shape[1]:
        acc += d_q.array.conj().swapaxes(-1, -2) @ d_q.array
    if d_prev.shape[0] and d_prev.shape[1]:
        acc += d_prev.array @ d_prev.array.conj().swapaxes(-1, -2)
    acc = 0.5 * (acc + acc.conj().swapaxes(-1, -2))
    return Morphism(mod, mod, acc)


def log_det_prime(op: Morphism, rank_tol: float | None = None) -> float:
    """kappa times the sum of log of the eigenvalues lambda kept by ``spectrum``.

    The operator must be numerically self-adjoint and nonnegative; zero
    modes are dropped (det' convention): ``rank_tol`` cuts sqrt(lambda),
    the same singular-value scale as ``log_vol``.  The zero operator gives
    0.0.
    """
    if op.domain.ambient_dim != op.codomain.ambient_dim:
        raise DataValidationError("log det' needs an endomorphism")
    m = op.array
    if op.shape[0] == 0:
        return 0.0
    if not vanishes(m - m.conj().swapaxes(-1, -2), float(np.abs(m).max())):
        raise DataValidationError("operator is not self-adjoint")
    s = spectrum(m, rank_tol, dim=op.shape[0])
    return float(op.context.kappa * np.log(s.lam[s.keep]).sum())


def torsion_via_laplacians(c: CochainComplex, rank_tol: float | None = None) -> float:
    """(1/2) sum over true degrees q of (-1)^(q+1) q log det' Laplacian_q."""
    total = 0.0
    for q in c.degrees():
        if q == 0:
            continue
        total += (-1) ** (q + 1) * q * log_det_prime(laplacian(c, q), rank_tol)
    return float(0.5 * total)


# ---------------------------------------------------------------------------
# constructions: tensor product, suspension, mapping cone


def _tensor_modules(a: HilbertModule, b: HilbertModule) -> HilbertModule:
    """C^n (x) M with the field index outermost keeps the group factor M's
    context, fiber and coordinates."""
    group = b if b.context.is_group else a
    return HilbertModule(group.context, a.ambient_dim * b.ambient_dim, free=a.free and b.free,
                         fiber_dim=group.fiber_dim, characters=group.characters)


def tensor_product(c1: CochainComplex, c2: CochainComplex) -> CochainComplex:
    """Degreewise tensor product with the alternating-sign differential.

    C_j = sum over k of C1_k (x) C2_{j-k}, and on the (k, j-k) summand the
    differential acts by d1 (x) id + (-1)^k id (x) d2 (sign by the true
    degree k of the first factor).  At least one factor must live over the
    complex field; the product inherits the group context of the other.
    The field factor's index is outermost on every summand, in both factor
    orders (the first factor's when both are over the field), so each
    summand keeps the group factor's (copies, group, fiber) layout and a
    factor in character coordinates stays blockwise: kron(B, A_j) per
    character j.
    """
    if c1.context.is_group and c2.context.is_group:
        raise DataValidationError("tensor products need at least one factor over the complex field")
    # kron(part of c1, part of c2), the field factor's part outermost
    kron = (lambda x, y: np.kron(y, x)) if c1.context.is_group else np.kron
    lo = c1.offset + c2.offset
    hi = c1.top_degree + c2.top_degree
    summands = [range(max(c1.offset, j - c2.top_degree), min(c1.top_degree, j - c2.offset) + 1)
                for j in range(lo, hi + 1)]
    parts = [[_tensor_modules(c1.module(k), c2.module(j - k)) for k in ks]
             for j, ks in enumerate(summands, lo)]
    modules = [direct_sum_modules(p) for p in parts]

    diffs: list[Morphism] = []
    for i, (src_ks, dst_ks) in enumerate(zip(summands, summands[1:])):
        j = lo + i
        blocks = {}
        for s, k in enumerate(src_ks):
            w1, w2 = c1.module(k).width, c2.module(j - k).width
            if not (w1 and w2):
                continue  # empty blocks stay out
            # d1 (x) id : summand (k, j-k) -> (k+1, j-k)
            if k + 1 in dst_ks and c1.module(k + 1).width:
                blocks[dst_ks.index(k + 1), s] = kron(c1.differential(k).array, np.eye(w2))
            # (-1)^k id (x) d2 : summand (k, j-k) -> (k, j-k+1)
            if k in dst_ks and c2.module(j - k + 1).width:
                blocks[dst_ks.index(k), s] = (-1) ** k * kron(
                    np.eye(w1), c2.differential(j - k).array)
        diffs.append(Morphism(modules[i], modules[i + 1],
                              assemble_blocks(blocks, parts[i + 1], parts[i])))
    return CochainComplex(modules, diffs, lo)


def suspension(c: CochainComplex) -> CochainComplex:
    """(SC)_i = C_{i+1} with differentials negated."""
    return CochainComplex(c.modules, [-d for d in c.differentials], c.offset - 1,
                          validate=False)


@dataclass(eq=False)
class ComplexMorphism:
    """A degreewise morphism commuting with the differentials.

    Source and target must cover the same degree window (use ``pad_complex``
    to align); the chain rule d_target f_i = f_{i+1} d_source is validated
    numerically.
    """

    source: CochainComplex
    target: CochainComplex
    components: list[Morphism]

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 components: Sequence[Morphism], validate: bool = True):
        if source.offset != target.offset or len(source.modules) != len(target.modules):
            raise DataValidationError(
                "source and target must cover the same degree window "
                f"(got offsets {source.offset}/{target.offset}, lengths "
                f"{len(source.modules)}/{len(target.modules)})")
        if len(components) != len(source.modules):
            raise DataValidationError("one component per degree required")
        for i, f in enumerate(components):
            if not (f.domain.matches(source.modules[i]) and f.codomain.matches(target.modules[i])):
                raise DataValidationError("component shapes do not match the complexes",
                                          location=f"degree {source.offset + i}")
        self.source = source
        self.target = target
        self.components = list(components)
        if validate:
            self.validate()

    def validate(self) -> None:
        """Check that d_target f_i - f_{i+1} d_source vanishes at every degree."""
        bounds = [norm_lower_bound(c.array) for c in self.components]
        for i in range(len(self.components) - 1):
            d_s = self.source.differentials[i].array
            d_t = self.target.differentials[i].array
            defect = d_t @ self.components[i].array - self.components[i + 1].array @ d_s
            scale = (max(norm_lower_bound(d_t), norm_lower_bound(d_s))
                     * max(bounds[i], bounds[i + 1], 1.0))
            if not vanishes(defect, scale):
                raise DataValidationError(
                    "components do not commute with the differentials",
                    location=f"degree {self.source.offset + i}")

    @property
    def offset(self) -> int:
        return self.source.offset

    def component(self, q: int) -> Morphism:
        i = q - self.offset
        if 0 <= i < len(self.components):
            return self.components[i]
        return Morphism.zero(self.source.module(q), self.target.module(q))


def mapping_cone(f: ComplexMorphism) -> tuple[CochainComplex, ComplexMorphism, ComplexMorphism]:
    """Cone of f : C1 -> C2 with its inclusion and projection.

    Cone_i = C2_i + C1_{i+1} with differential [[d2, f_{i+1}], [0, -d1]];
    returns (cone, j, p) where j : C2 -> cone is (id, 0) and
    p : cone -> SC1 is (0, id), all padded to the cone's degree window.
    """
    c1, c2 = f.source, f.target
    lo, hi = c1.offset - 1, c1.top_degree
    parts = [[c2.module(i), c1.module(i + 1)] for i in range(lo, hi + 1)]
    cone_modules = [direct_sum_modules(p) for p in parts]
    cone_diffs = [Morphism(cone_modules[n], cone_modules[n + 1], assemble_blocks(
        {(0, 0): c2.differential(i).array, (0, 1): f.component(i + 1).array,
         (1, 1): -c1.differential(i + 1).array}, parts[n + 1], parts[n]))
        for n, i in enumerate(range(lo, hi))]
    cone = CochainComplex(cone_modules, cone_diffs, lo)

    include, project = [], []
    for part, module in zip(parts, cone_modules):
        n2, n1 = part
        include.append(Morphism(n2, module, assemble_blocks({(0, 0): np.eye(n2.width)},
                                                            part, [n2])))
        project.append(Morphism(module, n1, assemble_blocks({(0, 1): np.eye(n1.width)},
                                                            [n1], part)))
    j = ComplexMorphism(pad_complex(c2, lo, hi), cone, include)
    p = ComplexMorphism(cone, pad_complex(suspension(c1), lo, hi), project)
    return cone, j, p


# ---------------------------------------------------------------------------
# induced maps on harmonic spaces and torsion transfer


def induced_harmonic_map(f: ComplexMorphism, q: int,
                         hodge_source: HodgeData | None = None,
                         hodge_target: HodgeData | None = None,
                         rank_tol: float | None = None) -> Morphism:
    """Compression of f_q to the harmonic subspaces (the map on cohomology)."""
    hs = hodge_source if hodge_source is not None else hodge(f.source, rank_tol)
    ht = hodge_target if hodge_target is not None else hodge(f.target, rank_tol)
    basis_s = hs.harmonic_basis(q)
    basis_t = ht.harmonic_basis(q)
    mat = basis_t.conj().swapaxes(-1, -2) @ f.component(q).array @ basis_s
    return Morphism(hs.harmonic_module(q), ht.harmonic_module(q), mat)


def torsion_transfer_residual(f: ComplexMorphism, rank_tol: float | None = None) -> float:
    """Residual of the torsion comparison along a degreewise isomorphism f.

    For invertible components: log T(target) = log T(source)
    - sum (-1)^q log_vol(f_q) + sum (-1)^q log_vol(H(f_q)).
    """
    hs = hodge(f.source, rank_tol)
    ht = hodge(f.target, rank_tol)
    t_source = torsion(f.source, rank_tol, hs)
    t_target = torsion(f.target, rank_tol, ht)
    vol_sum = 0.0
    harm_sum = 0.0
    for q in f.source.degrees():
        comp = f.component(q)
        if min(comp.shape) > 0:
            vol_sum += (-1) ** q * log_vol(comp, rank_tol)
        hq = induced_harmonic_map(f, q, hs, ht, rank_tol)
        if min(hq.shape) > 0:
            harm_sum += (-1) ** q * log_vol(hq, rank_tol)
    return abs(t_target - t_source + vol_sum - harm_sum)
