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
                              (Hodge) decomposition, read as the kept
                              singular values of the d_q, which are theirs;
* ``torsion_via_laplacians`` -- (1/2) sum over q of (-1)^(q+1) q log det'
                              of the degree-q Laplacian.

They are cross-checked in the tests, never merged.

Every short exact sequence the package builds is an ``extension``
0 -> sub -> E -> quot -> 0 with E_i = sub_i + quot_i, differential
[[d_sub, theta_i], [0, d_quot]], inclusion (id, 0) and projection (0, id):
direct sums (no coupling), mapping cones (coupled by f), the random
sequences of ``generators`` (a coboundary twist) and, through
``extension_maps``, the gluing sequences of ``cells``.  Such a pair is
exact by construction, and ``exact.ComplexSES`` knows it from a record the
two maps share; where E is assembled from the arrays of sub and quot, the
maps' chain rule holds bit for bit and is not checked either (a glued
complex comes from cell assembly and keeps its check).

The Hodge decomposition of a complex at a cutoff is one ``HodgeData``,
which ``hodge`` builds once and returns as that object on every call.  It
reads each differential's ``kernel.Spectrum`` (``vn.spectral_stage``: one
eigvalsh, kept on the morphism, as ``vn.log_vol`` and
``vn.singular_values`` read it): ranks, log-volumes, harmonic dimensions,
rank warnings and route one read only that record, by one path for every
complex.  Its bases (one eigh per differential and one per module with
harmonic part, all through ``kernel.spectrum``) are computed together on
the first read of any of them, and its reduced maps on their own first
read.  Spectra live on the differential (``Morphism.derived``, which a
negation shares), as does its scale (``Morphism.norm_bound``, the
magnitude of its cell words or else of its array): each structural zero
test reads its factors' scales, and the spectral floor their rounding;
range bases, harmonic bases and their carriers are kept per complex, with
its ``HodgeData``.  A shifted, padded or suspended complex holds the maps
of the complex it wraps (or their negations) and empty maps, so its
spectra are that complex's records; it takes its bases and carriers from
the wrapped ``HodgeData``, with empty entries at padded degrees and no
eigensolve.

Every step below runs block by block on the (blocks, rows, cols) stacks of
the differentials (see ``vn.HilbertModule``), in batched eigensolves.  The
context decides the blocks: the m characters of any complex over
``cyclic_group(m)``, however it was built, and one block in the standard
basis over the complex field or a ``finite_group`` table.  Rank decisions
are those of the dense direct sum, since ``kernel.spectrum`` sizes the
floor and the cutoff by the full dimension m n; over Z/2^16 the circle's
characters j = +-1 (sigma ~ 9.6e-5) fall under the default cutoff
(~1.2e-4), and ``hodge`` warns.  Bases keep their columns by the one rule
of ``vn.kept_columns``.  Direct sums, mapping cones and tensor products
with a complex-field factor assemble the blocks of their inputs
(``vn.assemble_blocks``), and in a tensor product the field factor's index
is outermost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .kernel import RANK_AMBIGUITY_FACTOR, Spectrum, gram_spectrum, spectrum
from .vn import (
    HilbertModule,
    Morphism,
    TraceContext,
    array_shape,
    assemble_blocks,
    direct_sum_modules,
    kept_columns,
    log_vol,
    spectral_stage,
    vanishes,
)


def _phase_normalize(columns: np.ndarray) -> np.ndarray:
    """Rotate each column of each block of a stack so that its first entry
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
    first = (np.arange(len(columns))[:, None], above.argmax(axis=-2),
             np.arange(columns.shape[-1]))
    pivot, found = columns[first], above[first]
    size = np.where(found, np.hypot(pivot.real, pivot.imag), 1.0)
    rotated = columns * (np.conj(pivot) / size)[..., None, :]
    return np.where(found[..., None, :], rotated, columns)


@dataclass(frozen=True, eq=False, init=False)
class CochainComplex:
    """Modules C_offset, ..., C_{offset+n} with differentials between them.

    Immutable (tuples of modules and read-only morphisms), so the Hodge
    data ``hodge`` computes for a cutoff stay valid and are kept with it.
    """

    modules: tuple[HilbertModule, ...]
    differentials: tuple[Morphism, ...]
    offset: int = 0
    _hodge: dict = field(default_factory=dict, repr=False)
    # (source, before) of a complex made of another's data by ``_wrapping``:
    # its Hodge data take their bases from the source's
    _wraps: tuple | None = field(default=None, repr=False)

    def __init__(self, modules: Sequence[HilbertModule], differentials: Sequence[Morphism],
                 offset: int = 0, validate: bool = True):
        object.__setattr__(self, "modules", tuple(modules))
        object.__setattr__(self, "differentials", tuple(differentials))
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "_hodge", {})
        object.__setattr__(self, "_wraps", None)
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
            scale = a.norm_bound * b.norm_bound
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
        return self.modules[i] if 0 <= i < len(self.modules) else HilbertModule(self.context, 0)

    def differential(self, q: int) -> Morphism:
        """d_q : C_q -> C_{q+1} at true degree q (zero outside the window)."""
        i = q - self.offset
        return (self.differentials[i] if 0 <= i < len(self.differentials) else
                Morphism.zero(self.module(q), self.module(q + 1)))

    def euler_characteristic(self) -> float:
        """Sum of (-1)^q vn_dim(C_q) over true degrees."""
        return float(sum((-1) ** q * self.module(q).vn_dim for q in self.degrees()))

    def shifted(self, by: int) -> "CochainComplex":
        """Same data placed ``by`` degrees higher."""
        return _wrapping(self, self.modules, self.differentials, self.offset + by)


def _wrapping(source: CochainComplex, modules: Sequence[HilbertModule],
              differentials: Sequence[Morphism], offset: int,
              before: int = 0) -> CochainComplex:
    """A complex holding the modules and differentials of ``source`` (or
    their negations) from stored index ``before`` on, between zero modules;
    its Hodge data take their bases from the source's."""
    c = CochainComplex(modules, differentials, offset, validate=False)
    object.__setattr__(c, "_wraps", (source, before))
    return c


def pad_complex(c: CochainComplex, lo: int, hi: int) -> CochainComplex:
    """Extend with zero modules so the window covers true degrees [lo, hi]."""
    if lo > c.offset or hi < c.top_degree:
        raise DataValidationError("padding window must contain the complex")
    modules = [c.module(q) for q in range(lo, hi + 1)]
    diffs = [c.differential(q) for q in range(lo, hi)]
    return _wrapping(c, modules, diffs, lo, before=c.offset - lo)


# ---------------------------------------------------------------------------
# Hodge decomposition


# The spectrum of a differential lives on it, in its ``derived`` store, by
# cutoff; its range bases live in the Hodge data that read them.  A complex
# made of another's differentials (``shifted``, ``pad_complex``,
# ``suspension``) reads its spectra off those maps like any complex, and
# takes its bases from the Hodge data of the complex it wraps
# (``HodgeData._wrapped_decomposition``), with no eigensolve.


@dataclass(frozen=True, eq=False)
class HodgeData:
    """Orthogonal decomposition C_i = harmonic + image(d_{i-1}) + image(d_i^*).

    Per stored index i (true degree offset + i), from the spectrum of each
    differential (``vn.spectral_stage``):

    * ``spectra[i]``       -- the spectrum of d_i, whose kept singular values
                              are those of the reduced differential at i, and
                              ``log_vols[i]`` its log-volume (kappa times
                              their log-sum),
    * ``block_dims[i]``    -- dim C_i - rank d_{i-1} - rank d_i per block,
                              the dimensions of the harmonic space, and
                              ``harmonic_dims[i]`` their sum;

    and, computed together on the first read of any of them and kept:

    * ``plus_bases[i]``  -- orthonormal columns spanning image(d_{i-1}),
    * ``minus_bases[i]`` -- orthonormal columns spanning image(d_i^*),
    * ``harmonic_bases[i]`` -- orthonormal columns spanning the complement,
    * ``harmonic_modules[i]`` -- the carrier module of the harmonic space;

    and, on its own first read, ``reduced[i]``: the invertible matrix of d_i
    from the minus subspace at i to the plus subspace at i+1, in those
    bases, u* d_i v for this complex's own d_i.

    Bases are deterministic: eigensolver order (ascending) plus fixed-phase
    normalization, so repeated runs agree bitwise.  Besides the ``offset``,
    ``modules`` and ``differentials`` of its complex (not the complex, which
    keeps it), the cutoff and ``wraps``, every field is a read-only array or
    a tuple of them (or of spectra, floats, ints, modules).

    A shifted, padded or suspended complex reads its spectra off its own
    maps, which are those of the complex it wraps (a negation shares the
    spectrum of the map it negates) or empty at padded degrees.  Its bases
    and carriers are the wrapped ones, bit for bit what a fresh
    decomposition gives: ``wraps`` is (the wrapped complex's data, the
    number of zero modules before it), and a zero module has empty entries.
    Its reduced maps are read off its own differentials, so a suspension's
    are u* (-d) v.
    """

    offset: int
    modules: tuple[HilbertModule, ...]
    differentials: tuple[Morphism, ...]
    rank_tol: float | None
    spectra: tuple[Spectrum, ...]
    block_dims: np.ndarray
    wraps: tuple | None = None

    @property
    def context(self) -> TraceContext:
        return self.modules[0].context

    @cached_property
    def log_vols(self) -> tuple[float, ...]:
        kappa = self.context.kappa
        return tuple(kappa * s.log_sum for s in self.spectra)

    @cached_property
    def harmonic_dims(self) -> tuple[int, ...]:
        return tuple(self.block_dims.sum(1).tolist())

    def harmonic_dim(self, q: int) -> int:
        i = q - self.offset
        return self.harmonic_dims[i] if 0 <= i < len(self.harmonic_dims) else 0

    def is_acyclic(self) -> bool:
        return not any(self.harmonic_dims)

    @property
    def warnings(self) -> tuple[str, ...]:
        """One per differential with a singular value within a factor
        RANK_AMBIGUITY_FACTOR of its cutoff, and one per differential whose
        cutoff lies below the noise floor on singular values and which has
        a value at or below that floor: there the floor, not the cutoff,
        decided the rank."""
        lines = []
        for q, s in enumerate(self.spectra, self.offset):
            if s.ambiguous:
                lines.append(f"d at degree {q}: singular value within a factor "
                             f"{RANK_AMBIGUITY_FACTOR:g} of the rank tolerance {s.tol:.3e}")
            floor = math.sqrt(s.noise_floor)
            if s.tol < floor and not s.lam.all():
                lines.append(f"d at degree {q}: the rank tolerance {s.tol:.3e} lies below "
                             f"the noise floor {floor:.3e} on singular values, and a value "
                             "at or below the floor counts as zero")
        return tuple(lines)

    @cached_property
    def _decomposition(self) -> tuple:
        """(harmonic_bases, plus_bases, minus_bases, harmonic_modules).

        The range bases are each differential's ``_range_basis``.  The
        degree-i harmonic space is the kernel of d_i intersected with the
        kernel of d_{i-1}^*, realized as the orthogonal complement of
        range(d_{i-1}) + range(d_i^*): one batched eigh of its projector per
        module with harmonic part (``kernel.spectrum``), whose top
        eigenvectors in each block (``vn.kept_columns``) span it.
        Wrapped data take all four from the data they wrap instead.
        """
        if self.wraps is not None:
            return self._wrapped_decomposition()
        ranges = [_range_basis(d, self.rank_tol) for d in self.differentials]
        harmonic, plus_bases, minus_bases = [], [], []
        for i, (module, h_dim) in enumerate(zip(self.modules, self.block_dims)):
            shape = array_shape(module, module)
            dim = shape[-1]
            none = np.zeros(shape[:-1] + (0,), np.complex128)
            plus_bases.append(ranges[i - 1][1] if i >= 1 else none)
            minus_bases.append(ranges[i][0] if i < len(ranges) else none)
            if self.harmonic_dims[i] == 0:  # so is every empty module
                harmonic.append(none)
                continue
            span = np.concatenate([plus_bases[i], minus_bases[i]], axis=-1)
            ident = np.eye(dim, dtype=np.complex128)
            if module.block_mask is not None:
                ident = ident * module.block_mask[:, None, :]
            proj = spectrum(ident - span @ span.conj().swapaxes(-1, -2), vectors=True)
            harmonic.append(_phase_normalize(kept_columns(proj.vectors, h_dim)))
        bases = _frozen(harmonic)
        return (bases, _frozen(plus_bases), _frozen(minus_bases),
                tuple(_carrier(self.context, b) for b in bases))

    def _wrapped_decomposition(self) -> tuple:
        """The wrapped data's fields, with an empty basis and carrier at each
        padded degree (a negation's range bases are those of the map it
        negates)."""
        source, before = self.wraps
        after = len(self.modules) - before - len(source.modules)
        *bases, carriers = source._decomposition
        empty = _frozen([np.zeros((self.context.blocks, 0, 0), np.complex128)])
        carrier = (_carrier(self.context, empty[0]),)
        return (*(empty * before + f + empty * after for f in bases),
                carrier * before + carriers + carrier * after)

    harmonic_bases = property(lambda self: self._decomposition[0])
    plus_bases = property(lambda self: self._decomposition[1])
    minus_bases = property(lambda self: self._decomposition[2])
    harmonic_modules = property(lambda self: self._decomposition[3])

    @cached_property
    def reduced(self) -> tuple[np.ndarray, ...]:
        """u* d v for each differential d, on its coimage basis v (the minus
        basis at its domain) and its range basis u (the plus basis at its
        codomain)."""
        return _frozen([u.conj().swapaxes(-1, -2) @ d.array @ v for d, v, u in zip(
            self.differentials, self.minus_bases, self.plus_bases[1:])])

    def harmonic_basis(self, q: int) -> np.ndarray:
        """Orthonormal columns spanning the harmonic space, a stack of
        per-block columns (``vn.kept_columns``)."""
        i = q - self.offset
        return (self.harmonic_bases[i] if 0 <= i < len(self.harmonic_bases) else
                np.zeros(self.harmonic_bases[0].shape[:-2] + (0, 0), np.complex128))

    def harmonic_module(self, q: int) -> HilbertModule:
        """The carrier of the harmonic space: one object per complex, cutoff
        and degree of the window."""
        i = q - self.offset
        return (self.harmonic_modules[i] if 0 <= i < len(self.harmonic_modules) else
                _carrier(self.context, self.harmonic_basis(q)))

    def reduced_morphism(self, q: int) -> Morphism:
        """Reduced differential at true degree q as a morphism of carriers."""
        i = q - self.offset
        if not 0 <= i < len(self.reduced):
            zero = HilbertModule(self.context, 0)
            return Morphism.zero(zero, zero)
        return Morphism(_carrier(self.context, self.minus_bases[i]),
                        _carrier(self.context, self.plus_bases[i + 1]), self.reduced[i])


def _carrier(context: TraceContext, basis: np.ndarray) -> HilbertModule:
    """The subspace carrier spanned by the present columns of ``basis`` (the
    dropped ones are exact zeros); it needs a block mask only where a column
    was dropped."""
    kept = basis.any(axis=-2)
    dim = np.count_nonzero(kept)
    return HilbertModule(context, dim, block_mask=None if dim == kept.size else kept)


def _frozen(arrays: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


def _range_basis(d: Morphism, rank_tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (V of the coimage, U of the range) of d.

    Both come from one Hermitian eigendecomposition of d* d: V is its top
    eigenvectors, as many per block as the rank of d's spectral stage, so
    the two stages make one rank decision.  Columns are phase-normalized and
    kept by ``vn.kept_columns``: by descending singular value for a single
    block, every one, the dropped ones zero, for more.
    """
    matrix = d.array
    blocks, rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        v_kept = np.zeros((blocks, cols, 0), np.complex128)
        u = np.zeros((blocks, rows, 0), np.complex128)
    else:
        e = gram_spectrum(matrix, rank_tol, vectors=True, dim=max(d.shape + (1,)),
                          scale=(d.scale or 0.0) ** 2)
        rank = spectral_stage(d, rank_tol).rank
        v_kept = _phase_normalize(kept_columns(e.vectors, rank, sigma=e.sigma))
        u = matrix @ v_kept
        # a dropped column of a stack is zero: it stays zero
        u /= np.maximum(np.linalg.norm(u, axis=-2, keepdims=True), np.finfo(float).tiny)
        u = _phase_normalize(u)
    return v_kept, u


def hodge(c: CochainComplex, rank_tol: float | None = None) -> HodgeData:
    """The Hodge decomposition of c at a cutoff, built once per complex and
    cutoff and returned as that object on every call.

    Ranks, harmonic dimensions, log-volumes and rank warnings come from one
    eigvalsh per differential (``vn.spectral_stage``, kept on it); the bases
    and reduced differentials only on first read.  Ranks are counted block
    by block, with the rank decisions of the dense direct sum.
    """
    hd = c._hodge.get(rank_tol)
    if hd is not None:
        return hd
    spectra = tuple(spectral_stage(d, rank_tol) for d in c.differentials)
    none = np.zeros(c.modules[0].blocks, int)
    ranks = np.array([none, *(s.rank for s in spectra), none])  # of d_{i-1} at i
    dims = np.array([m.block_dims for m in c.modules]) - ranks[:-1] - ranks[1:]
    if (dims < 0).any():
        short = np.flatnonzero((dims < 0).any(1))
        raise DataValidationError(
            "rank bookkeeping failed (image + coimage exceed the module)",
            location=f"degree {c.offset + short[0]}")
    dims.setflags(write=False)
    wraps = None if c._wraps is None else (hodge(c._wraps[0], rank_tol), c._wraps[1])
    hd = c._hodge[rank_tol] = HodgeData(c.offset, c.modules, c.differentials, rank_tol,
                                        spectra, dims, wraps)
    return hd


# ---------------------------------------------------------------------------
# torsion, route one: reduced differentials


def torsion(c: CochainComplex, rank_tol: float | None = None) -> float:
    """Alternating sum over true degrees q of (-1)^q log-volume of the
    reduced differential at q: the ``log_vols`` of ``hodge``, from the kept
    singular values of d_q, so no basis is computed."""
    total = 0.0
    for q, v in enumerate(hodge(c, rank_tol).log_vols, c.offset):
        total += (-1) ** q * v
    return float(total)


# ---------------------------------------------------------------------------
# torsion, route two: Laplacians


def laplacian(c: CochainComplex, q: int) -> Morphism:
    """delta_q^* delta_q + delta_{q-1} delta_{q-1}^* on the degree-q module (scale |d|^2)."""
    d_q = c.differential(q)
    d_prev = c.differential(q - 1)
    mod = c.module(q)
    acc = np.zeros(array_shape(mod, mod), np.complex128)
    if d_q.shape[0] and d_q.shape[1]:
        acc += d_q.array.conj().swapaxes(-1, -2) @ d_q.array
    if d_prev.shape[0] and d_prev.shape[1]:
        acc += d_prev.array @ d_prev.array.conj().swapaxes(-1, -2)
    acc = 0.5 * (acc + acc.conj().swapaxes(-1, -2))
    return Morphism(mod, mod, acc, max(d_q.norm_bound, d_prev.norm_bound) ** 2)


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
    s = spectrum(m, rank_tol, dim=op.shape[0], scale=op.scale or 0.0)
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
# constructions: tensor product, suspension, extensions


def _tensor_modules(a: HilbertModule, b: HilbertModule) -> HilbertModule:
    """C^n (x) M with the field index outermost keeps the group factor M's
    context."""
    group = b if b.context.is_group else a
    return HilbertModule(group.context, a.ambient_dim * b.ambient_dim)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` block by block of two stacks (or a stack and a
    matrix, which every block shares), as one broadcast product and a
    reshape: each entry is the same one product a[i, j] b[k, l], so the
    blocks are bit for bit those of ``np.kron``."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def tensor_product(c1: CochainComplex, c2: CochainComplex) -> CochainComplex:
    """Degreewise tensor product with the alternating-sign differential.

    C_j = sum over k of C1_k (x) C2_{j-k}, and on the (k, j-k) summand the
    differential acts by d1 (x) id + (-1)^k id (x) d2 (sign by the true
    degree k of the first factor).  At least one factor must live over the
    complex field; the product inherits the group context of the other.
    The field factor's index is outermost on every summand, in both factor
    orders (the first factor's when both are over the field), so each
    summand keeps the group factor's (copy, group) layout and its
    blocks: kron(B, A_j) per block j.  A differential's scale is the largest
    of the factors' differentials it is built from (an identity's is 1).
    """
    if c1.context.is_group and c2.context.is_group:
        raise DataValidationError("tensor products need at least one factor over the complex field")
    # kron(part of c1, part of c2), the field factor's part outermost
    kron = (lambda x, y: _kron(y, x)) if c1.context.is_group else _kron
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
        blocks, scale = {}, 0.0
        for s, k in enumerate(src_ks):
            w1, w2 = c1.module(k).width, c2.module(j - k).width
            if not (w1 and w2):
                continue  # empty blocks stay out
            # d1 (x) id : summand (k, j-k) -> (k+1, j-k)
            if k + 1 in dst_ks and c1.module(k + 1).width:
                d = c1.differential(k)
                blocks[dst_ks.index(k + 1), s] = kron(d.array, np.eye(w2))
                scale = max(scale, d.norm_bound)
            # (-1)^k id (x) d2 : summand (k, j-k) -> (k, j-k+1)
            if k in dst_ks and c2.module(j - k + 1).width:
                d = c2.differential(j - k)
                blocks[dst_ks.index(k), s] = (-1) ** k * kron(np.eye(w1), d.array)
                scale = max(scale, d.norm_bound)
        diffs.append(Morphism(modules[i], modules[i + 1],
                              assemble_blocks(blocks, parts[i + 1], parts[i]), scale))
    return CochainComplex(modules, diffs, lo)


def suspension(c: CochainComplex) -> CochainComplex:
    """(SC)_i = C_{i+1} with differentials negated; a negation shares the
    spectra and range bases of the differential it negates."""
    return _wrapping(c, c.modules, [-d for d in c.differentials], c.offset - 1)


class ComplexMorphism:
    """A degreewise morphism commuting with the differentials.

    Source and target must cover the same degree window (use ``pad_complex``
    to align); the chain rule d_target f_i = f_{i+1} d_source is validated
    numerically.
    """

    # (record, "include" or "project") on the maps of ``extension_maps``:
    # the record marks the two maps of one call, which ``exact.ComplexSES``
    # knows to be exact
    _split: tuple | None = None

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 components: Sequence[Morphism]):
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
        self.validate()

    def validate(self) -> None:
        """Check that d_target f_i - f_{i+1} d_source vanishes at every degree."""
        bounds = [c.norm_bound for c in self.components]
        for i in range(len(self.components) - 1):
            d_s = self.source.differentials[i]
            d_t = self.target.differentials[i]
            defect = (d_t.array @ self.components[i].array
                      - self.components[i + 1].array @ d_s.array)
            scale = d_t.norm_bound * bounds[i] + bounds[i + 1] * d_s.norm_bound
            if not vanishes(defect, scale):
                raise DataValidationError(
                    "components do not commute with the differentials",
                    location=f"degree {self.source.offset + i}")

    @property
    def offset(self) -> int:
        return self.source.offset

    def component(self, q: int) -> Morphism:
        i = q - self.offset
        return (self.components[i] if 0 <= i < len(self.components) else
                Morphism.zero(self.source.module(q), self.target.module(q)))


class _Split:
    """What the inclusion and the projection of one ``extension_maps`` call
    share: (id, 0) and (0, id), each identity masked to its carrier's
    coordinates, are exact at every degree, g o f is zero bit for bit, and
    every singular value of either is 1.  It refers to neither map, so the
    two make no reference cycle."""

    __slots__ = ()


def extension_maps(sub: CochainComplex, middle: CochainComplex,
                   quot: CochainComplex) -> tuple[ComplexMorphism, ComplexMorphism]:
    """The inclusion (id, 0) : sub -> middle and the projection (0, id) :
    middle -> quot of a middle complex whose modules are sub_i + quot_i."""
    return _extension_maps(sub, middle, quot, assembled=False)


def _extension_maps(sub: CochainComplex, middle: CochainComplex, quot: CochainComplex,
                    assembled: bool) -> tuple[ComplexMorphism, ComplexMorphism]:
    """``extension_maps``; for a middle ``assembled`` by ``_extension_middle``
    from the arrays of sub and quot, d_E (id, 0) = (id, 0) d_sub and
    (0, id) d_E = d_quot (0, id) hold bit for bit, and the chain rule is
    not checked again."""
    include, project = [], []
    for a, m, b in zip(sub.modules, middle.modules, quot.modules):
        eye_a, eye_b = Morphism.identity(a).array, Morphism.identity(b).array
        include.append(Morphism(a, m, assemble_blocks({(0, 0): eye_a}, [a, b], [a])))
        project.append(Morphism(m, b, assemble_blocks({(0, 1): eye_b}, [b], [a, b])))
    maps = []
    for source, target, components in ((sub, middle, include), (middle, quot, project)):
        if assembled:
            f = ComplexMorphism.__new__(ComplexMorphism)
            f.source, f.target, f.components = source, target, components
        else:
            f = ComplexMorphism(source, target, components)
        maps.append(f)
    split = _Split()
    maps[0]._split, maps[1]._split = (split, "include"), (split, "project")
    return maps[0], maps[1]


def extension(sub: CochainComplex, quot: CochainComplex,
              couplings: Sequence[np.ndarray] | None = None,
              ) -> tuple[CochainComplex, ComplexMorphism, ComplexMorphism]:
    """The extension 0 -> sub -> E -> quot -> 0 with its inclusion and projection.

    E_i = sub_i + quot_i with differential [[d_sub, theta_i], [0, d_quot]],
    where theta_i : quot_i -> sub_{i+1} is the array ``couplings[i]`` (a
    stack, or one block for every block, as ``vn.Morphism`` reads it); it
    must satisfy d_sub theta_i + theta_{i+1} d_quot = 0, which E's
    validation checks.  No couplings give the split sum.  ``sub`` and
    ``quot`` must share a trace context and a degree window.  Returns
    (E, include, project) with the maps of ``extension_maps``.
    """
    middle = _extension_middle(sub, quot, couplings)
    return (middle, *_extension_maps(sub, middle, quot, assembled=True))


def _extension_middle(sub: CochainComplex, quot: CochainComplex,
                      couplings: Sequence[np.ndarray] | None) -> CochainComplex:
    """The middle complex E of ``extension``, without its maps."""
    if not sub.context.matches(quot.context):
        raise DataValidationError("an extension needs a common trace context")
    if sub.offset != quot.offset or len(sub.modules) != len(quot.modules):
        raise DataValidationError("an extension needs complexes on one degree window")
    if couplings is not None and len(couplings) != len(sub.differentials):
        raise DataValidationError(
            f"{len(sub.modules)} modules need {len(sub.differentials)} couplings, "
            f"got {len(couplings)}")
    parts = [[a, b] for a, b in zip(sub.modules, quot.modules)]
    modules = [direct_sum_modules(p) for p in parts]
    diffs = []
    for i, (d_sub, d_quot) in enumerate(zip(sub.differentials, quot.differentials)):
        blocks = {(0, 0): d_sub.array, (1, 1): d_quot.array}
        if couplings is not None:
            want = array_shape(sub.modules[i + 1], quot.modules[i])
            if np.shape(couplings[i]) not in (want, want[1:]):
                raise DataValidationError(
                    f"coupling has shape {np.shape(couplings[i])}, expected {want}",
                    location=f"degree {sub.offset + i}")
            blocks[0, 1] = couplings[i]
        diffs.append(Morphism(modules[i], modules[i + 1],
                              assemble_blocks(blocks, parts[i + 1], parts[i])))
    return CochainComplex(modules, diffs, sub.offset, validate=couplings is not None)


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise orthogonal direct sum (blocks of a first): the middle of
    the split extension of the two complexes padded to one window."""
    lo, hi = min(a.offset, b.offset), max(a.top_degree, b.top_degree)
    return _extension_middle(pad_complex(a, lo, hi), pad_complex(b, lo, hi), None)


def mapping_cone(f: ComplexMorphism) -> tuple[CochainComplex, ComplexMorphism, ComplexMorphism]:
    """Cone of f : C1 -> C2 with its inclusion and projection.

    Cone_i = C2_i + C1_{i+1} with differential [[d2, f_{i+1}], [0, -d1]]:
    the extension of SC1 by C2 coupled by f, both padded to the cone's
    degree window.  Returns (cone, j, p) with j : C2 -> cone the inclusion
    (id, 0) and p : cone -> SC1 the projection (0, id).
    """
    c1, c2 = f.source, f.target
    lo, hi = c1.offset - 1, c1.top_degree
    return extension(pad_complex(c2, lo, hi), pad_complex(suspension(c1), lo, hi),
                     [f.component(i + 1).array for i in range(lo, hi)])


# ---------------------------------------------------------------------------
# induced maps on harmonic spaces and torsion transfer


def induced_harmonic_map(f: ComplexMorphism, q: int,
                         rank_tol: float | None = None) -> Morphism:
    """Compression of f_q to the harmonic subspaces (the map on cohomology)."""
    hs, ht = hodge(f.source, rank_tol), hodge(f.target, rank_tol)
    dom, cod = hs.harmonic_module(q), ht.harmonic_module(q)
    if dom.ambient_dim == 0 or cod.ambient_dim == 0:
        return Morphism.zero(dom, cod)
    mat = ht.harmonic_basis(q).conj().swapaxes(-1, -2) @ f.component(q).array \
        @ hs.harmonic_basis(q)
    return Morphism(dom, cod, mat)


def torsion_transfer_residual(f: ComplexMorphism, rank_tol: float | None = None) -> float:
    """Residual of the torsion comparison along a degreewise isomorphism f.

    For invertible components: log T(target) = log T(source)
    - sum (-1)^q log_vol(f_q) + sum (-1)^q log_vol(H(f_q)).
    """
    t_source = torsion(f.source, rank_tol)
    t_target = torsion(f.target, rank_tol)
    vol_sum = harm_sum = 0.0
    for q in f.source.degrees():
        comp = f.component(q)
        if min(comp.shape) > 0:
            vol_sum += (-1) ** q * log_vol(comp, rank_tol)
        hq = induced_harmonic_map(f, q, rank_tol)
        if min(hq.shape) > 0:
            harm_sum += (-1) ** q * log_vol(hq, rank_tol)
    return abs(t_target - t_source + vol_sum - harm_sum)
