"""Linear algebra over a finite trace algebra.

The objects here are finite-dimensional Hilbert modules over either the
complex numbers or the group algebra of a finite group Gamma, carrying the
normalized trace (kappa = 1 or 1/|Gamma|).  Morphisms are stacks of complex
blocks (see ``HilbertModule``); the quantities of interest are
trace-normalized:

* ``vn_trace``   -- kappa times the trace summed over the blocks,
* ``log_vol``    -- kappa times the sum of log singular values over the
                    numerical rank (a log-scale Fuglede-Kadison determinant
                    of the induced map coimage -> range),
* ``spectral_distribution`` -- the right-continuous counting function
                    F(lambda) = kappa * #{sigma : sigma^2 <= lambda}.

All volumes live on the log scale; a zero morphism has ``log_vol`` 0 by the
empty-product convention, and rank truncation means the value is always
finite.  Singular values are always obtained from a Hermitian eigensolver
applied to f*f, never from a nonsymmetric solver.  A map's spectrum is one
``kernel.Spectrum`` per cutoff (``spectral_stage``), kept on the map: its
singular values, rank per block and log-sum, which every reader here uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, NumericalError
from .kernel import (
    COMPOSITION_TOL,
    SpectralDistribution,
    Spectrum,
    gram_spectrum,
    laurent_terms,
    symbol_at_roots,
)

# ---------------------------------------------------------------------------
# trace contexts


@dataclass(frozen=True, eq=False, repr=False)
class TraceContext:
    """The algebra a computation is linear over, with its normalized trace.

    The complex field (kappa = 1), a finite group given by its
    multiplication table (``table[i, j]`` is the index of g_i * g_j), or the
    cyclic group Z/``cyclic``, whose products, powers and inverses are
    arithmetic mod its order and which stores no table; kappa = 1/|Gamma|
    for groups.  Group axioms of a table are checked by ``finite_group``.
    """

    kappa: float
    table: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    cyclic: int = 0
    _identity: int = field(default=-1, repr=False)
    _inverse: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_group(self) -> bool:
        return self.table is not None or self.is_cyclic

    @property
    def is_cyclic(self) -> bool:
        """Whether this is ``cyclic_group(m)`` (not a table that happens to be cyclic)."""
        return self.cyclic > 0

    @property
    def size(self) -> int:
        """|Gamma| for group contexts, 1 for the complex field."""
        if self.is_cyclic:
            return self.cyclic
        return 1 if self.table is None else self.table.shape[0]

    @property
    def blocks(self) -> int:
        """The number of blocks of every module over this context: the m
        characters of ``cyclic_group(m)``, one otherwise."""
        return self.cyclic if self.is_cyclic else 1

    @property
    def identity(self) -> int:
        if not self.is_group:
            raise DataValidationError("the complex field has no group identity index")
        return self._identity

    def inverse(self, i: int) -> int:
        if self.is_cyclic:
            return -i % self.cyclic
        if self._inverse is None:
            raise DataValidationError("inverse table only exists for group contexts")
        return int(self._inverse[i])

    def multiply(self, i: int, j: int) -> int:
        if self.is_cyclic:
            return (i + j) % self.cyclic
        assert self.table is not None
        return int(self.table[i, j])

    def label(self, i: int):
        """The label of g_i (e, t, t^2, ... for cyclic groups; the index if unlabelled)."""
        if self.is_cyclic:
            return "e" if i == 0 else "t" if i == 1 else f"t^{i}"
        return i if self.labels is None else self.labels[i]

    def element_index(self, element) -> int:
        """Resolve a group element given as index or label."""
        assert self.is_group
        if isinstance(element, (int, np.integer)):
            idx = int(element)
            if not 0 <= idx < self.size:
                raise DataValidationError(f"group element index {idx} out of range")
            return idx
        if self.is_cyclic and isinstance(element, str):
            power = {"e": 0, "t": 1}.get(element)
            if power is None and element.startswith("t^") and element[2:].isdecimal():
                power = int(element[2:])
            if power is not None and power < self.size and self.label(power) == element:
                return power
        elif self.labels is not None and element in self.labels:
            return self.labels.index(element)
        raise DataValidationError(f"unknown group element {element!r}")

    def power(self, i: int, n: int) -> int:
        """g_i**n (n may be negative), by repeated squaring."""
        if self.is_cyclic:
            return i * n % self.cyclic
        g = i if n >= 0 else self.inverse(i)
        out, n = self._identity, abs(n)
        while n:
            if n & 1:
                out = self.multiply(out, g)
            g = self.multiply(g, g)
            n >>= 1
        return out

    def matches(self, other: "TraceContext") -> bool:
        if other is self:
            return True
        if self.is_group != other.is_group or self.cyclic != other.cyclic:
            return False
        if self.table is None:
            return True
        return bool(np.array_equal(self.table, other.table))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.is_group:
            return "TraceContext(C)"
        return f"TraceContext(group of order {self.size})"


def complex_field() -> TraceContext:
    """Plain complex scalars: kappa = 1."""
    return TraceContext(kappa=1.0)


def finite_group(table, labels: Sequence[str] | None = None) -> TraceContext:
    """Context for the group algebra of a finite group.

    ``table`` is the |Gamma| x |Gamma| index matrix of products.  Identity,
    inverses and associativity are verified; violations raise
    ``DataValidationError``.
    """
    t = np.array(table, dtype=np.int64)  # a copy: it is frozen below
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DataValidationError("group table must be square")
    n = t.shape[0]
    if n == 0:
        raise DataValidationError("group table must be nonempty")
    if t.min() < 0 or t.max() >= n:
        raise DataValidationError("group table entries must be indices into the group")

    arange = np.arange(n)
    identity = -1
    for e in range(n):
        if np.array_equal(t[e], arange) and np.array_equal(t[:, e], arange):
            identity = e
            break
    if identity < 0:
        raise DataValidationError("group table has no two-sided identity")

    inverse = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        js = np.nonzero(t[i] == identity)[0]
        if len(js) != 1 or t[js[0], i] != identity:
            raise DataValidationError(f"group element {i} has no two-sided inverse")
        inverse[i] = js[0]

    # associativity: (gi gj) gk == gi (gj gk) for all triples, a slice of
    # i at a time, so that no index array exceeds about 2^17 entries (1 MiB)
    step = max(1, 2 ** 17 // (n * n))
    for lo in range(0, n, step):
        rows = t[lo:lo + step]
        # rows[t] [i, j, k] = (gi gj) gk and rows[:, t] [i, j, k] = gi (gj gk)
        if not np.array_equal(t[rows], rows[:, t]):
            raise DataValidationError("group table is not associative")

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n or len(set(labels)) != n:
            raise DataValidationError("group labels must be distinct, one per element")
    ctx = TraceContext(kappa=1.0 / n, table=t, labels=labels,
                       _identity=identity, _inverse=inverse)
    t.setflags(write=False)
    return ctx


def cyclic_group(m: int) -> TraceContext:
    """Z/m with labels e, t, t^2, ..., t^(m-1).

    Products, powers, inverses and labels are arithmetic mod m, so the
    context holds no table and any order is affordable.  Its regular
    representation is the sum of its m characters: every module over it has
    m blocks, one per character (see ``HilbertModule``), where a table
    group's modules have one dense block.
    """
    if m < 1:
        raise DataValidationError("cyclic group order must be >= 1")
    return TraceContext(kappa=1.0 / m, cyclic=int(m), _identity=0)


# ---------------------------------------------------------------------------
# modules and morphisms


@dataclass(frozen=True, eq=False)
class HilbertModule:
    """A finitely generated Hilbert module over a trace context, stored as
    ``blocks`` blocks of ``width`` coordinates; ``vn_dim`` is kappa *
    ambient_dim.

    The context decides the blocks (``TraceContext.blocks``), whatever
    built the module.  Over the complex field or a ``finite_group`` table
    there is one block: the standard basis, a module l^2(Gamma)^n ordered
    (copy, group index), the group index innermost, so the algebra acts by
    I_n (x) lambda(g).  Over ``cyclic_group(m)`` there are m blocks, one
    per character: Z/m is abelian, so l^2(Z/m) is the orthogonal sum of its
    m characters, and the module is the sum over them of C^width (width =
    ambient_dim / m).  Either way a morphism commutes with the algebra and
    is stored as the (blocks, rows, cols) stack of its blocks.

    A subspace carrier (a harmonic space, the coimage of a reduced
    differential) may have a different dimension in each block:
    ``block_mask`` (blocks, width) marks the coordinates each block has, and
    ambient_dim is their number.  Without a mask every block has them all.
    """

    context: TraceContext
    ambient_dim: int
    block_mask: np.ndarray | None = field(default=None, repr=False)
    #: Size of one block (ambient_dim for a single block) and the number of
    #: coordinates in each block (read-only), set from the above.
    width: int = field(init=False, repr=False)
    block_dims: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise DataValidationError("ambient dimension must be >= 0")
        mask = self.block_mask
        if mask is None:
            if self.ambient_dim % self.blocks:
                raise DataValidationError(
                    "a module without a block mask needs ambient dimension divisible "
                    f"by its number of blocks, {self.blocks}")
            object.__setattr__(self, "width", self.ambient_dim // self.blocks)
        elif not (np.shape(mask)[:-1] == (self.blocks,) and mask.sum() == self.ambient_dim):
            raise DataValidationError(
                "a block mask marks the coordinates of a carrier, one row per block, "
                "as many as the ambient dimension")
        else:
            object.__setattr__(self, "width", mask.shape[1])
        dims = np.full(self.blocks, self.width) if mask is None else mask.sum(1)
        dims.setflags(write=False)
        object.__setattr__(self, "block_dims", dims)

    blocks = property(lambda self: self.context.blocks)

    @property
    def vn_dim(self) -> float:
        return self.context.kappa * self.ambient_dim

    def matches(self, other: "HilbertModule") -> bool:
        if other is self:
            return True
        a, b = self.block_mask, other.block_mask
        return (self.ambient_dim == other.ambient_dim and self.context.matches(other.context)
                and (a is b or (a is not None and b is not None and np.array_equal(a, b))))


def array_shape(codomain: HilbertModule, domain: HilbertModule) -> tuple[int, int, int]:
    """Shape (blocks, rows, cols) of the stored array of a morphism domain -> codomain."""
    return (domain.blocks, codomain.width, domain.width)


def kept_columns(stack: np.ndarray, counts: np.ndarray,
                 sigma: np.ndarray | None = None) -> np.ndarray:
    """The last ``counts[j]`` columns of block j of a (blocks, n, k) stack
    (the ones an ascending spectrum keeps), by the one rule for bases: a
    single block is sliced to them, in descending ``sigma`` if given; more
    blocks keep one width and eigensolver order, the other columns set to
    zero."""
    k = stack.shape[-1]
    if len(stack) == 1:
        kept = stack[..., k - counts[0]:]
        return kept if sigma is None else kept[..., np.argsort(-sigma[0, k - counts[0]:])]
    mask = (np.arange(k) >= (k - counts)[:, None])[:, None, :]
    return stack * mask


def regular_module(context: TraceContext, rank: int = 1) -> HilbertModule:
    """l^2(Gamma)^rank (C^rank over the complex field)."""
    if rank < 0:
        raise DataValidationError("rank must be >= 0")
    return HilbertModule(context, context.size * rank)


def direct_sum_modules(modules: Sequence[HilbertModule]) -> HilbertModule:
    """Orthogonal direct sum, block by block: the coordinates of the
    summands side by side, with their block masks."""
    if not modules:
        raise DataValidationError("direct sum needs at least one module")
    ctx = modules[0].context
    for m in modules[1:]:
        if not m.context.matches(ctx):
            raise DataValidationError("direct sum of modules over different contexts")
    mask = None
    if any(m.block_mask is not None for m in modules):
        mask = np.concatenate([np.ones((ctx.blocks, m.width), bool) if m.block_mask is None
                               else m.block_mask for m in modules], axis=1)
    return HilbertModule(ctx, sum(m.ambient_dim for m in modules), block_mask=mask)


def assemble_blocks(blocks: Mapping[tuple[int, int], np.ndarray],
                    rows: Sequence[HilbertModule], cols: Sequence[HilbertModule]) -> np.ndarray:
    """The stored stack of the map from the sum of ``cols`` to the sum of
    ``rows`` whose part from cols[j] to rows[i] is ``blocks[i, j]`` (zero
    where absent).

    One preallocated array, filled by slicing on ``...``, so a 2-d part
    placed in a stack is the same in every block (an identity, say).
    ``rows`` and ``cols`` must not both be empty.
    """
    r = list(accumulate((m.width for m in rows), initial=0))
    c = list(accumulate((m.width for m in cols), initial=0))
    first = (*rows, *cols)[0]
    out = np.zeros((first.blocks, r[-1], c[-1]), np.complex128)
    for (i, j), block in blocks.items():
        out[..., r[i]:r[i + 1], c[j]:c[j + 1]] = block
    return out


@dataclass(frozen=True, eq=False)
class Morphism:
    """A module map, stored as the (blocks, rows, cols) stack ``array`` of
    its blocks (rows and columns outside a block mask are zero).  It may be
    given one (rows, cols) block that every block gets: for a single block,
    the standard-basis matrix, which ``matrix`` returns for any stack.

    The array is a read-only copy, so what it determines is kept with the
    morphism, each computed on first use: ``norm_bound``, and in the
    ``derived`` store the spectral stage (``spectral_stage``).  ``scale``,
    if given, is the magnitude of the data the array was evaluated from
    (cell words, which may cancel), read by zero tests and spectral floors.
    """

    domain: HilbertModule
    codomain: HilbertModule
    array: np.ndarray
    scale: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.domain.context.matches(self.codomain.context):
            raise DataValidationError("domain and codomain live over different contexts")
        want = array_shape(self.codomain, self.domain)
        a = np.asarray(self.array, dtype=np.complex128)
        if a.shape != want:
            if a.shape != want[1:]:
                raise DataValidationError(f"array shape {a.shape} is neither the stack "
                                          f"{want} nor its block {want[1:]}")
            a = np.broadcast_to(a, want)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def context(self) -> TraceContext:
        return self.domain.context

    @property
    def shape(self) -> tuple[int, int]:
        return (self.codomain.ambient_dim, self.domain.ambient_dim)

    @cached_property
    def norm_bound(self) -> float:
        """The scale of every zero test of the map: ``scale`` if given, else
        ``norm_lower_bound`` of the array, computed once."""
        return norm_lower_bound(self.array) if self.scale is None else self.scale

    @cached_property
    def derived(self) -> dict:
        """What is computed from the Gram matrix of the array: the
        ``kernel.Spectrum`` that ``spectral_stage`` keeps per cutoff."""
        return {}

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix in the standard basis (none for a block mask)."""
        if self.domain.block_mask is not None or self.codomain.block_mask is not None:
            raise DataValidationError("a carrier with a block mask has no standard-basis "
                                      "matrix")
        # Block j is the value at the character h -> exp(2 pi i j h / m), so
        # entry (g, h) of the dense matrix is (1/m) sum_j B_j exp(-2 pi i j (g - h) / m),
        # the group index innermost, and one block is that matrix, bit for bit.
        m = self.domain.blocks
        c = np.fft.fft(self.array, axis=0, norm="forward")
        g = np.arange(m)
        return c[(g[:, None] - g[None, :]) % m].transpose(2, 0, 3, 1).reshape(self.shape)

    def adjoint(self) -> "Morphism":
        return Morphism(self.codomain, self.domain, self.array.conj().swapaxes(-1, -2))

    def norm(self) -> float:
        """Spectral norm."""
        if 0 in self.shape:
            return 0.0
        return float(np.linalg.norm(self.array, 2, axis=(-2, -1)).max())

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if not isinstance(other, Morphism):
            return NotImplemented
        if not other.codomain.matches(self.domain):
            raise DataValidationError(
                f"cannot compose: inner modules have ambient dims "
                f"{other.codomain.ambient_dim} vs {self.domain.ambient_dim}")
        return Morphism(other.domain, self.codomain, self.array @ other.array)

    def __add__(self, other: "Morphism") -> "Morphism":
        if not isinstance(other, Morphism):
            return NotImplemented
        return Morphism(self.domain, self.codomain, self.array + other.array)

    def __sub__(self, other: "Morphism") -> "Morphism":
        if not isinstance(other, Morphism):
            return NotImplemented
        return Morphism(self.domain, self.codomain, self.array - other.array)

    def __neg__(self) -> "Morphism":
        """-f, which shares f's ``derived`` store: its Gram matrix is f's bit for bit."""
        neg = Morphism(self.domain, self.codomain, -self.array, self.scale)
        object.__setattr__(neg, "derived", self.derived)
        return neg

    def __mul__(self, scalar) -> "Morphism":
        return Morphism(self.domain, self.codomain, self.array * complex(scalar))

    __rmul__ = __mul__

    @staticmethod
    def identity(module: HilbertModule) -> "Morphism":
        eye = np.broadcast_to(np.eye(module.width, dtype=np.complex128),
                              array_shape(module, module))
        if module.block_mask is not None:
            eye = eye * module.block_mask[:, None, :]
        return Morphism(module, module, eye)

    @staticmethod
    def zero(domain: HilbertModule, codomain: HilbertModule) -> "Morphism":
        """The zero map, of scale 0.0."""
        return Morphism(domain, codomain, np.zeros(array_shape(codomain, domain), np.complex128),
                        0.0)


# ---------------------------------------------------------------------------
# traces, singular values, volumes


def vn_trace(f: Morphism) -> complex:
    """kappa times the matrix trace (defined for endomorphisms)."""
    if f.domain.ambient_dim != f.codomain.ambient_dim:
        raise DataValidationError("trace requires an endomorphism")
    return complex(f.context.kappa * np.trace(f.array, axis1=-2, axis2=-1).sum())


def norm_lower_bound(a: np.ndarray) -> float:
    """The largest column or row 2-norm of ``a`` (of any block of a stack): a
    lower bound on its spectral norm that needs no SVD (0 if ``a`` is empty)."""
    squares = (a * a.conj()).real
    return math.sqrt(max(squares.sum(-2).max(initial=0.0), squares.sum(-1).max(initial=0.0)))


def vanishes(x: np.ndarray, scale: float) -> bool:
    """Whether ``x`` is numerically zero: ||x||_F <= COMPOSITION_TOL x scale,
    the one zero-test of every structural check.

    Callers build ``scale`` from the factors' ``Morphism.norm_bound``.  For
    arrays' own bounds, as ||x||_F >= ||x||_2, this never accepts what
    ||x||_2 <= COMPOSITION_TOL x (spectral scale) rejects, and runs no SVD;
    cell words' magnitude loosens it by at most that over sigma_max.  A
    non-finite norm or scale (overflow) raises ``NumericalError``.
    """
    norm = math.sqrt(np.vdot(x, x).real)
    if not (math.isfinite(norm) and math.isfinite(scale)):
        raise NumericalError("non-finite values in a vanishing test (overflow)")
    return norm <= COMPOSITION_TOL * scale


def spectral_stage(f: Morphism, rank_tol: float | None = None) -> Spectrum:
    """The spectrum of f at a cutoff, computed once and kept in f's
    ``derived`` store: ``gram_spectrum`` of the stored array, sized by its
    larger side and with f's scale, one eigvalsh.  It holds f's singular
    values, rank per block and log-sum; an empty map's is the zero record,
    with no eigensolve.
    """
    data = f.derived
    s = data.get(rank_tol)
    if s is None:
        s = data[rank_tol] = gram_spectrum(f.array, rank_tol, dim=max(f.shape + (1,)),
                                           scale=(f.scale or 0.0) ** 2)
    return s


def _domain_spectrum(f: Morphism, rank_tol: float | None = None
                     ) -> tuple[Spectrum, np.ndarray]:
    """The kept spectrum of f (``spectral_stage``) and the mask of the values
    that belong to coordinates of the domain: all of them, except that a
    block with fewer coordinates than its width (``block_dims``) adds an
    exact zero per absent one, sorted first."""
    s = spectral_stage(f, rank_tol)
    width = f.domain.width
    return s, np.arange(width) >= width - f.domain.block_dims[:, None]


def singular_values(f: Morphism) -> np.ndarray:
    """Singular values in ascending order, read off the kept
    ``spectral_stage`` (one eigvalsh of a Gram matrix).

    Values below the eigensolver's noise floor are exactly zero; the domain
    dimension many values are returned (zeros included).
    """
    s, present = _domain_spectrum(f)
    return np.sort(s.sigma[present])


def default_rank_tol(f: Morphism) -> float:
    """sigma_max x sqrt(max(matrix dims)) x 2^-22 (0 for the zero morphism)."""
    return _domain_spectrum(f)[0].tol


def log_vol(f: Morphism, rank_tol: float | None = None) -> float:
    """kappa * sum of log sigma over singular values above the rank tolerance.

    Zero morphisms (and empty matrices) give 0.0 by the empty-product
    convention; rank truncation keeps the value finite always.
    """
    return f.context.kappa * spectral_stage(f, rank_tol).log_sum


def polar_decompose(f: Morphism, rank_tol: float | None = None) -> tuple[Morphism, Morphism]:
    """Return ``(f_iso, f_wiso)`` with f = f_iso o f_wiso.

    f_wiso = (f* f)^(1/2) is the Hermitian square root on the domain and
    f_iso = f (f* f)^(-1/2) (pseudo-inverted on the numerical support) is a
    partial isometry, isometric on the closure of the range of f_wiso.  Both
    come from one Hermitian eigendecomposition of f*f.
    """
    s = gram_spectrum(f.array, rank_tol, vectors=True, dim=max(f.shape + (1,)),
                      scale=(f.scale or 0.0) ** 2)
    v, sv, keep = s.vectors, s.sigma, s.keep
    vh = v.conj().swapaxes(-1, -2)
    wiso = (v * sv[..., None, :]) @ vh
    wiso = 0.5 * (wiso + wiso.conj().swapaxes(-1, -2))
    inv = np.where(keep, 1.0 / np.where(keep, sv, 1.0), 0.0)
    iso = f.array @ ((v * inv[..., None, :]) @ vh)
    return (Morphism(f.domain, f.codomain, iso),
            Morphism(f.domain, f.domain, wiso))


# ---------------------------------------------------------------------------
# spectral distribution functions


def spectral_distribution(f: Morphism, rank_tol: float | None = None) -> SpectralDistribution:
    """Counting function of f*f eigenvalues, kappa-normalized.

    Singular values at or below the rank tolerance are treated as exactly
    zero (same truncation rule as ``log_vol`` / ``log_det_prime``).
    """
    s, present = _domain_spectrum(f, rank_tol)
    uniq, counts = np.unique(np.where(s.keep, s.sigma, 0.0)[present] ** 2, return_counts=True)
    values = f.context.kappa * np.cumsum(counts)
    total = f.context.kappa * f.domain.ambient_dim
    return SpectralDistribution(uniq, values, float(total))


def stieltjes_log_vol(dist: SpectralDistribution) -> float:
    """(1/2) * integral of log(lambda) dF over (0, infinity), as a jump sum.

    Independent route to ``log_vol``: F jumps at squared singular values, so
    the half-log Stieltjes sum reproduces kappa * sum log sigma.
    """
    lam, mass = dist.masses()
    keep = lam > 0.0
    if not np.any(keep):
        return 0.0
    return float(0.5 * np.sum(np.log(lam[keep]) * mass[keep]))


# ---------------------------------------------------------------------------
# multiplicativity residuals


def _require_invertible(f: Morphism, name: str, rank_tol: float | None) -> None:
    if f.domain.ambient_dim != f.codomain.ambient_dim:
        raise DataValidationError(f"{name} must be square to be invertible, got {f.shape}")
    if f.domain.ambient_dim == 0:
        return
    s, present = _domain_spectrum(f, rank_tol)
    smallest = s.sigma[present].min()
    if smallest <= s.tol:
        raise DataValidationError(
            f"{name} is numerically singular (smallest singular value "
            f"{smallest:.3e} <= tolerance {s.tol:.3e})")


def log_vol_additivity_residual(f: Morphism, g: Morphism,
                                rank_tol: float | None = None) -> float:
    """|log_vol(g o f) - log_vol(g) - log_vol(f)| for invertible f, g."""
    if not f.codomain.matches(g.domain):
        raise DataValidationError("g o f undefined: codomain of f is not the domain of g")
    _require_invertible(f, "f", rank_tol)
    _require_invertible(g, "g", rank_tol)
    return abs(log_vol(g @ f, rank_tol) - log_vol(g, rank_tol) - log_vol(f, rank_tol))


def block_triangular_log_vol_residual(f: Morphism, g: Morphism, h: Morphism,
                                      rank_tol: float | None = None) -> float:
    """Residual of the block rule: vol of [[f, h], [0, g]] vs vol f + vol g.

    f : W1 -> W1', g : W2 -> W2', h : W2 -> W1'; f and g invertible.
    """
    if not h.domain.matches(g.domain) or not h.codomain.matches(f.codomain):
        raise DataValidationError("h must map the domain of g into the codomain of f")
    _require_invertible(f, "f", rank_tol)
    _require_invertible(g, "g", rank_tol)
    dom, cod = [f.domain, g.domain], [f.codomain, g.codomain]
    block = Morphism(direct_sum_modules(dom), direct_sum_modules(cod), assemble_blocks(
        {(0, 0): f.array, (0, 1): h.array, (1, 1): g.array}, cod, dom))
    return abs(log_vol(block, rank_tol) - log_vol(f, rank_tol) - log_vol(g, rank_tol))


# ---------------------------------------------------------------------------
# group-ring matrices and linearity over the algebra


def right_regular(context: TraceContext, element) -> np.ndarray:
    """Permutation matrix of the right action delta_h -> delta_{h g}."""
    g = context.element_index(element)
    n = context.size
    m = np.zeros((n, n), np.complex128)
    for h in range(n):
        m[context.multiply(h, g), h] = 1.0
    return m


def left_regular(context: TraceContext, element) -> np.ndarray:
    """Permutation matrix of the algebra action delta_h -> delta_{g h}."""
    g = context.element_index(element)
    n = context.size
    m = np.zeros((n, n), np.complex128)
    for h in range(n):
        m[context.multiply(g, h), h] = 1.0
    return m


def group_ring_matrix(word: Iterable[tuple[object, complex]], context: TraceContext,
                      fiber_dim: int = 1) -> Morphism:
    """Identity on the fiber (x) sum of coeff x (right-regular block of g).

    ``word`` is an iterable of (element, coefficient) pairs; elements may be
    indices or labels.  The result is an endomorphism of l^2(Gamma)^fiber
    and commutes with the (left-regular) algebra action by construction.
    This is where a word becomes its stack: over ``cyclic_group(m)`` the
    (fiber x fiber) blocks at the m characters, the Laurent polynomial sum
    of coeff t^g at the m-th roots of unity (``kernel.symbol_at_roots``);
    over a table its one dense block, I_fiber (x) sum_g coeff R_g.
    """
    if not context.is_group:
        raise DataValidationError("group-ring matrices need a finite-group context")
    if fiber_dim < 1:
        raise DataValidationError("fiber dimension must be >= 1")
    module = regular_module(context, fiber_dim)
    n = context.size
    pairs = [(context.element_index(element), coeff) for element, coeff in word]
    if context.is_cyclic:
        symbol = symbol_at_roots([[laurent_terms(pairs)]], np.arange(n), n)
        return Morphism(module, module, symbol * np.eye(fiber_dim))
    total = np.zeros((n, n), np.complex128)
    for g, coeff in pairs:
        # delta_h -> delta_{h g}, set in place: no dense blocks
        total[[context.multiply(h, g) for h in range(n)], np.arange(n)] += complex(coeff)
    return Morphism(module, module, np.kron(np.eye(fiber_dim), total))


def _algebra_action(module: HilbertModule, g: int) -> np.ndarray:
    """I_n (x) lambda(g) on l^2(Gamma)^n in the standard basis."""
    ctx = module.context
    if module.block_mask is not None or module.ambient_dim % ctx.size:
        raise DataValidationError("the algebra acts on l^2(Gamma)^n in the standard basis")
    return np.kron(np.eye(module.ambient_dim // ctx.size), left_regular(ctx, g))


def a_linearity_residual(f: Morphism) -> float:
    """Worst commutator norm of f against the blockwise algebra action.

    Both modules must be l^2(Gamma)^n with no block mask, the group index
    innermost in the dense layout (``Morphism.matrix``); over the complex
    field the residual is 0 by convention.  The algebra acts by
    left-regular permutation blocks on each l^2(Gamma) summand, which is the
    action every right-regular generator block commutes with.
    """
    ctx = f.context
    if not ctx.is_group:
        return 0.0
    worst = 0.0
    for g in range(ctx.size):
        act_dom = _algebra_action(f.domain, g)
        act_cod = _algebra_action(f.codomain, g)
        resid = f.matrix @ act_dom - act_cod @ f.matrix
        if resid.size:
            worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst
