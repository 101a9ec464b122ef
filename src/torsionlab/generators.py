"""Seeded random instances for tests, demos and randomized CLI suites.

Random complexes are assembled from an explicit orthogonal shape: per degree
a harmonic rank h_i and boundary ranks r_{i-1}, r_i, glued by random unitary
frames, so d o d = 0 holds to rounding error by construction.  Over a group
context every block is linear over the algebra (a sum of coefficient blocks
kron'd with right-regular permutations), so the generated complexes are
honest Hilbert-module complexes, not merely complex-linear ones.

Random short exact sequences are ``complexes.extension``s of two random
complexes coupled by a coboundary twist: the off-diagonal block
d1 u - u d3 satisfies the chain identity automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CochainComplex, ComplexMorphism, extension
from .errors import DataValidationError
from .exact import ComplexSES
from .kernel import gram_spectrum
from .vn import (
    HilbertModule,
    Morphism,
    TraceContext,
    assemble_blocks,
    right_regular,
)


def _random_coeff(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_alinear(rng: np.random.Generator, ctx: TraceContext,
                   rows_rank: int, cols_rank: int) -> np.ndarray:
    """Random algebra-linear matrix between free modules of the given ranks.

    Layout is copy-major with the group index inner, matching the package
    convention; over the complex field this is just a Gaussian matrix.
    """
    if not ctx.is_group:
        return _random_coeff(rng, rows_rank, cols_rank)
    n = ctx.size
    total = np.zeros((rows_rank * n, cols_rank * n), np.complex128)
    for g in range(n):
        total += np.kron(_random_coeff(rng, rows_rank, cols_rank) / np.sqrt(n),
                         right_regular(ctx, g))
    return total


def random_alinear_invertible(rng: np.random.Generator, ctx: TraceContext,
                              rank: int, max_cond: float = 50.0) -> np.ndarray:
    """Invertible algebra-linear endomorphism with a bounded condition number."""
    if rank == 0:
        return np.zeros((0, 0), np.complex128)
    for _ in range(100):
        m = random_alinear(rng, ctx, rank, rank)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] <= max_cond:
            return m
    raise DataValidationError("failed to sample a well-conditioned invertible block")


def random_alinear_unitary(rng: np.random.Generator, ctx: TraceContext,
                           rank: int) -> np.ndarray:
    """Unitary algebra-linear frame: the isometric polar factor of a random map."""
    if rank == 0:
        return np.zeros((0, 0), np.complex128)
    m = random_alinear_invertible(rng, ctx, rank, max_cond=1e6)
    s = gram_spectrum(m[None], vectors=True)
    v = s.vectors[0]
    return m @ ((v / s.sigma[0]) @ v.conj().T)


@dataclass(eq=False)
class ComplexShape:
    """Free ranks that pin down a random complex and frames to rebuild it."""

    harmonic: list[int]
    boundary: list[int]  # boundary[i] = free rank of d_i
    frames: list[np.ndarray]
    blocks: list[np.ndarray]  # invertible reduced blocks of d_i, free-rank level

    def ambient_rank(self, i: int) -> int:
        prev = self.boundary[i - 1] if i >= 1 else 0
        curr = self.boundary[i] if i < len(self.boundary) else 0
        return self.harmonic[i] + prev + curr


def random_shape(rng: np.random.Generator, length: int, max_rank: int = 2,
                 acyclic: bool = False) -> tuple[list[int], list[int]]:
    """Harmonic and boundary free ranks for a complex with ``length`` modules."""
    harmonic = [0 if acyclic else int(rng.integers(0, 2)) for _ in range(length)]
    boundary = [int(rng.integers(0, max_rank + 1)) for _ in range(max(length - 1, 0))]
    # make sure the complex is not completely zero
    if sum(harmonic) + sum(boundary) == 0:
        if length > 1:
            boundary[0] = 1
        else:
            harmonic[0] = 1
    return harmonic, boundary


def _grid(ctx: TraceContext, ranks: tuple[int, ...]) -> list[HilbertModule]:
    """Free modules of the given ranks: the slices of a block grid."""
    return [HilbertModule(ctx, rank * ctx.size) for rank in ranks]


def random_cochain_complex(rng: np.random.Generator, ctx: TraceContext,
                           length: int = 3, max_rank: int = 2, offset: int = 0,
                           acyclic: bool = False,
                           shape: tuple[list[int], list[int]] | None = None,
                           ) -> tuple[CochainComplex, ComplexShape]:
    """Random valid complex together with the shape data that built it.

    Modules at degree i decompose (after the frame) as three slices
    [harmonic | image of d_{i-1} | coimage of d_i] with free ranks
    (h_i, r_{i-1}, r_i); d_i carries the last slice isomorphically onto the
    middle slice one degree up.
    """
    if shape is None:
        harmonic, boundary = random_shape(rng, length, max_rank, acyclic)
    else:
        harmonic, boundary = [list(x) for x in shape]
    unit = ctx.size
    data = ComplexShape(harmonic, boundary, [], [])
    modules = []
    for i in range(length):
        rank = data.ambient_rank(i)
        modules.append(HilbertModule(ctx, rank * unit))
        data.frames.append(random_alinear_unitary(rng, ctx, rank))
    diffs = []
    for i in range(length - 1):
        r = boundary[i]
        block = random_alinear_invertible(rng, ctx, r)
        data.blocks.append(block)
        rows = (harmonic[i + 1], r, boundary[i + 1] if i + 1 < len(boundary) else 0)
        prev = boundary[i - 1] if i >= 1 else 0
        cols = (harmonic[i], prev, r)
        embedded = assemble_blocks({(1, 2): block}, _grid(ctx, rows), _grid(ctx, cols))
        mat = data.frames[i + 1] @ embedded @ data.frames[i].conj().T
        diffs.append(Morphism(modules[i], modules[i + 1], mat))
    return CochainComplex(modules, diffs, offset), data


def random_chain_morphism(rng: np.random.Generator, source: CochainComplex,
                          source_shape: ComplexShape, invertible: bool = True,
                          ) -> tuple[ComplexMorphism, CochainComplex, ComplexShape]:
    """Random chain morphism onto a fresh complex of the same shape.

    In the shape frames the component at degree i is block upper-triangular
    in the grid [harmonic | plus | minus]:

        [[f11, 0,   f13],
         [f21, f22, f23],
         [0,   0,   f33]]

    with f22 forced one degree up by f33 through the reduced differentials;
    that is exactly the general form of a chain morphism, so the chain rule
    holds by construction.  With ``invertible`` the diagonal blocks are
    well-conditioned invertibles and the morphism is a degreewise
    isomorphism.
    """
    ctx = source.context
    target, tshape = random_cochain_complex(
        rng, ctx, len(source.modules), offset=source.offset,
        shape=(source_shape.harmonic, source_shape.boundary))
    unit = ctx.size
    h, r = source_shape.harmonic, source_shape.boundary
    length = len(source.modules)

    def rand(rows, cols):
        return random_alinear(rng, ctx, rows, cols)

    def rand_square(rank):
        return (random_alinear_invertible(rng, ctx, rank) if invertible
                else rand(rank, rank))

    f22: list[np.ndarray] = []
    f33: list[np.ndarray] = []
    for i in range(length):
        prev = r[i - 1] if i >= 1 else 0
        f22.append(np.zeros((prev * unit, prev * unit), np.complex128))
        curr = r[i] if i < len(r) else 0
        f33.append(rand_square(curr))
    for i in range(length - 1):
        # reduced differentials in the shape frames are exactly the blocks
        b_s = source_shape.blocks[i]
        b_t = tshape.blocks[i]
        if r[i]:
            f22[i + 1] = b_t @ f33[i] @ np.linalg.inv(b_s)

    components = []
    for i in range(length):
        prev = r[i - 1] if i >= 1 else 0
        curr = r[i] if i < len(r) else 0
        grid = _grid(ctx, (h[i], prev, curr))
        mat = assemble_blocks({(0, 0): rand_square(h[i]), (1, 1): f22[i], (2, 2): f33[i],
                               (1, 0): rand(prev, h[i]), (0, 2): rand(h[i], curr),
                               (1, 2): rand(prev, curr)}, grid, grid)
        ambient = tshape.frames[i] @ mat @ source_shape.frames[i].conj().T
        components.append(Morphism(source.modules[i], target.modules[i], ambient))
    return ComplexMorphism(source, target, components), target, tshape


def coboundary_twist(rng: np.random.Generator, c1: CochainComplex,
                     c3: CochainComplex) -> list[np.ndarray]:
    """Twist blocks theta_i = d1_i u_i - u_{i+1} d3_i for random u."""
    if c1.offset != c3.offset or len(c1.modules) != len(c3.modules):
        raise DataValidationError("twist needs complexes on one degree window")
    ctx = c1.context
    unit = ctx.size
    u = [random_alinear(rng, ctx, c1.modules[i].ambient_dim // unit,
                        c3.modules[i].ambient_dim // unit)
         for i in range(len(c1.modules))]
    thetas = []
    for i in range(len(c1.modules) - 1):
        theta = c1.differentials[i].matrix @ u[i] - u[i + 1] @ c3.differentials[i].matrix
        thetas.append(theta)
    return thetas


def random_ses(rng: np.random.Generator, ctx: TraceContext, length: int = 3,
               max_rank: int = 2, offset: int = 0, twist: bool = True,
               acyclic: bool = False,
               shapes: tuple[tuple[list[int], list[int]],
                             tuple[list[int], list[int]]] | None = None,
               ) -> ComplexSES:
    """Random short exact sequence of complexes over the given context.

    The middle complex is the extension of two independent random complexes
    coupled by a coboundary twist, so the sequence is exact by construction
    while the middle differential genuinely mixes the factors (unless
    twist=False, which yields the split sequence).  ``shapes`` optionally
    pins the (harmonic, boundary) rank lists of the sub and quotient
    complexes, which is how callers control module sizes exactly.
    """
    sub_shape = quot_shape = None
    if shapes is not None:
        sub_shape, quot_shape = shapes
    c1, _ = random_cochain_complex(rng, ctx, length, max_rank, offset,
                                   acyclic=acyclic, shape=sub_shape)
    c3, _ = random_cochain_complex(rng, ctx, length, max_rank, offset,
                                   acyclic=acyclic, shape=quot_shape)
    thetas = coboundary_twist(rng, c1, c3) if twist else None
    _, f, g = extension(c1, c3, thetas)
    return ComplexSES(f, g)
