"""Seeded random instances for tests, demos and randomized CLI suites.

Random complexes are assembled from an explicit orthogonal shape: per degree
a harmonic rank h_i and boundary ranks r_{i-1}, r_i, glued by random unitary
frames, so d o d = 0 holds to rounding error by construction.  Every array
is a (blocks, rows, cols) stack in the layout the context decides
(``vn.HilbertModule``): over ``cyclic_group(m)`` independent blocks at the m
characters, over a table one dense block that is a sum of coefficient
blocks kron'd with right-regular permutations.  Either way every map is
linear over the algebra, so the generated complexes are honest
Hilbert-module complexes, not merely complex-linear ones.

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
from .vn import (
    HilbertModule,
    Morphism,
    TraceContext,
    assemble_blocks,
    right_regular,
)


def _random_coeff(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_alinear(rng: np.random.Generator, ctx: TraceContext,
                   rows_rank: int, cols_rank: int) -> np.ndarray:
    """Random algebra-linear map between free modules of the given ranks, as
    its (blocks, rows, cols) stack.

    Over the complex field one Gaussian block, and over ``cyclic_group(m)``
    m independent ones, one per character: the unitary DFT of iid complex
    Gaussian group coefficients is iid Gaussian again.  Over a table, the
    one dense block of the sum of coefficient blocks kron'd with
    right-regular permutations, copy-major with the group index inner.
    """
    if ctx.table is None:
        return _random_coeff(rng, (ctx.blocks, rows_rank, cols_rank))
    n = ctx.size
    total = np.zeros((1, rows_rank * n, cols_rank * n), np.complex128)
    for g in range(n):
        total += np.kron(_random_coeff(rng, (rows_rank, cols_rank)) / np.sqrt(n),
                         right_regular(ctx, g))
    return total


def random_alinear_invertible(rng: np.random.Generator, ctx: TraceContext,
                              rank: int, max_cond: float = 50.0) -> np.ndarray:
    """Invertible algebra-linear endomorphism with a bounded condition number
    (of the direct sum of its blocks)."""
    for _ in range(100):
        m = random_alinear(rng, ctx, rank, rank)
        sv = np.linalg.svd(m, compute_uv=False)
        if rank == 0 or (sv.min() > 0 and sv.max() / sv.min() <= max_cond):
            return m
    raise DataValidationError("failed to sample a well-conditioned invertible block")


def random_alinear_unitary(rng: np.random.Generator, ctx: TraceContext,
                           rank: int) -> np.ndarray:
    """Unitary algebra-linear frame: the isometric polar factor W V* of a
    random map W S V*, unitary to rounding whatever the map's conditioning
    (over C and the characters, Haar and independent of S)."""
    w, _, vh = np.linalg.svd(random_alinear(rng, ctx, rank, rank))
    return w @ vh


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
    data = ComplexShape(harmonic, boundary, [], [])
    modules = []
    for i in range(length):
        rank = data.ambient_rank(i)
        modules.append(HilbertModule(ctx, rank * ctx.size))
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
        mat = data.frames[i + 1] @ embedded @ data.frames[i].conj().swapaxes(-1, -2)
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
    h, r = source_shape.harmonic, source_shape.boundary
    length = len(source.modules)

    def rand(rows, cols):
        return random_alinear(rng, ctx, rows, cols)

    def rand_square(rank):
        return (random_alinear_invertible(rng, ctx, rank) if invertible
                else rand(rank, rank))

    f33 = [rand_square(r[i] if i < len(r) else 0) for i in range(length)]
    # reduced differentials in the shape frames are exactly the blocks; the
    # plus slice at degree 0 is empty
    f22 = [np.zeros((0, 0))] + [
        b_t @ f @ np.linalg.inv(b_s)
        for b_s, b_t, f in zip(source_shape.blocks, tshape.blocks, f33)]

    components = []
    for i in range(length):
        prev = r[i - 1] if i >= 1 else 0
        curr = r[i] if i < len(r) else 0
        grid = _grid(ctx, (h[i], prev, curr))
        mat = assemble_blocks({(0, 0): rand_square(h[i]), (1, 1): f22[i], (2, 2): f33[i],
                               (1, 0): rand(prev, h[i]), (0, 2): rand(h[i], curr),
                               (1, 2): rand(prev, curr)}, grid, grid)
        ambient = tshape.frames[i] @ mat @ source_shape.frames[i].conj().swapaxes(-1, -2)
        components.append(Morphism(source.modules[i], target.modules[i], ambient))
    return ComplexMorphism(source, target, components), target, tshape


def coboundary_twist(rng: np.random.Generator, c1: CochainComplex,
                     c3: CochainComplex) -> list[np.ndarray]:
    """Twist blocks theta_i = d1_i u_i - u_{i+1} d3_i for random u."""
    if c1.offset != c3.offset or len(c1.modules) != len(c3.modules):
        raise DataValidationError("twist needs complexes on one degree window")
    ctx = c1.context
    u = [random_alinear(rng, ctx, a.ambient_dim // ctx.size, b.ambient_dim // ctx.size)
         for a, b in zip(c1.modules, c3.modules)]
    return [d1.array @ u[i] - u[i + 1] @ d3.array
            for i, (d1, d3) in enumerate(zip(c1.differentials, c3.differentials))]


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
