"""Short exact sequences of complexes and torsion additivity.

A short exact sequence 0 -> C1 -f-> C2 -g-> C3 -> 0 of cochain complexes
induces a long exact sequence on harmonic (cohomology) spaces; packaging
that long sequence as an acyclic complex turns torsion additivity into a
single residual:

    log T(C2) = log T(C1) + log T(C3) + log T(H)
                - sum_i (-1)^i log T(0 -> C1_i -> C2_i -> C3_i -> 0).

The connecting map is computed by the usual zig-zag (lift along g, apply
the middle differential, pull back along f, project to harmonics), each
lift a minimal-norm least-squares solve.

Exactness of each degree, the degreewise torsions and the acyclicity of
the long sequence read ranks and singular values only (``hodge`` computes
no basis until one is read); harmonic bases are computed for the three
complexes alone, when the long sequence needs them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .complexes import (
    CochainComplex,
    ComplexMorphism,
    HodgeData,
    hodge,
    induced_harmonic_map,
    mapping_cone,
    torsion,
)
from .errors import DataValidationError
from .kernel import Spectrum, gram_spectrum, rank_cutoff
from .vn import Morphism, spectral_stage, vanishes


def _kept_vectors(s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of the kept part of a spectrum; a stack
    of blocks keeps its shape, with dropped vectors zero and their
    eigenvalues 1."""
    if s.vectors.ndim == 2:
        return s.vectors[:, s.keep], s.lam[s.keep]
    return s.vectors * s.keep[..., None, :], np.where(s.keep, s.lam, 1.0)


def _least_squares(mat: np.ndarray, rhs: np.ndarray,
                   rank_tol: float | None) -> np.ndarray:
    """Minimal-norm least-squares solve through the Gram spectrum of mat
    (block by block for a stack)."""
    rows, cols = mat.shape[-2:]
    if rows == 0 or cols == 0:
        return np.zeros(mat.shape[:-2] + (cols, rhs.shape[-1]), np.complex128)
    star = mat.conj().swapaxes(-1, -2)
    if rows >= cols:
        v, lam = _kept_vectors(gram_spectrum(mat, rank_tol, vectors=True))
        return v @ ((v.conj().swapaxes(-1, -2) @ (star @ rhs)) / lam[..., :, None])
    v, lam = _kept_vectors(gram_spectrum(star, rank_tol, vectors=True))
    return star @ (v @ ((v.conj().swapaxes(-1, -2) @ rhs) / lam[..., :, None]))


class ComplexSES:
    """Degreewise short exact sequence 0 -> C1 -f-> C2 -g-> C3 -> 0.

    ``stages`` holds each degree i as the complex 0 -> C1_i -> C2_i -> C3_i
    -> 0 at positions 0, 1, 2.  Validation checks at every degree that g o f
    vanishes and that the stage is acyclic (its harmonic spaces are ker f,
    ker g / im f and coker g); a failure raises DataValidationError naming
    the degree.  ``rank_tol`` is the sequence's one rank cutoff: validation,
    the Hodge data and every function of this module use it.
    """

    def __init__(self, f: ComplexMorphism, g: ComplexMorphism,
                 rank_tol: float | None = None):
        if f.target is not g.source:
            raise DataValidationError("the two morphisms do not share a middle complex")
        self.f = f
        self.g = g
        self.first = f.source
        self.middle = g.source
        self.last = g.target
        self.rank_tol = rank_tol
        if not self.first.context.matches(self.last.context):
            raise DataValidationError("complexes live over different contexts")
        self.stages = tuple(
            CochainComplex([self.first.module(i), self.middle.module(i), self.last.module(i)],
                           [f.component(i), g.component(i)], 0, validate=False)
            for i in self.degrees())
        self.validate()

    def validate(self) -> None:
        for i, stage in zip(self.degrees(), self.stages):
            fm, gm = stage.differentials
            if not vanishes(gm.array @ fm.array, max(fm.norm_bound * gm.norm_bound, 1.0)):
                raise DataValidationError("composition g o f is not zero",
                                          location=f"degree {i}")
            try:
                dims = hodge(stage, self.rank_tol).harmonic_dims
            except DataValidationError as exc:  # rank f + rank g exceed dim C2_i
                raise DataValidationError("sequence is not exact in the middle",
                                          location=f"degree {i}") from exc
            for dim, message in ((dims[0], "first map is not injective"),
                                 (dims[2], "last map is not surjective"),
                                 (dims[1], "sequence is not exact in the middle")):
                if dim:
                    raise DataValidationError(message, location=f"degree {i}")

    @property
    def offset(self) -> int:
        return self.first.offset

    def degrees(self) -> range:
        return self.first.degrees()

    def hodge(self, which: int) -> HodgeData:
        """Hodge data of complex 1, 2 or 3 at the sequence's cutoff."""
        if which not in (1, 2, 3):
            raise DataValidationError("which must be 1, 2 or 3")
        return hodge((self.first, self.middle, self.last)[which - 1], self.rank_tol)


def connecting_hom(ses: ComplexSES, i: int) -> Morphism:
    """Connecting map on harmonic spaces, H^i(C3) -> H^(i+1)(C1).

    The harmonic basis of C3 is lifted along g by a minimal-norm solve, into
    (ker g)^perp; any other lift differs by an element of ker g = im f,
    which the final harmonic projection kills.
    """
    tol = ses.rank_tol
    h1 = ses.hodge(1)
    h3 = ses.hodge(3)
    dom = h3.harmonic_module(i)
    cod = h1.harmonic_module(i + 1)
    if dom.ambient_dim == 0 or cod.ambient_dim == 0:
        return Morphism.zero(dom, cod)
    hbasis = h3.harmonic_basis(i)
    u = _least_squares(ses.g.component(i).array, hbasis, tol)
    v_mid = ses.middle.differential(i).array @ u
    w_back = _least_squares(ses.f.component(i + 1).array, v_mid, tol)
    mat = h1.harmonic_basis(i + 1).conj().swapaxes(-1, -2) @ w_back
    return Morphism(dom, cod, mat)


def long_sequence(ses: ComplexSES) -> CochainComplex:
    """The long sequence on harmonic spaces as one acyclic complex.

    Degree i of the three complexes lands at degrees 3i, 3i+1, 3i+2 (so the
    whole complex has offset 3 * offset); the differentials cycle through
    the induced map of f, the induced map of g and the connecting map.
    """
    h1, h2, h3 = ses.hodge(1), ses.hodge(2), ses.hodge(3)
    modules = []
    diffs: list[Morphism] = []
    top = ses.first.top_degree
    for i in ses.degrees():
        modules.extend([h1.harmonic_module(i), h2.harmonic_module(i),
                        h3.harmonic_module(i)])
        diffs.append(induced_harmonic_map(ses.f, i, ses.rank_tol))
        diffs.append(induced_harmonic_map(ses.g, i, ses.rank_tol))
        if i < top:
            diffs.append(connecting_hom(ses, i))
    # A map that is zero in exact arithmetic comes out of the zig-zag with
    # tiny nonzero entries; relative-to-itself rank decisions would promote
    # that noise to full rank, so snap maps that are negligible against the
    # scale of the whole sequence (or below the sequence's cutoff) to zeros.
    # One eigvalsh per map gives its norm here and its spectrum in the
    # sequence's Hodge stage (a snapped map is zero: it needs none).  An empty
    # map has norm 0.0 and stays as it is; a zero map with entries is
    # re-wrapped all the same, so that its signed zeros become the +0 of
    # ``Morphism.zero``.
    norms = [spectral_stage(d, ses.rank_tol)[0].sigma.max(initial=0.0)
             if d.array.size else 0.0 for d in diffs]
    scale = max(norms + [1.0])
    dim = max(m.ambient_dim for m in modules) if modules else 1
    snap = rank_cutoff(scale, max(dim, 2), ses.rank_tol)
    diffs = [d if n > snap or not d.array.size else Morphism.zero(d.domain, d.codomain)
             for d, n in zip(diffs, norms)]
    seq = CochainComplex(modules, diffs, 3 * ses.offset, validate=False)
    # A cutoff above genuine singular values leaves harmonic spaces that
    # are not kernels; the error then names the cutoff, not the input.
    hint = ("" if ses.rank_tol is None else
            f" at rank cutoff {ses.rank_tol:g} (a cutoff above genuine singular "
            "values truncates the harmonic spaces)")
    # Composites vanish only up to the scale of the zig-zag inputs, so
    # check against the overall data scale rather than per-factor norms
    # (a mathematically zero harmonic map has tiny, noisy norm):
    # ``scale``, the largest norm before the snap.  A composite through
    # an empty map is zero.
    for k, (b, a) in enumerate(zip(diffs, diffs[1:])):
        if a.array.size and b.array.size and not vanishes(a.array @ b.array, scale * scale):
            raise DataValidationError(
                "long sequence maps do not compose to zero" + hint,
                location=f"positions {k} -> {k + 2}")
    if not hodge(seq, ses.rank_tol).is_acyclic():
        raise DataValidationError("long sequence is not exact" + hint)
    return seq


def three_stage_torsion(c: CochainComplex, rank_tol: float | None = None) -> float:
    """log Vol(reduced d_first) - log Vol(reduced d_second) for a 3-term complex.

    Positional signs: the complex is read as if it sat at degrees 0, 1, 2,
    whatever its actual offset, so this agrees with torsion() up to the
    degree-offset sign rule.
    """
    if len(c.modules) != 3:
        raise DataValidationError(
            f"three-stage torsion needs exactly 3 modules, got {len(c.modules)}")
    return (-1) ** c.offset * torsion(c, rank_tol)


class MilnorReport(NamedTuple):
    """Both sides of the torsion additivity identity for one sequence."""

    t1: float
    t2: float
    t3: float
    t_h: float
    degreewise: dict[int, float]
    lhs: float
    rhs: float
    residual: float


def milnor_check(ses: ComplexSES) -> MilnorReport:
    """Evaluate torsion additivity for a short exact sequence of complexes.

    lhs is log T(C2); rhs collects log T(C1) + log T(C3) + log T(H) minus
    the alternating sum of the degreewise (modulewise) sequence torsions,
    all at the sequence's ``rank_tol``.
    """
    tol = ses.rank_tol
    t1 = torsion(ses.first, tol)
    t2 = torsion(ses.middle, tol)
    t3 = torsion(ses.last, tol)
    t_h = torsion(long_sequence(ses), tol)
    degreewise = {i: three_stage_torsion(stage, tol)
                  for i, stage in zip(ses.degrees(), ses.stages)}
    correction = sum((-1) ** i * v for i, v in degreewise.items())
    lhs = t2
    rhs = t1 + t3 + t_h - correction
    return MilnorReport(t1=t1, t2=t2, t3=t3, t_h=t_h, degreewise=degreewise,
                        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


def cone_ses(f: ComplexMorphism) -> ComplexSES:
    """The short exact sequence 0 -> C2 -> cone(f) -> SC1 -> 0."""
    _, include, project = mapping_cone(f)
    return ComplexSES(include, project)
