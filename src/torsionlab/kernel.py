"""The numerical kernel shared by the trace algebra and the Laurent layer.

* the rank policy and spectra: ``spectrum`` is the one place eigenvalues
  are computed for a rank decision (``gram_spectrum`` for singular values),
  ``noise_floor`` and ``rank_cutoff`` are its floor and cutoff;
* the phase kernel: ``symbol_at_roots`` evaluates a matrix of Laurent
  polynomials (``laurent_terms``) at exact rational angles, for tower
  levels, both limit routes and cell words over Z/m, and ``word_element``
  is the one reading of a cell-word element;
* ``SpectralDistribution``, the counting function of a spectrum.

It needs nothing from the trace algebra (``vn``), so the tower of Laurent
operators runs without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, NumericalError

#: Default rank cutoff on singular values, relative to sigma_max x sqrt(dim).
#: Its square 2^-44 sits 32 times above the eigenvalue noise floor 8 eps =
#: 2^-49 (both scale with dim), so the floor never decides a rank by default.
RANK_TOL_SCALE = 2.0 ** -22

#: ``noise_floor`` in units of dimension x machine epsilon x the top eigenvalue.
NOISE_FLOOR_SLACK = 8.0

#: Machine epsilon of float64, 2^-52.
_EPS = float(np.finfo(float).eps)

#: Factor-of-ten window around the rank tolerance that flags an ambiguous rank call.
RANK_AMBIGUITY_FACTOR = 10.0

#: The largest order n of the angles k/n that ``symbol_at_roots`` evaluates:
#: phases reduced mod n keep their int64 products below n^2 <= 2^62.
MAX_ROOT_ORDER = 1 << 31


# ---------------------------------------------------------------------------
# spectra and the rank policy


class Spectrum(NamedTuple):
    """Eigenvalues of a nonnegative Hermitian matrix with its rank decision.

    ``lam`` are the ascending eigenvalues with everything at or below the
    noise floor set to 0, ``sigma`` their square roots (the singular values
    when the matrix is a Gram matrix f*f), ``tol`` the cutoff on ``sigma``,
    ``keep`` the mask sigma > tol of values that count as nonzero,
    ``vectors`` the matching orthonormal eigenvectors (or None) and
    ``noise_floor`` the floor applied to the eigenvalues (0.0 when no
    eigensolve ran).
    """

    lam: np.ndarray
    sigma: np.ndarray
    tol: float
    keep: np.ndarray
    vectors: np.ndarray | None
    noise_floor: float

    @property
    def ambiguous(self) -> bool:
        """Whether a nonzero sigma lies within RANK_AMBIGUITY_FACTOR of tol."""
        s = self.sigma
        return bool(np.any((s > self.tol / RANK_AMBIGUITY_FACTOR)
                           & (s <= self.tol * RANK_AMBIGUITY_FACTOR) & (s > 0)))


def noise_floor(top: float, dim: int) -> float:
    """Eigenvalues at or below this are roundoff: top x dim x eps x slack.

    A Hermitian eigensolver resolves the eigenvalues of a dim x dim matrix
    whose largest eigenvalue is ``top`` only to about dim x eps x top; a
    value below that must not survive a square root, where it would pass
    for a singular value of about sqrt(eps) x norm.
    """
    return top * dim * _EPS * NOISE_FLOOR_SLACK


def rank_cutoff(top_sigma: float, dim: int, rank_tol: float | None = None) -> float:
    """The cutoff on singular values: ``rank_tol``, or sigma_max x sqrt(dim) x 2^-22."""
    if rank_tol is not None:
        return float(rank_tol)
    return top_sigma * math.sqrt(dim) * RANK_TOL_SCALE


def spectrum(a: np.ndarray, rank_tol: float | None = None, vectors: bool = False,
             dim: int | None = None) -> Spectrum:
    """Spectrum and rank decision of a nonnegative Hermitian matrix.

    The one place where eigenvalues are computed for a rank decision:
    values at or below ``noise_floor`` are exactly zero, and a value counts
    as nonzero when sigma = sqrt(lambda) exceeds ``rank_cutoff``, so
    ``rank_tol`` cuts singular values for Gram matrices and Laplacians
    alike.  ``a`` is a stack (b, n, n), read as the direct sum of its
    blocks, in one batched eigensolve: the top eigenvalue is the largest of
    all blocks, and ``dim`` (default: the size b n of the sum) sizes floor
    and cutoff, so every decision is the one the dense direct sum gets.  A
    zero matrix needs no eigensolve unless eigenvectors are asked
    for.  A clearly negative eigenvalue raises ``DataValidationError``, a
    non-finite entry (an overflow, say in f* f) ``NumericalError``.
    """
    if not np.logical_and.reduce(np.isfinite(a), None):
        raise NumericalError("non-finite matrix entries in the spectral kernel (overflow)")
    dim = math.prod(a.shape[:-1]) if dim is None else dim
    if a.shape[-1] == 0 or not (vectors or np.logical_or.reduce(a, None)):
        empty = np.zeros(a.shape[:-1])
        return Spectrum(empty, empty, rank_cutoff(0.0, dim, rank_tol), empty > 0,
                        np.zeros(a.shape, np.complex128) if vectors else None, 0.0)
    a = 0.5 * (a + a.conj().swapaxes(-1, -2))
    w, v = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    top, bottom = max(max(w[:, -1].tolist()), 0.0), min(w[:, 0].tolist())
    if bottom < -1e-10 * max(top, -bottom):
        raise DataValidationError("operator is not nonnegative")
    floor = noise_floor(top, dim)
    w[~(w > floor)] = 0.0  # w is the solver's own array
    sigma = np.sqrt(w)
    tol = rank_cutoff(math.sqrt(top), dim, rank_tol)
    return Spectrum(w, sigma, tol, sigma > tol, v, floor)


def gram_spectrum(matrix: np.ndarray, rank_tol: float | None = None,
                  vectors: bool = False, dim: int | None = None) -> Spectrum:
    """``spectrum`` of m* m for a stack m: the singular values of m, sized by
    ``dim`` (default: the larger side of a block, times the number of
    blocks)."""
    if dim is None:
        dim = len(matrix) * max(matrix.shape[-2:] + (1,))
    return spectrum(matrix.conj().swapaxes(-1, -2) @ matrix, rank_tol, vectors, dim)


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """Right-continuous step function F(lambda) = kappa * #{sigma^2 <= lambda}.

    ``lambdas`` are the ascending jump locations and ``values`` the cumulative
    values there, so F(lambda) = values[bisect_right(lambdas, lambda) - 1]
    (0 below the first jump).  ``total`` equals the vn-dimension of the domain.
    """

    lambdas: np.ndarray
    values: np.ndarray
    total: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if lam.shape != val.shape or lam.ndim != 1:
            raise DataValidationError("jump locations and values must be equal-length vectors")
        if np.any(np.diff(lam) < 0) or np.any(np.diff(val) < 0):
            raise DataValidationError("spectral distribution must be nondecreasing")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "values", val)

    def value_at(self, lam: float) -> float:
        """F(lam), right-continuous."""
        idx = int(np.searchsorted(self.lambdas, lam, side="right"))
        return 0.0 if idx == 0 else float(self.values[idx - 1])

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Jump locations with their masses."""
        prev = np.concatenate(([0.0], self.values[:-1]))
        return self.lambdas, self.values - prev


# ---------------------------------------------------------------------------
# words, Laurent terms and the phase kernel


def is_integer(value) -> bool:
    """A Python or numpy integer that is not a bool (``json.load`` reads true
    and false as ``bool``, a subclass of ``int``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def word_element(spec) -> tuple[str, int]:
    """The one reading of a cell-word element, as (label, power): a string
    label is its first power, an integer n is ("t", n), and a (label,
    power) pair, tuple or list, is itself."""
    if isinstance(spec, str):
        return spec, 1
    if is_integer(spec):
        return "t", int(spec)
    if (isinstance(spec, (tuple, list)) and len(spec) == 2 and isinstance(spec[0], str)
            and is_integer(spec[1])):
        return spec[0], int(spec[1])
    raise DataValidationError("word element must be a label, an integer power, or "
                              f"[label, power]; got {spec!r}")


def laurent_terms(pairs: Iterable[tuple[int, complex]]) -> tuple[tuple[int, complex], ...]:
    """The canonical terms of the Laurent polynomial sum of c t^e over the
    (e, c) ``pairs``: ascending exponents, equal exponents merged, exact-zero
    coefficients dropped."""
    merged: dict[int, complex] = {}
    for exponent, coeff in pairs:
        e = int(exponent)
        merged[e] = merged.get(e, 0.0 + 0.0j) + complex(coeff)
    return tuple((e, merged[e]) for e in sorted(merged) if merged[e] != 0)


def symbol_at_roots(entries: Sequence[Sequence[tuple[tuple[int, complex], ...]]],
                    k, n: int) -> np.ndarray:
    """A matrix of Laurent polynomials, each given by its ``laurent_terms``,
    evaluated entrywise at z = exp(2 pi i k / n) for integer numerators
    ``k`` (any shape); returns k.shape + (rows, cols).

    The one phase kernel (of tower levels, both limit routes and cell words
    over Z/m): each phase k e is reduced mod n exactly, k (unless it is in
    range) and e mod n first, so the int64 product stays below n^2 <= 2^62.
    The powers are gathered from one table of the n-th roots of unity, or
    computed directly where that table would be larger than the result.
    """
    k = np.asarray(k)
    if not (1 <= n <= MAX_ROOT_ORDER and (k.size == 0 or np.issubdtype(k.dtype, np.integer))):
        raise DataValidationError("angles k/n need integer k and 1 <= n <= 2^31")
    k = k.astype(np.int64, copy=False)
    if k.size and (k.min() < 0 or k.max() >= n):
        k = k % n
    terms: dict[int, list[tuple[int, int, complex]]] = {}
    for i, row in enumerate(entries):
        for j, poly in enumerate(row):
            for e, c in poly:
                terms.setdefault(e, []).append((i, j, c))
    table = None
    if n <= k.size * len(terms):  # built in place: one complex n-array
        table = 2j * np.pi * np.arange(n)
        table /= n
        np.exp(table, out=table)
    out = np.zeros(k.shape + (len(entries), len(entries[0])), np.complex128)
    phase, power = np.empty(k.shape, np.int64), np.empty(k.shape, np.complex128)
    for e in sorted(terms):
        if not e % n:  # every phase is 0, and exp(0) is exactly 1
            power.fill(1.0)
        else:
            np.multiply(k, e % n, out=phase)
            phase %= n
            if table is None:
                np.exp(2j * np.pi * phase / n, out=power)
            else:
                # phase is in range; "clip" spares the copy "raise" makes of out
                np.take(table, phase, out=power, mode="clip")
        # the last entry with this exponent scales the powers in place
        *shared, (i, j, c) = terms[e]
        for i2, j2, c2 in shared:
            out[..., i2, j2] += c2 * power
        out[..., i, j] += np.multiply(c, power, out=power)
    return out
