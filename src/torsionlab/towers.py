"""Finite-quotient approximation of determinants over the integer line.

A translation-invariant operator on l^2(Z)^n is an n x n matrix of Laurent
polynomials in the shift t.  Reducing modulo m turns the shift into the
cyclic shift on Z/m, every entry into an m x m circulant, and the operator
into a morphism over the Z/m trace context whose normalized log-determinant
is exactly computable.  Running these up a divisibility-nested tower of
levels approximates the true L2 log-determinant of the operator, the
circle integral of log det' of its symbol.

That integral is the Mahler measure of the Laurent polynomial det' =
e_r(symbol eigenvalues), so ``jensen_log_det`` computes it from polynomial
roots by Jensen's formula: exactly, through Yun's square-free factors, for
integer coefficients, and with a root-cluster bracket otherwise.
``fourier_log_det``, dyadic midpoint quadrature, is the independent second
route.

Every route, and every cell word over Z/m, evaluates the symbol at exact
rational angles k/n through one phase kernel, ``kernel.symbol_at_roots``
(for a Laurent matrix, ``LaurentMatrix.symbol``).
The level-m specialization is block-circulant, so its spectrum is the
union of the symbol's eigenvalues at the m-th roots of unity: a level is
the left-endpoint rule on the circle, the quadrature the midpoint rule.
A tower evaluates that grid once, at its top level, and reads each level
off it by stride.
``specialize`` builds the dense nm x nm matrix from the Laurent terms, the
reference the tests diagonalize.  ``cw_to_laurent`` turns a cell complex
over the integers into Laurent matrices, reading word elements by
``kernel.word_element``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, NumericalError, QuadratureError
from .kernel import (
    COMPOSITION_TOL,
    MAX_ROOT_ORDER,
    SEMIDEFINITE_TOL,
    is_integer,
    laurent_terms,
    noise_floor,
    symbol_at_roots,
    word_element,
)

DEFAULT_LEVELS = tuple(2 ** k for k in range(1, 13))
QUAD_TOL = 1e-8
MAX_REFINEMENT = 22
#: The deepest midpoint grid, of the quadrature and of ``fourier_counting``:
#: 2^30 points, at angles over 2^31 (MAX_ROOT_ORDER).
MAX_GRID_DEPTH = 30
#: The quadrature budget of ``lueck``'s second route: 2^16 points.
LUECK_MAX_REFINEMENT = 16
INTEGER_DET_CAP = 2.0 ** 26
#: The largest determinant polynomial degree that ``jensen_log_det``
#: factors exactly (about 0.1 s; the cost grows like degree^4).
EXACT_DEGREE_CAP = 128
#: Symbol entries (angles x n^2) that a streamed grid evaluates at once:
#: chunks of 2^14 angles for a scalar symbol, 256 for an 8 x 8 one.  Much
#: smaller chunks make each numpy call too short to pay for itself.
_CHUNK_ENTRIES = 1 << 14


# ---------------------------------------------------------------------------
# Laurent polynomials and matrices


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial sum of coeff * t^exponent.

    Terms are kept canonical: ascending exponents, equal exponents merged,
    exact-zero coefficients dropped — so equal polynomials compare equal.
    """

    terms: tuple[tuple[int, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", laurent_terms(self.terms))

    @classmethod
    def constant(cls, value: complex) -> "LaurentPoly":
        return cls(((0, complex(value)),))

    @classmethod
    def shift(cls, exponent: int = 1, coeff: complex = 1.0) -> "LaurentPoly":
        return cls(((int(exponent), complex(coeff)),))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(self.terms + other.terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(tuple((e1 + e2, c1 * c2)
                                 for e1, c1 in self.terms
                                 for e2, c2 in other.terms))

    def scale(self, value: complex) -> "LaurentPoly":
        return LaurentPoly(tuple((e, complex(value) * c) for e, c in self.terms))

    def adjoint(self) -> "LaurentPoly":
        return LaurentPoly(tuple((-e, np.conj(c)) for e, c in self.terms))

    def coeff_abs_sum(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        """Human form, e.g. "2 - t - t^-1".

        Real-coefficient output parses back through parse_laurent; terms
        with genuinely complex coefficients are rendered parenthesized for
        reading only.
        """
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.terms:
            if c.imag == 0:
                sign = "-" if c.real < 0 else "+"
                mag = abs(c.real)
                coeff = "" if mag == 1 and e != 0 else format(mag, "g")
            else:
                sign = "+"
                coeff = str(complex(c))
            if e == 0:
                body = coeff or "1"
            else:
                power = "t" if e == 1 else f"t^{e}"
                body = f"{coeff}*{power}" if coeff else power
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text


def parse_laurent(text: str) -> LaurentPoly:
    """Parse expressions like "2 - t - t^-1" or "3*t^2 + 1.5".

    Terms are separated by top-level + and -; each term is an optional
    complex coefficient, an optional '*', and an optional t-power.
    """
    cleaned = text.replace("**", "^").replace(" ", "")
    if not cleaned:
        raise DataValidationError("empty operator expression")
    pieces: list[tuple[int, complex]] = []
    token = ""
    tokens: list[str] = []
    for i, ch in enumerate(cleaned):
        if ch in "+-" and i > 0 and cleaned[i - 1] not in "+-*^eEjJ(":
            tokens.append(token)
            token = ch
        else:
            token += ch
    tokens.append(token)
    for raw in tokens:
        term = raw.lstrip("+")
        sign = 1.0
        while term.startswith("-"):
            sign = -sign
            term = term[1:]
        if not term:
            raise DataValidationError(f"cannot parse term {raw!r}")
        try:
            if "t" in term:
                head, _, tail = term.partition("t")
                head = head.rstrip("*")
                coeff = complex(head) if head else 1.0 + 0.0j
                exponent = int(tail.lstrip("^")) if tail else 1
            else:
                coeff = complex(term)
                exponent = 0
        except ValueError:
            raise DataValidationError(f"cannot parse term {raw!r}") from None
        if not np.isfinite(coeff):
            raise DataValidationError(f"term {raw!r} has a non-finite coefficient")
        pieces.append((exponent, sign * coeff))
    return LaurentPoly(tuple(pieces))


@dataclass(frozen=True)
class LaurentMatrix:
    """Rectangular matrix of Laurent polynomials."""

    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise DataValidationError("a Laurent matrix needs at least one entry")
        width = len(self.rows[0])
        if any(len(row) != width for row in self.rows):
            raise DataValidationError("ragged Laurent matrix")

    @classmethod
    def from_scalar(cls, poly: LaurentPoly) -> "LaurentMatrix":
        return cls(((poly,),))

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[LaurentPoly]]) -> "LaurentMatrix":
        return cls(tuple(tuple(row) for row in entries))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def adjoint(self) -> "LaurentMatrix":
        n, m = self.shape
        return LaurentMatrix(tuple(tuple(self.rows[i][j].adjoint()
                                         for i in range(n)) for j in range(m)))

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.shape != other.shape:
            raise DataValidationError("shape mismatch in Laurent matrix sum")
        n, m = self.shape
        return LaurentMatrix(tuple(tuple(self.rows[i][j] + other.rows[i][j]
                                         for j in range(m)) for i in range(n)))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise DataValidationError("shape mismatch in Laurent matrix product")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = LaurentPoly()
                for s in range(k):
                    acc = acc + self.rows[i][s] * other.rows[s][j]
                row.append(acc)
            out.append(tuple(row))
        return LaurentMatrix(tuple(out))

    def selfadjointness_defect(self) -> float:
        n, m = self.shape
        if n != m:
            return float("inf")
        worst = 0.0
        star = self.adjoint()
        for i in range(n):
            for j in range(m):
                diff = self.rows[i][j] - star.rows[i][j]
                worst = max(worst, diff.coeff_abs_sum())
        return worst

    def norm_bound(self) -> float:
        """Row/column sum of coefficient l1 norms: a uniform bound on the
        operator norm of the symbol and of every finite specialization."""
        n, m = self.shape
        sums = [[self.rows[i][j].coeff_abs_sum() for j in range(m)]
                for i in range(n)]
        row = max(sum(r) for r in sums)
        col = max(sum(sums[i][j] for i in range(n)) for j in range(m))
        return float(max(row, col, 1e-300))

    def symbol(self, k, n: int) -> np.ndarray:
        """Evaluate entrywise at z = exp(2 pi i k / n) for integer numerators
        ``k`` (any shape); returns k.shape + (rows, cols), from the one phase
        kernel ``kernel.symbol_at_roots``."""
        return symbol_at_roots([[p.terms for p in row] for row in self.rows], k, n)


def _as_laurent_matrix(op) -> LaurentMatrix:
    if isinstance(op, LaurentMatrix):
        return op
    if isinstance(op, LaurentPoly):
        return LaurentMatrix.from_scalar(op)
    raise DataValidationError("expected a Laurent polynomial or matrix")


def _checked(op) -> LaurentMatrix:
    """The operator as a Laurent matrix, which must be selfadjoint."""
    mat = _as_laurent_matrix(op)
    if mat.selfadjointness_defect() > COMPOSITION_TOL * mat.norm_bound():
        raise DataValidationError("operator is not selfadjoint")
    return mat


# ---------------------------------------------------------------------------
# finite quotients


def specialize(op, m: int) -> np.ndarray:
    """Reduce mod m: the dense (nm) x (km) complex matrix in which the shift
    is the cyclic shift on l^2(Z/m), and each entry the group-ring matrix of
    its terms (the group index inner).  The levels never build it; it is the
    reference the tests diagonalize."""
    mat = _as_laurent_matrix(op)
    if m < 1:
        raise DataValidationError("quotient order must be >= 1")
    n, k = mat.shape
    out = np.zeros((n * m, k * m), np.complex128)
    h = np.arange(m)
    for i, row in enumerate(mat.rows):
        for j, poly in enumerate(row):
            for e, c in poly.terms:
                out[i * m + (h + e % m) % m, j * m + h] += c
    return out


def _level_eigenvalues(op: LaurentMatrix, m: int, grid: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of the level-m specialization, clamped at the
    noise floor.

    The level-m specialization is block-circulant, so its spectrum is the
    union of the symbol's eigenvalues at the m-th roots of unity: every
    (M/m)-th row of ``grid``, the ``_grid_eigenvalues`` of a multiple M of
    m, by default of m itself (O(m n^3) time and O(m n) memory).

    The spectrum provably sits in [0, norm_bound]; eigensolver roundoff a
    few ulps past the bound is clamped back so counting functions evaluated
    exactly at the bound see the whole spectrum.  Values at or below the
    ``noise_floor`` of the n x n symbols count as zero.
    """
    if grid is None:
        grid = _grid_eigenvalues(op, m)
    scale = op.norm_bound()
    w = np.sort(grid[::len(grid) // m], axis=None)  # a copy: the grid stays
    if float(w[0]) < -SEMIDEFINITE_TOL * scale:
        raise DataValidationError(
            f"operator is not nonnegative (eigenvalue {float(w[0]):.3e} at level {m})")
    if float(w[-1]) > scale * (1 + 1e-10):
        raise NumericalError(
            f"level {m} exceeds the uniform spectral bound {scale!r}")
    np.minimum(w, scale, out=w)
    w[~(w > noise_floor(scale, op.shape[0]))] = 0.0
    return w


class TowerLevel(NamedTuple):
    """One finite quotient: the normalized log-determinant (1/m) sum of log
    of the level-m specialization's nonzero eigenvalues, and the bracket
    ``smallest_positive`` / ``largest`` of its nonzero spectrum.  The
    eigenvalues are not kept: ``_level_eigenvalues`` gives them again."""

    m: int
    log_det: float
    smallest_positive: float
    largest: float


def _make_level(op: LaurentMatrix, m: int, grid: np.ndarray) -> TowerLevel:
    """Level m read off ``grid`` (see ``_level_eigenvalues``): its log-sum
    and bracket.

    The value is the one sum of the logs of the sorted nonzero eigenvalues.
    Summing the counting function by parts is Abel summation of the same
    eigenvalues in another order: it agrees to rounding whenever the sum
    does, and so checks nothing.  The independent checks of a level are
    the dense ``specialize`` reference, the closed-form levels, and the
    limits of ``jensen_log_det`` and ``fourier_log_det``.
    """
    w = _level_eigenvalues(op, m, grid)
    positive = w[w > 0.0]
    smallest = float(positive[0]) if positive.size else 0.0
    log_det = float(np.sum(np.log(positive, out=positive)) / m)
    return TowerLevel(m, log_det, smallest, float(w[-1]))


def level_log_det(op, m: int) -> float:
    """Normalized log det' of the level-m quotient, from the symbol at the
    m-th roots of unity: the value ``approx_tower`` gives level m."""
    mat = _checked(op)
    (m,) = tower_levels((m,))
    return _make_level(mat, m, _grid_eigenvalues(mat, m)).log_det


class ApproxTower(NamedTuple):
    """A nested family of finite quotients of one selfadjoint operator."""

    operator: LaurentMatrix
    levels: tuple[TowerLevel, ...]
    norm_bound: float

    def level_values(self) -> list[tuple[int, float]]:
        return [(level.m, level.log_det) for level in self.levels]


def approx_tower(op, levels: Iterable[int] = DEFAULT_LEVELS) -> ApproxTower:
    """Build the tower, validating selfadjointness and level nesting.

    The symbol is evaluated once, at the top level M's roots of unity, and
    every level m is read off that grid at stride M/m: O(M n^3) time for
    the whole tower and the memory of one grid, M n eigenvalues.  The
    angle (j M/m)/M rounds as j/m does when M/m is a power of two, so there
    each level is bit for bit the one ``level_log_det`` computes on its own
    grid; other ratios may differ in the last bits.
    """
    mat = _checked(op)
    ms = tower_levels(levels)
    grid = _grid_eigenvalues(mat, ms[-1])
    built = tuple(_make_level(mat, m, grid) for m in ms)
    return ApproxTower(mat, built, mat.norm_bound())


def tower_levels(levels: Iterable[int]) -> tuple[int, ...]:
    """The levels of a tower, checked before any is built: at least one,
    each an integer (a numpy integer too, but no bool), positive and at
    most the phase kernel's largest order 2^31, and divisibility-nested."""
    ms = tuple(levels)
    if not ms:
        raise DataValidationError("a tower needs at least one level")
    for m in ms:
        if not is_integer(m):
            raise DataValidationError(f"levels must be integers, got {m!r}")
    ms = tuple(int(m) for m in ms)
    if any(m < 1 for m in ms):
        raise DataValidationError("levels must be positive")
    for m in ms:
        if m > MAX_ROOT_ORDER:
            raise DataValidationError(
                f"level {m} is above 2^31, the largest order the phase kernel evaluates")
    for a, b in zip(ms, ms[1:]):
        if b % a != 0:
            raise DataValidationError(
                f"levels must be divisibility-nested ({a} does not divide {b})")
    return ms


# ---------------------------------------------------------------------------
# circle-integral oracles


def _symbol_eigenvalues(op: LaurentMatrix, k: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalues of the symbol at z = exp(2 pi i k / n), shape k.shape + (rows,).

    The one evaluation path for tower levels and the circle oracles.  The
    operator has passed ``_checked``: its coefficients are selfadjoint up
    to COMPOSITION_TOL * norm_bound, which bounds the symbol's Hermitian
    defect at every point of the circle.  A scalar symbol is its own
    eigenvalue, so only matrix symbols reach the eigensolver.
    """
    sym = op.symbol(k, n)
    if op.shape[0] == 1:
        return sym[..., 0].real
    return np.linalg.eigvalsh(0.5 * (sym + np.conj(np.swapaxes(sym, -1, -2))))


def _grid_chunks(op: LaurentMatrix, points: int, midpoints: bool = False):
    """The symbol eigenvalues on a grid of ``points`` angles, chunk by chunk.

    The grid is the points-th roots of unity j / points, or with
    ``midpoints`` the angles (2j + 1) / (2 points).  A chunk is a power of
    two of at least 16 consecutive angles (the last may be shorter) holding
    at most _CHUNK_ENTRIES symbol entries, so a grid of any size is
    evaluated in bounded memory.  Each chunk is the ``_symbol_eigenvalues``
    of its angles, the values a whole-grid evaluation gives.
    """
    size = max(16, _CHUNK_ENTRIES >> 2 * (op.shape[0] - 1).bit_length())
    for start in range(0, points, size):
        j = np.arange(start, min(start + size, points))
        if midpoints:
            yield _symbol_eigenvalues(op, 2 * j + 1, 2 * points)
        else:
            yield _symbol_eigenvalues(op, j, points)


def _grid_eigenvalues(op: LaurentMatrix, points: int) -> np.ndarray:
    """The symbol eigenvalues at the points-th roots of unity, shape
    (points, n), filled chunk by chunk: no symbol stack of the whole grid."""
    w = np.empty((points, op.shape[0]))
    start = 0
    for chunk in _grid_chunks(op, points):
        w[start:start + len(chunk)] = chunk
        start += len(chunk)
    return w


def _pairwise_sum(sums: list):
    """The sum of chunk sums by halves.

    numpy sums a contiguous array pairwise: it splits it in halves (rounded
    down to a multiple of 8) down to blocks of at most 128.  A power-of-two
    count of chunks, each of more than 64 elements and a multiple of 8, is
    split exactly at chunk boundaries, so this equals one ``sum`` of the
    whole grid, bit for bit.
    """
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return _pairwise_sum(sums[:half]) + _pairwise_sum(sums[half:])


def _require_semidefinite(low: float, mat: LaurentMatrix) -> None:
    """The smallest symbol eigenvalue ``low`` of a grid may dip below zero
    by roundoff only."""
    if low < -SEMIDEFINITE_TOL * mat.norm_bound():
        raise DataValidationError(
            "symbol is not positive-semidefinite on the circle "
            f"(eigenvalue {low:.3e})")


def _require_integer(name: str, value, low: int, high: int) -> None:
    """Refuse an integer argument outside low..high, naming it."""
    if not (is_integer(value) and low <= value <= high):
        raise DataValidationError(
            f"{name} must be an integer from {low} to {high}, got {value!r}")


def fourier_log_det(op, tol: float = QUAD_TOL,
                    max_refinement: int = MAX_REFINEMENT) -> float:
    """Mean over the circle of the log-product of positive symbol eigenvalues.

    Composite midpoint quadrature on dyadic grids with one Richardson
    extrapolation step; the returned value is the first extrapolated
    estimate whose successive difference is below ``tol``.  Isolated symbol
    zeros give integrable log singularities: plain midpoint converges like
    1/K there, and the extrapolation removes that leading term.  If the
    extrapolated estimates have not settled after ``max_refinement``
    doublings the computation fails with the last bracket.  This is the
    independent second route to the value ``jensen_log_det`` computes from
    polynomial roots.
    """
    return fourier_quadrature(op, tol, max_refinement)[0]


def fourier_quadrature(op, tol: float = QUAD_TOL,
                       max_refinement: int = MAX_REFINEMENT
                       ) -> tuple[float, int, float]:
    """``fourier_log_det`` with its depth (log2 of the finest grid) and its
    last increment; raises QuadratureError with the last bracket.

    Each grid is streamed: one log-sum per chunk, combined by halves, so
    memory does not grow with the depth and every estimate is the one a
    single sum over the whole grid gives.  The depth runs from 4 to
    ``max_refinement``, at least 6 (the first extrapolated increment) and
    at most 30 (midpoints over 2^31, the phase kernel's largest order).
    """
    _require_integer("max_refinement", max_refinement, 6, MAX_GRID_DEPTH)
    mat = _checked(op)
    floor = noise_floor(mat.norm_bound(), mat.shape[0])

    def estimate(k: int) -> float:
        points = 1 << k
        sums, low = [], np.inf
        for w in _grid_chunks(mat, points, midpoints=True):
            low = np.minimum(low, w.min())
            logs = np.where(w > floor, np.log(np.where(w > floor, w, 1.0)), 0.0)
            sums.append(logs.sum())
        _require_semidefinite(float(low), mat)
        return float(_pairwise_sum(sums) / points)

    previous_est = estimate(4)
    current_est = estimate(5)
    older_ext = previous_ext = 2.0 * current_est - previous_est
    for k in range(6, max_refinement + 1):
        previous_est, current_est = current_est, estimate(k)
        extrapolated = 2.0 * current_est - previous_est
        increment = abs(extrapolated - previous_ext)
        if increment < tol:
            return extrapolated, k, increment
        older_ext, previous_ext = previous_ext, extrapolated
    raise QuadratureError("symbol integral did not converge",
                          bracket=(older_ext, previous_ext))


# ---------------------------------------------------------------------------
# the circle integral by Jensen's formula


#: Generic angles for the rank of the symbol, numerators over 2^31 - 1:
#: the first multiples of the golden section, far from every root of unity
#: of small order.
_GENERIC_NUMERATORS = np.array([1327217884, 506952121, 1834170005])
_GENERIC_ORDER = 2 ** 31 - 1


class JensenLogDet(NamedTuple):
    """The circle integral of log det' of the symbol, from polynomial roots.

    det' of the n x n symbol is e_r of its eigenvalues, r the generic rank:
    a Laurent polynomial p of degree at most r D (D the largest absolute
    exponent).  ``degree`` is that of z^K p(z), K its top exponent;
    ``near_circle`` counts (with multiplicity) the roots whose error disc
    meets the unit circle.  ``integer`` says the coefficients of p were
    resolved to integers and factored exactly; otherwise ``bracket`` holds
    the range the value is known to, from the root-cluster errors.
    """

    value: float
    rank: int
    degree: int
    near_circle: int
    integer: bool
    bracket: tuple[float, float] | None = None


def jensen_log_det(op) -> JensenLogDet:
    """Mean over the circle of log det' of the symbol, by Jensen's formula.

    For p = sum c_k t^k, nonnegative on the circle, the mean of log p is
    log|c_K| + sum over the roots rho of z^K p(z) of log max(1, |rho|) (the
    Mahler measure of p).  The coefficients of p = e_r(eigenvalues) come
    from an FFT of its values at N >= 4 r D + 2 roots of unity; the band
    between r D and N - r D, zero in exact arithmetic, measures their noise.

    With real integer operator coefficients the coefficients of p are
    integers.  When the rounding is resolved and the degree is at most
    EXACT_DEGREE_CAP, they are rounded and p is split into square-free
    factors by Yun's algorithm in exact integer arithmetic, so repeated
    roots (every zero on the circle is one) are simple roots of a factor,
    weighted by their multiplicity.  Otherwise the roots of p are used as
    computed, and roots in clusters are bracketed.
    """
    mat = _checked(op)
    n = mat.shape[0]
    scale = mat.norm_bound()
    floor = noise_floor(scale, n)
    rank = int(np.max(np.sum(_symbol_eigenvalues(
        mat, _GENERIC_NUMERATORS, _GENERIC_ORDER) > floor, axis=-1)))
    if rank == 0:
        return JensenLogDet(0.0, 0, 0, 0, True)
    top = rank * max(abs(e) for row in mat.rows for poly in row
                     for e, _ in poly.terms)
    points = max(8, 1 << int(np.ceil(np.log2(4 * top + 2))))
    w = _grid_eigenvalues(mat, points)
    _require_semidefinite(float(w.min()), mat)
    values = _elementary_symmetric(w, rank)
    # evaluation error of e_r: r relative eigenvalue errors of n eps each,
    # on at most C(n, r) products of size scale^r, plus the FFT's roundoff
    with np.errstate(over="ignore"):
        size = comb(n, rank) * np.float64(scale) ** rank
    if not (np.isfinite(size) and np.all(np.isfinite(values))):
        raise NumericalError(
            "the determinant polynomial of the symbol leaves the float range")
    spectrum = np.fft.fft(values) / points
    coeffs = spectrum[np.arange(top, -top - 1, -1) % points]  # c_K .. c_-K
    eps = np.finfo(float).eps
    noise = max(float(np.max(np.abs(spectrum[top + 1:points - top]))),
                eps * size * (16.0 * n * rank + 8.0 * np.log2(points)))
    integral = np.rint(coeffs.real)
    residual = float(np.max(np.abs(coeffs - integral)))
    if (_non_integer_entry(mat) is None and max(noise, residual) < 0.125
            and 2 * top <= EXACT_DEGREE_CAP):
        return _integer_jensen(integral, rank)
    keep = np.flatnonzero(np.abs(coeffs) > 4.0 * noise)
    if keep.size == 0:
        raise NumericalError(
            "the determinant polynomial of the symbol is below its noise")
    trimmed = coeffs[keep[0]:keep[-1] + 1]
    value, bracket, near = _jensen_sum(trimmed, 4.0 * noise * trimmed.size)
    return JensenLogDet(value, rank, trimmed.size - 1, near, False, bracket)


def _elementary_symmetric(w: np.ndarray, r: int) -> np.ndarray:
    """e_r of the last axis of ``w``, by the product recurrence."""
    e = np.zeros(w.shape[:-1] + (r + 1,))
    e[..., 0] = 1.0
    for j in range(w.shape[-1]):
        e[..., 1:] = e[..., 1:] + w[..., j:j + 1] * e[..., :-1]
    return e[..., r]


def _integer_jensen(coeffs: np.ndarray, rank: int) -> JensenLogDet:
    """Jensen's formula on integer coefficients (highest power first),
    through Yun's square-free factors."""
    present = np.flatnonzero(coeffs)  # not empty: p is nonzero at a generic angle
    ints = [int(c) for c in coeffs[present[0]:present[-1] + 1]]
    degree = len(ints) - 1
    value = float(np.log(abs(ints[0])))
    near = 0
    for multiplicity, factor in _square_free_factors(ints[::-1]):
        monic = np.array([c / factor[-1] for c in factor[::-1]])
        part, _, hits = _jensen_sum(monic, 0.0)
        if hits and multiplicity % 2:
            raise DataValidationError(
                "symbol is not positive-semidefinite on the circle "
                f"(its determinant has a zero of odd order {multiplicity} there)")
        value += multiplicity * part
        near += multiplicity * hits
    return JensenLogDet(value, rank, degree, near, True)


def _square_free_factors(coeffs: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's algorithm over the integers: (i, a_i) with p = c prod a_i^i,
    each a_i primitive, with positive leading coefficient, and square-free.
    Polynomials are coefficient lists, lowest power first.

    The gcds run on primitive pseudo-remainders, and every other division
    is exact over the integers (Gauss's lemma).  Rational arithmetic would
    reduce a fraction at every operation: at degree 40 that is about a
    hundred times slower.
    """
    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def primitive(p):
        g = reduce(gcd, p)
        return [c // g for c in p] if p[-1] > 0 else [-c // g for c in p]

    def derivative(p):
        return trim([k * c for k, c in enumerate(p)][1:])

    def subtract(p, q):
        size = max(len(p), len(q))
        return trim([(p[k] if k < len(p) else 0) - (q[k] if k < len(q) else 0)
                     for k in range(size)])

    def remainder(p, q):  # a primitive multiple of the remainder of p by q
        while p and len(p) >= len(q):
            shift, lead = len(p) - len(q), p[-1]
            p = [c * q[-1] for c in p]
            for j, c in enumerate(q):
                p[shift + j] -= lead * c
            p = trim(p)
            p = primitive(p) if p else p
        return p

    def common(p, q):
        while q:
            p, q = q, remainder(p, q)
        return primitive(p)

    def divide(p, q):  # exact: q is primitive and divides p
        p, out = list(p), [0] * max(len(p) - len(q) + 1, 0)
        for k in range(len(out) - 1, -1, -1):
            out[k] = p[k + len(q) - 1] // q[-1]
            for j, c in enumerate(q):
                p[k + j] -= out[k] * c
        return trim(out)

    f = trim([int(c) for c in coeffs])
    a = common(f, derivative(f))
    b = divide(f, a)
    d = subtract(divide(derivative(f), a), derivative(b))
    factors, i = [], 1
    while len(b) > 1:
        a = common(b, d)
        b, c = divide(b, a), divide(d, a)
        if len(a) > 1:
            factors.append((i, a))
        d = subtract(c, derivative(b))
        i += 1
    return factors


def _polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial, highest power first: the one root finder
    (an eigensolve of the companion matrix)."""
    return np.roots(coeffs)


def _jensen_sum(coeffs: np.ndarray, noise: float
                ) -> tuple[float, tuple[float, float], int]:
    """log|lead| + sum log max(1, |root|), its bracket, and the count of
    roots whose error disc meets the unit circle.

    ``noise`` bounds the sum of moduli of the coefficient errors, so it
    bounds the polynomial's error on the circle; noise / size bounds the
    error of the leading coefficient, which widens the bracket.  The root
    finder's own backward error, size x eps x the coefficients' sum of
    moduli, is added.
    A cluster of k computed roots around a k-fold root zeta lies within
    about (noise / |lead prod_{others} (zeta - rho)|)^(1/k) of it, while its
    centroid is far more accurate than its members.  Clusters are merged
    until their error discs are disjoint; each contributes k log max(1,
    |centroid|) to the value and, for a disc of radius R, between k log
    max(1, |zeta| - R) and k log max(1, |zeta| + R) to the bracket.
    """
    roots = _polynomial_roots(coeffs)
    lead = abs(coeffs[0])
    low, high = np.log(lead - noise / coeffs.size), np.log(lead + noise / coeffs.size)
    noise += np.finfo(float).eps * coeffs.size * float(np.sum(np.abs(coeffs)))
    clusters = [[j] for j in range(roots.size)]
    discs = [_cluster_disc(roots, members, lead, noise) for members in clusters]
    centers = np.array([center for center, _ in discs])
    radii = np.array([radius for _, radius in discs])
    # gap[a, b] (a < b) is the distance of two overlapping discs, inf for
    # discs apart or merged away; a merge recomputes one row and column
    distance = np.abs(centers[:, None] - centers[None, :])
    gap = np.where(np.triu(distance <= radii[:, None] + radii[None, :], 1), distance, np.inf)
    alive = np.ones(roots.size, bool)
    while gap.size:
        # the closest overlapping pair first, the first in row order on a
        # tie: a coincident pair has gap 0, an infinite radius, and overlaps
        # everything
        a, b = np.unravel_index(np.argmin(gap), gap.shape)
        if gap[a, b] == np.inf:
            break
        # a disc depends on its own members only: the merged one is new
        clusters[a] += clusters[b]
        clusters[b], alive[b] = [], False
        gap[b], gap[:, b] = np.inf, np.inf
        discs[a] = _cluster_disc(roots, clusters[a], lead, noise)
        centers[a], radii[a] = discs[a]
        row = np.abs(centers[a] - centers[a + 1:])
        gap[a, a + 1:] = np.where(alive[a + 1:] & (row <= radii[a] + radii[a + 1:]), row, np.inf)
        col = np.abs(centers[:a] - centers[a])
        gap[:a, a] = np.where(alive[:a] & (col <= radii[:a] + radii[a]), col, np.inf)
    value = float(np.log(lead))
    near = 0
    for members, (center, radius) in zip(clusters, discs):
        if not members:
            continue
        k = len(members)
        value += k * np.log(max(1.0, abs(center)))
        low += k * np.log(max(1.0, abs(center) - radius))
        high += k * np.log(max(1.0, abs(center) + radius))
        if abs(abs(center) - 1.0) <= radius:
            near += k
    return float(value), (float(low), float(high)), near


def _cluster_disc(roots: np.ndarray, members: list[int], lead: float,
                  noise: float) -> tuple[complex, float]:
    """Center and error radius (four times the first-order estimate) of a
    cluster of roots."""
    center = complex(np.mean(roots[members]))
    others = np.delete(roots, members)
    gap = lead * float(np.prod(np.abs(center - others)))
    k = len(members)
    return center, 4.0 * (noise / gap) ** (1.0 / k) if gap > 0 else np.inf


def fourier_counting(op, lam: float, points: int = 1 << 15) -> float:
    """Oracle spectral distribution: measure of the set of circle angles
    where the symbol has an eigenvalue at most lam, counted with
    multiplicity (vn-normalized, totals the matrix size), on a grid of
    ``points`` midpoints, 1 to 2^30, counted chunk by chunk."""
    _require_integer("points", points, 1, 1 << MAX_GRID_DEPTH)
    mat = _checked(op)
    count = sum(int(np.sum(w <= lam)) for w in _grid_chunks(mat, points, midpoints=True))
    return float(count / points)


# ---------------------------------------------------------------------------
# limit diagnostics


def limit_distribution_check(tower: ApproxTower, lam: float,
                             epsilons: Sequence[float]) -> dict:
    """Tabulate level counting functions against the circle oracle.

    For each epsilon the report row holds every level's N_m(lam + epsilon)
    and their empirical liminf (minimum over the deeper half of the tower).
    The oracle entry is the symbol-integral value of N(lam).  Anomalies
    flag any level whose counting value fails to be monotone in epsilon.
    """
    eps = sorted(float(e) for e in epsilons)
    if any(e < 0 for e in eps):
        raise DataValidationError("epsilon offsets must be nonnegative")
    spectra = {level.m: _level_eigenvalues(tower.operator, level.m) for level in tower.levels}
    rows = []
    for e in eps:
        values = {m: float(np.searchsorted(w, lam + e, side="right") / m)
                  for m, w in spectra.items()}
        tail = [values[level.m] for level in tower.levels[len(tower.levels) // 2:]]
        rows.append({"epsilon": e, "values": values,
                     "liminf": min(tail) if tail else 0.0})
    anomalies = []
    for level in tower.levels:
        series = [row["values"][level.m] for row in rows]
        if any(b < a - 1e-12 for a, b in zip(series, series[1:])):
            anomalies.append(level.m)
    return {
        "lambda": float(lam),
        "oracle": fourier_counting(tower.operator, lam),
        "rows": rows,
        "anomalies": anomalies,
    }


# ---------------------------------------------------------------------------
# integrality / nonnegativity diagnostics


def _non_integer_entry(mat: LaurentMatrix) -> tuple[int, int, complex] | None:
    """The first coefficient (with its entry) that is not a real integer."""
    for i, row in enumerate(mat.rows):
        for j, poly in enumerate(row):
            for _, c in poly.terms:
                if c.imag != 0.0 or not float(c.real).is_integer():
                    return i, j, c
    return None


def _det_error_bound(tower: ApproxTower, level: TowerLevel, grid: np.ndarray) -> float:
    """First-order bound on the floating-point error of the level's det' on ``grid``.

    Each eigenvalue carries an absolute solver error around the clamping
    floor, so its log is off by floor/lambda; the determinant's relative
    error is that sum, plus accumulation ulps, times det' itself.
    """
    w = _level_eigenvalues(tower.operator, level.m, grid)
    positive = w[w > 0.0]
    if not positive.size:
        return 0.0
    n = tower.operator.shape[0]
    relative = float(np.sum(1.0 / positive)) * noise_floor(tower.norm_bound, n)
    relative += level.m * n * np.finfo(float).eps * 16.0
    return float(np.exp(level.log_det * level.m)) * relative


def nonnegativity_check(op, levels: Iterable[int] = tuple(2 ** k for k in range(1, 9)),
                        tol: float = 1e-6) -> dict:
    """Determinant-class evidence for an integer-coefficient operator.

    At every level the un-normalized det' of the specialization is a
    positive integer, so its log is >= 0; the limit value (the symbol
    integral, by ``jensen_log_det``) must then be >= 0 as well.  The report
    carries, per level, the un-normalized log det', the det' itself with its
    distance to the nearest integer whenever floating point can resolve
    that distance (small determinant and well-separated spectrum), and a
    passed flag; offending levels are listed.  ``tol`` is the margin of
    every decision, the limit's included.
    """
    mat = _as_laurent_matrix(op)
    offender = _non_integer_entry(mat)
    if offender is not None:
        i, j, c = offender
        raise DataValidationError(
            "nonnegativity certificates need integer coefficients "
            f"(entry ({i}, {j}) has {c!r})")
    tower = approx_tower(mat, levels)
    grid = _grid_eigenvalues(tower.operator, tower.levels[-1].m)
    level_rows = []
    offending = []
    for level in tower.levels:
        log_det_full = level.log_det * level.m
        row = {"m": level.m, "log_det_prime": log_det_full}
        det_error = _det_error_bound(tower, level, grid)
        if log_det_full < np.log(INTEGER_DET_CAP) and det_error < 0.25 * tol:
            det = float(np.exp(log_det_full))
            row["det_prime"] = det
            row["integer_residual"] = abs(det - round(det))
        nonneg = log_det_full >= -tol
        row["nonnegative"] = bool(nonneg)
        if not nonneg:
            offending.append(level.m)
        level_rows.append(row)
    limit = jensen_log_det(mat).value
    return {
        "levels": level_rows,
        "fourier_log_det": limit,
        "fourier_nonnegative": bool(limit >= -tol),
        "offending_levels": offending,
        "passed": bool(not offending and limit >= -tol),
    }


# ---------------------------------------------------------------------------
# bridge from integer-twisted cell complexes


def cw_to_laurent(cw) -> list[LaurentMatrix | None]:
    """Differentials of a cell complex twisted over the integers.

    Incidence word elements must be powers of the shift "t" or the identity
    "e" (see ``word_element``); each differential becomes a Laurent matrix
    with rows indexed by the (q+1)-cells and columns by the q-cells.
    """
    diffs: list[LaurentMatrix | None] = []
    for q in range(cw.top_degree):
        cols = cw.degree_cells(q)
        rows = cw.degree_cells(q + 1)
        if not cols or not rows:
            diffs.append(None)
            continue
        entries = [[LaurentPoly() for _ in cols] for _ in rows]
        for (to_cell, from_cell), word in cw.incidences.items():
            if from_cell in cols and to_cell in rows:
                terms = []
                for element, c in word:
                    label, power = word_element(element)
                    if label not in ("t", "e"):
                        raise DataValidationError(
                            f"element {element!r} is not a power of the integer shift")
                    terms.append((power if label == "t" else 0, complex(c)))
                entries[rows.index(to_cell)][cols.index(from_cell)] = LaurentPoly(tuple(terms))
        diffs.append(LaurentMatrix.from_lists(entries))
    return diffs


def laurent_laplacian(diffs: Sequence[LaurentMatrix | None], q: int) -> LaurentMatrix:
    """Degree-q Laplacian d_q* d_q + d_{q-1} d_{q-1}* of Laurent differentials."""
    up = diffs[q] if 0 <= q < len(diffs) else None
    down = diffs[q - 1] if 0 <= q - 1 < len(diffs) else None
    if up is None and down is None:
        raise DataValidationError(f"no differentials touch degree {q}")
    total = None
    if up is not None:
        total = up.adjoint() @ up
    if down is not None:
        term = down @ down.adjoint()
        total = term if total is None else total + term
    return total
