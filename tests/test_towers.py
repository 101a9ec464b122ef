"""Finite-quotient towers over the integer line and their circle oracle."""

import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torsionlab import towers
from torsionlab.cells import (
    InfiniteCyclic,
    RegularRepresentation,
    TwistedCellComplex,
    build_complex,
    circle,
    dual_complex,
)
from torsionlab.errors import DataValidationError, NumericalError, QuadratureError
from torsionlab.towers import (
    DEFAULT_LEVELS,
    LaurentMatrix,
    LaurentPoly,
    approx_tower,
    cw_to_laurent,
    fourier_counting,
    fourier_log_det,
    fourier_quadrature,
    jensen_log_det,
    laurent_laplacian,
    level_log_det,
    limit_distribution_check,
    nonnegativity_check,
    parse_laurent,
    specialize,
)
from torsionlab.vn import cyclic_group

FLAGSHIP = parse_laurent("2 - t - t^-1")
ONE_BY_TWO = LaurentMatrix.from_lists([[FLAGSHIP, FLAGSHIP]])
TWO_BY_ONE = LaurentMatrix.from_lists([[FLAGSHIP], [FLAGSHIP]])


def _no_evaluation(*args):
    raise AssertionError("the symbol was evaluated")


def _seeded_operators(count=10, seed=17):
    """Random integer p * p-adjoint operators, frozen by seed."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        c = rng.integers(-2, 3, size=3)
        p = LaurentPoly([(-1, int(c[0])), (0, int(c[1])), (1, int(c[2]))])
        ops.append(p * p.adjoint())
    return ops


class TestLaurentAlgebra:
    def test_terms_are_canonical(self):
        p = LaurentPoly([(2, 1.0), (0, 3.0), (2, -1.0), (-1, 2.0)])
        assert p.terms == ((-1, 2.0 + 0.0j), (0, 3.0 + 0.0j))

    def test_equal_polynomials_compare_equal(self):
        a = LaurentPoly([(0, 1.0), (1, -1.0)])
        b = LaurentPoly([(1, -2.0), (0, 1.0), (1, 1.0)])
        assert a == b

    def test_product_and_adjoint(self):
        one_minus_t = LaurentPoly([(0, 1.0), (1, -1.0)])
        assert one_minus_t.adjoint() * one_minus_t == FLAGSHIP

    def test_adjoint_conjugates_coefficients(self):
        p = LaurentPoly([(3, 1.0 + 2.0j)])
        assert p.adjoint().terms == ((-3, 1.0 - 2.0j),)

    def test_evaluation_on_the_circle(self):
        z = np.exp(2j * np.pi * 0.3)
        symbol = LaurentMatrix.from_scalar(FLAGSHIP).symbol([3, 13, -7], 10)
        assert_allclose(symbol[:, 0, 0], 2.0 - z - 1.0 / z, atol=1e-14)

    def test_parse_flagship(self):
        assert parse_laurent("2 - t - t^-1") == LaurentPoly(
            [(-1, -1.0), (0, 2.0), (1, -1.0)])

    def test_parse_variants(self):
        assert parse_laurent("3*t^2 + 1.5") == LaurentPoly([(2, 3.0), (0, 1.5)])
        assert parse_laurent("t**2 - 2 + t^-2") == LaurentPoly(
            [(-2, 1.0), (0, -2.0), (2, 1.0)])
        assert parse_laurent("-t") == LaurentPoly([(1, -1.0)])

    def test_str_round_trips_through_parse(self):
        polys = [
            FLAGSHIP,
            LaurentPoly([(2, 3.0), (0, 1.5)]),
            LaurentPoly([(1, -1.0)]),
            LaurentPoly([(-2, 2.0), (0, -4.0), (3, 1.0)]),
            LaurentPoly([(0, 7.0)]),
            LaurentPoly([]),
        ]
        for p in polys:
            assert parse_laurent(str(p)) == p
        assert str(FLAGSHIP) == "-t^-1 + 2 - t"

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataValidationError):
            parse_laurent("")
        with pytest.raises(DataValidationError, match="parse"):
            parse_laurent("2 + * 3")
        with pytest.raises(DataValidationError, match="parse"):
            parse_laurent("t^x")
        for text in ("nan - t", "2 - inf*t", "1e400"):
            with pytest.raises(DataValidationError, match="non-finite"):
                parse_laurent(text)

    def test_matrix_shapes_validated(self):
        with pytest.raises(DataValidationError, match="ragged"):
            LaurentMatrix(((LaurentPoly.constant(1.0),),
                           (LaurentPoly.constant(1.0), LaurentPoly.constant(2.0))))

    def test_matrix_product_and_adjoint(self):
        d = LaurentMatrix.from_lists([[LaurentPoly([(1, 1.0), (0, -1.0)])]])
        lap = d.adjoint() @ d
        assert lap.entry(0, 0) == FLAGSHIP

    def test_norm_bound_is_coefficient_sum(self):
        assert FLAGSHIP.is_zero() is False
        mat = LaurentMatrix.from_scalar(FLAGSHIP)
        assert mat.norm_bound() == 4.0


class TestSpecialize:
    def test_flagship_circulant_first_row(self):
        f = specialize(FLAGSHIP, 4)
        assert_allclose(f[0], [2.0, -1.0, 0.0, -1.0], atol=0)

    def test_identity_specializes_to_identity(self):
        for m in (1, 2, 7):
            f = specialize(LaurentPoly.constant(1.0), m)
            assert_allclose(f, np.eye(m), atol=0)

    def test_adjoint_product_matches_explicit_form(self):
        one_minus_t = LaurentPoly([(0, 1.0), (1, -1.0)])
        lhs = specialize(one_minus_t.adjoint() * one_minus_t, 8)
        rhs = specialize(FLAGSHIP, 8)
        assert_allclose(lhs, rhs, atol=0)

    def test_level_one_wraps_all_shifts(self):
        f = specialize(FLAGSHIP, 1)
        assert_allclose(f, [[0.0]], atol=0)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(DataValidationError, match=">= 1"):
            specialize(FLAGSHIP, 0)


class TestLevelLogDet:
    def test_flagship_level_four_is_log_two(self):
        assert_allclose(level_log_det(FLAGSHIP, 4), np.log(2.0), atol=1e-12)

    def test_identity_level_is_zero(self):
        assert level_log_det(LaurentPoly.constant(1.0), 16) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 8, 31, 64, 512])
    def test_flagship_closed_form(self, m):
        # det' of the level-m quotient is m^2, normalized log (2/m) log m.
        assert_allclose(level_log_det(FLAGSHIP, m), 2.0 * np.log(m) / m,
                        atol=1e-12)

    def test_scaled_identity(self):
        assert_allclose(level_log_det(LaurentPoly.constant(3.0), 10),
                        np.log(3.0), atol=1e-14)

    def test_stieltjes_route_hand_check(self):
        # eigenvalues {0, 2, 4, 2} at m = 4: integration by parts gives
        # log(4) * 3/4 - [1/2 * (log 4 - log 2)] = log 2, same as the sum.
        from torsionlab.towers import _integrate_by_parts, _make_level
        level = _make_level(LaurentMatrix.from_scalar(FLAGSHIP), 4)
        assert_allclose(_integrate_by_parts(level.distribution, 4.0),
                        np.log(2.0), atol=1e-12)

    def test_rejects_negative_operator(self):
        with pytest.raises(DataValidationError, match="nonnegative"):
            level_log_det(LaurentPoly.constant(-1.0), 4)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(DataValidationError, match="selfadjoint"):
            level_log_det(LaurentPoly.shift(1), 4)

    @pytest.mark.parametrize("m", [0, -3, 2 ** 31 + 1])
    def test_rejects_a_level_the_tower_refuses(self, m):
        with pytest.raises(DataValidationError, match="level"):
            level_log_det(FLAGSHIP, m)

    @pytest.mark.parametrize("op", [ONE_BY_TWO, TWO_BY_ONE], ids=["1x2", "2x1"])
    def test_rejects_non_square(self, op):
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            level_log_det(op, 4)

    @pytest.mark.parametrize("text, m", [("t - t^-1", 2), ("2 + t^2 - t^-2", 4)])
    def test_rejects_defects_that_vanish_at_the_level_roots(self, text, m):
        # t - t^-1 vanishes at z = +-1 and t^2 - t^-2 at the 4th roots of
        # unity: the symbol is Hermitian at every point level m samples
        op = parse_laurent(text)
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            level_log_det(op, m)
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            approx_tower(op, [m])


class TestApproxTower:
    def test_default_levels_are_nested_powers(self):
        assert DEFAULT_LEVELS == tuple(2 ** k for k in range(1, 13))

    def test_levels_must_nest(self):
        with pytest.raises(DataValidationError, match="nested"):
            approx_tower(FLAGSHIP, [2, 3])
        with pytest.raises(DataValidationError, match="nested"):
            approx_tower(FLAGSHIP, [4, 2])

    def test_levels_must_be_positive_and_nonempty(self):
        with pytest.raises(DataValidationError, match="at least one"):
            approx_tower(FLAGSHIP, [])
        with pytest.raises(DataValidationError, match="positive"):
            approx_tower(FLAGSHIP, [0, 2])

    def test_spectrum_respects_uniform_bound(self):
        tower = approx_tower(FLAGSHIP, [2, 4, 8, 16])
        assert tower.norm_bound == 4.0
        for level in tower.levels:
            assert level.largest <= tower.norm_bound
            assert level.smallest_positive > 0.0

    def test_counting_totals_equal_matrix_size(self):
        op = LaurentMatrix.from_lists([
            [FLAGSHIP, LaurentPoly()],
            [LaurentPoly(), LaurentPoly.constant(2.0)],
        ])
        tower = approx_tower(op, [2, 4, 8])
        for level in tower.levels:
            assert_allclose(level.distribution.total, 2.0, atol=0)

    def test_flagship_values_decrease_to_zero(self):
        tower = approx_tower(FLAGSHIP, [2 ** k for k in range(1, 11)])
        values = [value for _, value in tower.level_values()]
        assert_allclose(values, [2.0 * np.log(m) / m
                                 for m in (2 ** k for k in range(1, 11))],
                        atol=1e-9)
        # strictly decreasing from m = 4 on (m = 2 and m = 4 tie exactly)
        for a, b in zip(values[1:], values[2:]):
            assert b < a
        assert values[-1] < 0.02

    def test_deep_tower_matches_closed_form(self):
        levels = [2 ** k for k in range(1, 21)]
        start = time.perf_counter()
        tower = approx_tower(FLAGSHIP, levels)
        elapsed = time.perf_counter() - start
        assert_allclose([level.log_det for level in tower.levels],
                        [2.0 * np.log(m) / m for m in levels], atol=1e-9)
        assert elapsed < 1.0

    def test_squared_flagship_level_keeps_its_smallest_eigenvalues(self):
        # (2 - 2cos(2 pi/m))^2 ~ 5.5e-12 at m = 4096 sits below the noise
        # floor of a dense 4096 x 4096 solve but far above that of the symbol
        m = 4096
        assert_allclose(level_log_det(FLAGSHIP * FLAGSHIP, m),
                        4.0 * np.log(m) / m, rtol=0, atol=1e-8)


def _complex_product():
    p = LaurentPoly([(0, 1.0), (1, -1j)])
    return p * p.adjoint()


def _two_by_two_laplacian():
    t = LaurentPoly.shift(1)
    m = LaurentMatrix.from_lists([[LaurentPoly.constant(1.0) - t,
                                   LaurentPoly.constant(2.0) - t]])
    return m.adjoint() @ m


def _eigenvalues(level):
    """The level's eigenvalue multiset, read back from its distribution."""
    lam, mass = level.distribution.masses()
    return np.repeat(lam, np.rint(mass * level.m).astype(int))


def _dense_eigenvalues(op, m):
    """Ascending eigenvalues of the symmetrized dense ``specialize(op, m)``."""
    a = specialize(op, m)
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))


def _dense_level(op, m):
    """The dense reference of a level's eigenvalues: clamped at the norm
    bound and floored at the noise floor of the nm x nm matrix."""
    mat = towers._as_laurent_matrix(op)
    bound = mat.norm_bound()
    w = np.minimum(_dense_eigenvalues(op, m), bound)
    return np.where(w > towers.noise_floor(bound, mat.shape[0] * m), w, 0.0)


class TestSymbolRouteMatchesDense:
    """Levels from the symbol at roots of unity against dense specialize."""

    OPERATORS = {
        "flagship": FLAGSHIP,
        "shifted": parse_laurent("3 - t - t^-1"),
        "squared": FLAGSHIP * FLAGSHIP,
        "matrix": _two_by_two_laplacian(),
        "complex": _complex_product(),
    }
    TOWERS = {
        "dyadic": [2 ** k for k in range(9)],
        "triadic": [3, 6, 12, 24, 48, 96, 192],
    }

    @pytest.mark.parametrize("levels", TOWERS.values(), ids=TOWERS.keys())
    @pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
    def test_levels_agree(self, op, levels):
        fast = approx_tower(op, levels)
        for level in fast.levels:
            m = level.m
            w = _dense_level(op, m)
            positive = w[w > 0.0]
            assert_allclose(level.log_det, np.sum(np.log(positive)) / m,
                            rtol=0, atol=1e-10)
            assert_allclose(level.smallest_positive,
                            positive[0] if positive.size else 0.0, rtol=1e-7, atol=0)
            assert_allclose(level.largest, w[-1], rtol=0, atol=1e-12)
            assert level.distribution.total == w.size / m
            assert level.distribution.values[-1] == w.size / m
            assert level.distribution.value_at(0.0) == np.count_nonzero(w <= 0.0) / m
            assert_allclose(_eigenvalues(level), w, rtol=0, atol=1e-12)

    def test_same_error_on_indefinite_operator(self):
        # t + t^-1 is 2 at level 1 and first goes negative at level 2
        op = parse_laurent("t + t^-1")
        with pytest.raises(DataValidationError, match="not nonnegative") as info:
            approx_tower(op, [1, 2, 4])
        low = _dense_eigenvalues(op, 2)[0]
        assert str(info.value) == (
            f"operator is not nonnegative (eigenvalue {low:.3e} at level 2)")


def test_every_route_refuses_a_symbol_below_the_rounding_margin():
    # 1.99999998 - t - t^-1 is -2e-8 at angle 0, far past roundoff on a
    # symbol of norm bound 4, and every route refuses it at one threshold.
    # The midpoint grids first go below zero at depth 15 (-1.08e-8), which
    # the default tolerance reaches; a loose one settles at depth 6 first.
    op = parse_laurent("1.99999998 - t - t^-1")
    with pytest.raises(DataValidationError, match="not nonnegative"):
        approx_tower(op, [2])
    with pytest.raises(DataValidationError, match="positive-semidefinite"):
        jensen_log_det(op)
    with pytest.raises(DataValidationError, match=r"positive-semidefinite .*-1\.081e-08"):
        fourier_log_det(op)


class TestFourierLogDet:
    def test_flagship_mahler_measure_vanishes(self):
        assert abs(fourier_log_det(FLAGSHIP)) < 1e-6

    def test_constant_operator(self):
        assert_allclose(fourier_log_det(LaurentPoly.constant(2.5)),
                        np.log(2.5), atol=1e-14)

    def test_shifted_flagship_hits_golden_ratio(self):
        op = FLAGSHIP + LaurentPoly.constant(1.0)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert_allclose(fourier_log_det(op), 2.0 * np.log(golden), atol=1e-8)

    def test_matches_deep_level_values(self):
        limit = fourier_log_det(FLAGSHIP)
        assert abs(level_log_det(FLAGSHIP, 2048) - limit) < 1e-2

    def test_rejects_symbol_with_negative_part(self):
        with pytest.raises(DataValidationError, match="positive-semidefinite"):
            fourier_log_det(LaurentPoly([(1, 1.0), (-1, 1.0)]))

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(DataValidationError, match="selfadjoint"):
            fourier_log_det(LaurentPoly.shift(1))

    def test_nonconvergence_reports_bracket(self):
        hard = _seeded_operators()[9]  # symbol zeros at irrational angles
        with pytest.raises(QuadratureError, match="did not converge") as info:
            fourier_log_det(hard, tol=1e-12, max_refinement=10)
        low, high = info.value.bracket
        assert low != high
        assert abs(low - np.log(4.0)) < 0.05 and abs(high - np.log(4.0)) < 0.05


def _power(p, k):
    out = LaurentPoly.constant(1.0)
    for _ in range(k):
        out = out * p
    return out


LEHMER = LaurentPoly([(k, c) for k, c in
                      enumerate([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])])
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestJensenLogDet:
    CLOSED_FORMS = {
        "flagship": (FLAGSHIP, 0.0, 1e-12),
        "golden": (FLAGSHIP + LaurentPoly.constant(1.0), 2.0 * np.log(GOLDEN), 1e-12),
        "squared": (FLAGSHIP * FLAGSHIP, 0.0, 1e-12),
        "eighth-power": (_power(FLAGSHIP, 8), 0.0, 1e-12),
        "laplacian": (_two_by_two_laplacian(), np.log((7.0 + np.sqrt(13.0)) / 2.0), 1e-12),
        "irrational": (parse_laurent("4t^-2 - 12t^-1 + 17 - 12t + 4t^2"), np.log(4.0), 1e-12),
        "seeded-9": (_seeded_operators()[9], np.log(4.0), 1e-12),
        "lehmer": (LEHMER * LEHMER.adjoint(), 2.0 * np.log(1.17628081826), 1e-10),
    }

    @pytest.mark.parametrize("op, exact, tol", CLOSED_FORMS.values(),
                             ids=CLOSED_FORMS.keys())
    def test_closed_forms(self, op, exact, tol):
        result = jensen_log_det(op)
        assert result.integer and result.bracket is None
        assert abs(result.value - exact) < tol

    def test_degree_rank_and_roots_on_the_circle(self):
        flagship = jensen_log_det(FLAGSHIP)
        assert (flagship.degree, flagship.rank, flagship.near_circle) == (2, 1, 2)
        assert jensen_log_det(_power(FLAGSHIP, 8)).near_circle == 16
        golden = jensen_log_det(FLAGSHIP + LaurentPoly.constant(1.0))
        assert golden.near_circle == 0
        # |Lehmer|^2 = Lehmer^2 up to a unit: 8 double roots on the circle
        assert jensen_log_det(LEHMER * LEHMER.adjoint()).near_circle == 16

    def test_rank_deficient_and_full_rank_matrices(self):
        lap = jensen_log_det(_two_by_two_laplacian())
        assert (lap.rank, lap.degree) == (1, 2)
        diag = LaurentMatrix.from_lists([[FLAGSHIP, LaurentPoly()],
                                         [LaurentPoly(), LaurentPoly.constant(2.0)]])
        full = jensen_log_det(diag)
        assert full.rank == 2
        assert abs(full.value - np.log(2.0)) < 1e-12
        zero = LaurentMatrix.from_lists([[LaurentPoly()]])
        assert jensen_log_det(zero).value == 0.0

    @pytest.mark.parametrize("i", range(10))
    def test_agrees_with_the_converged_quadrature(self, i):
        op = _seeded_operators()[i]
        quad = fourier_log_det(op, tol=2e-5)
        assert abs(jensen_log_det(op).value - quad) < 2e-5

    def test_non_integer_coefficients_carry_a_bracket(self):
        scaled = (FLAGSHIP + LaurentPoly.constant(1.0)).scale(1.5)
        exact = np.log(1.5) + 2.0 * np.log(GOLDEN)
        result = jensen_log_det(scaled)
        assert not result.integer and result.near_circle == 0
        low, high = result.bracket
        assert low <= exact <= high and high - low < 1e-10
        assert abs(result.value - exact) < 1e-12
        # a fourfold zero on the circle: the computed roots split by about
        # eps^(1/4), and the bracket says so
        squared = (FLAGSHIP * FLAGSHIP).scale(0.3)
        result = jensen_log_det(squared)
        low, high = result.bracket
        assert result.near_circle == 4
        assert low <= np.log(0.3) <= high and high - low > 1e-6
        assert abs(result.value - np.log(0.3)) < 1e-12

    def test_bracket_holds_the_leading_coefficient_error(self):
        # c (2 - t - t^-1) has value log c; a bracket that starts from the
        # computed log|lead| alone misses it by an ulp or two for some c;
        # c = 5 is an integer, exact, and carries no bracket
        for c in np.linspace(0.01, 5.0, 400):
            result = jensen_log_det(FLAGSHIP.scale(c))
            low, high = result.bracket or (result.value, result.value)
            assert low <= np.log(c) <= high, c

    def test_rejects_non_selfadjoint_and_indefinite_symbols(self):
        with pytest.raises(DataValidationError, match="selfadjoint"):
            jensen_log_det(LaurentPoly.shift(1))
        with pytest.raises(DataValidationError, match="positive-semidefinite"):
            jensen_log_det(LaurentPoly([(1, 1.0), (-1, 1.0)]))
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            jensen_log_det(ONE_BY_TWO)

    def test_zero_of_odd_order_on_the_circle_is_indefinite(self):
        from torsionlab.towers import _integer_jensen
        # t + t^-1: simple zeros at +-i, where the symbol changes sign
        with pytest.raises(DataValidationError, match="odd order"):
            _integer_jensen(np.array([1.0, 0.0, 1.0]), 1)

    def test_overflowing_determinant_polynomial_is_numerical_failure(self):
        big = LaurentMatrix.from_lists(
            [[LaurentPoly.constant(2e200), LaurentPoly.shift(1, 1e200)],
             [LaurentPoly.shift(-1, 1e200), LaurentPoly.constant(2e200)]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="float range"):
            jensen_log_det(big)

    def test_coincident_roots_form_one_cluster(self):
        from torsionlab.towers import _jensen_sum
        # (z - 5)(z - 1)^2: the double root may come back as two equal
        # roots, whose disc is unbounded until they merge with each other
        value, (low, high), near = _jensen_sum(np.poly([5.0, 1.0, 1.0]), 0.0)
        assert abs(value - np.log(5.0)) < 1e-12
        assert low <= np.log(5.0) <= high and near == 2

    def test_square_free_factors(self):
        from torsionlab.towers import _square_free_factors
        # -3 (z - 1)^4 (2z^2 + z + 1) (z - 2)^2, lowest power first
        poly = np.polynomial.polynomial
        coeffs = poly.polymul(poly.polypow([-1, 1], 4), [-3, -3, -6])
        coeffs = poly.polymul(coeffs, poly.polypow([-2, 1], 2))
        factors = _square_free_factors([int(c) for c in coeffs])
        assert factors == [(1, [1, 1, 2]), (2, [-2, 1]), (4, [-1, 1])]

    def test_high_degree_stays_fast(self):
        # |p|^2 for a random integer p of degree 60, times a double zero on
        # the circle: degree 124 is factored exactly; past the cap the
        # roots are used as computed, with a bracket
        rng = np.random.default_rng(2)
        for degree, exact in ((60, True), (70, False)):
            p = LaurentPoly([(e, float(c)) for e, c in
                             enumerate(rng.integers(-3, 4, size=degree + 1))])
            op = p * p.adjoint() * FLAGSHIP
            start = time.perf_counter()
            result = jensen_log_det(op)
            assert time.perf_counter() - start < 2.0
            assert result.integer is exact and result.near_circle >= 2
            assert abs(result.value - fourier_log_det(op, tol=1e-7)) < 1e-6


class TestFourierQuadrature:
    def test_reports_depth_and_last_increment(self):
        value, depth, increment = fourier_quadrature(FLAGSHIP, tol=1e-8)
        assert value == fourier_log_det(FLAGSHIP, tol=1e-8)
        assert 6 <= depth <= 22 and increment < 1e-8

    @pytest.mark.parametrize("depth", [5, 0, -3, 31, 6.0, True, "8"])
    def test_refuses_a_depth_outside_six_to_thirty(self, depth, monkeypatch):
        # below 6 the loop never ran and the bracket had equal ends, which
        # read as a converged value; above 30 the grid leaves the kernel
        monkeypatch.setattr(towers, "_symbol_eigenvalues", _no_evaluation)
        for route in (fourier_quadrature, fourier_log_det):
            with pytest.raises(DataValidationError,
                               match="max_refinement must be an integer from 6 to 30"):
                route(parse_laurent("3 - t - t^-1"), max_refinement=depth)

    def test_depth_six_is_the_shallowest(self):
        with pytest.raises(QuadratureError) as info:
            fourier_quadrature(parse_laurent("3 - t - t^-1"), tol=0.0, max_refinement=6)
        low, high = info.value.bracket
        assert low != high


class TestFourierCounting:
    def test_flagship_half_mass_at_two(self):
        assert fourier_counting(FLAGSHIP, 2.0) == 0.5

    def test_full_mass_at_bound(self):
        assert fourier_counting(FLAGSHIP, 4.0) == 1.0

    def test_zero_set_has_measure_zero(self):
        assert fourier_counting(FLAGSHIP, 0.0) == 0.0
        assert fourier_counting(FLAGSHIP, -1.0) == 0.0

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            fourier_counting(LaurentPoly.shift(1), 0.5)

    def test_rejects_non_square(self):
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            fourier_counting(ONE_BY_TWO, 0.5)

    def test_rejects_defects_that_vanish_at_the_midpoints(self):
        # t^4 - t^-4 = 2i sin(4 theta) vanishes at the 4 midpoint angles
        # (2j + 1) pi / 4
        with pytest.raises(DataValidationError, match="not selfadjoint"):
            fourier_counting(parse_laurent("2 + t^4 - t^-4"), 1.0, points=4)

    @pytest.mark.parametrize("points", [0, -1, 2 ** 30 + 1, 2 ** 31, 4.0, False])
    def test_refuses_points_outside_one_to_two_to_the_thirty(self, points, monkeypatch):
        # 0 got the kernel's message about angles, 2^31 a 16 GiB MemoryError
        monkeypatch.setattr(towers, "_symbol_eigenvalues", _no_evaluation)
        with pytest.raises(DataValidationError,
                           match="points must be an integer from 1 to 1073741824"):
            fourier_counting(FLAGSHIP, 1.0, points=points)


def _block_diagonal(poly, n):
    zero = LaurentPoly()
    return LaurentMatrix.from_lists([[poly if i == j else zero for j in range(n)]
                                     for i in range(n)])


def _complex_three_by_three():
    rng = np.random.default_rng(7)
    a = LaurentMatrix.from_lists(
        [[LaurentPoly(tuple((e, complex(*rng.integers(-2, 3, size=2))) for e in (-1, 0, 1)))
          for _ in range(3)] for _ in range(3)])
    return a.adjoint() @ a


SQUARED_CUBIC = parse_laurent("2 - 3t + 2t^2") * parse_laurent("2 - 3t + 2t^2").adjoint()


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        try:
            call()
        except QuadratureError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedGrids:
    """Grids are evaluated in chunks, with the values and the sums of one
    whole-grid evaluation, and in memory that does not grow with the grid."""

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        sizes = []
        evaluate = towers._symbol_eigenvalues

        def spy(op, k, n):
            sizes.append((np.size(k), n))
            return evaluate(op, k, n)
        monkeypatch.setattr(towers, "_symbol_eigenvalues", spy)
        return sizes

    @pytest.mark.parametrize("op, depth", [(SQUARED_CUBIC, 18),
                                           (_complex_three_by_three(), 14)],
                             ids=["scalar", "complex-3x3"])
    def test_every_value_is_the_whole_grid_one(self, op, depth, chunk_sizes):
        mat = towers._checked(op)
        floor = towers.noise_floor(mat.norm_bound(), mat.shape[0])

        def whole(points):
            return towers._symbol_eigenvalues(mat, 2 * np.arange(points) + 1, 2 * points)

        estimates = {}
        for k in range(4, depth + 1):
            w = whole(1 << k)
            logs = np.where(w > floor, np.log(np.where(w > floor, w, 1.0)), 0.0)
            estimates[k] = float(logs.sum() / (1 << k))
        extrapolated = [2.0 * estimates[k] - estimates[k - 1] for k in (depth - 1, depth)]
        chunk_sizes.clear()
        with pytest.raises(QuadratureError) as info:
            fourier_quadrature(op, tol=0.0, max_refinement=depth)
        assert info.value.bracket == tuple(extrapolated)
        # the deepest grid took more than one chunk
        assert max(size for size, n in chunk_sizes if n == 2 << depth) < 1 << depth

        points = 1 << depth
        for lam in (0.5, 2.0, 9.0):
            count = np.sum(whole(points) <= lam)
            assert fourier_counting(op, lam, points) == float(count / points)
        m = 3 << (depth - 2)
        reference = np.sort(towers._symbol_eigenvalues(mat, np.arange(m), m), axis=None)
        streamed, _ = towers._level_eigenvalues(mat, m)
        top = mat.norm_bound()
        reference = np.minimum(reference, top)
        reference = np.where(reference > floor, reference, 0.0)
        assert np.array_equal(streamed, reference)

    def test_semidefinite_check_reads_the_whole_grid(self, chunk_sizes):
        # 2 - 1e-7 + t + t^-1 dips below zero only in a narrow window around
        # angle 1/2, which a grid first resolves in a middle chunk; the
        # message holds the grid's minimum, as a whole-grid evaluation states it
        dip = parse_laurent("2 + t + t^-1") - LaurentPoly.constant(1e-7)
        op = towers._checked(_block_diagonal(dip, 4))
        for depth in range(4, 17):
            points = 1 << depth
            low = towers._symbol_eigenvalues(op, 2 * np.arange(points) + 1, 2 * points).min()
            if low < -towers.SEMIDEFINITE_TOL * op.norm_bound():
                break
        chunk_sizes.clear()
        with pytest.raises(DataValidationError, match="not positive-semidefinite") as info:
            fourier_quadrature(op, 0.0, max_refinement=16)
        assert str(info.value).endswith(f"(eigenvalue {low:.3e})")
        assert len([n for _, n in chunk_sizes if n == 2 * points]) > 2

    # Peaks of the whole-grid evaluation: 20.0, 34.5, 17.3 and 34.5 MB.
    # The bounds are twice the streamed peaks.
    def test_quadrature_memory_does_not_grow_with_depth(self):
        peak = _peak_bytes(lambda: fourier_quadrature(SQUARED_CUBIC, 0.0, max_refinement=18))
        assert peak < 4.3 * 2 ** 20

    def test_matrix_quadrature_memory_is_bounded(self):
        op = _block_diagonal(SQUARED_CUBIC, 4)
        peak = _peak_bytes(lambda: fourier_quadrature(op, 0.0, max_refinement=16))
        assert peak < 1.6 * 2 ** 20

    def test_counting_memory_is_bounded(self):
        op = _block_diagonal(SQUARED_CUBIC, 4)
        peak = _peak_bytes(lambda: fourier_counting(op, 1.0, 1 << 15))
        assert peak < 1.6 * 2 ** 20

    def test_level_memory_is_linear_in_the_order(self):
        # the m n eigenvalues are 2 MiB; the symbol stack was 16 MiB
        op = _block_diagonal(SQUARED_CUBIC, 4)
        peak = _peak_bytes(lambda: level_log_det(op, 1 << 16))
        assert peak < 15 * 2 ** 20


class TestLimitDistribution:
    def test_flagship_kernel_mass_shrinks(self):
        tower = approx_tower(FLAGSHIP, [2 ** k for k in range(1, 9)])
        report = limit_distribution_check(tower, 0.0, [0.0, 1e-9])
        assert report["oracle"] == 0.0
        assert report["anomalies"] == []
        for row in report["rows"]:
            for m, value in row["values"].items():
                assert_allclose(value, 1.0 / m, atol=0)

    def test_flagship_half_level(self):
        tower = approx_tower(FLAGSHIP, [2 ** k for k in range(1, 9)])
        report = limit_distribution_check(tower, 2.0, [0.0, 1e-6, 1e-2])
        assert report["oracle"] == 0.5
        for row in report["rows"]:
            for m, value in row["values"].items():
                assert abs(value - 0.5) <= 2.0 / m + 1e-12

    def test_flagship_everything_below_bound(self):
        tower = approx_tower(FLAGSHIP, [2, 4, 8, 16])
        report = limit_distribution_check(tower, 4.0, [0.0])
        assert all(value == 1.0
                   for value in report["rows"][0]["values"].values())

    def test_rejects_negative_epsilon(self):
        tower = approx_tower(FLAGSHIP, [2, 4])
        with pytest.raises(DataValidationError, match="nonnegative"):
            limit_distribution_check(tower, 0.0, [-1e-3])


class TestNonnegativity:
    def test_flagship_certificate(self):
        report = nonnegativity_check(FLAGSHIP)
        assert report["passed"]
        assert report["offending_levels"] == []
        assert abs(report["fourier_log_det"]) < 1e-6
        for row in report["levels"]:
            assert row["nonnegative"]
            if "det_prime" in row:
                assert_allclose(row["det_prime"], row["m"] ** 2, rtol=1e-9)
                assert row["integer_residual"] < 1e-6

    def test_scaled_identity_certificate(self):
        report = nonnegativity_check(LaurentPoly.constant(4.0))
        assert report["passed"]
        assert_allclose(report["fourier_log_det"], np.log(4.0), atol=1e-10)

    def test_ten_random_adjoint_products(self):
        for op in _seeded_operators():
            report = nonnegativity_check(op)
            assert report["passed"]
            assert report["offending_levels"] == []
            gated = [row["integer_residual"] for row in report["levels"]
                     if "integer_residual" in row]
            assert gated, "no level small enough for the integer check"
            assert max(gated) < 1e-6

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(DataValidationError, match="integer"):
            nonnegativity_check(LaurentPoly.constant(1.5))


class TestSemicontinuity:
    """Empirical limit inequalities connecting levels to the circle oracle."""

    LEVELS = tuple(2 ** k for k in range(1, 11))

    @staticmethod
    def _level_integral(tower, level):
        # rearranged Stieltjes form: int (N_m - N_m(0)) / lam d lam
        b = tower.norm_bound
        dist = level.distribution
        return (np.log(b) * (dist.value_at(b) - dist.value_at(0.0))
                - level.log_det)

    def _oracle_integral(self, op, bound, limit):
        return (np.log(bound)
                * (fourier_counting(op, bound) - fourier_counting(op, 0.0))
                - limit)

    @pytest.mark.parametrize("op", [FLAGSHIP] + _seeded_operators(),
                             ids=["flagship"] + [f"op{i}" for i in range(10)])
    def test_limit_bounded_by_deep_levels(self, op):
        tower = approx_tower(op, self.LEVELS)
        limit = fourier_log_det(op, tol=2e-5)
        tail = tower.levels[-3:]
        # the true log-determinant never exceeds the deep level values
        assert limit <= min(level.log_det for level in tail) + 1e-3
        # and the tail integrals dominate the oracle integral within the
        # O(log m / m) resolution of the shallowest tail level
        oracle = self._oracle_integral(op, tower.norm_bound, limit)
        slack = 4.0 * np.log(tail[0].m * tower.norm_bound) / tail[0].m
        assert oracle <= min(self._level_integral(tower, level)
                             for level in tail) + slack


#: p(t) = t^3 - 0.5i t + 2 + 1.5 t^-13, written in every element form a
#: word over the integers takes: an integer power, a label, "e" and a pair.
MIXED_WORD = ((3, 1.0), ("t", -0.5j), ("e", 2.0), (("t", -13), 1.5))


def _two_cell_cw(word=MIXED_WORD, rep=None):
    """d0 = [p; 2] and d1 = [-2, p]: d1 d0 = 0 for every word p."""
    return TwistedCellComplex(
        representation=InfiniteCyclic() if rep is None else rep,
        cells={0: ("v",), 1: ("a", "b"), 2: ("f",)},
        incidences={("a", "v"): word, ("b", "v"): (("e", 2.0),),
                    ("f", "a"): (("e", -2.0),), ("f", "b"): word},
        top_degree=2,
    )


class TestCellBridge:
    @pytest.mark.parametrize("cw", (circle(InfiniteCyclic()), _two_cell_cw()),
                             ids=("circle", "two-cell"))
    def test_dual_differentials_are_signed_adjoints(self, cw):
        # delta^D_(d-q-1) = (-1)^(q(d-q)) delta_q^*, as Laurent matrices
        d = cw.top_degree
        dual = cw_to_laurent(dual_complex(cw))
        for q, diff in enumerate(cw_to_laurent(cw)):
            sign = (-1) ** (q * (d - q))
            star = diff.adjoint()
            assert dual[d - q - 1] == LaurentMatrix.from_lists(
                [[poly.scale(sign) for poly in row] for row in star.rows])

    @pytest.mark.parametrize("fiber_dim", (1, 3))
    def test_cyclic_stacks_are_the_symbol_at_roots_of_unity(self, fiber_dim):
        # over Z/m the character blocks of a differential are its Laurent
        # matrix at the m-th roots of unity, on every fiber
        m = 12
        cw = _two_cell_cw()
        built = build_complex(_two_cell_cw(rep=RegularRepresentation(cyclic_group(m),
                                                                     fiber_dim)))
        for diff, laurent in zip(built.differentials, cw_to_laurent(cw)):
            want = [np.kron(block, np.eye(fiber_dim))
                    for block in laurent.symbol(np.arange(m), m)]
            assert_allclose(diff.array, want, rtol=0, atol=1e-14)

    def test_circle_differential_over_the_integers(self):
        diffs = cw_to_laurent(circle(InfiniteCyclic()))
        assert len(diffs) == 1
        assert diffs[0].shape == (1, 1)
        assert diffs[0].entry(0, 0) == LaurentPoly([(1, 1.0), (0, -1.0)])

    def test_circle_laplacian_is_flagship(self):
        diffs = cw_to_laurent(circle(InfiniteCyclic()))
        for q in (0, 1):
            assert laurent_laplacian(diffs, q).entry(0, 0) == FLAGSHIP

    def test_circle_tower_reproduces_finite_quotients(self):
        lap = laurent_laplacian(cw_to_laurent(circle(InfiniteCyclic())), 0)
        for m in (3, 8, 64):
            assert_allclose(level_log_det(lap, m), 2.0 * np.log(m) / m,
                            atol=1e-12)
        assert abs(fourier_log_det(lap)) < 1e-6

    def test_two_cell_tower_with_matrix_laplacian(self):
        shift = LaurentPoly.shift(1)
        one = LaurentPoly.constant(1.0)
        two = LaurentPoly.constant(2.0)
        d0 = LaurentMatrix.from_lists([[shift - one], [two]])
        d1 = LaurentMatrix.from_lists([[-two, shift - one]])
        # d1 @ d0 = 0: a genuine two-step complex over the integer line
        assert all(entry.is_zero() for entry in (d1 @ d0).rows[0])
        lap = laurent_laplacian([d0, d1], 1)
        tower = approx_tower(lap, [2, 4, 8, 16, 32, 64])
        limit = fourier_log_det(lap, tol=1e-6)
        assert limit <= tower.levels[-1].log_det + 1e-3
        for level in tower.levels:
            assert level.largest <= tower.norm_bound

    def test_rejects_words_outside_the_shift_group(self):
        from torsionlab.cells import TwistedCellComplex
        cw = TwistedCellComplex(
            representation=InfiniteCyclic(),
            cells={0: ("p",), 1: ("a",)},
            incidences={("a", "p"): (("s", 1.0),)},
            top_degree=1,
        )
        with pytest.raises(DataValidationError, match="shift"):
            cw_to_laurent(cw)

    def test_missing_degrees_yield_none(self):
        from torsionlab.cells import TwistedCellComplex
        cw = TwistedCellComplex(
            representation=InfiniteCyclic(),
            cells={0: ("p",)},
            incidences={},
            top_degree=1,
        )
        assert cw_to_laurent(cw) == [None]
        with pytest.raises(DataValidationError, match="degree"):
            laurent_laplacian([None], 0)
