"""Cell complexes, duality, gluing, and products."""

import numpy as np
import pytest

from torsionlab import vn
from torsionlab.cells import (
    GluingSpec,
    InfiniteCyclic,
    RegularRepresentation,
    TwistedCellComplex,
    UnitaryRepresentation,
    adjoint_word,
    build_complex,
    circle,
    circle_from_arcs,
    circle_holonomy,
    disjoint_union,
    dual_complex,
    duality_residual,
    flip_cell_signs,
    glue,
    glue_check,
    interval_tau1,
    interval_tau2,
    point,
    product_complex,
    relabel,
    t_comb,
)
from torsionlab.complexes import torsion
from torsionlab.errors import DataValidationError
from torsionlab.towers import cw_to_laurent

ROUTE_TOL = 1e-8
RESIDUAL_TOL = 1e-9

TRIVIAL = UnitaryRepresentation({"t": [[1.0]]})


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _word_matrix(rep, word):
    """The dense standard-basis matrix of a word: its blocks on one cell."""
    cell = rep.module(1)
    return vn.Morphism(cell, cell, rep.word_blocks(word)).matrix


def _some_representations(rng):
    yield RegularRepresentation(vn.cyclic_group(2))
    yield RegularRepresentation(vn.cyclic_group(5))
    yield RegularRepresentation(vn.cyclic_group(3), fiber_dim=2)
    yield UnitaryRepresentation({"t": [[np.exp(0.3j)]]})
    yield UnitaryRepresentation({"t": _random_unitary(rng, 3)})


class TestRepresentations:
    def test_unitary_rejects_non_unitary_matrix(self):
        with pytest.raises(DataValidationError, match="unitary"):
            UnitaryRepresentation({"t": [[2.0]]})

    def test_unitary_rejects_shape_problems(self):
        with pytest.raises(DataValidationError, match="square"):
            UnitaryRepresentation({"t": [[1.0, 0.0]]})
        with pytest.raises(DataValidationError, match="fiber"):
            UnitaryRepresentation({"t": [[1.0]], "s": np.eye(2)})

    def test_unitary_word_matrix_powers(self):
        lam = np.exp(0.7j)
        rep = UnitaryRepresentation({"t": [[lam]]})
        got = _word_matrix(rep, [(("t", -2), 1.0), ("e", 0.5), (3, 2.0)])
        expect = lam ** -2 + 0.5 + 2.0 * lam ** 3
        np.testing.assert_allclose(got, [[expect]], atol=1e-14)

    def test_regular_rep_requires_group(self):
        with pytest.raises(DataValidationError, match="group"):
            RegularRepresentation(vn.complex_field())

    def test_regular_word_matrix_is_unitary_for_single_element(self):
        rep = RegularRepresentation(vn.cyclic_group(4))
        mat = _word_matrix(rep, [(("t", 3), 1.0)])
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-14)

    def test_infinite_cyclic_refuses_to_build(self):
        cw = circle(InfiniteCyclic())
        with pytest.raises(DataValidationError, match="tower"):
            build_complex(cw)


class TestCellData:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            TwistedCellComplex(TRIVIAL, {0: ("x",), 1: ("x",)}, {}, 1)

    def test_unknown_cell_in_incidence_rejected(self):
        with pytest.raises(DataValidationError, match="unknown cell"):
            TwistedCellComplex(TRIVIAL, {0: ("x",)}, {("y", "x"): (("e", 1.0),)}, 1)

    def test_incidence_must_drop_one_degree(self):
        with pytest.raises(DataValidationError, match="one degree"):
            TwistedCellComplex(TRIVIAL, {0: ("x", "y")}, {("y", "x"): (("e", 1.0),)}, 1)

    def test_cells_outside_window_rejected(self):
        with pytest.raises(DataValidationError, match="window"):
            TwistedCellComplex(TRIVIAL, {2: ("x",)}, {}, 1)

    def test_composition_failure_names_the_cell_pair(self):
        cw = TwistedCellComplex(
            TRIVIAL,
            {0: ("p",), 1: ("a",), 2: ("f",)},
            {("a", "p"): (("e", 1.0),), ("f", "a"): (("e", 1.0),)},
            2,
        )
        with pytest.raises(DataValidationError, match=r"\('f', 'p'\)"):
            build_complex(cw)


class TestBuiltins:
    def test_point(self):
        rep = RegularRepresentation(vn.cyclic_group(3))
        c = build_complex(point(rep))
        assert c.module(0).ambient_dim == 3
        assert t_comb(point(rep)) == 0.0

    def test_interval_flow_through_has_no_cells(self):
        c = build_complex(interval_tau1(TRIVIAL))
        assert [c.module(q).ambient_dim for q in (0, 1)] == [0, 0]
        assert t_comb(interval_tau1(TRIVIAL)) == 0.0

    def test_interval_interior_minimum(self):
        cw = interval_tau2(TRIVIAL)
        c = build_complex(cw)
        assert [c.module(q).ambient_dim for q in (0, 1)] == [1, 0]
        assert t_comb(cw) == 0.0

    def test_circle_torsion_values(self):
        # log |lambda - 1| for a unit holonomy lambda
        for lam in (-1.0, 1j, np.exp(1j * np.pi / 5)):
            got = t_comb(circle_holonomy(lam))
            np.testing.assert_allclose(got, np.log(abs(lam - 1)), atol=1e-12)

    def test_circle_regular_representation(self):
        # the nonzero singular value spectrum of rho(t) - 1 over Z/m gives
        # sum log|omega^k - 1| = log m, trace-normalized by 1/m
        for m in (2, 3, 6):
            cw = circle(RegularRepresentation(vn.cyclic_group(m)))
            np.testing.assert_allclose(t_comb(cw), np.log(m) / m, atol=1e-10)

    def test_euler_characteristics(self):
        rep = RegularRepresentation(vn.cyclic_group(2))
        assert build_complex(point(rep)).euler_characteristic() == pytest.approx(1.0)
        assert build_complex(circle(rep)).euler_characteristic() == pytest.approx(0.0)
        assert build_complex(interval_tau2(rep)).euler_characteristic() == pytest.approx(1.0)

    def test_both_torsion_routes_agree_on_builtins(self):
        rng = np.random.default_rng(11)
        for rep in _some_representations(rng):
            for cw in (point(rep), interval_tau2(rep), circle(rep)):
                direct = torsion(build_complex(cw))
                assert abs(t_comb(cw) - direct) < ROUTE_TOL


class TestDuality:
    def test_dual_matrices_are_signed_adjoints(self):
        # delta^D_{d-q-1} = (-1)^{q(d-q)} delta_q^dagger, cells kept in order
        rep = RegularRepresentation(vn.cyclic_group(3))
        cw = circle(rep)
        dual = dual_complex(cw)
        a = build_complex(cw).differential(0).matrix
        b = build_complex(dual).differential(0).matrix
        np.testing.assert_allclose(b, a.conj().T, atol=1e-14)

    def test_dual_matrices_in_dimension_two(self):
        rep = RegularRepresentation(vn.cyclic_group(4))
        w = (("t", 1.0), ("e", -1.0))
        u = (("t", 0.5j), (("t", 2), -0.5j))
        cw = TwistedCellComplex(
            rep,
            {0: ("p1",), 1: ("a1", "p2"), 2: ("a2",)},
            {("a1", "p1"): w, ("p2", "p1"): u, ("a2", "a1"): [(e, -c) for e, c in u],
             ("a2", "p2"): w},
            2,
        )
        c = build_complex(cw)
        cd = build_complex(dual_complex(cw))
        # q = 1 block carries sign (-1)^{1*(2-1)} = -1, q = 0 carries +1
        np.testing.assert_allclose(cd.differential(0).matrix,
                                   -c.differential(1).matrix.conj().T, atol=1e-14)
        np.testing.assert_allclose(cd.differential(1).matrix,
                                   c.differential(0).matrix.conj().T, atol=1e-14)

    def test_dual_of_dual_restores_torsion(self):
        cw = circle(RegularRepresentation(vn.cyclic_group(5)))
        assert abs(t_comb(dual_complex(dual_complex(cw))) - t_comb(cw)) < 1e-12

    def test_interval_dualized(self):
        # the dual of the interior-minimum interval has one top cell
        cw = dual_complex(interval_tau2(TRIVIAL))
        c = build_complex(cw)
        assert [c.module(q).ambient_dim for q in (0, 1)] == [0, 1]
        assert t_comb(cw) == 0.0

    def test_duality_residual_on_examples(self):
        rng = np.random.default_rng(5)
        for rep in _some_representations(rng):
            for cw in (point(rep), interval_tau2(rep), circle(rep)):
                assert duality_residual(cw) < RESIDUAL_TOL

    def test_duality_residual_dimension_two(self):
        rep = RegularRepresentation(vn.cyclic_group(6))
        w = (("t", 1.0), ("e", -1.0))
        u = ((("t", 2), 0.25), ("e", 0.75))
        cw = TwistedCellComplex(
            rep,
            {0: ("p1",), 1: ("a1", "p2"), 2: ("a2",)},
            {("a1", "p1"): w, ("p2", "p1"): u, ("a2", "a1"): [(e, -c) for e, c in u],
             ("a2", "p2"): w},
            2,
        )
        assert duality_residual(cw) < RESIDUAL_TOL


class TestOrientationsAndUnions:
    def test_flip_cell_signs_preserves_torsion(self):
        rep = RegularRepresentation(vn.cyclic_group(4))
        cw = circle(rep)
        for labels in (["min"], ["max"], ["min", "max"]):
            flipped = flip_cell_signs(cw, labels)
            assert abs(t_comb(flipped) - t_comb(cw)) < 1e-12

    def test_flip_is_diagonal_sign_conjugation(self):
        rep = RegularRepresentation(vn.cyclic_group(3))
        w = (("t", 1.0), ("e", -1.0))
        cw = TwistedCellComplex(rep, {0: ("p", "q"), 1: ("a",)},
                                {("a", "p"): w, ("a", "q"): w}, 1)
        flipped = flip_cell_signs(cw, ["p"])
        a = build_complex(cw).differential(0).matrix
        b = build_complex(flipped).differential(0).matrix
        signs = np.kron(np.diag([-1.0, 1.0]), np.eye(3))
        np.testing.assert_allclose(b, a @ signs, atol=1e-14)

    def test_flip_unknown_cell_rejected(self):
        with pytest.raises(DataValidationError, match="unknown"):
            flip_cell_signs(circle(TRIVIAL), ["nope"])

    def test_disjoint_union_additivity(self):
        rep = RegularRepresentation(vn.cyclic_group(3))
        a = relabel(circle(rep), "a_")
        b = relabel(interval_tau2(rep), "b_")
        union = disjoint_union(a, b)
        assert abs(t_comb(union) - t_comb(a) - t_comb(b)) < 1e-12
        assert build_complex(union).euler_characteristic() == pytest.approx(
            build_complex(a).euler_characteristic() + build_complex(b).euler_characteristic())

    def test_disjoint_union_rejects_label_collisions(self):
        cw = circle(TRIVIAL)
        with pytest.raises(DataValidationError, match="collide"):
            disjoint_union(cw, cw)


class TestGluing:
    def test_circle_from_arcs_matches_direct_circle(self):
        rep = RegularRepresentation(vn.cyclic_group(3))
        glued, _ = glue(circle_from_arcs(rep))
        assert abs(t_comb(glued) - t_comb(circle(rep))) < 1e-12

    def test_glued_sequence_carries_the_rank_cutoff(self):
        rep = RegularRepresentation(vn.cyclic_group(6))
        _, ses = glue(circle_from_arcs(rep), rank_tol=0.5)
        assert ses.rank_tol == 0.5
        report = glue_check(circle_from_arcs(rep), rank_tol=0.5)
        assert report["residual"] < RESIDUAL_TOL

    def test_a_gluing_sequence_is_exact_by_construction_and_keeps_its_chain_check(
            self, monkeypatch):
        # the glued complex comes from cell assembly, not from the pieces'
        # arrays, so its inclusion and restriction are checked against the
        # differentials; their exactness holds by construction
        from torsionlab.complexes import ComplexMorphism
        checked = []
        original = ComplexMorphism.validate
        monkeypatch.setattr(ComplexMorphism, "validate",
                            lambda self: checked.append(self) or original(self))
        _, ses = glue(circle_from_arcs(RegularRepresentation(vn.cyclic_group(5))))
        assert checked == [ses.f, ses.g] and ses.by_construction

    def test_glue_check_builds_each_cell_complex_once(self, monkeypatch):
        import torsionlab.cells as cells
        built = []
        original = cells.build_complex

        def spy(cw, *args, **kwargs):
            built.append(cw)
            return original(cw, *args, **kwargs)

        monkeypatch.setattr(cells, "build_complex", spy)
        report = glue_check(circle_from_arcs(RegularRepresentation(vn.cyclic_group(5))))
        assert len(built) == 3  # the glued complex, the upper and the lower piece
        assert report["residual"] < RESIDUAL_TOL

    def test_glue_check_on_circle_holonomies(self):
        for lam in (-1.0, 1j, np.exp(1j * np.pi / 5)):
            rep = UnitaryRepresentation({"t": [[lam]]})
            report = glue_check(circle_from_arcs(rep))
            assert report["residual"] < RESIDUAL_TOL
            np.testing.assert_allclose(report["t_comb"], np.log(abs(lam - 1)),
                                       atol=1e-12)
            assert report["t_comb_upper"] == 0.0
            assert report["t_comb_lower"] == 0.0
            np.testing.assert_allclose(abs(report["t_h"]),
                                       abs(np.log(abs(lam - 1))), atol=1e-10)

    def test_glue_check_empty_factors(self):
        spec = GluingSpec(lower=relabel(interval_tau1(TRIVIAL), "lo_"),
                          upper=relabel(interval_tau1(TRIVIAL), "up_"),
                          coupling={})
        report = glue_check(spec)
        assert all(v == 0.0 for v in report.values())

    def test_zero_coupling_is_split(self):
        lower = TwistedCellComplex(TRIVIAL, {0: ("p1",)}, {}, 1)
        upper = TwistedCellComplex(TRIVIAL, {1: ("a2",)}, {}, 1)
        report = glue_check(GluingSpec(lower=lower, upper=upper, coupling={}))
        assert report["residual"] < RESIDUAL_TOL
        assert abs(report["t_h"]) < RESIDUAL_TOL

    def test_random_couplings_in_dimension_one(self):
        # degree windows of width one place no constraint on the coupling,
        # so arbitrary interface words must satisfy the gluing formula
        rng = np.random.default_rng(23)
        reps = list(_some_representations(rng))
        for trial in range(20):
            rep = reps[trial % len(reps)]
            word = [(int(rng.integers(-3, 4)),
                     complex(rng.standard_normal(), rng.standard_normal()))
                    for _ in range(int(rng.integers(1, 4)))]
            report = glue_check(circle_from_arcs(rep, coupling_word=word))
            assert report["residual"] < RESIDUAL_TOL

    def test_random_couplings_in_dimension_two(self):
        # two cylinder halves over an abelian group: the interface words
        # u and -u commute past t - 1, so delta^2 = 0 holds by construction
        rng = np.random.default_rng(31)
        w = (("t", 1.0), ("e", -1.0))
        for m in (2, 3, 5):
            rep = RegularRepresentation(vn.cyclic_group(m))
            for _ in range(3):
                u = [(int(rng.integers(0, m)),
                      complex(rng.standard_normal(), rng.standard_normal()))
                     for _ in range(2)]
                lower = TwistedCellComplex(rep, {0: ("p1",), 1: ("a1",)},
                                           {("a1", "p1"): w}, 2)
                upper = TwistedCellComplex(rep, {1: ("p2",), 2: ("a2",)},
                                           {("a2", "p2"): w}, 2)
                coupling = {("p2", "p1"): u, ("a2", "a1"): [(e, -c) for e, c in u]}
                report = glue_check(GluingSpec(lower=lower, upper=upper,
                                               coupling=coupling))
                assert report["residual"] < RESIDUAL_TOL

    def test_glued_differential_is_block_triangular(self):
        rep = RegularRepresentation(vn.cyclic_group(2))
        glued, ses = glue(circle_from_arcs(rep))
        c = build_complex(glued)
        # upper cells come first; nothing maps from upper back into lower
        mat = c.differential(0).matrix
        assert mat.shape == (2, 2)
        # inclusion of the upper complex is an isometry onto the first block
        inc = ses.f.component(1).matrix
        np.testing.assert_allclose(inc.conj().T @ inc, np.eye(2), atol=1e-14)

    def test_invalid_coupling_rejected(self):
        # a coupling that breaks delta^2 = 0 must name the offending cells
        rep = RegularRepresentation(vn.cyclic_group(3))
        w = (("t", 1.0), ("e", -1.0))
        lower = TwistedCellComplex(rep, {0: ("p1",), 1: ("a1",)},
                                   {("a1", "p1"): w}, 2)
        upper = TwistedCellComplex(rep, {1: ("p2",), 2: ("a2",)},
                                   {("a2", "p2"): w}, 2)
        coupling = {("p2", "p1"): (("e", 1.0),)}
        with pytest.raises(DataValidationError, match="compose"):
            glue(GluingSpec(lower=lower, upper=upper, coupling=coupling))

    def test_coupling_direction_validated(self):
        rep = TRIVIAL
        lower = TwistedCellComplex(rep, {0: ("p1",)}, {}, 1)
        upper = TwistedCellComplex(rep, {1: ("a2",)}, {}, 1)
        with pytest.raises(DataValidationError, match="upper cell"):
            glue(GluingSpec(lower=lower, upper=upper,
                            coupling={("p1", "a2"): (("e", 1.0),)}))


class TestProducts:
    def test_circle_times_interval(self):
        prod = product_complex(circle_holonomy(-1.0), interval_tau2(TRIVIAL))
        np.testing.assert_allclose(torsion(prod), np.log(2), atol=1e-12)

    def test_anything_times_empty_interval_vanishes(self):
        prod = product_complex(circle_holonomy(-1.0), interval_tau1(TRIVIAL))
        assert torsion(prod) == 0.0
        assert all(prod.module(q).ambient_dim == 0
                   for q in range(prod.offset, prod.offset + len(prod.modules)))

    def test_torus_torsion_vanishes(self):
        prod = product_complex(circle_holonomy(1.0), circle_holonomy(1.0))
        np.testing.assert_allclose(torsion(prod), 0.0, atol=1e-12)

    def test_product_with_group_factor(self):
        rep = RegularRepresentation(vn.cyclic_group(3))
        prod = product_complex(circle(rep), interval_tau2(TRIVIAL))
        np.testing.assert_allclose(torsion(prod), t_comb(circle(rep)), atol=1e-10)


class TestAdjointWords:
    def test_adjoint_round_trip(self):
        rep = RegularRepresentation(vn.cyclic_group(5))
        word = [(("t", 2), 1.0 + 2.0j), ("e", -0.5)]
        twice = adjoint_word(adjoint_word(word))
        np.testing.assert_allclose(_word_matrix(rep, twice), _word_matrix(rep, word),
                                   atol=1e-14)

    def test_every_element_form_round_trips_on_every_representation(self):
        # an integer power, "e", a label, "t^k" over Z/m, and pairs with
        # powers outside [0, m): the adjoint negates each power, so applying
        # it twice gives back the word on every representation
        rng = np.random.default_rng(3)
        m = 5
        cyclic = [(3, 0.5j), ("e", -1.0), ("t", 2.0), ("t^2", 1.0 - 1.0j),
                  (("t^3", 7), 0.25), (("t", -6), 1.5)]
        unitary = [(3, 0.5j), ("e", -1.0), ("s", 2.0), (("s", -4), 0.25), (("t", 7), 1.5)]
        integer = [(3, 0.5j), ("e", -1.0), ("t", 2.0), (("t", -6), 1.5)]
        reps = [(RegularRepresentation(vn.cyclic_group(m), fiber_dim=2), cyclic),
                (UnitaryRepresentation({"t": _random_unitary(rng, 2),
                                        "s": _random_unitary(rng, 2)}), unitary)]
        for rep, word in reps:
            twice = adjoint_word(adjoint_word(word))
            np.testing.assert_array_equal(_word_matrix(rep, twice), _word_matrix(rep, word))
            np.testing.assert_allclose(_word_matrix(rep, adjoint_word(word)),
                                       _word_matrix(rep, word).conj().T, atol=1e-12)
        rep, word = reps[0]
        np.testing.assert_array_equal(rep.word_blocks(adjoint_word(adjoint_word(word))),
                                      rep.word_blocks(word))
        np.testing.assert_allclose(rep.word_blocks(adjoint_word(word)),
                                   rep.word_blocks(word).conj().swapaxes(-1, -2), atol=1e-12)
        edge = {0: ("p",), 1: ("a",)}
        over_z = [cw_to_laurent(TwistedCellComplex(InfiniteCyclic(), edge, {("a", "p"): w}, 1))[0]
                  for w in (integer, adjoint_word(integer), adjoint_word(adjoint_word(integer)))]
        assert over_z[2] == over_z[0] and over_z[1] == over_z[0].adjoint()

    def test_adjoint_matches_matrix_adjoint(self):
        rng = np.random.default_rng(7)
        for rep in _some_representations(rng):
            word = [(1, 0.5 - 0.25j), (("t", -1), 1.5j), ("e", 2.0)]
            np.testing.assert_allclose(_word_matrix(rep, adjoint_word(word)),
                                       _word_matrix(rep, word).conj().T, atol=1e-12)


def test_a_differential_whose_words_cancel_has_rank_zero_in_every_reading():
    # the trefoil's d_1 at t = exp(2 pi i / 6): 1 - t + t^2 evaluates to
    # rounding (~1e-16) of its magnitude 3, so it is zero for the spectral
    # stage and the polar decomposition alike, and its scale is the words'
    z = np.exp(2j * np.pi / 6)
    delta = [("e", 1), ("t", -1), (("t", 2), 1)]
    cw = TwistedCellComplex(
        UnitaryRepresentation({"t": [[z]]}), {0: ["v"], 1: ["x", "y"], 2: ["r"]},
        {("x", "v"): [("t", 1), ("e", -1)], ("y", "v"): [("t", 1), ("e", -1)],
         ("r", "x"): delta, ("r", "y"): [(e, -c) for e, c in delta]}, 2)
    d1 = build_complex(cw).differentials[1]
    assert d1.norm_bound == pytest.approx(np.sqrt(18.0)) and d1.norm() < 1e-15
    assert vn.spectral_stage(d1)[1].tolist() == [0]
    iso, wiso = vn.polar_decompose(d1)
    assert iso.norm() == 0.0 and wiso.norm() == 0.0
