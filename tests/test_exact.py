"""Tests for short exact sequences, connecting maps and torsion additivity."""

import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torsionlab.complexes import (
    CochainComplex,
    ComplexMorphism,
    hodge,
    induced_harmonic_map,
    mapping_cone,
    pad_complex,
    suspension,
    torsion,
)
from torsionlab.errors import DataValidationError
from torsionlab.exact import (
    ComplexSES,
    MilnorReport,
    cone_ses,
    connecting_hom,
    long_sequence,
    milnor_check,
    three_stage_torsion,
)
from torsionlab.generators import (
    random_alinear_invertible,
    random_alinear_unitary,
    random_chain_morphism,
    random_cochain_complex,
    random_ses,
)
from torsionlab.vn import (
    HilbertModule,
    Morphism,
    complex_field,
    cyclic_group,
)

MILNOR_TOL = 1e-7
CONNECTING_TOL = 1e-9

CF = complex_field()


def _one_degree_ses(f_mat, g_mat):
    c1 = CochainComplex([HilbertModule(CF, np.atleast_2d(f_mat).shape[1])], [], 0)
    c2 = CochainComplex([HilbertModule(CF, np.atleast_2d(f_mat).shape[0])], [], 0)
    c3 = CochainComplex([HilbertModule(CF, np.atleast_2d(g_mat).shape[0])], [], 0)
    f = ComplexMorphism(c1, c2, [Morphism(c1.modules[0], c2.modules[0], f_mat)])
    g = ComplexMorphism(c2, c3, [Morphism(c2.modules[0], c3.modules[0], g_mat)])
    return ComplexSES(f, g)


def test_validation_catches_broken_sequences():
    _one_degree_ses([[1.0], [0.0]], [[0.0, 1.0]])  # the honest one passes
    with pytest.raises(DataValidationError, match="injective"):
        _one_degree_ses([[0.0], [0.0]], [[0.0, 1.0]])
    with pytest.raises(DataValidationError, match="surjective"):
        _one_degree_ses([[1.0], [0.0]], [[0.0, 0.0]])
    with pytest.raises(DataValidationError, match="not zero"):
        _one_degree_ses([[1.0], [0.0]], [[1.0, 0.0]])


def test_morphisms_must_share_one_middle_object():
    # an equal but distinct middle complex is a different complex
    ses = random_ses(np.random.default_rng(7), CF)
    copy = CochainComplex(ses.middle.modules, ses.middle.differentials, ses.middle.offset)
    f = ComplexMorphism(ses.first, copy, ses.f.components)
    with pytest.raises(DataValidationError, match="do not share a middle complex"):
        ComplexSES(f, ses.g)


def test_validation_catches_middle_rank_gap():
    c1 = CochainComplex([HilbertModule(CF, 1)], [], 0)
    c2 = CochainComplex([HilbertModule(CF, 3)], [], 0)
    c3 = CochainComplex([HilbertModule(CF, 1)], [], 0)
    f = ComplexMorphism(c1, c2, [Morphism(c1.modules[0], c2.modules[0],
                                          [[1.0], [0.0], [0.0]])])
    g = ComplexMorphism(c2, c3, [Morphism(c2.modules[0], c3.modules[0],
                                          [[0.0, 0.0, 1.0]])])
    with pytest.raises(DataValidationError, match="middle"):
        ComplexSES(f, g)


def test_ranks_that_overcount_the_middle_are_not_exact_there():
    # g o f = 1e-11 vanishes, yet both maps have rank one in a
    # one-dimensional middle: the stage's rank bookkeeping fails
    c1, c2, c3 = (CochainComplex([HilbertModule(CF, 1)], [], 0) for _ in range(3))
    f = ComplexMorphism(c1, c2, [Morphism(c1.modules[0], c2.modules[0], [[1.0]])])
    g = ComplexMorphism(c2, c3, [Morphism(c2.modules[0], c3.modules[0], [[1e-11]])])
    with pytest.raises(DataValidationError, match="not exact in the middle"):
        ComplexSES(f, g, rank_tol=1e-12)


def test_three_stage_torsion_hand_examples():
    dom = HilbertModule(CF, 1)
    mid = HilbertModule(CF, 2)
    f = Morphism(dom, mid, [[2.0], [0.0]])
    g = Morphism(mid, dom, [[0.0, 3.0]])
    c = CochainComplex([dom, mid, dom], [f, g], 0)
    assert three_stage_torsion(c) == pytest.approx(np.log(2.0) - np.log(3.0),
                                                   abs=1e-12)
    unit = CochainComplex([dom, mid, dom],
                          [Morphism(dom, mid, [[1.0], [0.0]]),
                           Morphism(mid, dom, [[0.0, 1.0]])], 0)
    assert three_stage_torsion(unit) == pytest.approx(0.0, abs=1e-12)
    # positional signs: a shifted copy gives the same value
    assert three_stage_torsion(c.shifted(5)) == pytest.approx(
        three_stage_torsion(c), abs=1e-12)
    with pytest.raises(DataValidationError, match="3 modules"):
        three_stage_torsion(CochainComplex([dom, mid], [f], 0))


def test_split_sequence_has_zero_connecting_maps():
    rng = np.random.default_rng(30)
    ses = random_ses(rng, CF, length=3, max_rank=2, twist=False)
    for i in list(ses.degrees())[:-1]:
        delta = connecting_hom(ses, i)
        if min(delta.shape):
            assert np.linalg.norm(delta.matrix, 2) < CONNECTING_TOL


def _pinv_zig_zag(ses, i, rng):
    """The connecting map at degree i by numpy's pinv, with the lift along g
    shifted by a random element of ker g = im f, which the harmonic
    projection at the end must kill."""
    hbasis = ses.hodge(3).harmonic_basis(i)[0]
    u = np.linalg.pinv(ses.g.component(i).matrix) @ hbasis
    kernel_shift = ses.f.component(i).matrix @ (
        rng.standard_normal((ses.first.module(i).ambient_dim, hbasis.shape[1]))
        + 1j * rng.standard_normal((ses.first.module(i).ambient_dim, hbasis.shape[1])))
    v = ses.middle.differential(i).matrix @ (u + kernel_shift)
    w = np.linalg.pinv(ses.f.component(i + 1).matrix) @ v
    return ses.hodge(1).harmonic_basis(i + 1)[0].conj().T @ w


def test_connecting_is_independent_of_the_lift():
    rng = np.random.default_rng(34)
    ses = random_ses(rng, CF, length=3, max_rank=2)
    h1, h3 = ses.hodge(1), ses.hodge(3)
    for i in list(ses.degrees())[:-1]:
        if h3.harmonic_dim(i) == 0 or h1.harmonic_dim(i + 1) == 0:
            continue
        assert_allclose(_pinv_zig_zag(ses, i, rng), connecting_hom(ses, i).matrix, atol=1e-9)


def _conjugated_cone(rng, ctx, frame, inverse):
    """The cone sequence of a random chain map, conjugated by algebra-linear
    frames U_i of the cone's modules: d -> U d U^-1, f -> U f, g -> g U^-1.
    This keeps the sequence and its connecting maps, while f and g stop
    being coordinate maps (and, for frames that are not unitary, f* f and
    g g* stop being identities)."""
    c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=True)
    cone, include, project = mapping_cone(f)
    frames = [frame(rng, ctx, m.ambient_dim // ctx.size) for m in cone.modules]
    inverses = [inverse(u) for u in frames]
    turned = CochainComplex(cone.modules, [
        Morphism(d.domain, d.codomain, frames[k + 1] @ d.array @ inverses[k])
        for k, d in enumerate(cone.differentials)], cone.offset)
    return ComplexSES(
        ComplexMorphism(include.source, turned, [
            Morphism(j.domain, j.codomain, u @ j.array)
            for j, u in zip(include.components, frames)]),
        ComplexMorphism(turned, project.target, [
            Morphism(p.domain, p.codomain, p.array @ u_inv)
            for p, u_inv in zip(project.components, inverses)]))


def _adjoint(u):
    return u.conj().T


def _ill_conditioned(rng, ctx, rank):
    return random_alinear_invertible(rng, ctx, rank, max_cond=1e3)


def _inverse(u):
    return np.linalg.inv(u) if u.size else u


@pytest.mark.parametrize("ctx, frame, inverse", [
    (CF, random_alinear_unitary, _adjoint),
    (cyclic_group(3), random_alinear_unitary, _adjoint),
    (CF, _ill_conditioned, _inverse),
    (cyclic_group(3), _ill_conditioned, _inverse),
], ids=["C", "Z/3", "C-invertible", "Z/3-invertible"])
def test_connecting_matches_a_pinv_zig_zag_on_conjugated_cones(ctx, frame, inverse):
    # The connecting maps of random sequences vanish (coboundary twists),
    # and a cone sequence's f and g are coordinate maps; conjugated, its
    # connecting maps are nonzero here.
    rng = np.random.default_rng(45)
    ses = _conjugated_cone(rng, ctx, frame, inverse)
    largest = 0.0
    for i in list(ses.degrees())[:-1]:
        delta = connecting_hom(ses, i).matrix
        if delta.size:
            assert_allclose(_pinv_zig_zag(ses, i, rng), delta, atol=1e-9)
            largest = max(largest, np.abs(delta).max())
    assert largest > 0.1


def test_connecting_maps_run_no_eigensolve(monkeypatch):
    # With the harmonic bases of the outer complexes read, a connecting map
    # is two solves: its lifts invert maps that validation showed injective
    # and surjective, and make no rank decision of their own.
    ses = _conjugated_cone(np.random.default_rng(45), CF, random_alinear_unitary, _adjoint)
    for k in (1, 2, 3):
        ses.hodge(k).harmonic_bases
    calls = []
    for name in ("eigh", "eigvalsh"):
        def spy(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    nonzero = 0
    for i in list(ses.degrees())[:-1]:
        nonzero += bool(np.abs(connecting_hom(ses, i).array).max(initial=0.0) > 0.1)
    assert calls == [] and nonzero


def test_connecting_on_carriers_with_block_masks():
    # C2 = (M --d--> M) over a carrier M of Z/3 with 2, 1 and 0 coordinates
    # in its three blocks, C1 its degree-1 part and C3 its degree-0 part:
    # the connecting map is d.  The Gram stacks of f and g are singular on
    # the coordinates a block lacks, where the solves must return zeros.
    ctx = cyclic_group(3)
    mask = np.array([[True, True], [False, True], [False, False]])
    m = HilbertModule(ctx, int(mask.sum()), free=False, blocks=3, block_mask=mask)
    zero = HilbertModule(ctx, 0, free=False, blocks=3)
    d = np.zeros((3, 2, 2), np.complex128)
    d[0] = [[2.0, 1.0], [0.0, 3.0]]
    d[1, 1, 1] = 0.5
    c1 = CochainComplex([zero, m], [Morphism.zero(zero, m)])
    c2 = CochainComplex([m, m], [Morphism(m, m, d)])
    c3 = CochainComplex([m, zero], [Morphism.zero(m, zero)])
    ses = ComplexSES(
        ComplexMorphism(c1, c2, [Morphism.zero(zero, m), Morphism.identity(m)]),
        ComplexMorphism(c2, c3, [Morphism.identity(m), Morphism.zero(m, zero)]))
    b1, b3 = ses.hodge(1).harmonic_basis(1), ses.hodge(3).harmonic_basis(0)
    want = b1.conj().swapaxes(-1, -2) @ d @ b3
    assert_allclose(connecting_hom(ses, 0).array, want, atol=1e-12)
    assert milnor_check(ses).residual < MILNOR_TOL


def test_long_sequence_is_acyclic_with_tripled_offset():
    rng = np.random.default_rng(36)
    for ctx in [CF, cyclic_group(3)]:
        ses = random_ses(rng, ctx, length=3, max_rank=2, offset=-1)
        seq = long_sequence(ses)
        assert seq.offset == -3
        assert len(seq.modules) == 3 * len(ses.first.modules)
        assert hodge(seq).is_acyclic()


def test_milnor_additivity_on_random_sequences():
    rng = np.random.default_rng(38)
    for ctx in [CF, cyclic_group(2), cyclic_group(3)]:
        for _ in range(5):
            offset = int(rng.integers(-2, 3))
            ses = random_ses(rng, ctx, length=3, max_rank=2, offset=offset)
            report = milnor_check(ses)
            assert report.residual < MILNOR_TOL * (1.0 + abs(report.t2))
            assert report.lhs == pytest.approx(report.t2)
            assert set(report.degreewise) == set(ses.degrees())


def _sub_complex_sequence(diagonal, rank_tol):
    """C2 = (C^n --diag--> C^n) with sub-complex its degree-1 part: the
    connecting map is the differential."""
    n = len(diagonal)
    mods = [HilbertModule(CF, k) for k in (0, n, n, n, 0)]
    d = Morphism(mods[1], mods[2], np.diag(diagonal))
    c1 = CochainComplex([mods[0], mods[3]], [Morphism(mods[0], mods[3], np.zeros((n, 0)))])
    c2 = CochainComplex([mods[1], mods[2]], [d])
    c3 = CochainComplex([mods[3], mods[4]], [Morphism(mods[3], mods[4], np.zeros((0, n)))])
    f = ComplexMorphism(c1, c2, [Morphism(mods[0], mods[1], np.zeros((n, 0))),
                                 Morphism.identity(mods[2])])
    g = ComplexMorphism(c2, c3, [Morphism.identity(mods[1]),
                                 Morphism(mods[2], mods[4], np.zeros((0, n)))])
    return ComplexSES(f, g, rank_tol=rank_tol)


def test_milnor_long_sequence_torsion_uses_the_sequence_cutoff():
    # Singular values 1 and 1e-7: the default cutoff (about 3.4e-7) would
    # drop 1e-7 from t_h while the sequence, built at rank_tol 1e-9, keeps
    # it in t2 and in exactness.
    ses = _sub_complex_sequence([1.0, 1e-7], 1e-9)
    report = milnor_check(ses)
    assert abs(report.t_h) == pytest.approx(7 * np.log(10), rel=1e-9)
    assert report.t_h == pytest.approx(torsion(long_sequence(ses), ses.rank_tol), abs=1e-12)
    assert report.residual < MILNOR_TOL


@pytest.mark.parametrize("sigma", [1e-8, 1e-6])
def test_long_sequence_snaps_at_the_sequence_cutoff(sigma):
    # At rank_tol 1e-12 the Hodge data keep sigma, so the long sequence is
    # exact only if its connecting map (norm sigma) is not snapped to zero;
    # the default snap cutoff (about 3.4e-7) zeroed sigma = 1e-8.
    report = milnor_check(_sub_complex_sequence([sigma], 1e-12))
    assert report.t_h == pytest.approx(np.log(sigma), rel=1e-12)
    assert report.residual == 0.0


def test_milnor_report_is_deterministic():
    # two equal but distinct sequences, so the second report is recomputed
    # rather than read from the Hodge data cached on the first
    first, second = (random_ses(np.random.default_rng(40), CF, length=3, max_rank=2)
                     for _ in range(2))
    assert first.middle is not second.middle
    r1 = milnor_check(first)
    r2 = milnor_check(second)
    assert r1 == r2
    assert isinstance(r1, MilnorReport)


def _sequence(case):
    """A length-4 random sequence, or the cone sequence of a length-3 chain
    map whose complexes' torsions are already known."""
    if case != "cone":
        ctx = CF if case == "C" else cyclic_group(3)
        return random_ses(np.random.default_rng(44), ctx, length=4, max_rank=2)
    rng = np.random.default_rng(46)
    c, shape = random_cochain_complex(rng, CF, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
    torsion(f.source)
    torsion(f.target)
    return cone_ses(f)


# The parent of the two-stage Hodge data made (eigvalsh, eigh) = (23, 21),
# (21, 19) and (15, 17) solves here, and 28 range bases for the cone.  The
# cone's two nonzero connecting maps took two eigh each while their lifts
# were least-squares solves through a Gram spectrum: (5, 15) before.
@pytest.mark.parametrize("case, eigvalsh, eigh", [
    ("C", 11, 16),
    ("Z/3", 10, 15),
    ("cone", 5, 11),
], ids=["C", "Z/3", "cone"])
def test_milnor_check_decomposes_every_complex_once(case, eigvalsh, eigh, monkeypatch):
    import torsionlab.complexes as complexes
    ses = _sequence(case)  # validated: its stages' spectra are known
    solves = {"eigvalsh": 0, "eigh": 0}
    for name in solves:
        def count(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            solves[_name] += 1
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, count)
    bases = []
    original = complexes._range_basis

    def spy(d, *args, **kwargs):
        bases.append(d)
        return original(d, *args, **kwargs)

    monkeypatch.setattr(complexes, "_range_basis", spy)
    milnor_check(ses)
    # Each differential of C1, C2, C3 and the long sequence gets one
    # eigvalsh (torsion, exactness, the snap norm) and, where a harmonic
    # basis is read, one eigh; a padded or suspended complex reuses those
    # of the complex it wraps, a stage complex gets no bases, and a
    # connecting map no eigensolve.
    assert solves == {"eigvalsh": eigvalsh, "eigh": eigh}
    stage_maps = {id(d) for stage in ses.stages for d in stage.differentials}
    assert not stage_maps & {id(d) for d in bases}
    assert len(bases) == sum(len(c.differentials) for c in (ses.first, ses.middle, ses.last))


@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_cone_sequence_reads_the_harmonic_bases_of_its_factors(ctx, monkeypatch):
    # The outer complexes of the cone sequence are C2 padded and SC1 padded.
    # After hodge(C1) and hodge(C2) they read the spectra and range bases
    # kept with those differentials, and project their own harmonic
    # modules: 4 eigh from complexes, as the cone is acyclic here.  Their
    # harmonic bases are those of hodge(C2) and hodge(C1), bit for bit.
    import torsionlab.complexes as complexes
    rng = np.random.default_rng(46)
    c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
    h1, h2 = hodge(f.source), hodge(f.target)
    want1, want2 = h1.harmonic_bases, h2.harmonic_bases  # complete both before counting
    projections, measured = [], []
    eigh, gram_spectrum = np.linalg.eigh, complexes.gram_spectrum

    def spy(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "torsionlab.complexes":
            projections.append(1)  # range bases come from kernel.spectrum
        return eigh(*args, **kwargs)

    def spy_gram(matrix, *args, **kwargs):
        measured.append(matrix)
        return gram_spectrum(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(complexes, "gram_spectrum", spy_gram)
    ses = cone_ses(f)
    report = milnor_check(ses)
    assert len(projections) == 4
    wrapped = [d.array for d in ses.first.differentials + ses.last.differentials]
    assert not [a for a in wrapped for m in measured if a is m]  # no eigvalsh, no range eigh
    for got, want in ((hodge(ses.first).harmonic_bases[1:], want2),
                      (hodge(ses.last).harmonic_bases[:-1], want1)):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert ses.hodge(2).is_acyclic() and not ses.hodge(1).is_acyclic()
    assert report.residual < MILNOR_TOL * (1.0 + abs(report.t2))


def _hodge_bytes(h):
    return [(a.shape, a.tobytes()) for arrays in
            (h.harmonic_bases, h.plus_bases, h.minus_bases, h.reduced) for a in arrays]


@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_cone_and_padded_results_do_not_depend_on_call_order(ctx):
    # Each result is computed on a fresh copy of one chain map f : C1 -> C2,
    # cold and after hodge(C1) and hodge(C2): the kept spectra and range
    # bases change no bit of a report or a basis.
    def cone(f):
        ses = cone_ses(f)
        report = milnor_check(ses)
        return repr(report), [_hodge_bytes(ses.hodge(k)) for k in (1, 2, 3)]

    def padded(f):
        c = f.source
        return _hodge_bytes(hodge(pad_complex(c, c.offset - 1, c.top_degree + 1)))

    for compute in (cone, padded):
        results = []
        for warm in (False, True):
            rng = np.random.default_rng(46)
            c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
            f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
            if warm:
                hodge(f.source).harmonic_bases
                hodge(f.target).harmonic_bases
            results.append(compute(f))
        assert results[0] == results[1]


@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_structural_checks_bound_each_morphism_once(ctx, monkeypatch):
    # d o d = 0, the chain rule and g o f = 0 read the norm bound kept on
    # each morphism: building the instances, milnor_check of a cone sequence
    # and a ComplexSES built twice over one f and g bound each array once.
    import torsionlab.complexes as complexes
    import torsionlab.exact as exact
    import torsionlab.vn as vn
    bounded = []
    original = vn.norm_lower_bound

    def spy(a):
        bounded.append(a)  # kept alive, so no two ids coincide
        return original(a)

    for module in (vn, complexes, exact):
        monkeypatch.setattr(module, "norm_lower_bound", spy, raising=False)
    rng = np.random.default_rng(46)
    c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
    milnor_check(cone_ses(f))
    ses = random_ses(np.random.default_rng(44), ctx, length=4, max_rank=2)
    built = len(bounded)
    for _ in range(2):
        milnor_check(ComplexSES(ses.f, ses.g))
    assert built > 0 and len(bounded) == built
    assert len({id(a) for a in bounded}) == len(bounded)


@pytest.mark.parametrize("case", ["Z/3", "cone"])
def test_repeated_milnor_check_measures_no_empty_map(case, monkeypatch):
    import torsionlab.complexes as complexes
    import torsionlab.kernel as kernel
    ses = _sequence(case)
    first = milnor_check(ses)
    empty = []
    original = kernel.spectrum

    def spy(a, *args, **kwargs):
        if a.size == 0:
            empty.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(kernel, "spectrum", spy)
    monkeypatch.setattr(complexes, "spectrum", spy)
    assert milnor_check(ses) == first
    assert empty == []
    # the long sequence is built on the carriers of the three Hodge data
    seq = long_sequence(ses)
    carriers = [ses.hodge(k).harmonic_module(i) for i in ses.degrees() for k in (1, 2, 3)]
    assert all(a is b for a, b in zip(seq.modules, carriers, strict=True))
    for i, d in enumerate(seq.differentials):
        assert d.domain is seq.modules[i] and d.codomain is seq.modules[i + 1]


def test_cone_sequence_connecting_is_induced_map_up_to_sign():
    rng = np.random.default_rng(42)
    for ctx in [CF, cyclic_group(2)]:
        for _ in range(5):
            c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
            f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
            ses = cone_ses(f)
            for i in list(ses.degrees())[:-1]:
                delta = connecting_hom(ses, i).matrix
                induced = induced_harmonic_map(f, i + 1).matrix
                if delta.size == 0:
                    assert induced.size == 0
                    continue
                dist = min(np.linalg.norm(delta - induced, 2),
                           np.linalg.norm(delta + induced, 2))
                assert dist < CONNECTING_TOL


def test_cone_of_surjection_matches_suspended_kernel_torsion():
    # holds whenever no harmonic coupling survives the twist: acyclic
    # factors (twisted) or arbitrary factors with a split (untwisted) middle
    rng = np.random.default_rng(44)
    for ctx in [CF, cyclic_group(2)]:
        for acyclic, twist in [(True, True), (False, False)]:
            for _ in range(4):
                ses = random_ses(rng, ctx, length=3, max_rank=2,
                                 twist=twist, acyclic=acyclic)
                cone, _, _ = mapping_cone(ses.g)
                lhs = torsion(cone)
                rhs = torsion(suspension(ses.first))
                assert abs(lhs - rhs) < 1e-8 * (1.0 + abs(rhs))


def test_milnor_holds_for_cone_sequences():
    rng = np.random.default_rng(46)
    c, shape = random_cochain_complex(rng, CF, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=True)
    report = milnor_check(cone_ses(f))
    assert report.residual < MILNOR_TOL * (1.0 + abs(report.t2))
