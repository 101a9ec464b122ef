"""Tests for cochain complexes, Hodge decompositions and torsion."""

import sys
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from torsionlab.complexes import (
    CochainComplex,
    ComplexMorphism,
    direct_sum,
    extension,
    hodge,
    induced_harmonic_map,
    laplacian,
    log_det_prime,
    mapping_cone,
    pad_complex,
    suspension,
    tensor_product,
    torsion,
    torsion_transfer_residual,
    torsion_via_laplacians,
)
from torsionlab.complexes import _kron, _phase_normalize
from torsionlab.errors import DataValidationError
from torsionlab.generators import random_chain_morphism, random_cochain_complex
from torsionlab.vn import (
    HilbertModule,
    Morphism,
    a_linearity_residual,
    complex_field,
    cyclic_group,
    default_rank_tol,
    group_ring_matrix,
    log_vol,
    regular_module,
    singular_values,
    spectral_distribution,
    spectral_stage,
)

ROUTE_AGREEMENT_TOL = 1e-8
TRANSFER_TOL = 1e-8

CF = complex_field()


def _cf_module(n):
    return HilbertModule(CF, n)


def _two_term(matrix, offset=0, ctx=None):
    """0 -> W -> W' -> 0 with the given differential matrix."""
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    ctx = ctx or CF
    dom, cod = HilbertModule(ctx, m.shape[1]), HilbertModule(ctx, m.shape[0])
    return CochainComplex([dom, cod], [Morphism(dom, cod, m)], offset)


def _circle_complex(holonomy):
    return _two_term([[complex(holonomy) - 1.0]])


def test_validation_rejects_nonzero_composition():
    mods = [_cf_module(1), _cf_module(1), _cf_module(1)]
    d0 = Morphism(mods[0], mods[1], [[1.0]])
    d1 = Morphism(mods[1], mods[2], [[1.0]])
    with pytest.raises(DataValidationError) as err:
        CochainComplex(mods, [d0, d1])
    assert "degrees 0 -> 2" in str(err.value)


def test_degree_accessors_and_padding():
    c = _two_term([[2.0]], offset=3)
    assert list(c.degrees()) == [3, 4]
    assert c.module(2).ambient_dim == 0
    assert c.differential(7).shape == (0, 0)
    padded = pad_complex(c, 1, 6)
    assert padded.offset == 1
    assert [m.ambient_dim for m in padded.modules] == [0, 0, 1, 1, 0, 0]
    assert torsion(padded) == pytest.approx(torsion(c), abs=1e-12)


def test_euler_characteristic_uses_true_degrees():
    c = _two_term(np.zeros((2, 1)), offset=0)
    assert c.euler_characteristic() == pytest.approx(1.0 - 2.0)
    assert c.shifted(1).euler_characteristic() == pytest.approx(2.0 - 1.0)
    ctx = cyclic_group(2)
    d = group_ring_matrix([("e", 0.0)], ctx)
    cz = CochainComplex([d.domain, d.codomain], [d], 0)
    assert cz.euler_characteristic() == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Hodge decomposition


def test_hodge_three_term_example():
    mods = [_cf_module(1), _cf_module(2), _cf_module(1)]
    d0 = Morphism(mods[0], mods[1], [[1.0], [0.0]])
    d1 = Morphism(mods[1], mods[2], [[0.0, 1.0]])
    c = CochainComplex(mods, [d0, d1])
    h = hodge(c)
    assert [b.shape[-1] for b in h.harmonic_bases] == [0, 0, 0]
    assert_allclose(h.plus_bases[1][0], [[1.0], [0.0]], atol=1e-12)
    assert_allclose(h.minus_bases[1][0], [[0.0], [1.0]], atol=1e-12)
    assert h.is_acyclic()


def test_hodge_circle_reduced_map():
    c = _circle_complex(1j)
    h = hodge(c)
    assert h.harmonic_dim(0) == 0 and h.harmonic_dim(1) == 0
    assert_allclose(h.reduced[0][0], [[1j - 1.0]], atol=1e-12)


def test_hodge_dimensions_add_up_on_random_complexes():
    rng = np.random.default_rng(5)
    for ctx in [CF, cyclic_group(3)]:
        for _ in range(10):
            c, shape = random_cochain_complex(rng, ctx, length=4, max_rank=2)
            h = hodge(c)
            for i, mod in enumerate(c.modules):
                # the carriers' dimensions: over Z/m a basis stack keeps one
                # width, its dropped columns zero
                harmonic = h.harmonic_module(i).ambient_dim
                plus = h.reduced_morphism(i - 1).codomain.ambient_dim
                minus = h.reduced_morphism(i).domain.ambient_dim
                assert harmonic + plus + minus == mod.ambient_dim
                assert harmonic == shape.harmonic[i] * ctx.size
            # reduced differentials are invertible
            for i in range(len(h.reduced)):
                r = h.reduced_morphism(i)
                if min(r.shape):
                    assert singular_values(r).min() > 1e-10


def test_hodge_bases_are_deterministic():
    rng = np.random.default_rng(6)
    c, _ = random_cochain_complex(rng, CF, length=3)
    # an equal but distinct complex, so the second decomposition is
    # recomputed rather than read from the data cached on c
    twin = CochainComplex(c.modules, c.differentials, c.offset)
    h1 = hodge(c)
    h2 = hodge(twin)
    assert h2.reduced is not h1.reduced
    for a, b in zip(h1.harmonic_bases + h1.reduced, h2.harmonic_bases + h2.reduced):
        assert np.array_equal(a, b)


def test_hodge_data_are_cached_per_cutoff():
    c = _two_term(np.diag([1.0, 5e-6]))
    assert hodge(c).reduced is hodge(c).reduced
    assert hodge(c, 1e-6).reduced is hodge(c, 1e-6).reduced
    assert hodge(c, 1e-6).reduced is not hodge(c).reduced
    assert hodge(c, 1e-6).harmonic_dims != hodge(c, 1e-5).harmonic_dims
    # the complex keeps the arrays, not the HodgeData that refers back to
    # it, so a dropped complex is freed without the cycle collector
    probe = weakref.ref(c)
    del c
    assert probe() is None


def test_complexes_and_their_hodge_data_are_immutable():
    c, _ = random_cochain_complex(np.random.default_rng(7), CF, length=3, max_rank=2)
    with pytest.raises(AttributeError):
        c.offset = 1
    with pytest.raises(AttributeError):
        c.differentials = ()
    assert isinstance(c.modules, tuple) and isinstance(c.differentials, tuple)
    with pytest.raises(ValueError, match="read-only"):
        c.differentials[0].array[0, 0] = 1.0
    h = hodge(c)
    with pytest.raises(AttributeError):
        h.harmonic_dims = ()
    for field in ("harmonic_bases", "harmonic_dims", "plus_bases", "minus_bases",
                  "reduced", "warnings"):
        assert isinstance(getattr(h, field), tuple), field
    for arrays in (h.harmonic_bases, h.plus_bases, h.minus_bases, h.reduced):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def _phase_normalize_loop(columns):
    """The column loop ``_phase_normalize`` replaces, kept as its reference."""
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, float(np.abs(col).max(initial=0.0))))[0]
        if len(nz):
            pivot = col[nz[0]]
            if abs(pivot) > 0:
                out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def test_phase_normalize_matches_the_column_loop_bitwise():
    rng = np.random.default_rng(17)
    for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 6), (9, 5)):
        for _ in range(20):
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            a *= 10.0 ** rng.integers(-14, 3, size=(rows, cols))  # leading entries below 1e-12
            a[:, rng.random(cols) < 0.3] = 0.0                      # zero columns
            a[rng.random((rows, cols)) < 0.2] = -0.0
            got = _phase_normalize(a[None])[0]
            want = _phase_normalize_loop(a)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # a stack is normalized block by block
    stack = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    for block, got in zip(stack, _phase_normalize(stack)):
        assert got.tobytes() == _phase_normalize_loop(block).tobytes()


def test_hodge_flags_ambiguous_rank():
    c = _two_term(np.diag([1.0, 5e-6]))
    h = hodge(c, rank_tol=1e-6)
    assert h.warnings
    assert hodge(c).warnings == ()


@pytest.mark.parametrize("diagonal, rank_tol", [
    ([1e-3, 2.0], 1e-4),
    ([1e-7, 1.0], None),
    ([1e-6, 1.0], None),
])
def test_near_cutoff_ranks_agree_across_routes(diagonal, rank_tol):
    # rank_tol cuts singular values on the reduced-differential route and
    # sqrt(eigenvalue) on the Laplacian route; one policy serves both.
    c = _two_term(np.diag(diagonal))
    assert torsion(c, rank_tol) == pytest.approx(
        torsion_via_laplacians(c, rank_tol), abs=ROUTE_AGREEMENT_TOL)
    if rank_tol is None:
        # the small singular value sits within the ambiguity band of the
        # default cutoff sqrt(2) * 2^-22 ~ 3.4e-7
        assert hodge(c).warnings


# ---------------------------------------------------------------------------
# torsion, both routes


def test_torsion_circle_values():
    assert torsion(_circle_complex(-1.0)) == pytest.approx(np.log(2.0), abs=1e-12)
    assert torsion(_circle_complex(1j)) == pytest.approx(0.5 * np.log(2.0), abs=1e-12)


def test_torsion_respects_true_degree_signs():
    c = _two_term([[3.0]])
    assert torsion(c) == pytest.approx(np.log(3.0), abs=1e-12)
    assert torsion(c.shifted(1)) == pytest.approx(-np.log(3.0), abs=1e-12)


def test_suspension_negates_torsion():
    rng = np.random.default_rng(8)
    c, _ = random_cochain_complex(rng, CF, length=3, max_rank=2)
    s = suspension(c)
    assert s.offset == c.offset - 1
    assert torsion(s) == pytest.approx(-torsion(c), abs=1e-9)
    assert torsion_via_laplacians(s) == pytest.approx(-torsion_via_laplacians(c), abs=1e-9)


def test_shifted_padded_and_suspended_complexes_reuse_the_hodge_data():
    c, _ = random_cochain_complex(np.random.default_rng(9), CF, length=3, max_rank=2)
    h = hodge(c)
    padded = pad_complex(c, c.offset - 1, c.top_degree + 1)
    for other, inner in ((c.shifted(2), slice(None)), (padded, slice(1, -1)),
                         (suspension(c), slice(None))):
        assert all(a is b for a, b in zip(hodge(other).spectra[inner], h.spectra))
    # negating the differentials keeps the bases and negates the reduced maps
    s = hodge(suspension(c))
    for a, b in zip(s.harmonic_bases + s.plus_bases + s.minus_bases,
                    h.harmonic_bases + h.plus_bases + h.minus_bases):
        assert np.array_equal(a, b)
    for a, b in zip(s.reduced, h.reduced):
        assert np.array_equal(a, -b)


def _spy_eigensolvers(monkeypatch):
    """The module that called each eigvalsh and eigh, by solver name."""
    callers = {"eigvalsh": [], "eigh": []}
    for name, seen in callers.items():
        def spy(*args, _seen=seen, _solve=getattr(np.linalg, name), **kwargs):
            _seen.append(sys._getframe(1).f_globals["__name__"])
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return callers


@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_padded_shifted_and_suspended_complexes_read_the_harmonic_bases(ctx, monkeypatch):
    # harmonic dims (1, 1, 0): each wrapper's Hodge data are built from
    # hodge(c), so it measures no spectrum and no range (no eigvalsh, no
    # range eigh in kernel) and projects no harmonic module (no eigh); its
    # harmonic bases and carriers are those of hodge(c)
    c, _ = random_cochain_complex(np.random.default_rng(9), ctx, length=3,
                                  shape=([1, 1, 0], [1, 1]))
    h = hodge(c)
    h.harmonic_bases  # completes the bases of c before counting
    callers = _spy_eigensolvers(monkeypatch)
    for other, inner in ((pad_complex(c, c.offset - 1, c.top_degree + 1), slice(1, -1)),
                         (c.shifted(2), slice(None)), (suspension(c), slice(None))):
        got = hodge(other)
        assert got.harmonic_dims[inner] == h.harmonic_dims == (ctx.size, ctx.size, 0)
        assert all(a is b for a, b in zip(got.harmonic_bases[inner], h.harmonic_bases))
        assert all(a is b for a, b in zip(got.harmonic_modules[inner], h.harmonic_modules))
    assert callers == {"eigvalsh": [], "eigh": []}


def _hodge_fields(h):
    """Every field of Hodge data as bytes, shapes and dtypes, spectra included."""
    def arrays(xs):
        return [(a.shape, a.dtype.str, a.tobytes()) for a in xs]

    def carrier(m):
        mask = None if m.block_mask is None else m.block_mask.tobytes()
        return (m.ambient_dim, m.blocks, m.width, mask,
                m.block_dims.tobytes())

    spectra = [(arrays([s.lam, s.sigma, s.keep]), s.tol.hex(), s.noise_floor.hex())
               for s in h.spectra]
    return {"offset": h.offset, "spectra": spectra, "warnings": h.warnings,
            "log_vols": [v.hex() for v in h.log_vols], "harmonic_dims": h.harmonic_dims,
            "block_dims": arrays([h.block_dims]),
            **{name: arrays(getattr(h, name)) for name in
               ("harmonic_bases", "plus_bases", "minus_bases", "reduced")},
            "harmonic_modules": [carrier(m) for m in h.harmonic_modules]}


@pytest.mark.parametrize("rank_tol", [None, 0.5])
@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_wrapped_hodge_data_are_a_fresh_decomposition_bit_for_bit(ctx, rank_tol):
    # a wrapper's Hodge data come from those of the complex it wraps; a
    # twin of the wrapper with its modules and differentials, which wraps
    # nothing, decomposes itself: the two agree in every bit, the negated
    # reduced maps of a suspension and the padding on both sides included
    c, _ = random_cochain_complex(np.random.default_rng(13), ctx, length=3,
                                  shape=([1, 1, 0], [1, 1]))
    lo, hi = c.offset - 2, c.top_degree + 1
    wrappers = [pad_complex(c, lo, hi), c.shifted(-3), suspension(c),
                pad_complex(suspension(c), lo - 1, hi), suspension(pad_complex(c, lo, hi)),
                pad_complex(c.shifted(1), lo + 1, hi + 2)]
    for w in wrappers:
        twin = CochainComplex(w.modules, w.differentials, w.offset, validate=False)
        assert _hodge_fields(hodge(w, rank_tol)) == _hodge_fields(hodge(twin, rank_tol))
    assert hodge(wrappers[0], rank_tol).harmonic_dims[:2] == (0, 0)
    assert hodge(wrappers[0], rank_tol).harmonic_dims[-1] == 0
    s, h = hodge(wrappers[2], rank_tol), hodge(c, rank_tol)
    assert all(np.array_equal(a, -b) for a, b in zip(s.reduced, h.reduced))


def test_reduced_maps_are_computed_on_their_own_first_read():
    # no command reads the reduced maps, so reading the bases leaves them out
    c, _ = random_cochain_complex(np.random.default_rng(13), CF, length=3,
                                  shape=([1, 1, 0], [1, 1]))
    h = hodge(c)
    h.harmonic_bases
    assert "reduced" not in vars(h)
    assert h.reduced is h.reduced and len(h.reduced) == len(c.differentials)


@pytest.mark.parametrize("ctx, rank_tol", [(CF, None), (cyclic_group(3), None), (CF, 1e-3)],
                         ids=["C", "Z/3", "C-1e-3"])
def test_trace_algebra_reads_the_spectra_hodge_keeps(ctx, rank_tol, monkeypatch):
    # log_vol, singular_values and the other spectral readers of vn read the
    # spectral stage hodge keeps on each differential: no eigensolve, and
    # the values of that stage
    c, _ = random_cochain_complex(np.random.default_rng(13), ctx, length=3, max_rank=2)
    spectra = hodge(c, rank_tol)
    callers = _spy_eigensolvers(monkeypatch)
    for d, s, v in zip(c.differentials, spectra.spectra, spectra.log_vols, strict=True):
        assert log_vol(d, rank_tol) == v
        assert spectral_distribution(d, rank_tol).total == d.domain.vn_dim
        if rank_tol is None:  # these two read the default cutoff
            assert np.array_equal(singular_values(d), np.sort(s.sigma.ravel()))
            assert default_rank_tol(d) == s.tol
    assert callers == {"eigvalsh": [], "eigh": []}


def test_hodge_returns_one_object_per_complex_and_cutoff():
    c, _ = random_cochain_complex(np.random.default_rng(10), CF, length=3, max_rank=2)
    assert hodge(c) is hodge(c)
    assert hodge(c, 1e-3) is hodge(c, 1e-3) and hodge(c, 1e-3) is not hodge(c)
    # torsion sums the kept log-volumes, those of the reduced differentials
    h = hodge(c)
    assert h.log_vols == pytest.approx(
        [log_vol(h.reduced_morphism(q)) if min(h.reduced[q - h.offset].shape) else 0.0
         for q in range(c.offset, c.top_degree)], abs=1e-12)


def test_hodge_data_answer_after_their_complex_is_dropped():
    def complex_():
        c, _ = random_cochain_complex(np.random.default_rng(11), cyclic_group(2), length=3,
                                      shape=([1, 1, 0], [1, 1]))
        return c

    def answers(h):
        return [(h.harmonic_dim(q), h.harmonic_basis(q).shape,
                 h.harmonic_module(q).ambient_dim, h.reduced_morphism(q).shape)
                for q in range(h.offset - 1, h.offset + len(h.modules) + 1)]

    c = complex_()
    h = hodge(c)
    want = answers(h)
    probe = weakref.ref(c)
    del c
    assert probe() is None
    assert answers(h) == want
    assert not h.is_acyclic() and h.warnings == ()
    # the first basis read after the complex is gone: the bases need only
    # the modules and differentials the Hodge data keep
    c = complex_()
    lazy = hodge(c)
    probe = weakref.ref(c)
    del c
    assert probe() is None
    assert answers(lazy) == want
    assert all(np.array_equal(a, b) for a, b in zip(lazy.harmonic_bases, h.harmonic_bases))


@pytest.mark.parametrize("read", ["harmonic_bases", "plus_bases", "minus_bases", "reduced",
                                  "harmonic_modules"])
@pytest.mark.parametrize("ctx", [CF, cyclic_group(3)], ids=["C", "Z/3"])
def test_hodge_computes_its_bases_on_first_read(ctx, read, monkeypatch):
    # hodge(c) takes one eigvalsh per nonempty differential and no eigh; the
    # first read of any basis field makes the eigh of an eager build (a
    # range basis per differential, a projector per module with harmonic
    # part: dims (1, 1, 0)) and fills every field, and a second read none
    c, _ = random_cochain_complex(np.random.default_rng(9), ctx, length=3,
                                  shape=([1, 1, 0], [1, 1]))
    callers = _spy_eigensolvers(monkeypatch)
    h = hodge(c)
    assert callers == {"eigvalsh": ["torsionlab.kernel"] * 2, "eigh": []}
    first = getattr(h, read)
    assert callers["eigh"] == ["torsionlab.kernel"] * 2 + ["torsionlab.complexes"] * 2
    fields = [getattr(h, name) for name in ("harmonic_bases", "plus_bases", "minus_bases",
                                            "reduced", "harmonic_modules")]
    assert getattr(h, read) is first and [len(f) for f in fields] == [3, 3, 3, 2, 3]
    assert len(callers["eigvalsh"]) == 2 and len(callers["eigh"]) == 4


def test_kept_harmonic_bases_do_not_keep_a_dropped_neighbour():
    # d_1's spectrum and range bases live on d_1, and the middle module's
    # harmonic basis and carrier with h: dropping c, h and d_1 frees them,
    # while a complex that shares d_0 keeps its own Hodge data
    c, _ = random_cochain_complex(np.random.default_rng(12), CF, length=3,
                                  shape=([0, 1, 0], [1, 1]))
    h = hodge(c)
    d_0, d_1 = c.differentials
    s = spectral_stage(d_1)[0]
    probes = [weakref.ref(x) for x in (d_1, d_1.array, s.lam, s.sigma, s.keep,
                                       h.minus_bases[1], h.plus_bases[2],
                                       h.harmonic_bases[1], h.harmonic_modules[1])]
    assert h.harmonic_dims == (0, 1, 0)
    head = CochainComplex(c.modules[:2], [d_0], c.offset)
    assert hodge(head).harmonic_dims == (0, 2)
    del c, h, d_1, s
    assert [p() for p in probes] == [None] * len(probes)
    assert hodge(head).harmonic_dims == (0, 2) and d_0.array.size


def test_laplacian_examples():
    circle = _circle_complex(-1.0)
    assert_allclose(laplacian(circle, 0).matrix, [[4.0]], atol=1e-12)
    assert_allclose(laplacian(circle, 1).matrix, [[4.0]], atol=1e-12)
    single = CochainComplex([_cf_module(2)], [], 0)
    assert_allclose(laplacian(single, 0).matrix, np.zeros((2, 2)), atol=0)


def test_log_det_prime_validation():
    bad = Morphism(_cf_module(2), _cf_module(2), [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DataValidationError):
        log_det_prime(bad)
    neg = Morphism(_cf_module(1), _cf_module(1), [[-1.0]])
    with pytest.raises(DataValidationError):
        log_det_prime(neg)


def test_circulant_laplacian_log_det_oracle():
    # brute force: prod_{k=1}^{m-1} (2 - 2cos(2 pi k/m)) = m^2
    for m in range(2, 65):
        eigs = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(1, m) / m)
        assert np.prod(eigs) == pytest.approx(m * m, rel=1e-9)
    for m in [2, 3, 8, 31, 64]:
        ctx = cyclic_group(m)
        shift = group_ring_matrix([("t", 1.0), ("e", -1.0)], ctx)
        lap = shift.adjoint() @ shift
        assert log_det_prime(lap) == pytest.approx(2.0 * np.log(m) / m, abs=1e-10)


def test_torsion_routes_agree_on_random_complexes():
    rng = np.random.default_rng(10)
    for ctx in [CF, cyclic_group(2), cyclic_group(3)]:
        for _ in range(10):
            c, _ = random_cochain_complex(rng, ctx, length=4, max_rank=2,
                                          offset=int(rng.integers(-2, 3)))
            a = torsion(c)
            b = torsion_via_laplacians(c)
            assert abs(a - b) < ROUTE_AGREEMENT_TOL * (1.0 + abs(a))


@pytest.mark.parametrize("rank_tol", [None, 1e-6], ids=["default", "1e-6"])
def test_torsion_is_the_alternating_sum_of_reduced_log_volumes(rank_tol):
    # torsion reads the kept singular values of each d_q, which are those of
    # the reduced differential; its definition is their log-volumes
    from torsionlab.cells import RegularRepresentation, build_complex, circle
    rng = np.random.default_rng(11)
    complexes = [build_complex(circle(RegularRepresentation(cyclic_group(8))))]
    for ctx in [CF, cyclic_group(2), cyclic_group(3), cyclic_group(6)]:
        complexes += [random_cochain_complex(rng, ctx, length=4, max_rank=2,
                                             offset=int(rng.integers(-2, 3)))[0]
                      for _ in range(5)]
    for c in complexes:
        h = hodge(c, rank_tol)
        want = sum((-1) ** q * log_vol(h.reduced_morphism(q), rank_tol) for q in c.degrees())
        got = torsion(c, rank_tol)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(got))


def test_direct_sum_torsion_is_additive():
    rng = np.random.default_rng(12)
    a, _ = random_cochain_complex(rng, CF, length=3)
    b, _ = random_cochain_complex(rng, CF, length=3)
    s = direct_sum(a, b)
    assert torsion(s) == pytest.approx(torsion(a) + torsion(b), abs=1e-9)


def test_split_extension_is_the_direct_sum():
    rng = np.random.default_rng(13)
    for ctx in [CF, cyclic_group(3)]:
        a, _ = random_cochain_complex(rng, ctx, length=3)
        b, _ = random_cochain_complex(rng, ctx, length=3)
        middle, include, project = extension(a, b)
        for got, want, da, db in zip(middle.differentials, direct_sum(a, b).differentials,
                                     a.differentials, b.differentials):
            assert np.array_equal(got.array, want.array)
            rows, cols = da.array.shape[-2:]
            assert np.array_equal(got.array[:, :rows, :cols], da.array)
            assert np.array_equal(got.array[:, rows:, cols:], db.array)
            assert not got.array[:, :rows, cols:].any() and not got.array[:, rows:, :cols].any()
        assert include.target is middle and project.source is middle


def test_direct_sum_builds_no_sequence_maps(monkeypatch):
    rng = np.random.default_rng(15)
    for ctx in [CF, cyclic_group(3)]:
        a, _ = random_cochain_complex(rng, ctx, length=3, offset=-1)
        b, _ = random_cochain_complex(rng, ctx, length=2, offset=0)
        want = extension(pad_complex(a, -1, 1), pad_complex(b, -1, 1))[0]
        with monkeypatch.context() as m:
            def refuse(self):
                raise AssertionError("direct_sum validated a chain map")
            m.setattr(ComplexMorphism, "validate", refuse)
            got = direct_sum(a, b)
        assert got.offset == want.offset == -1
        assert all(x.matches(y) for x, y in zip(got.modules, want.modules))
        for x, y in zip(got.differentials, want.differentials):
            assert x.array.shape == y.array.shape
            assert np.array_equal(x.array, y.array)


def test_extension_rejects_mismatched_complexes():
    rng = np.random.default_rng(15)
    a, _ = random_cochain_complex(rng, CF, length=3)
    with pytest.raises(DataValidationError, match="degree window"):
        extension(a, a.shifted(1))
    with pytest.raises(DataValidationError, match="degree window"):
        extension(a, pad_complex(a, 0, 3))
    g, _ = random_cochain_complex(rng, cyclic_group(3), length=3)
    with pytest.raises(DataValidationError, match="common trace context"):
        extension(a, g)
    with pytest.raises(DataValidationError, match="couplings"):
        extension(a, a, [])
    with pytest.raises(DataValidationError, match="coupling has shape") as info:
        wrong = np.zeros((a.modules[1].ambient_dim + 1, a.modules[0].ambient_dim))
        extension(a, a, [wrong, np.zeros((a.modules[2].ambient_dim,
                                          a.modules[1].ambient_dim))])
    assert info.value.location == "degree 0"


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_product_formula_examples():
    interval_like = CochainComplex([_cf_module(1)], [], 0)  # 0 -> C -> 0
    circle = _circle_complex(-1.0)
    prod = tensor_product(interval_like, circle)
    assert torsion(prod) == pytest.approx(np.log(2.0), abs=1e-10)
    torus_like = tensor_product(circle, _circle_complex(1j))
    assert torsion(torus_like) == pytest.approx(0.0, abs=1e-10)


def test_tensor_product_formula_random():
    # The field factor's index is outermost in both factor orders, so every
    # product differential is linear over the group factor's algebra.
    rng = np.random.default_rng(14)
    for ctx in [CF, cyclic_group(2), cyclic_group(3), cyclic_group(6)]:
        for _ in range(8):
            c1, _ = random_cochain_complex(rng, ctx, length=3, max_rank=2)
            c2, _ = random_cochain_complex(rng, CF, length=2, max_rank=2)
            expected = (c2.euler_characteristic() * torsion(c1)
                        + c1.euler_characteristic() * torsion(c2))
            for prod in (tensor_product(c1, c2), tensor_product(c2, c1)):
                got = torsion(prod)
                assert abs(got - expected) < 1e-8 * (1.0 + abs(expected))
                assert prod.euler_characteristic() == pytest.approx(
                    c1.euler_characteristic() * c2.euler_characteristic(), abs=1e-9)
                for d in prod.differentials:
                    assert a_linearity_residual(d) < 1e-10


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3), (4, 5)), ((2, 3), (6, 4, 5)), ((6, 2, 3), (4, 5)),
    ((0, 3), (2, 2)), ((2, 0), (5, 4, 3)), ((5, 2, 3), (0, 0)), ((3, 2), (3, 0)),
], ids=["matrix-matrix", "matrix-stack", "stack-matrix", "empty-rows",
        "empty-cols-stack", "stack-empty", "matrix-empty-cols"])
def test_kron_is_numpy_kron_bitwise(a_shape, b_shape):
    rng = np.random.default_rng(16)
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    for b in (rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape),
              np.eye(*b_shape[-2:])):  # tensor_product's identity factors are real
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        got, want = _kron(b, a), np.kron(b, a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tensor_rejects_two_group_factors():
    ctx = cyclic_group(2)
    d = group_ring_matrix([("e", 0.0)], ctx)
    c = CochainComplex([d.domain], [], 0)
    with pytest.raises(DataValidationError):
        tensor_product(c, c)


def test_tensor_offset_arithmetic():
    c1 = _two_term([[2.0]], offset=1)
    c2 = _two_term([[3.0]], offset=-1)
    prod = tensor_product(c1, c2)
    assert prod.offset == 0
    assert prod.top_degree == 2


# ---------------------------------------------------------------------------
# morphisms, cones, harmonic maps


def test_complex_morphism_validates_chain_rule():
    c = _two_term([[2.0]])
    good = ComplexMorphism(c, c, [Morphism.identity(c.modules[0]),
                                  Morphism.identity(c.modules[1])])
    assert good.component(0).shape == (1, 1)
    with pytest.raises(DataValidationError):
        ComplexMorphism(c, c, [Morphism.identity(c.modules[0]),
                               Morphism(c.modules[1], c.modules[1], [[2.0]])])


def test_mapping_cone_of_identity_is_acyclic_with_zero_torsion():
    rng = np.random.default_rng(16)
    for ctx in [CF, cyclic_group(2)]:
        c, _ = random_cochain_complex(rng, ctx, length=3, max_rank=2)
        ident = ComplexMorphism(c, c, [Morphism.identity(m) for m in c.modules])
        cone, j, p = mapping_cone(ident)
        assert hodge(cone).is_acyclic()
        assert torsion(cone) == pytest.approx(0.0, abs=1e-9)
        # p o j = 0 and the window is padded consistently
        for q in cone.degrees():
            comp = p.component(q) @ j.component(q)
            assert np.linalg.norm(comp.matrix) < 1e-14


def test_mapping_cone_shapes():
    c = _circle_complex(-1.0)
    ident = ComplexMorphism(c, c, [Morphism.identity(m) for m in c.modules])
    cone, _, _ = mapping_cone(ident)
    assert cone.offset == -1
    assert [m.ambient_dim for m in cone.modules] == [1, 2, 1]


def test_induced_harmonic_map_invertible_for_isomorphisms():
    rng = np.random.default_rng(18)
    for ctx in [CF, cyclic_group(2)]:
        c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
        f, _, _ = random_chain_morphism(rng, c, shape, invertible=True)
        for q in c.degrees():
            hq = induced_harmonic_map(f, q)
            assert hq.shape[0] == hq.shape[1]
            if hq.shape[0]:
                assert singular_values(hq)[0] > 1e-10


def test_torsion_transfer_residual_small_for_isomorphisms():
    rng = np.random.default_rng(20)
    for ctx in [CF, cyclic_group(3)]:
        for _ in range(5):
            c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
            f, _, _ = random_chain_morphism(rng, c, shape, invertible=True)
            assert torsion_transfer_residual(f) < TRANSFER_TOL


def test_torsion_transfer_scalar_identity_on_acyclic():
    rng = np.random.default_rng(22)
    c, _ = random_cochain_complex(rng, CF, length=4, max_rank=2, acyclic=True)
    comps = [2.5 * Morphism.identity(m) for m in c.modules]
    f = ComplexMorphism(c, c, comps)
    assert torsion_transfer_residual(f) < 1e-9
