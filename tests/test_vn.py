"""Tests for the trace-algebra linear algebra layer."""

import ast
import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from torsionlab import cli
from torsionlab.cells import (
    RegularRepresentation,
    UnitaryRepresentation,
    build_complex,
    circle,
    circle_from_arcs,
    duality_residual,
    glue,
    glue_check,
)
from torsionlab.complexes import CochainComplex, hodge, torsion, torsion_via_laplacians
from torsionlab.exact import milnor_check
from torsionlab.errors import DataValidationError, NumericalError
from torsionlab.generators import random_alinear_unitary, random_cochain_complex
from torsionlab.kernel import laurent_terms, symbol_at_roots
from torsionlab.towers import nonnegativity_check, parse_laurent
from torsionlab.vn import (
    COMPOSITION_TOL,
    HilbertModule,
    Morphism,
    TraceContext,
    a_linearity_residual,
    block_triangular_log_vol_residual,
    complex_field,
    cyclic_group,
    default_rank_tol,
    finite_group,
    gram_spectrum,
    group_ring_matrix,
    log_vol,
    log_vol_additivity_residual,
    norm_lower_bound,
    polar_decompose,
    regular_module,
    singular_values,
    spectral_distribution,
    stieltjes_log_vol,
    vanishes,
    vn_trace,
)

ABS_TOL = 1e-12
STIELTJES_TOL = 1e-10
CIRCULANT_TOL = 1e-10


def _module(n, ctx=None):
    return HilbertModule(ctx or complex_field(), n)


def _morphism(matrix, ctx=None):
    m = np.asarray(matrix, dtype=complex)
    ctx = ctx or complex_field()
    return Morphism(HilbertModule(ctx, m.shape[1]), HilbertModule(ctx, m.shape[0]), m)


def _random_morphism(rng, rows, cols):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return _morphism(m)


def _s3_context():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            # (p q)(x) = p(q(x))
            table[i, j] = index[tuple(p[q[x]] for x in range(3))]
    return finite_group(table)


# ---------------------------------------------------------------------------
# contexts and modules


def test_group_table_validation():
    with pytest.raises(DataValidationError):
        finite_group([[0, 1], [1, 1]])  # not a latin square / no inverse
    with pytest.raises(DataValidationError):
        finite_group([[1, 0], [0, 0]])  # no two-sided identity at a single index
    # associativity failure: a latin square with identity that is not a group
    # (order-5 quasigroup: subtraction mod 5 has right identity only)
    bad = (np.arange(5)[:, None] - np.arange(5)[None, :]) % 5
    with pytest.raises(DataValidationError):
        finite_group(bad)


def test_associativity_check_memory_stays_bounded():
    # the check runs a slice of rows at a time; checking every triple at
    # once built two 128^3 int64 index arrays (16 MiB each)
    i = np.arange(128)
    table = (i[:, None] + i[None, :]) % 128
    tracemalloc.start()
    try:
        finite_group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # swapping t^100 t^2 and t^100 t^3 keeps the identity and the inverses,
    # but (t^100 t) t = t^102 while t^100 (t t) is now t^103
    table[100, [2, 3]] = table[100, [3, 2]]
    with pytest.raises(DataValidationError, match="not associative"):
        finite_group(table)


def test_cyclic_group_basics():
    ctx = cyclic_group(4)
    assert ctx.kappa == 0.25
    assert ctx.identity == 0
    assert ctx.inverse(1) == 3
    assert ctx.multiply(2, 3) == 1
    assert ctx.element_index("t^2") == 2
    assert ctx.power(1, -1) == 3


def test_powers_over_a_table_take_logarithmic_steps(monkeypatch):
    # t^(10^9) over the Z/3 table is t (10^9 = 1 mod 3), t^(-10^9) is t^2
    i = np.arange(3)
    ctx = finite_group((i[:, None] + i[None, :]) % 3, ["e", "t", "t^2"])
    products = []
    multiply = TraceContext.multiply

    def counted(self, a, b):
        products.append(1)
        if len(products) > 200:
            raise AssertionError("more than 200 group products")
        return multiply(self, a, b)

    monkeypatch.setattr(TraceContext, "multiply", counted)
    rep = RegularRepresentation(ctx)
    assert np.array_equal(rep.word_blocks([(("t", 10 ** 9), 1.0)]),
                          rep.word_blocks([("t", 1.0)]))
    assert np.array_equal(rep.word_blocks([(("t", -10 ** 9), 1.0)]),
                          rep.word_blocks([("t^2", 1.0)]))
    assert ctx.power(2, 0) == ctx.identity
    assert [ctx.power(1, n) for n in range(-4, 5)] == [n % 3 for n in range(-4, 5)]


def test_free_module_dimension_rule():
    ctx = cyclic_group(3)
    # three character blocks cannot share 4 coordinates evenly
    with pytest.raises(DataValidationError):
        HilbertModule(ctx, 4)
    # a subspace carrier is allowed, with a block mask
    mask = np.array([[True, True], [True, False], [True, False]])
    mod = HilbertModule(ctx, 4, block_mask=mask)
    assert mod.vn_dim == pytest.approx(4 / 3)
    assert regular_module(ctx, 2).ambient_dim == 6


def test_block_dims_count_the_coordinates_of_each_block():
    ctx = cyclic_group(4)
    # the context decides the blocks: four characters of Z/4, one dense
    # block over a table of the same group
    assert HilbertModule(ctx, 8).block_dims.tolist() == [2, 2, 2, 2]
    assert regular_module(ctx, 2).block_dims.tolist() == [2, 2, 2, 2]
    table = finite_group([[(i + j) % 4 for j in range(4)] for i in range(4)])
    assert regular_module(table, 2).block_dims.tolist() == [8]
    # the circle t - e is harmonic in the trivial character only
    carrier = hodge(build_complex(circle(RegularRepresentation(ctx)))).harmonic_module(0)
    assert carrier.block_mask is not None
    assert np.array_equal(carrier.block_dims, carrier.block_mask.sum(1))
    assert carrier.block_dims.tolist() == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        carrier.block_dims[1] = 1


def test_vn_trace():
    ctx = cyclic_group(3)
    ident = Morphism.identity(regular_module(ctx))
    assert vn_trace(ident) == pytest.approx(1.0)
    f = _morphism(np.diag([2.0, 4.0]))
    assert vn_trace(f) == pytest.approx(6.0)
    with pytest.raises(DataValidationError):
        vn_trace(_morphism(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# polar decomposition


def test_polar_identity_and_negative_scalar():
    iso, wiso = polar_decompose(Morphism.identity(_module(3)))
    assert_allclose(iso.matrix, np.eye(3), atol=ABS_TOL)
    assert_allclose(wiso.matrix, np.eye(3), atol=ABS_TOL)

    iso, wiso = polar_decompose(_morphism([[-2.0]]))
    assert_allclose(iso.matrix, [[-1.0]], atol=ABS_TOL)
    assert_allclose(wiso.matrix, [[2.0]], atol=ABS_TOL)


def test_polar_nilpotent_example():
    f = _morphism([[0.0, 3.0], [0.0, 0.0]])
    iso, wiso = polar_decompose(f)
    assert_allclose(wiso.matrix, np.diag([0.0, 3.0]), atol=ABS_TOL)
    assert_allclose(iso.matrix, [[0.0, 1.0], [0.0, 0.0]], atol=ABS_TOL)


def test_polar_reconstruction_and_partial_isometry():
    rng = np.random.default_rng(7)
    for rows, cols in [(4, 4), (5, 3), (3, 5)]:
        f = _random_morphism(rng, rows, cols)
        iso, wiso = polar_decompose(f)
        assert_allclose((iso @ wiso).matrix, f.matrix, atol=1e-12 * max(1.0, f.norm()))
        # isometric on the closure of the range of f_wiso
        x = rng.standard_normal((cols, 6))
        y = wiso.matrix @ x
        assert_allclose(np.linalg.norm(iso.matrix @ y, axis=0),
                        np.linalg.norm(y, axis=0), rtol=1e-10)
        # rank truncation: log_vol of the partial isometry is 0
        assert log_vol(iso) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# spectral distributions


def test_spectral_distribution_z4_shift_minus_one():
    ctx = cyclic_group(4)
    f = group_ring_matrix([("t", 1.0), ("e", -1.0)], ctx)
    dist = spectral_distribution(f)
    assert dist.total == pytest.approx(1.0)
    assert dist.value_at(-1e-9) == 0.0
    assert dist.value_at(0.0) == pytest.approx(0.25)
    assert dist.value_at(1.9) == pytest.approx(0.25)
    assert dist.value_at(2.0 + 1e-12) == pytest.approx(0.75)
    assert dist.value_at(4.1) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6))
def test_spectral_distribution_counts_everything(seed, rows, cols):
    rng = np.random.default_rng(seed)
    f = _random_morphism(rng, rows, cols)
    dist = spectral_distribution(f)
    assert dist.total == pytest.approx(float(cols))
    assert dist.value_at(f.norm() ** 2 * (1 + 1e-9)) == pytest.approx(dist.total)
    _, mass = dist.masses()
    assert np.all(mass > 0)


# ---------------------------------------------------------------------------
# volumes


def test_log_vol_conventions():
    ctx = complex_field()
    zero = Morphism.zero(_module(3), _module(2))
    assert log_vol(zero) == 0.0
    empty = Morphism.zero(HilbertModule(ctx, 0), _module(2))
    assert log_vol(empty) == 0.0
    assert log_vol(_morphism([[-2.0]])) == pytest.approx(np.log(2.0))


#: The only functions allowed to call a Hermitian eigensolver: the spectral
#: kernel, the tower symbol kernel and the harmonic projector (which makes no
#: rank decision).
EIGENSOLVER_CALLERS = {
    ("kernel", "spectrum"),
    ("towers", "_symbol_eigenvalues"),
    ("complexes", "_decomposition"),
}


#: The only functions allowed an SVD (``svd``, or ``norm`` of order 2, -2 or
#: "nuc"): the two public spectral values, and the condition-number check
#: and the unitary polar factor of the generators.  Structural checks use
#: ``vn.vanishes`` instead.
SVD_CALLERS = {
    ("vn", "norm"),
    ("vn", "a_linearity_residual"),
    ("generators", "random_alinear_invertible"),
    ("generators", "random_alinear_unitary"),
}


#: The only function allowed a root finder or a general eigensolver
#: (``roots``, ``eigvals``, ``eig``; ``np.roots`` is an ``eigvals`` of the
#: companion matrix): the root finder of the Jensen kernel.
ROOT_CALLERS = {("towers", "_polynomial_roots")}
ROOT_NAMES = ("roots", "eigvals", "eig")


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _runs_svd(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "norm":
        return False
    orders = [_literal(k.value) for k in node.keywords if k.arg == "ord"]
    orders += [_literal(a) for a in node.args[1:2]]
    return any(o in (2, -2, "nuc") for o in orders)


def _package_sources():
    """(module name, syntax tree, node -> name of the outermost function
    containing it) for every module of the package."""
    package = Path(__file__).resolve().parents[1] / "src" / "torsionlab"
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        yield path.stem, tree, owner


def _name(node):
    return (node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else
            node.name if isinstance(node, ast.alias) else None)


def test_eigensolver_calls_stay_in_the_kernel(monkeypatch):
    callers, svd_callers, root_callers = set(), set(), set()
    for stem, tree, owner in _package_sources():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = _name(node)
            site = (stem, owner.get(node, "<module>"))
            if name in ("eigh", "eigvalsh"):
                callers.add(site)
            if name == "svd" or _runs_svd(node):
                svd_callers.add(site)
            # a local variable may be called "roots"; a bare name counts
            # when it is called
            if name in ROOT_NAMES and (not isinstance(node, ast.Name)
                                       or id(node) in called):
                root_callers.add(site)
    assert callers <= EIGENSOLVER_CALLERS
    assert ("kernel", "spectrum") in callers
    assert svd_callers <= SVD_CALLERS
    assert ("vn", "norm") in svd_callers
    assert root_callers == ROOT_CALLERS

    # At run time, every eigensolve of the commands' work on a cyclic cell
    # complex is one batched call on its m character blocks, from the
    # spectral kernel (or the harmonic projector), and nothing runs an SVD.
    calls = []
    spied = [(np.linalg, name) for name in ("eigh", "eigvalsh", "svd", "eigvals", "eig")]
    for owner, name in spied + [(np, "roots")]:
        def spy(a, *args, _name=name, _original=getattr(owner, name), **kwargs):
            code = sys._getframe(1).f_code
            calls.append((_name, Path(code.co_filename).stem, code.co_name, np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    m = 16
    rep = RegularRepresentation(cyclic_group(m))
    c = build_complex(circle(rep))
    torsion(c)
    torsion_via_laplacians(c)
    duality_residual(circle(rep))
    glue_check(circle_from_arcs(rep))
    milnor_check(glue(circle_from_arcs(rep))[1])
    sites = {(module, function) for _, module, function, _ in calls}
    assert ("kernel", "spectrum") in sites
    assert sites <= {("kernel", "spectrum"), ("complexes", "_decomposition")}
    assert all(name in ("eigh", "eigvalsh") for name, *_ in calls)
    assert all(len(shape) == 3 and shape[0] == m and shape[-1] <= 2
               for *_, shape in calls)

    # The circle integral's roots come from the one root finder, and the
    # tower and both limit routes run no general eigensolver.
    calls.clear()
    cli.run(cli.JobSpec("lueck", (), levels=(2, 4, 8),
                        op="4t^-2 - 12t^-1 + 17 - 12t + 4t^2"))
    nonnegativity_check(parse_laurent("3 - t - t^-1"), levels=(2, 4))
    roots = [(module, function) for name, module, function, _ in calls
             if name in ROOT_NAMES]
    assert roots and set(roots) == ROOT_CALLERS
    assert all(name != "svd" for name, *_ in calls)


#: The only code allowed to touch each memo layer, by qualified name (a class
#: covers its methods): the per-complex Hodge memo ``_hodge``, which
#: ``CochainComplex`` creates and ``hodge`` fills, and the per-morphism store
#: ``derived`` of spectral stages.
MEMO_OWNERS = {
    "_hodge": {("complexes", "CochainComplex"), ("complexes", "hodge")},
    "derived": {("vn", "spectral_stage")},
}


def _qualified_owners(tree):
    """node -> dotted name of the classes and functions containing it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[child] = inner or "<module>"
            visit(child, inner)

    visit(tree, "")
    return owner


@pytest.mark.parametrize("attr", sorted(MEMO_OWNERS))
def test_memo_layers_are_touched_only_by_their_owners(attr):
    # an access is the attribute, or its name as a string (setattr, vars)
    allowed = MEMO_OWNERS[attr]

    def covering(site):
        stem, name = site
        return next((a for a in allowed
                     if a[0] == stem and (name == a[1] or name.startswith(a[1] + "."))), None)

    sites = set()
    for stem, tree, _ in _package_sources():
        owner = _qualified_owners(tree)
        sites |= {(stem, owner[node]) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  or isinstance(node, ast.Constant) and node.value == attr}
    assert {s for s in sites if covering(s) is None} == set()
    assert {covering(s) for s in sites} == allowed


#: The only code that may read the layout to choose a path (a class covers
#: its methods): the cyclic group's own arithmetic and its blocks, the one
#: place a word becomes its stack, the one place a dense input becomes its
#: stack, the one rule by which a stack keeps columns, and checks of the
#: arrays a caller hands in.  Every morphism array, basis and spectrum is a
#: (blocks, rows, cols) stack.
LAYOUT_READERS = {
    ("vn", "TraceContext"),
    ("vn", "group_ring_matrix"),
    ("formats", "_linear_map"),
    ("vn", "kept_columns"),
    ("vn", "finite_group"),
    ("kernel", "SpectralDistribution.__post_init__"),
    ("cells", "UnitaryRepresentation.__init__"),
}


#: Names of the arrays whose leading axis is the block axis.
STACK_NAMES = {"array", "basis", "columns", "keep", "lam", "matrix", "sigma", "stack",
               "vecs", "vectors"}


def _block_count(node) -> bool:
    """``x.blocks``, or ``len(s)`` or ``s.shape[0]`` of a stack ``s``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "blocks"
    if isinstance(node, ast.Call) and _name(node.func) == "len" and node.args:
        return _name(node.args[0]) in STACK_NAMES
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape" and _name(node.value.value) in STACK_NAMES
            and isinstance(node.slice, ast.Constant) and node.slice.value == 0)


def _reads_layout(node) -> bool:
    """A read of ``characters``, ``is_cyclic`` or ``ndim``, or a comparison
    of a block count with 1."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("characters", "is_cyclic", "ndim")
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (any(_block_count(s) for s in sides)
                and any(isinstance(s, ast.Constant) and s.value == 1 for s in sides))
    return False


def test_no_module_branches_on_the_block_layout():
    sites = set()
    for stem, tree, _ in _package_sources():
        owner = _qualified_owners(tree)
        sites |= {(stem, owner[node]) for node in ast.walk(tree) if _reads_layout(node)}

    def covering(site):
        stem, name = site
        return next((a for a in LAYOUT_READERS
                     if a[0] == stem and (name == a[1] or name.startswith(a[1] + "."))), None)

    assert {s for s in sites if covering(s) is None} == set()
    assert {covering(s) for s in sites} == LAYOUT_READERS


def test_only_the_module_counts_the_coordinates_of_a_mask():
    # hodge, the spectra of a carrier's maps and the exactness of a sequence
    # read HilbertModule.block_dims, which the module counts where it
    # validates its mask
    sites = set()
    for stem, tree, _ in _package_sources():
        owner = _qualified_owners(tree)
        sites |= {(stem, owner[node]) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and "mask" in ast.unparse(node) and node.func.attr in ("sum", "count_nonzero")}
    assert sites == {("vn", "HilbertModule.__post_init__")}


#: The only function with phase code (``pi``): the exact-phase kernel, which
#: evaluates Laurent operators (``LaurentMatrix.symbol``) and cell words over
#: Z/m at exp(2 pi i k / n).
PHASE_CALLERS = {("kernel", "symbol_at_roots")}


def test_phase_code_stays_in_the_kernel():
    sites = set()
    for stem, tree, owner in _package_sources():
        sites |= {(stem, owner.get(node, "<module>"))
                  for node in ast.walk(tree) if _name(node) == "pi"}
    assert sites == PHASE_CALLERS


def _symbol_by_phases(entries, k, n):
    """``symbol_at_roots`` with every power read from its phase, the constant
    term's too: from the table of the n-th roots where the kernel builds
    one, as exp(2 pi i phase / n) elsewhere."""
    k = np.asarray(k, np.int64) % n
    terms = {}
    for i, row in enumerate(entries):
        for j, poly in enumerate(row):
            for e, c in poly:
                terms.setdefault(e, []).append((i, j, c))
    table = np.exp(2j * np.pi * np.arange(n) / n) if n <= k.size * len(terms) else None
    out = np.zeros(k.shape + (len(entries), len(entries[0])), np.complex128)
    for e in sorted(terms):
        phase = k * (e % n) % n
        power = np.exp(2j * np.pi * phase / n) if table is None else table[phase]
        for i, j, c in terms[e]:
            out[..., i, j] += c * power
    return out


@pytest.mark.parametrize("n, k", [
    (1, [0, 0]), (2, [0, 1]), (3, [[0, 1, 2], [2, 1, 0]]), (5, [-7, 3]), (8, np.arange(8)),
    (64, [1, 5]), (2 ** 20, [3, 2 ** 19]),
])
def test_constant_term_powers_are_the_phases_ones(n, k):
    # exponents 0, +-n and 3n are 0 mod n: the kernel fills their powers with
    # ones, bit for bit what their phases give, on both the table route and
    # the direct one
    entries = [[laurent_terms([(0, 2.0 - 1j), (n, 0.5), (1, -1.0)]),
                laurent_terms([(-n, 1j), (2, 3.0)])],
               [laurent_terms([(0, -0.25)]),
                laurent_terms([(-1, 1.5), (n, -2.0 + 0.5j), (3 * n, 1.0)])]]
    got = symbol_at_roots(entries, np.asarray(k), n)
    assert got.tobytes() == _symbol_by_phases(entries, k, n).tobytes()


def test_svd_detector_sees_every_spelling():
    for text in ("np.linalg.norm(x, 2)", "norm(x, ord=2)", "np.linalg.norm(x, -2)",
                 "np.linalg.norm(x, 'nuc')"):
        assert _runs_svd(ast.parse(text).body[0].value), text
    for text in ("np.linalg.norm(x)", "np.linalg.norm(x, axis=0)", "norm(x, 1)"):
        assert not _runs_svd(ast.parse(text).body[0].value), text


# ---------------------------------------------------------------------------
# the vanishing test


def _spectral(x):
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


def test_norm_lower_bound_is_a_lower_bound_and_sharp_on_columns():
    rng = np.random.default_rng(5)
    for rows, cols in ((1, 1), (3, 5), (6, 2), (7, 7)):
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        assert norm_lower_bound(a) <= _spectral(a) * (1 + 1e-12)
    assert norm_lower_bound(np.diag([3.0, -1.0])) == pytest.approx(3.0)
    assert norm_lower_bound(np.zeros((0, 4))) == 0.0


def test_a_zero_map_carries_its_norm_bound(monkeypatch):
    # Morphism.zero knows its bound, 0.0, which is norm_lower_bound of its
    # array bit for bit, so no check reads the array to find it
    import torsionlab.vn as vn
    calls = []
    original = vn.norm_lower_bound
    monkeypatch.setattr(vn, "norm_lower_bound", lambda a: calls.append(a) or original(a))
    ctx = cyclic_group(3)
    for dims in ((2, 3), (0, 3), (2, 0)):
        zero = Morphism.zero(*(HilbertModule(ctx, 3 * d) for d in dims))
        assert zero.norm_bound == 0.0 == original(zero.array)
        assert np.copysign(1.0, zero.norm_bound) == 1.0
    assert calls == []


def test_vanishes_conventions():
    assert vanishes(np.zeros((0, 3)), 0.0)
    assert vanishes(np.zeros((2, 2)), 0.0)
    assert vanishes(np.full((2, 2), 0.5e-10), 1.0)
    assert not vanishes(np.full((2, 2), 0.6e-10), 1.0)  # Frobenius 1.2e-10
    with pytest.raises(NumericalError):
        vanishes(np.array([[np.nan]]), 1.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        vanishes(np.array([[1e200]]), 1.0)  # the squares overflow
    with pytest.raises(NumericalError):
        vanishes(np.zeros((1, 1)), np.inf)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 7),
       st.integers(1, 6), st.floats(-2.0, 2.0))
def test_vanishing_test_is_never_looser_than_the_spectral_test(seed, rows, inner, cols,
                                                               log_ratio):
    # d1 = a + perturbation and d0 = b with a @ b = 0 up to roundoff (b maps
    # into the kernel of a); the perturbation puts ||d1 d0|| within a factor
    # 100 of the vanishing threshold or of the spectral one.
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(rows, inner - 1) + 1))
    u, _ = np.linalg.qr(rng.standard_normal((inner, inner))
                        + 1j * rng.standard_normal((inner, inner)))
    a = (rng.standard_normal((rows, rank)) * np.exp(rng.normal(size=rank))) \
        @ u[:, :rank].conj().T
    b = u[:, rank:] @ (rng.standard_normal((inner - rank, cols))
                       + 1j * rng.standard_normal((inner - rank, cols)))
    e = rng.standard_normal((rows, inner)) + 1j * rng.standard_normal((rows, inner))
    thresholds = (norm_lower_bound(a) * norm_lower_bound(b), _spectral(a) * _spectral(b))
    size = 10.0 ** log_ratio * COMPOSITION_TOL * thresholds[int(rng.integers(0, 2))]
    d1 = a + e * (size / max(np.linalg.norm(e @ b), 1e-300))
    x = d1 @ b
    spectral_ok = _spectral(x) <= COMPOSITION_TOL * _spectral(d1) * _spectral(b)
    if vanishes(x, norm_lower_bound(d1) * norm_lower_bound(b)):
        assert spectral_ok
    modules = [HilbertModule(complex_field(), n) for n in (cols, inner, rows)]
    try:
        CochainComplex(modules, [Morphism(modules[0], modules[1], b),
                                 Morphism(modules[1], modules[2], d1)])
    except DataValidationError:
        return
    assert spectral_ok


def _rounded(m, digits):
    keep = np.vectorize(lambda v: float(f"{v:.{digits - 1}e}"))
    return keep(m.real) + 1j * keep(m.imag)


def test_vanishing_test_accepts_inputs_rounded_to_twelve_digits():
    # The test may be stricter than the spectral one; inputs stored with 12
    # significant digits, which the spectral test accepts, must still pass.
    rng = np.random.default_rng(0)
    u = _rounded(random_alinear_unitary(rng, complex_field(), 64)[0], 12)
    assert _spectral(u.conj().T @ u - np.eye(64)) <= COMPOSITION_TOL
    UnitaryRepresentation({"t": u})
    c, _ = random_cochain_complex(np.random.default_rng(1), complex_field(),
                                  shape=([0, 0, 0], [50, 50]))
    d0, d1 = (_rounded(d.matrix, 12) for d in c.differentials)
    assert _spectral(d1 @ d0) <= COMPOSITION_TOL * _spectral(d1) * _spectral(d0)
    CochainComplex(c.modules, [Morphism(c.modules[0], c.modules[1], d0),
                               Morphism(c.modules[1], c.modules[2], d1)])


@pytest.mark.parametrize("ctx", [complex_field(), cyclic_group(3)], ids=["C", "Z/3"])
def test_unitary_frames_are_unitary_to_rounding(ctx):
    # frames are polar factors of random maps, however ill-conditioned; a
    # polar factor built from their Gram matrix was unitary only to about
    # eps cond^2, 9.8e-11 for the draw of seed 2233 over C
    for seed in (2233, *range(40)):
        u = random_alinear_unitary(np.random.default_rng(seed), ctx, 8)
        assert u.shape == (ctx.blocks, 8, 8)
        assert max(_spectral(b.conj().T @ b - np.eye(8)) for b in u) < 1e-13


def test_spectral_kernel_rejects_non_finite_input():
    # 1e200 squared overflows: the Gram matrix is inf and eigh returns NaN
    big = _morphism([[1e200]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
        log_vol(big)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite"):
        gram_spectrum(big.matrix)
    with pytest.raises(NumericalError, match="non-finite"):
        singular_values(_morphism([[np.nan, 1.0]]))


def test_default_rank_tol_formula():
    f = _morphism(np.diag([3.0, 1.0]))
    assert default_rank_tol(f) == pytest.approx(3.0 * np.sqrt(2.0) * 2.0 ** -22)
    assert default_rank_tol(Morphism.zero(_module(2), _module(2))) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7), st.integers(1, 7))
def test_log_vol_adjoint_and_wiso_agree(seed, rows, cols):
    rng = np.random.default_rng(seed)
    f = _random_morphism(rng, rows, cols)
    ref = log_vol(f)
    assert log_vol(f.adjoint()) == pytest.approx(ref, abs=1e-10, rel=1e-10)
    _, wiso = polar_decompose(f)
    assert log_vol(wiso) == pytest.approx(ref, abs=1e-10, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
def test_stieltjes_form_matches_sum_form(seed, n):
    rng = np.random.default_rng(seed)
    f = _random_morphism(rng, n, n)
    dist = spectral_distribution(f)
    assert abs(stieltjes_log_vol(dist) - log_vol(f)) < STIELTJES_TOL


def test_stieltjes_form_group_context():
    ctx = cyclic_group(6)
    f = group_ring_matrix([("t", 1.0), ("e", -1.0)], ctx)
    assert abs(stieltjes_log_vol(spectral_distribution(f)) - log_vol(f)) < STIELTJES_TOL


# ---------------------------------------------------------------------------
# the circulant volume oracle: prod_{k=1}^{m-1} 2 sin(pi k / m) = m


def test_sine_product_oracle_brute_force():
    for m in range(2, 65):
        product = np.prod([2.0 * np.sin(np.pi * k / m) for k in range(1, m)])
        assert product == pytest.approx(m, rel=1e-10)


def test_log_vol_of_shift_minus_one_is_log_m_over_m():
    for m in range(2, 65):
        ctx = cyclic_group(m)
        f = group_ring_matrix([("t", 1.0), ("e", -1.0)], ctx)
        assert log_vol(f) == pytest.approx(np.log(m) / m, abs=CIRCULANT_TOL)


# ---------------------------------------------------------------------------
# multiplicativity


def test_additivity_residual_small_on_invertible_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 7)
        f = _random_morphism(rng, n, n)
        g = _random_morphism(rng, n, n)
        scale = 1.0 + abs(log_vol(f)) + abs(log_vol(g))
        assert log_vol_additivity_residual(f, g) < 1e-9 * scale


def test_additivity_rejects_singular_input():
    f = _morphism([[1.0, 0.0], [0.0, 0.0]])
    g = _morphism(np.eye(2))
    with pytest.raises(DataValidationError):
        log_vol_additivity_residual(f, g)
    with pytest.raises(DataValidationError):
        log_vol_additivity_residual(_morphism(np.eye(3)), g)


def test_block_triangular_residual():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n1, n2 = rng.integers(1, 6), rng.integers(1, 6)
        f = _random_morphism(rng, n1, n1)
        g = _random_morphism(rng, n2, n2)
        h = _random_morphism(rng, n1, n2)
        assert block_triangular_log_vol_residual(f, g, h) < 1e-10 * (
            1.0 + abs(log_vol(f)) + abs(log_vol(g)))


# ---------------------------------------------------------------------------
# group-ring matrices


def test_group_ring_matrix_z2_example():
    ctx = cyclic_group(2)
    f = group_ring_matrix([("e", 1.0), ("t", -1.0)], ctx)
    assert_allclose(f.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=0)


def test_group_ring_matrices_commute_with_algebra_action():
    rng = np.random.default_rng(17)
    for ctx in [cyclic_group(6), _s3_context()]:
        for _ in range(5):
            word = [(int(g), complex(rng.standard_normal(), rng.standard_normal()))
                    for g in rng.integers(0, ctx.size, size=4)]
            f = group_ring_matrix(word, ctx, fiber_dim=2)
            assert a_linearity_residual(f) < ABS_TOL
            if not ctx.is_cyclic:
                # over a table the fiber is outermost: I_2 (x) the word's matrix
                assert np.array_equal(f.array[0], np.kron(
                    np.eye(2), group_ring_matrix(word, ctx).array[0]))


def test_group_ring_products_stay_a_linear():
    ctx = _s3_context()
    rng = np.random.default_rng(19)
    word_a = [(int(g), complex(rng.standard_normal())) for g in rng.integers(0, 6, 3)]
    word_b = [(int(g), complex(rng.standard_normal())) for g in rng.integers(0, 6, 3)]
    f = group_ring_matrix(word_a, ctx) @ group_ring_matrix(word_b, ctx)
    assert a_linearity_residual(f) < ABS_TOL


def test_group_ring_matrix_needs_group():
    with pytest.raises(DataValidationError):
        group_ring_matrix([("e", 1.0)], complex_field())
