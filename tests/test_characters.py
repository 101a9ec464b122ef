"""Cell complexes over cyclic groups, computed by characters.

The oracle for every comparison is the same cell complex over
``finite_group(<the Z/m table>)``, which builds dense matrices.  The oracle
stays at m <= 64: its associativity check is O(m^3) in memory.
"""

import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import cli, vn
from torsionlab.cells import (
    RegularRepresentation,
    TwistedCellComplex,
    build_complex,
    circle_from_arcs,
    duality_residual,
    glue_check,
)
from torsionlab.complexes import (
    ComplexMorphism,
    direct_sum,
    extension,
    hodge,
    laplacian,
    log_det_prime,
    mapping_cone,
    pad_complex,
    tensor_product,
    torsion,
    torsion_via_laplacians,
)
from torsionlab.errors import DataValidationError
from torsionlab.exact import ComplexSES, cone_ses, milnor_check
from torsionlab.generators import random_cochain_complex
from torsionlab.vn import Morphism

ORDERS = (1, 2, 3, 8, 64)
AGREE = 1e-12
DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def _labels(m):
    return [vn.cyclic_group(m).label(k) for k in range(m)]


def _contexts(m):
    """The character route's context and its dense oracle."""
    i = np.arange(m)
    return vn.cyclic_group(m), vn.finite_group((i[:, None] + i[None, :]) % m, _labels(m))


def _on(cw, ctx, fiber_dim=1):
    return TwistedCellComplex(RegularRepresentation(ctx, fiber_dim), cw.cells,
                              cw.incidences, cw.top_degree)


def _circle(m, coeff=1.0):
    """One 0-cell, one 1-cell, word t - coeff (t = e over Z/1)."""
    word = ((_labels(m)[1 % m], 1.0), ("e", -coeff))
    return TwistedCellComplex(None, {0: ("min",), 1: ("max",)}, {("max", "min"): word}, 1)


def _two_dimensional(m):
    """Cells p1 | a1, p2 | a2 whose square vanishes because Z/m is abelian."""
    w, u = ((_labels(m)[1 % m], 1.0), ("e", -1.0)), ((_labels(m)[2 % m], 0.5j), ("e", 0.75))
    return TwistedCellComplex(
        None, {0: ("p1",), 1: ("a1", "p2"), 2: ("a2",)},
        {("a1", "p1"): w, ("p2", "p1"): u, ("a2", "a1"): [(e, -c) for e, c in u],
         ("a2", "p2"): w}, 2)


def _report(cw, rank_tol=None):
    """The numbers and decisions of the torsion, hodge and duality-check commands."""
    c = build_complex(cw)
    h = hodge(c, rank_tol)
    return {
        "torsion": torsion(c, rank_tol),
        "torsion_via_laplacians": torsion_via_laplacians(c, rank_tol),
        "harmonic_dims": [h.harmonic_dim(q) for q in c.degrees()],
        "log_det_prime": [log_det_prime(laplacian(c, q), rank_tol) for q in c.degrees()],
        "warnings": h.warnings,
        "duality_residual": duality_residual(cw, rank_tol),
    }


def _assert_same(got, want):
    """Every number within AGREE, everything else identical."""
    assert got.keys() == want.keys()
    for key in want:
        a, b = got[key], want[key]
        if isinstance(b, float) or (isinstance(b, list) and b and isinstance(b[0], float)):
            np.testing.assert_allclose(a, b, rtol=0, atol=AGREE, err_msg=key)
        else:
            assert a == b, key


def _assert_matches_oracle(cw, m, fiber_dim=1, rank_tol=None):
    fast, dense = _contexts(m)
    got = _on(cw, fast, fiber_dim)
    assert build_complex(got).modules[0].blocks == m
    _assert_same(_report(got, rank_tol), _report(_on(cw, dense, fiber_dim), rank_tol))


# ---------------------------------------------------------------------------
# the character route against the dense oracle


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("fiber_dim", (1, 2))
def test_circle_matches_dense_oracle(m, fiber_dim):
    _assert_matches_oracle(_circle(m), m, fiber_dim)
    _assert_matches_oracle(_circle(m), m, fiber_dim, rank_tol=0.3)


@pytest.mark.parametrize("m", ORDERS)
def test_glue_check_matches_dense_oracle(m):
    word = ((_labels(m)[3 % m], 0.5 - 1.0j), ("e", 0.75), (_labels(m)[1 % m], -1.0))
    fast, dense = _contexts(m)
    for rank_tol in (None, 1e-3):
        got = glue_check(circle_from_arcs(RegularRepresentation(fast), word), rank_tol=rank_tol)
        want = glue_check(circle_from_arcs(RegularRepresentation(dense), word),
                          rank_tol=rank_tol)
        assert got.keys() == want.keys() and len(got) == 5
        for key in want:
            assert abs(got[key] - want[key]) <= AGREE, key


@pytest.mark.parametrize("m", ORDERS)
def test_blocks_convert_to_the_dense_matrices(m):
    fast, dense = _contexts(m)
    got = build_complex(_on(_two_dimensional(m), fast, 2))
    want = build_complex(_on(_two_dimensional(m), dense, 2))
    _assert_same_matrices(got, want)
    for a, b in zip(got.differentials, want.differentials):
        assert a.array.shape == (m,) + tuple(n // m for n in b.shape)


def _assert_same_matrices(got, want):
    """``got`` is in character coordinates and converts to ``want``."""
    assert all(module.blocks == module.context.size for module in got.modules)
    assert len(got.differentials) == len(want.differentials)
    for a, b in zip(got.differentials, want.differentials):
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=AGREE)


def _complex_report(c):
    """The numbers and decisions of the torsion and hodge commands on a complex."""
    h = hodge(c)
    return {
        "torsion": torsion(c),
        "torsion_via_laplacians": torsion_via_laplacians(c),
        "harmonic_dims": [h.harmonic_dim(q) for q in c.degrees()],
        "warnings": h.warnings,
    }


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("fiber_dim", (1, 2))
@pytest.mark.parametrize("group_first", (True, False), ids=("group-first", "field-first"))
def test_products_stay_blockwise_and_match_dense_oracle(m, fiber_dim, group_first):
    field, _ = random_cochain_complex(np.random.default_rng(m), vn.complex_field(), length=2)
    got, want = (
        tensor_product(*((c, field) if group_first else (field, c)))
        for c in (build_complex(_on(_circle(m, 0.5 + 0.5j), ctx, fiber_dim))
                  for ctx in _contexts(m)))
    _assert_same_matrices(got, want)
    _assert_same(_complex_report(got), _complex_report(want))


def test_sums_of_different_fibers_have_no_dense_layout():
    # circles with fibers 1 and 2: their sum has no one (copies, group,
    # fiber) layout in the standard basis, so the dense linearity check is
    # refused there (it read 2.0 with a fiber-1 label); by characters the
    # sum is blockwise and its differential is algebra-linear
    fast, dense = _contexts(3)
    sums = [direct_sum(*(build_complex(_on(_circle(3), ctx, fiber)) for fiber in (1, 2)))
            for ctx in (fast, dense)]
    assert vn.a_linearity_residual(sums[0].differentials[0]) == 0.0
    with pytest.raises(DataValidationError, match="layout"):
        vn.a_linearity_residual(sums[1].differentials[0])
    assert torsion(sums[0]) == pytest.approx(torsion(sums[1]), abs=AGREE)


def test_mapping_cone_keeps_character_coordinates():
    m = 8
    reports, cones = [], []
    for ctx in _contexts(m):
        rep = RegularRepresentation(ctx)
        c = build_complex(_on(_circle(m), ctx))
        # multiplication by t - 1: a chain map, since Z/m is abelian
        word = ((_labels(m)[1], 1.0), ("e", -1.0))
        blocks = rep.word_blocks(word)
        f = ComplexMorphism(c, c, [Morphism(module, module, blocks) for module in c.modules])
        cone, include, project = mapping_cone(f)
        for g in (include, project):
            assert all(part.domain.blocks == (m if ctx.is_cyclic else 1)
                       for part in g.components)
        r = milnor_check(cone_ses(f))
        reports.append([r.t1, r.t2, r.t3, r.t_h, r.residual, *r.degreewise.values()])
        cones.append(cone)
    _assert_same_matrices(*cones)
    np.testing.assert_allclose(reports[0], reports[1], rtol=0, atol=AGREE)
    assert reports[0][4] < 1e-9


def test_coupled_extension_keeps_character_coordinates():
    # sub and quotient over Z/8 in character coordinates, coupled by the
    # coboundary twist theta_i = d_sub u_i - u_{i+1} d_quot of random stacks u
    rng = np.random.default_rng(8)
    ctx = vn.cyclic_group(8)
    sub = build_complex(_on(_two_dimensional(8), ctx))
    quot = pad_complex(build_complex(_on(_circle(8, 0.5 + 0.5j), ctx)), 0, 2)
    u = [rng.standard_normal((8, a.width, b.width, 2)) @ [1, 1j]
         for a, b in zip(sub.modules, quot.modules)]
    thetas = [d_sub.array @ u[i] - u[i + 1] @ d_quot.array
              for i, (d_sub, d_quot) in enumerate(zip(sub.differentials, quot.differentials))]
    middle, include, project = extension(sub, quot, thetas)
    for i, d in enumerate(middle.differentials):
        assert d.domain.blocks == 8 and d.array.shape == (8, d.codomain.width, d.domain.width)
        assert np.array_equal(d.array[:, :sub.modules[i + 1].width, sub.modules[i].width:],
                              thetas[i])
    assert np.abs(thetas[0]).max() > 0.1
    report = milnor_check(ComplexSES(include, project))
    assert report.residual < 1e-9


@pytest.mark.parametrize("cw", (_circle(8), _two_dimensional(8)), ids=("circle", "two-dimensional"))
def test_spectral_functions_read_character_carriers(cw):
    # the reduced differentials live on carriers with block masks, which
    # have no standard-basis matrix
    got, want = (hodge(build_complex(_on(cw, ctx))) for ctx in _contexts(8))
    for q in range(got.offset, got.offset + len(got.harmonic_dims)):
        r, dense = got.reduced_morphism(q), want.reduced_morphism(q)
        dist = vn.spectral_distribution(r)
        assert abs(vn.stieltjes_log_vol(dist) - vn.log_vol(r)) <= AGREE
        assert dist.total == r.domain.vn_dim
        np.testing.assert_allclose(vn.singular_values(r), vn.singular_values(dense),
                                   rtol=0, atol=AGREE)
        assert abs(vn.default_rank_tol(r) - vn.default_rank_tol(dense)) <= AGREE
        assert abs(vn.vn_trace(r.adjoint() @ r) - vn.vn_trace(dense.adjoint() @ dense)) <= AGREE
        iso, wiso = vn.polar_decompose(r)
        np.testing.assert_allclose((iso @ wiso).array, r.array, rtol=0, atol=AGREE)
        assert vn.log_vol_additivity_residual(r, r.adjoint()) <= AGREE
        assert vn.block_triangular_log_vol_residual(r, r, r) <= AGREE


def test_near_cutoff_decision_is_the_dense_one():
    # At the trivial character the word t - (1 + 1e-6) has sigma = 1e-6:
    # under the cutoff sized by m n = 64 (2.02 x 8 x 2^-22 = 3.9e-6), above
    # the one its own 1 x 1 block would get (1e-6 x 2^-22).  Dropped, with
    # a warning, on both routes.
    m = 64
    fast, dense = _contexts(m)
    got = _report(_on(_circle(m, 1.0 + 1e-6), fast))
    _assert_same(got, _report(_on(_circle(m, 1.0 + 1e-6), dense)))
    assert got["harmonic_dims"] == [1, 1]
    assert got["warnings"]


@st.composite
def _random_cells(draw):
    """A 1-dimensional complex with random cells and words, or the
    2-dimensional one whose square vanishes because Z/m is abelian."""
    m = draw(st.sampled_from(ORDERS[:4]))
    labels = _labels(m)
    half = st.integers(-4, 4).map(lambda k: k / 2)

    def word():
        terms = draw(st.lists(st.tuples(st.integers(0, 7), half, half), min_size=1, max_size=3))
        return [(labels[k % m], complex(re, im)) for k, re, im in terms]

    if draw(st.booleans()):
        w, u = word(), word()
        cw = TwistedCellComplex(
            None, {0: ("p1",), 1: ("a1", "p2"), 2: ("a2",)},
            {("a1", "p1"): w, ("p2", "p1"): u, ("a2", "a1"): [(e, -c) for e, c in u],
             ("a2", "p2"): w}, 2)
    else:
        low = [f"x{k}" for k in range(draw(st.integers(1, 2)))]
        high = [f"y{k}" for k in range(draw(st.integers(1, 3)))]
        pairs = [(y, x) for y in high for x in low]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        cw = TwistedCellComplex(None, {0: tuple(low), 1: tuple(high)},
                                {pair: word() for pair in chosen}, 1)
    return cw, m, draw(st.sampled_from((1, 2)))


@settings(max_examples=40, deadline=None)
@given(_random_cells())
def test_random_cell_complexes_match_dense_oracle(case):
    cw, m, fiber_dim = case
    _assert_matches_oracle(cw, m, fiber_dim)


# ---------------------------------------------------------------------------
# scale


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _circle_files(tmp_path, m):
    rep = {"type": "regular", "context": {"type": "cyclic", "order": m}}
    word = [["t", [1, 0]], ["e", [-1, 0]]]
    circle = _write(tmp_path / "circle.json", {
        "kind": "cw", "representation": rep, "top_degree": 1,
        "cells": {"0": ["min"], "1": ["max"]},
        "incidences": [{"from": "min", "to": "max", "word": word}]})
    arcs = _write(tmp_path / "arcs.json", {
        "kind": "gluing",
        "lower": {"representation": rep, "top_degree": 1, "cells": {"0": ["lo"]},
                  "incidences": []},
        "upper": {"representation": rep, "top_degree": 1, "cells": {"1": ["up"]},
                  "incidences": []},
        "coupling": [{"from": "lo", "to": "up", "word": word}]})
    return circle, arcs


def test_large_circle_in_every_command(tmp_path):
    m = 4096
    value = math.log(m) / m
    circle, arcs = _circle_files(tmp_path, m)
    start = time.perf_counter()
    t = cli.run(cli.JobSpec("torsion", (circle,)))
    h = cli.run(cli.JobSpec("hodge", (circle,)))
    d = cli.run(cli.JobSpec("duality-check", (circle,)))
    g = cli.run(cli.JobSpec("glue-check", (arcs,)))
    elapsed = time.perf_counter() - start
    assert abs(t["torsion"] - value) < 1e-9 and abs(t["torsion_via_laplacians"] - value) < 1e-9
    for row in h["degrees"]:
        assert row["harmonic_vn_dim"] == 1 / m
        assert abs(row["laplacian_log_det_prime"] - 2 * value) < 1e-9
    assert abs(d["torsion"] - value) < 1e-9 and d["residual"] < 1e-9
    assert abs(g["t_comb"] - value) < 1e-9 and g["residual"] < 1e-9
    assert t["warnings"] == h["warnings"] == []
    assert elapsed < 1.0


def test_product_stays_blockwise_at_scale(tmp_path):
    m = 4096  # the dense product would allocate about 1 GiB
    circle, _ = _circle_files(tmp_path, m)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = cli.run(cli.JobSpec("product", (circle, str(DATA / "interval_tau2.json"))))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert elapsed < 1.0
    assert abs(report["torsion_product"] - math.log(m) / m) < 1e-9
    assert report["residual"] < 1e-12 and report["passed"]


def test_torsion_memory_stays_linear_in_the_order(tmp_path):
    m = 2 ** 16  # the dense matrix would take 64 GiB
    circle, _ = _circle_files(tmp_path, m)
    tracemalloc.start()
    try:
        report = cli.run(cli.JobSpec("torsion", (circle,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # the characters j = +-1 fall under the cutoff sized by m (see README)
    assert report["warnings"]
    assert report["route_residual"] < 1e-12


def test_cyclic_group_holds_no_table():
    m = 2 ** 20
    ctx = vn.cyclic_group(m)
    for value in vars(ctx).values():
        assert np.size(value) <= m
    assert ctx.multiply(m - 1, 2) == 1 and ctx.inverse(3) == m - 3
    assert ctx.power(ctx.element_index("t^5"), -3) == m - 15
    assert ctx.label(ctx.element_index(f"t^{m - 1}")) == f"t^{m - 1}"
    for bad in ("t^1", "t^0", f"t^{m}", "t^-1", "s"):
        with pytest.raises(DataValidationError):
            ctx.element_index(bad)
    assert vn.cyclic_group(4).matches(vn.cyclic_group(4))
    assert not vn.cyclic_group(4).matches(_contexts(4)[1])
