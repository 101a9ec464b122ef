"""Acceptance suite: ten end-to-end criteria with runtime budgets.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts both the mathematical property at its stated tolerance and the
wall-clock budget.  Tolerances and budgets are contract values: loosening
them is never the fix for a failure.
"""

import math
import time

import numpy as np
import pytest

from torsionlab import vn
from torsionlab.cells import (
    RegularRepresentation,
    TwistedCellComplex,
    GluingSpec,
    UnitaryRepresentation,
    build_complex,
    circle,
    circle_from_arcs,
    circle_holonomy,
    dual_complex,
    duality_residual,
    flip_cell_signs,
    glue_check,
    interval_tau1,
    interval_tau2,
    point,
    t_comb,
)
from torsionlab.complexes import (
    ComplexMorphism,
    mapping_cone,
    tensor_product,
    torsion,
    torsion_via_laplacians,
)
from torsionlab.exact import cone_ses, connecting_hom, milnor_check
from torsionlab.complexes import induced_harmonic_map
from torsionlab.generators import (
    random_alinear,
    random_alinear_invertible,
    random_chain_morphism,
    random_cochain_complex,
    random_ses,
)
from torsionlab.models import (
    boundary_ratio,
    cylinder_ratio,
    interval_flow_through,
    interval_interior_minimum,
)
from torsionlab.towers import (
    DEFAULT_LEVELS,
    LaurentPoly,
    approx_tower,
    fourier_log_det,
    nonnegativity_check,
    parse_laurent,
)
from torsionlab.vn import Morphism, complex_field, cyclic_group, regular_module

CF = complex_field()
TRIVIAL = UnitaryRepresentation({"t": [[1.0]]})


def _finish(number, label, ok, elapsed, budget, detail=""):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"criterion {number:2d}: {status} - {label} "
          f"({elapsed:.2f}s / {budget:g}s budget){detail}")
    assert ok, f"criterion {number} ({label}) failed{detail}"
    assert elapsed < budget, (
        f"criterion {number} ({label}) exceeded its {budget:g}s budget "
        f"({elapsed:.2f}s)")


def _builtin_cell_complexes():
    reps = [
        TRIVIAL,
        RegularRepresentation(cyclic_group(2)),
        RegularRepresentation(cyclic_group(5)),
        UnitaryRepresentation({"t": [[np.exp(0.3j)]]}),
    ]
    for rep in reps:
        yield point(rep)
        yield interval_tau1(rep)
        yield interval_tau2(rep)
        yield circle(rep)
    for lam in (-1.0, 1j, np.exp(1j * np.pi / 5)):
        yield circle_holonomy(lam)


def test_criterion_01_model_values():
    start = time.perf_counter()
    flow = interval_flow_through()
    well = interval_interior_minimum(1.0)
    exact_zero = (
        flow.t_comb == 0.0
        and well.t_comb == 0.0
        and t_comb(interval_tau1(TRIVIAL)) == 0.0
        and t_comb(interval_tau2(TRIVIAL)) == 0.0
    )
    half_log2 = 0.5 * math.log(2.0)
    # chi(point) = 1 for the cylinder form, chi(boundary of I) = 2 for the
    # boundary form; both must match the stored ratio bit-for-bit.
    ratios = (
        flow.log_ratio == half_log2
        and cylinder_ratio(1.0) == half_log2
        and boundary_ratio(2.0) == half_log2
        and well.log_ratio == half_log2
    )
    elapsed = time.perf_counter() - start
    _finish(1, "closed-form model values and ratio identities",
            exact_zero and ratios, elapsed, 1.0)


def _lean_shape(rng, length):
    """Random shape whose slice totals stay at one per degree.

    Boundary ranks are 0/1 with no two adjacent, and harmonic ranks sit
    only at degrees no boundary slice touches, so each module of the
    resulting complex has at most one free generator.
    """
    while True:
        boundary, prev = [], 0
        for _ in range(length - 1):
            r = 0 if prev else int(rng.integers(0, 2))
            boundary.append(r)
            prev = r
        touched = [False] * length
        for i, r in enumerate(boundary):
            if r:
                touched[i] = touched[i + 1] = True
        harmonic = [0 if touched[i] else int(rng.integers(0, 2))
                    for i in range(length)]
        if sum(harmonic) + sum(boundary):
            return harmonic, boundary


def test_criterion_02_additivity_over_exact_sequences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    contexts = [CF, cyclic_group(2), cyclic_group(3)]
    worst = 0.0
    for trial in range(100):
        ctx = contexts[trial % len(contexts)]
        length = int(rng.integers(2, 5))
        if ctx.size == 1:
            ses = random_ses(rng, ctx, length=length, max_rank=1)
        else:
            shapes = (_lean_shape(rng, length), _lean_shape(rng, length))
            ses = random_ses(rng, ctx, length=length, shapes=shapes)
        assert all(m.ambient_dim <= 6 for m in ses.middle.modules)
        report = milnor_check(ses)
        scaled = report.residual / (1.0 + abs(report.t2))
        worst = max(worst, scaled)
    elapsed = time.perf_counter() - start
    _finish(2, "torsion additivity on 100 random exact sequences",
            worst < 1e-7, elapsed, 30.0, f" worst={worst:.2e}")


def test_criterion_03_multiplicativity_and_block_triangularity():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    contexts = [CF, cyclic_group(2), cyclic_group(3)]
    worst_mult = 0.0
    worst_block = 0.0
    for trial in range(100):
        ctx = contexts[trial % len(contexts)]
        rank = int(rng.integers(1, 5 if ctx.size == 1 else 3))
        module = regular_module(ctx, rank)
        f = Morphism(module, module, random_alinear_invertible(rng, ctx, rank))
        g = Morphism(module, module, random_alinear_invertible(rng, ctx, rank))
        lhs = vn.log_vol(g @ f)
        residual = vn.log_vol_additivity_residual(f, g)
        worst_mult = max(worst_mult, residual / (1.0 + abs(lhs)))

        h = Morphism(module, module, random_alinear(rng, ctx, rank, rank))
        block = vn.block_triangular_log_vol_residual(f, g, h)
        scale = 1.0 + abs(vn.log_vol(f)) + abs(vn.log_vol(g))
        worst_block = max(worst_block, block / scale)
    elapsed = time.perf_counter() - start
    _finish(3, "multiplicativity and block-triangularity, 100 instances each",
            worst_mult < 1e-9 and worst_block < 1e-9, elapsed, 5.0,
            f" mult={worst_mult:.2e} block={worst_block:.2e}")


def test_criterion_04_torsion_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for cw in _builtin_cell_complexes():
        c = build_complex(cw)
        a, b = torsion(c), torsion_via_laplacians(c)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    rng = np.random.default_rng(4)
    contexts = [CF, cyclic_group(2), cyclic_group(3)]
    for trial in range(100):
        ctx = contexts[trial % len(contexts)]
        c, _ = random_cochain_complex(rng, ctx, int(rng.integers(2, 5)),
                                      max_rank=2,
                                      offset=int(rng.integers(-2, 3)))
        a, b = torsion(c), torsion_via_laplacians(c)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.perf_counter() - start
    _finish(4, "determinant and Laplacian torsion routes agree",
            worst < 1e-8, elapsed, 10.0, f" worst={worst:.2e}")


def test_criterion_05_product_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    contexts = [CF, cyclic_group(2), cyclic_group(3)]
    worst = 0.0
    for trial in range(50):
        # one factor always lives over the complex field; the other cycles
        # through the available contexts
        ctx = contexts[trial % len(contexts)]
        a, _ = random_cochain_complex(rng, ctx, int(rng.integers(2, 4)),
                                      max_rank=2)
        b, _ = random_cochain_complex(rng, CF, int(rng.integers(2, 4)),
                                      max_rank=2)
        if trial % 2:
            a, b = b, a
        lhs = torsion(tensor_product(a, b))
        rhs = (b.euler_characteristic() * torsion(a)
               + a.euler_characteristic() * torsion(b))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    _finish(5, "product formula on 50 random pairs",
            worst < 1e-8, elapsed, 10.0, f" worst={worst:.2e}")


def test_criterion_06_gluing_formula():
    start = time.perf_counter()
    worst = 0.0
    for lam in (-1.0, 1j, np.exp(1j * np.pi / 5)):
        rep = UnitaryRepresentation({"t": [[lam]]})
        report = glue_check(circle_from_arcs(rep))
        worst = max(worst, report["residual"])
    rng = np.random.default_rng(6)
    reps = [
        TRIVIAL,
        RegularRepresentation(cyclic_group(2)),
        RegularRepresentation(cyclic_group(3), fiber_dim=2),
        UnitaryRepresentation({"t": [[np.exp(0.7j)]]}),
    ]
    for trial in range(20):
        rep = reps[trial % len(reps)]
        word = [(int(rng.integers(-3, 4)),
                 complex(rng.standard_normal(), rng.standard_normal()))
                for _ in range(int(rng.integers(1, 4)))]
        report = glue_check(circle_from_arcs(rep, coupling_word=word))
        worst = max(worst, report["residual"])
    elapsed = time.perf_counter() - start
    _finish(6, "gluing formula: three holonomies plus 20 random couplings",
            worst < 1e-9, elapsed, 5.0, f" worst={worst:.2e}")


def test_criterion_07_poincare_duality():
    start = time.perf_counter()
    worst = 0.0
    examples = [
        interval_tau1(TRIVIAL),
        interval_tau2(TRIVIAL),
        circle(TRIVIAL),
        circle_holonomy(-1.0),
        circle_holonomy(np.exp(1j * np.pi / 5)),
        circle(RegularRepresentation(cyclic_group(3))),
    ]
    for cw in examples:
        assert cw.top_degree == 1
        worst = max(worst, duality_residual(cw))
    elapsed = time.perf_counter() - start
    _finish(7, "Poincare duality on interval and circle models",
            worst < 1e-9, elapsed, 1.0, f" worst={worst:.2e}")


def test_criterion_08_finite_quotient_approximation():
    start = time.perf_counter()
    flagship = parse_laurent("2 - t - t^-1")
    tower = approx_tower(flagship, DEFAULT_LEVELS)
    worst_level = max(abs(value - 2.0 * math.log(m) / m)
                      for m, value in tower.level_values())
    oracle = abs(fourier_log_det(flagship))
    rng = np.random.default_rng(17)
    all_passed = True
    for _ in range(10):
        c = rng.integers(-2, 3, size=3)
        p = LaurentPoly([(-1, int(c[0])), (0, int(c[1])), (1, int(c[2]))])
        report = nonnegativity_check(p * p.adjoint())
        all_passed = all_passed and report["passed"]
    elapsed = time.perf_counter() - start
    _finish(8, "finite-quotient tower, circle oracle, and integrality",
            worst_level < 1e-9 and oracle < 1e-6 and all_passed,
            elapsed, 60.0,
            f" level={worst_level:.2e} oracle={oracle:.2e}")


def test_criterion_09_orientation_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for cw in _builtin_cell_complexes():
        reference = t_comb(cw)
        labels = [x for cells in cw.cells.values() for x in cells]
        flipped = [x for x in labels if rng.integers(0, 2)]
        if not flipped and labels:
            flipped = [labels[0]]
        worst = max(worst, abs(t_comb(flip_cell_signs(cw, flipped))
                               - reference))
    elapsed = time.perf_counter() - start
    _finish(9, "torsion invariant under cell sign flips",
            worst < 1e-12, elapsed, 2.0, f" worst={worst:.2e}")


def test_criterion_10_mapping_cone_connecting_map():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    contexts = [CF, cyclic_group(2)]
    worst = 0.0
    for trial in range(50):
        ctx = contexts[trial % len(contexts)]
        c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
        f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
        ses = cone_ses(f)
        for i in list(ses.degrees())[:-1]:
            delta = connecting_hom(ses, i)
            induced = induced_harmonic_map(f, i + 1)
            if delta.array.size == 0:
                continue
            # the largest block norm of a stack, the norm of the direct sum
            worst = max(worst, min((delta - induced).norm(), (delta + induced).norm()))
    cone_worst = 0.0
    for ctx in contexts:
        c, _ = random_cochain_complex(rng, ctx, length=3, max_rank=2)
        ident = ComplexMorphism(c, c, [Morphism.identity(m) for m in c.modules])
        cone, _, _ = mapping_cone(ident)
        cone_worst = max(cone_worst, abs(torsion(cone)))
    elapsed = time.perf_counter() - start
    _finish(10, "cone connecting map is the induced map up to sign",
            worst < 1e-9 and cone_worst < 1e-10, elapsed, 10.0,
            f" worst={worst:.2e} cone={cone_worst:.2e}")
