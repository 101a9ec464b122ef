"""torsionlab: torsion invariants of Hilbert-module cochain complexes.

Linear algebra over finite trace algebras (log-scale Fuglede-Kadison
volumes), Hodge decompositions and torsion of cochain complexes, additivity
over exact sequences, twisted cell complexes with Poincare duality and
gluing formulas, and finite-quotient approximation of determinants of
integer Laurent operators.

``import torsionlab`` is lazy: it loads neither numpy nor any submodule.
Each public name, and each submodule name, imports its module on first
access (PEP 562), so a command pays only for the modules it runs.

Set TORSIONLAB_THREADS before the first import to cap the linear-algebra
thread pools (the cap is translated to the usual BLAS environment variables
and only takes effect if numpy has not been loaded yet).
"""

import os as _os
from importlib import import_module as _import_module

if "TORSIONLAB_THREADS" in _os.environ:
    try:
        _cap = int(_os.environ["TORSIONLAB_THREADS"])
    except ValueError:
        _cap = 0
    if _cap >= 1:
        for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS"):
            _os.environ.setdefault(_var, str(_cap))

#: The public names, by the module that defines them.
_EXPORTS = {
    "kernel": ("SpectralDistribution",),
    "vn": (
        "HilbertModule", "Morphism", "TraceContext",
        "a_linearity_residual", "block_triangular_log_vol_residual", "complex_field",
        "cyclic_group", "default_rank_tol", "direct_sum_modules", "finite_group",
        "group_ring_matrix", "log_vol",
        "log_vol_additivity_residual", "polar_decompose", "regular_module",
        "singular_values", "spectral_distribution", "stieltjes_log_vol", "vn_trace",
    ),
    "complexes": (
        "CochainComplex", "ComplexMorphism", "HodgeData", "direct_sum", "hodge",
        "induced_harmonic_map", "laplacian", "log_det_prime", "mapping_cone",
        "suspension", "tensor_product", "torsion", "torsion_transfer_residual",
        "torsion_via_laplacians",
    ),
    "exact": (
        "ComplexSES", "MilnorReport", "cone_ses", "connecting_hom", "long_sequence",
        "milnor_check", "three_stage_torsion",
    ),
    "cells": (
        "GluingSpec", "InfiniteCyclic", "RegularRepresentation", "TwistedCellComplex",
        "UnitaryRepresentation", "build_complex", "circle", "circle_from_arcs",
        "circle_holonomy", "disjoint_union", "dual_complex", "duality_residual",
        "flip_cell_signs", "glue", "glue_check", "interval_tau1", "interval_tau2",
        "point", "product_complex", "t_comb",
    ),
    "models": (
        "ModelTorsion", "boundary_ratio", "cylinder_ratio", "interval_flow_through",
        "interval_interior_minimum",
    ),
    "towers": (
        "ApproxTower", "LaurentMatrix", "LaurentPoly", "approx_tower", "cw_to_laurent",
        "fourier_counting", "fourier_log_det", "jensen_log_det", "laurent_laplacian",
        "level_log_det", "limit_distribution_check", "nonnegativity_check",
        "parse_laurent", "specialize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors")

# ``kernel`` resolves like every submodule; its public name is exported
# here, so the module itself stays out of the star import.
__all__ = sorted({*_HOME, *_SUBMODULES} - {"kernel"})

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached here: patching a name in its defining module patches it
    # for every later ``torsionlab.<name>``.
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
