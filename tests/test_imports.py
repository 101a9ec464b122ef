"""Import cost: ``import torsionlab`` is lazy, and each command loads only
the modules it runs.  Every process compiles what it imports when bytecode
caching is off, so a module a command does not need is start-up it pays
for nothing."""

import importlib
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import torsionlab
from torsionlab import complexes, towers, vn

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: The public names of the package root: functions and classes, and the
#: submodules an eager root used to load.
PUBLIC_NAMES = [
    "ApproxTower", "CochainComplex", "ComplexMorphism", "ComplexSES", "GluingSpec",
    "HilbertModule", "HodgeData", "InfiniteCyclic", "LaurentMatrix", "LaurentPoly",
    "MilnorReport", "ModelTorsion", "Morphism", "RegularRepresentation",
    "SpectralDistribution", "TraceContext", "TwistedCellComplex",
    "UnitaryRepresentation", "a_linearity_residual", "approx_tower",
    "block_triangular_log_vol_residual", "boundary_ratio", "build_complex", "cells",
    "circle", "circle_from_arcs", "circle_holonomy", "complex_field", "complexes",
    "cone_ses", "connecting_hom", "cw_to_laurent", "cyclic_group", "cylinder_ratio",
    "default_rank_tol", "direct_sum", "direct_sum_modules", "disjoint_union",
    "dual_complex", "duality_residual", "errors", "exact", "finite_group",
    "flip_cell_signs", "fourier_counting", "fourier_log_det", "glue", "glue_check",
    "group_ring_matrix", "hodge", "induced_harmonic_map", "interval_flow_through",
    "interval_interior_minimum", "interval_tau1", "interval_tau2",
    "jensen_log_det", "laplacian", "laurent_laplacian",
    "level_log_det", "limit_distribution_check", "log_det_prime", "log_vol",
    "log_vol_additivity_residual", "long_sequence", "mapping_cone", "milnor_check",
    "models", "nonnegativity_check", "parse_laurent", "point", "polar_decompose",
    "product_complex", "regular_module", "singular_values", "specialize",
    "spectral_distribution", "stieltjes_log_vol", "suspension", "t_comb",
    "tensor_product", "three_stage_torsion", "torsion", "torsion_transfer_residual",
    "torsion_via_laplacians", "towers", "vn", "vn_trace",
]

#: Runs ``python -m torsionlab <argv>`` (or only ``import torsionlab`` for an
#: empty argv) and prints the exit code and the loaded torsionlab modules
#: and numpy.
_PROBE = """
import contextlib, io, json, runpy, sys
argv = json.loads(sys.argv[1])
code = 0
if argv:
    sys.argv = ["torsionlab", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("torsionlab", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
else:
    import torsionlab
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.startswith("torsionlab"))]))
"""


def _loaded(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return {m.removeprefix("torsionlab.") for m in modules} - {"torsionlab"}


def test_bare_import_loads_no_numpy_and_no_submodule():
    assert _loaded() == set()


@pytest.mark.parametrize("argv", [
    ("lueck", "--op", "2 - t - t^-1", "--levels", "2..8"),
    ("lueck", str(DATA / "laurent_flagship.json"), "--levels", "2,4"),
], ids=["op", "file"])
def test_lueck_loads_only_towers_and_its_front_end(argv):
    assert _loaded(*argv) == {"numpy", "cli", "errors", "formats", "kernel", "towers"}


@pytest.mark.parametrize("argv, absent", [
    (("ses-check", str(DATA / "ses_split.json")), {"cells", "towers"}),
    (("torsion", str(DATA / "circle_lambda_-1.json")), {"towers", "exact"}),
    (("hodge", str(DATA / "circle_lambda_-1.json")), {"towers", "exact"}),
    (("glue-check", str(DATA / "glue_circle.json")), {"towers"}),
    (("duality-check", str(DATA / "circle_lambda_-1.json")), {"towers", "exact"}),
    (("product", str(DATA / "interval_tau1.json"), str(DATA / "interval_tau2.json")),
     {"towers", "exact"}),
    (("lueck", "--op", "2 - t - t^-1", "--levels", "2..8"),
     {"vn", "complexes", "exact", "cells"}),
    (("lueck", str(DATA / "laurent_flagship.json"), "--levels", "2,4"),
     {"vn", "complexes", "exact", "cells"}),
], ids=["ses-check", "torsion-unitary-cw", "hodge-unitary-cw", "glue-check",
        "duality-check", "product", "lueck-op", "lueck-file"])
def test_commands_leave_unused_modules_unloaded(argv, absent):
    loaded = _loaded(*argv, "--json")
    assert "formats" in loaded
    assert not loaded & absent


#: A two-arc gluing over the regular representation of Z/4.
_CYCLIC_GLUING = {
    "kind": "gluing",
    "lower": {"representation": {"type": "regular", "context": {"type": "cyclic", "order": 4}},
              "top_degree": 1, "cells": {"0": ["low"]}, "incidences": []},
    "upper": {"representation": {"type": "regular", "context": {"type": "cyclic", "order": 4}},
              "top_degree": 1, "cells": {"1": ["up"]}, "incidences": []},
    "coupling": [{"from": "low", "to": "up", "word": [["e", [1, 0]], [["t", 3], [-1, 0]]]}],
}


@pytest.mark.parametrize("command", ["torsion", "hodge", "duality-check", "glue-check"])
def test_cyclic_regular_cell_complexes_load_no_towers(tmp_path, command):
    # their cell words reach the phase kernel in vn, not through towers
    if command == "glue-check":
        path = tmp_path / "arcs_z4.json"
        path.write_text(json.dumps(_CYCLIC_GLUING))
    else:
        path = DATA / "circle_z3.json"
    loaded = _loaded(command, str(path), "--json")
    assert "cells" in loaded
    assert "towers" not in loaded


def test_the_dense_tower_reference_loads_no_vn():
    # specialize builds its matrix from the Laurent terms alone
    script = ("import json, sys; import torsionlab.towers as t; "
              "a = t.specialize(t.parse_laurent('2 - t - t^-1'), 8); "
              "print(json.dumps([a.shape, 'torsionlab.vn' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [[8, 8], False]


def test_public_names_are_unchanged():
    script = ("import json, torsionlab; "
              "listed = [n for n in dir(torsionlab) if not n.startswith('_')]; "
              "ns = {}; exec('from torsionlab import *', ns); "
              "print(json.dumps([listed, sorted(n for n in ns if not n.startswith('_'))]))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    listed, star = json.loads(proc.stdout)
    assert listed == PUBLIC_NAMES
    assert star == PUBLIC_NAMES


def test_names_resolve_to_their_defining_module_on_every_access(monkeypatch):
    for name in PUBLIC_NAMES:
        value = getattr(torsionlab, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"torsionlab.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    assert "torsion" not in vars(torsionlab)
    monkeypatch.setattr(complexes, "torsion", lambda *args: 0.0)
    assert torsionlab.torsion is complexes.torsion
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        torsionlab.nope


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps package functions by module and name, so a
    # renamed or deleted one breaks a traced benchmark run
    # (perfbench/run.py --trace 1); the tracer module is only read here
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, module, attr in tracing.SPANNED:
        assert callable(getattr(importlib.import_module(module), attr, None)), layer
    assert callable(vn.singular_values)
    assert callable(towers.LaurentMatrix.symbol)
    originals = (vn.singular_values, towers.LaurentMatrix.symbol)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (vn.singular_values, towers.LaurentMatrix.symbol) == originals
