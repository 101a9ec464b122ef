"""Every named tolerance of the package is pinned by a behaviour test.

``TOLERANCES`` maps each module-level ``*_TOL`` constant of
``src/torsionlab``, the kernel's rank-policy constants and each command's
default ``--tol`` (``cli.<command>``) to tests that fail when the value
moves by a factor 10^3 (the comment says in which direction); an AST check
keeps the table complete and its test names real.  ``UNPINNED`` names the
defaults that no input can pin, with the reason.
"""

import ast
import json
import math
from pathlib import Path

import pytest

from torsionlab import cli

ROOT = Path(__file__).resolve().parents[1]

#: module.CONSTANT -> tests ("file::function") that pin it.
TOLERANCES = {
    # up and down: a d o d of 1e-8 and 1e-12 of its scale, and a Laurent
    # operator selfadjoint to 2.5e-9 and 2.5e-12 of its coefficients
    "kernel.COMPOSITION_TOL": (
        "test_tolerances.py::test_composition_tol_decides_d_o_d_at_every_scale",
        "test_cli.py::test_lueck_refuses_an_operator_that_is_not_selfadjoint_to_composition_tol",
        "test_vn.py::test_vanishing_test_accepts_inputs_rounded_to_twelve_digits",
    ),
    # up: a symbol 2e-8 below zero at angle 0; down: one 1e-11 below zero
    "kernel.SEMIDEFINITE_TOL": (
        "test_towers.py::test_every_route_refuses_a_symbol_below_the_rounding_margin",
        "test_towers.py::TestStreamedGrids::test_semidefinite_check_reads_the_whole_grid",
        "test_cli.py::test_lueck_refuses_an_operator_that_is_not_selfadjoint_to_composition_tol",
    ),
    # up and down: the default target of lueck's quadrature sets its depth
    "towers.QUAD_TOL": (
        "test_tolerances.py::test_quad_tol_sets_the_depth_of_lueck_s_quadrature",
        "test_towers.py::test_every_route_refuses_a_symbol_below_the_rounding_margin",
    ),
    # up and down: singular values 1e-7 and 1e-6 of sigma_max, within a
    # factor 10 of the default cutoff sigma_max sqrt(2) 2^-22, move across it
    "kernel.RANK_TOL_SCALE": (
        "test_complexes.py::test_near_cutoff_ranks_agree_across_routes",
        "test_cli.py::TestHappyPaths::test_torsion_reports_near_cutoff_warning",
        "test_vn.py::test_default_rank_tol_formula",
    ),
    # up: the floor passes the default cutoff and decides ranks; down: the
    # rounding of cancelling cell words survives as a singular value
    "kernel.NOISE_FLOOR_SLACK": (
        "test_cli.py::test_rank_tol_below_the_gram_floor_is_applied_or_reported",
        "test_cli.py::test_the_trefoil_at_a_root_of_its_alexander_polynomial",
        "test_exact.py::test_milnor_long_sequence_torsion_uses_the_sequence_cutoff",
    ),
    # up: values far from the cutoff warn; down: no value ever warns
    "kernel.RANK_AMBIGUITY_FACTOR": (
        "test_complexes.py::test_hodge_flags_ambiguous_rank",
        "test_cli.py::TestHappyPaths::test_torsion_reports_near_cutoff_warning",
    ),
    # up and down: route residuals of 1e-9 and 1e-7 against a bound of 2.4e-8
    "cli.torsion": ("test_tolerances.py::test_default_verdict_tolerances",),
    # up and down: gluing residuals of 1e-10 and 1e-8 against 1e-9
    "cli.glue-check": ("test_tolerances.py::test_default_verdict_tolerances",),
    # up and down: product residuals of 4e-9 and 4e-5 against 5.8e-7
    "cli.product": ("test_tolerances.py::test_default_verdict_tolerances",),
}

#: Defaults that no input can pin: their residual is rounding for every input.
UNPINNED = {
    # Milnor's identity holds at the sequence's one cutoff: exactness fixes
    # every rank of C1, C2, C3 and the long sequence, so a rank decision
    # that differs between the complexes is refused ("not exact"), and the
    # residual is rounding
    "cli.ses-check",
    # the dual Laplacians are the Laplacians of the complex in reverse
    # order, so both sides make the same rank decisions on the same values,
    # and the residual is rounding
    "cli.duality-check",
}


#: The kernel's rank-policy constants that are not named ``*_TOL``.
RANK_POLICY = {"RANK_TOL_SCALE", "NOISE_FLOOR_SLACK", "RANK_AMBIGUITY_FACTOR"}


def _module_tolerances():
    found = set()
    for path in sorted((ROOT / "src" / "torsionlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            found |= {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)
                      and (t.id.endswith("_TOL") or t.id in RANK_POLICY)}
        # a command's default --tol: ``job.tol if job.tol is not None else 1e-8``
        found |= {f"{path.stem}.{func.name[len('_run_'):].replace('_', '-')}"
                  for func in tree.body if isinstance(func, ast.FunctionDef)
                  for node in ast.walk(func) if isinstance(node, ast.IfExp)
                  and ast.unparse(node.body) == "job.tol"
                  and isinstance(node.orelse, ast.Constant)}
    return found


def test_every_tolerance_has_an_entry():
    assert not set(TOLERANCES) & UNPINNED
    assert _module_tolerances() == set(TOLERANCES) | UNPINNED


@pytest.mark.parametrize("constant", sorted(TOLERANCES))
def test_every_entry_names_existing_tests(constant):
    assert TOLERANCES[constant]
    for name in TOLERANCES[constant]:
        file, *_, function = name.split("::")
        tree = ast.parse((ROOT / "tests" / file).read_text())
        assert function in {node.name for node in ast.walk(tree)
                            if isinstance(node, ast.FunctionDef)}, name


@pytest.mark.parametrize("factor", [1.0, 1e6])
@pytest.mark.parametrize("eps, code", [(1e-8, 2), (1e-12, 0)])
def test_composition_tol_decides_d_o_d_at_every_scale(tmp_path, capsys, factor, eps, code):
    # d_1 d_0 = eps against ||d_1|| ||d_0|| = 1, times factor^2 on both sides
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "kind": "complex", "modules": [1, 2, 1],
        "differentials": [[[[factor, 0]], [[0, 0]]], [[[eps * factor, 0], [factor, 0]]]]}))
    assert cli.main(["torsion", str(path)]) == code
    assert ("d o d != 0" in capsys.readouterr().err) == bool(code)


def test_quad_tol_sets_the_depth_of_lueck_s_quadrature(capsys):
    # 2.001 - t - t^-1 converges geometrically: its increments are 2.4e-6 at
    # depth 10, 3.6e-10 at 11 and 3e-16 at 12, so the default target 1e-8
    # stops at depth 11, and 1e-5 or 1e-11 would not
    assert cli.main(["lueck", "--op", "2.001 - t - t^-1", "--levels", "2..8", "--json"]) == 0
    quadrature = json.loads(capsys.readouterr().out)["quadrature"]
    assert quadrature["depth"] == 11 and 1e-11 < quadrature["last_increment"] < 1e-8


def _cut_complex(eps):
    """0 -> C^2 -> C^3 -> C -> 0 with d_0 = (a, 1 - eps) and d_1 = 4a on the
    third coordinate.  The Hodge route cuts d_0 at a sqrt(3) 2^-22 = 1/2 and
    keeps 1 - eps; the Laplacian route cuts Delta_1 at its top value 4a,
    at 2, and drops it: the route residual is -log(1 - eps) ~ eps."""
    a = 0.5 * 2 ** 22 / math.sqrt(3)
    return {"kind": "complex", "modules": [2, 3, 1],
            "differentials": [[[a, 0], [0, 1 - eps], [0, 0]], [[0, 0, 4 * a]]]}


def _cut_gluing(eps):
    """The same values as a gluing: the lower piece keeps d_0 = (a, 1 - eps),
    the upper one holds 4a, and only the glued Laplacian sees both."""
    a = 0.5 * 2 ** 22 / math.sqrt(3)
    rep = {"type": "unitary", "generators": {"t": [[1]]}}
    return {"kind": "gluing", "coupling": [],
            "lower": {"representation": rep, "top_degree": 2,
                      "cells": {"0": ["a", "b"], "1": ["x", "y"]},
                      "incidences": [{"from": "a", "to": "x", "word": [["e", a]]},
                                     {"from": "b", "to": "y", "word": [["e", 1 - eps]]}]},
            "upper": {"representation": rep, "top_degree": 2, "cells": {"1": ["u"], "2": ["v"]},
                      "incidences": [{"from": "u", "to": "v", "word": [["e", 4 * a]]}]}}


def _cut_factor(eps):
    """d = (a, 1 - eps), cut at a sqrt(2) 2^-22 = 1/2; its product with C^4
    is cut at 1 and drops the four copies of 1 - eps: residual ~ 4 eps."""
    a = 0.5 * 2 ** 22 / math.sqrt(2)
    return {"kind": "complex", "modules": [2, 2], "differentials": [[[a, 0], [0, 1 - eps]]]}


@pytest.mark.parametrize("command, build, eps, passed", [
    ("torsion", _cut_complex, 1e-9, True),
    ("torsion", _cut_complex, 1e-7, False),
    ("glue-check", _cut_gluing, 1e-10, True),
    ("glue-check", _cut_gluing, 1e-8, False),
    ("product", _cut_factor, 1e-9, True),
    ("product", _cut_factor, 1e-5, False),
], ids=["torsion-inside", "torsion-outside", "glue-check-inside", "glue-check-outside",
        "product-inside", "product-outside"])
def test_default_verdict_tolerances(tmp_path, capsys, command, build, eps, passed):
    # a value 1 - eps that one side of the check keeps and the other drops
    # makes a residual of about eps, just inside or outside the default --tol
    path = tmp_path / "input.json"
    path.write_text(json.dumps(build(eps)))
    argv = [command, str(path)]
    if command == "product":
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"kind": "complex", "modules": [4], "differentials": []}))
        argv.append(str(point))
    assert cli.main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is passed
