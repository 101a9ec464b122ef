"""Every named tolerance of the package is pinned by a behaviour test.

``TOLERANCES`` maps each module-level ``*_TOL`` constant of
``src/torsionlab`` to tests that fail when the constant moves by a factor
10^3 (the comment says in which direction); an AST check keeps the table
complete and its test names real.
"""

import ast
import json
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
}


def _module_tolerances():
    found = set()
    for path in sorted((ROOT / "src" / "torsionlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            found |= {f"{path.stem}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_TOL")}
    return found


def test_every_tolerance_has_an_entry():
    assert _module_tolerances() == set(TOLERANCES)


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
