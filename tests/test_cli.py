"""Command-line interface: exit codes, report grammar, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsionlab import cli, formats
from torsionlab.errors import DataValidationError
from torsionlab.exact import ComplexSES, milnor_check
from torsionlab.generators import random_ses
from torsionlab.vn import complex_field, cyclic_group, finite_group

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

#: A one-generator unitary representation: t acts as -1.
_UNITARY = {"type": "unitary", "generators": {"t": [[[-1, 0]]]}}


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "torsionlab", *args],
        capture_output=True, text=True, env=env, cwd=cwd)


def run_json(*args, **kwargs):
    proc = run_cli(*args, "--json", **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc


class TestHappyPaths:
    def test_torsion_of_circle_with_holonomy(self):
        report, _ = run_json("torsion", str(DATA / "circle_lambda_-1.json"))
        assert abs(report["torsion"] - math.log(2.0)) < 1e-12
        assert abs(report["torsion_via_laplacians"] - math.log(2.0)) < 1e-12
        assert report["passed"] is True

    def test_torsion_of_empty_interval_model(self):
        report, _ = run_json("torsion", str(DATA / "interval_tau1.json"))
        assert report["torsion"] == 0.0
        assert report["euler_characteristic"] == 0.0

    def test_torsion_of_plain_complex(self):
        report, _ = run_json("torsion", str(DATA / "acyclic_complex.json"))
        assert abs(report["torsion"] - math.log(2.0)) < 1e-12

    def test_hodge_reports_harmonic_dimensions(self):
        report, _ = run_json("hodge", str(DATA / "interval_tau2.json"))
        assert report["is_acyclic"] is False
        by_degree = {row["degree"]: row for row in report["degrees"]}
        assert by_degree[0]["harmonic_vn_dim"] == 1.0
        assert by_degree[1]["vn_dim"] == 0.0

    def test_hodge_degree_filter(self):
        report, _ = run_json("hodge", str(DATA / "interval_tau2.json"),
                             "--degree", "0")
        assert [row["degree"] for row in report["degrees"]] == [0]

    def test_glue_check(self):
        report, _ = run_json("glue-check", str(DATA / "glue_circle.json"))
        assert report["passed"] is True
        assert abs(report["t_comb"] - math.log(2.0)) < 1e-12
        assert abs(report["t_h"] - math.log(2.0)) < 1e-12

    def test_ses_check(self):
        report, _ = run_json("ses-check", str(DATA / "ses_split.json"))
        assert report["passed"] is True
        assert abs(report["lhs"] - math.log(6.0)) < 1e-12
        assert report["residual"] < 1e-12

    def test_duality_check(self):
        report, _ = run_json("duality-check", str(DATA / "circle_z3.json"))
        assert report["passed"] is True
        assert abs(report["torsion"] - math.log(3.0) / 3.0) < 1e-12
        assert report["sign"] == 1.0

    def test_product(self):
        report, _ = run_json("product", str(DATA / "acyclic_complex.json"),
                             str(DATA / "interval_tau2.json"))
        assert report["passed"] is True
        assert abs(report["torsion_product"] - math.log(2.0)) < 1e-12

    def test_lueck_expression(self):
        report, _ = run_json("lueck", "--op", "2 - t - t^-1",
                             "--levels", "2..64")
        assert [row["m"] for row in report["levels"]] == [2, 4, 8, 16, 32, 64]
        for row in report["levels"]:
            assert abs(row["log_det"] - 2.0 * math.log(row["m"]) / row["m"]) < 1e-9
        assert abs(report["fourier_log_det"]) < 1e-6
        assert report["norm_bound"] == 4.0

    def test_lueck_explains_its_numbers(self):
        report, _ = run_json("lueck", "--op", "2 - t - t^-1", "--levels", "2..8")
        for row in report["levels"]:
            m = row["m"]
            assert abs(row["smallest_positive"]
                       - (2.0 - 2.0 * math.cos(2.0 * math.pi / m))) < 1e-12
            assert row["largest"] == 4.0
        assert report["jensen"] == {"degree": 2, "rank": 1, "roots_near_circle": 2,
                                    "integer_coefficients": True}
        quad = report["quadrature"]
        assert quad["residual"] < 1e-8 and quad["last_increment"] < 1e-8
        assert 6 <= quad["depth"] <= 16
        assert report["warnings"] == []

    def test_lueck_file_input(self):
        report, _ = run_json("lueck", str(DATA / "laurent_flagship.json"),
                             "--levels", "2,4,8")
        assert abs(report["fourier_log_det"]) < 1e-6

    def test_text_mode_prints_fifteen_digit_values(self):
        proc = run_cli("torsion", str(DATA / "circle_lambda_-1.json"))
        assert proc.returncode == 0
        assert "0.693147180559945" in proc.stdout

    def test_torsion_reports_near_cutoff_warning(self, tmp_path):
        path = tmp_path / "near_cutoff.json"
        path.write_text(json.dumps({
            "kind": "complex", "modules": [2, 2],
            "differentials": [[[1e-7, 0.0], [0.0, 1.0]]]}))
        report, _ = run_json("torsion", str(path))
        assert report["passed"] is True
        assert report["warnings"]

    def test_thread_cap_accepted(self):
        proc = run_cli("torsion", str(DATA / "interval_tau1.json"),
                       env_extra={"TORSIONLAB_THREADS": "1"})
        assert proc.returncode == 0
        # a bare import sets every BLAS cap, and numpy is not loaded yet
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["TORSIONLAB_THREADS"] = "1"
        probe = subprocess.run(
            [sys.executable, "-c",
             "import json, os, sys, torsionlab; print(json.dumps("
             f"['numpy' in sys.modules, [os.environ.get(v) for v in {blas!r}]]))"],
            capture_output=True, text=True, env=env, check=True)
        assert json.loads(probe.stdout) == [False, ["1"] * len(blas)]


class TestDeterminismAndRoundTrip:
    def test_identical_jobs_identical_bytes(self):
        a = run_cli("torsion", str(DATA / "circle_lambda_-1.json"),
                    "--json", "--seed", "7")
        b = run_cli("torsion", str(DATA / "circle_lambda_-1.json"),
                    "--json", "--seed", "7")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["job"]["seed"] == 7
        irrational = ("lueck", "--op", "4t^-2 - 12t^-1 + 17 - 12t + 4t^2",
                      "--levels", "2..64", "--json")
        a, b = run_cli(*irrational), run_cli(*irrational)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["quadrature"]["bracket"]

    @pytest.mark.parametrize("args", [
        ("torsion", str(DATA / "circle_z3.json")),
        ("glue-check", str(DATA / "glue_circle.json")),
        ("ses-check", str(DATA / "ses_split.json")),
        ("lueck", "--op", "2 - t - t^-1", "--levels", "2..16"),
    ])
    def test_emitted_json_round_trips(self, args):
        proc = run_cli(*args, "--json")
        assert proc.returncode == 0, proc.stderr
        parsed = json.loads(proc.stdout)
        assert formats.canonical_json(parsed) == proc.stdout

    def test_quantize_is_idempotent(self):
        for value in (1.0 / 3.0, math.log(2.0), 1e-300, -0.0, 12345.6789,
                      2.0 ** 52 + 1.0):
            once = formats.quantize(value)
            assert formats.quantize(once) == once
            assert float(format(once, ".15g")) == once


class TestFailureModes:
    def test_missing_file_is_validation_error(self):
        proc = run_cli("torsion", "no_such_file.json")
        assert proc.returncode == 2
        assert "validation error" in proc.stderr
        assert "no_such_file.json" in proc.stderr

    def test_wrong_kind_is_validation_error(self):
        proc = run_cli("glue-check", str(DATA / "circle_z3.json"))
        assert proc.returncode == 2
        assert "gluing" in proc.stderr

    def test_broken_differential_names_location(self, tmp_path):
        bad = {
            "kind": "complex",
            "modules": [1, 1, 1],
            "differentials": [[[[1, 0]]], [[[1, 0]]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("torsion", str(path))
        assert proc.returncode == 2
        assert "compose" in proc.stderr or "degree" in proc.stderr

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("torsion", str(path))
        assert proc.returncode == 2
        assert "JSON" in proc.stderr

    def test_bad_levels_flag(self):
        proc = run_cli("lueck", "--op", "1", "--levels", "three..4")
        assert proc.returncode == 2
        assert "--levels" in proc.stderr

    def test_lueck_needs_exactly_one_operator(self):
        assert run_cli("lueck").returncode == 2
        assert run_cli("lueck", str(DATA / "laurent_flagship.json"),
                       "--op", "1").returncode == 2

    def test_non_nested_levels_rejected(self):
        proc = run_cli("lueck", "--op", "2 - t - t^-1", "--levels", "2,3")
        assert proc.returncode == 2
        assert "nested" in proc.stderr

    def test_invalid_thread_cap(self):
        proc = run_cli("torsion", str(DATA / "interval_tau1.json"),
                       env_extra={"TORSIONLAB_THREADS": "zero"})
        assert proc.returncode == 2
        assert "TORSIONLAB_THREADS" in proc.stderr

    def test_degree_outside_window(self):
        proc = run_cli("hodge", str(DATA / "interval_tau2.json"),
                       "--degree", "5")
        assert proc.returncode == 2
        assert "--degree" in proc.stderr

    def test_nonconvergent_quadrature_is_a_warning(self):
        # |2 + t + 2t^2|^2 has zeros at irrational angles: the capped
        # quadrature does not settle, but Jensen's formula gives 2 log 2
        report, _ = run_json("lueck", "--op", "4t^-2 + 4t^-1 + 9 + 4t + 4t^2",
                             "--levels", "2..8")
        assert abs(report["fourier_log_det"] - 2.0 * math.log(2.0)) < 1e-12
        low, high = report["quadrature"]["bracket"]
        assert abs(low - 2.0 * math.log(2.0)) < 1e-3
        assert report["quadrature"]["depth"] == 16
        assert any("quadrature did not reach" in w for w in report["warnings"])

    def test_overflowing_determinant_polynomial_is_numerical_failure(self, tmp_path):
        # det of the symbol is about 3e400: its coefficients leave the float range
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "laurent", "rows": [
            [[[0, 2e200, 0]], [[1, 1e200, 0]]],
            [[[-1, 1e200, 0]], [[0, 2e200, 0]]]]}))
        proc = run_cli("lueck", str(path), "--levels", "2..4")
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr
        assert "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--rank-tol", "nan"),
        ("--rank-tol", "-1"),
        ("--tol", "-1"),
    ])
    def test_out_of_range_tolerance_flags(self, flag, value):
        if flag == "--tol":
            args = ("lueck", "--op", "2 - t - t^-1", "--levels", "2..8")
        else:
            args = ("torsion", str(DATA / "circle_lambda_-1.json"))
        proc = run_cli(*args, flag, value)
        assert proc.returncode == 2
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eigensolver_failure_is_numerical_failure(self, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "kind": "complex", "modules": [1, 1], "differentials": [[[1e200]]]}))
        proc = run_cli("torsion", str(path))
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["torsion", "hodge"])
    def test_overflow_is_named_numerical_failure(self, tmp_path, command):
        # 1e200 squared overflows in the Gram and Laplacian matrices
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "kind": "complex", "modules": [1, 1], "differentials": [[[1e200]]]}))
        proc = run_cli(command, str(path))
        assert proc.returncode == 1
        assert "numerical failure" in proc.stderr
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("args, text, where, message", [
        (("torsion",), '{"kind": "complex", "modules": [1, 1], '
                       '"differentials": [[[NaN]]]}', "differentials[0] row 0", "finite"),
        (("torsion",), '{"kind": "complex", "modules": [1, 1], '
                       '"differentials": [[[[1, Infinity]]]]}', "differentials[0] row 0",
         "finite"),
        (("hodge",), '{"kind": "complex", "modules": [1, 1], '
                     '"differentials": [[[1e400]]]}', "differentials[0] row 0", "finite"),
        (("lueck", "--levels", "2..4"),
         '{"kind": "laurent", "rows": [[[[0, 2, 0], [1, -Infinity, 0]]]]}', "rows[0][0]",
         "finite"),
        (("torsion",), '{"kind": "complex", "modules": [1, 1], '
                       '"differentials": [[[[true, 0]]]]}', "differentials[0] row 0",
         "finite"),
        (("torsion",), '{"kind": "complex", "context": {"type": "cyclic", "order": true}, '
                       '"modules": [1]}', "non_finite.json.context", "integer 'order'"),
        (("torsion",), '{"kind": "complex", "modules": [true, 1], '
                       '"differentials": [[[1]]]}', "non_finite.json", "'modules'"),
        (("lueck", "--levels", "2..4"),
         '{"kind": "laurent", "rows": [[[[true, 2, 0]]]]}', "rows[0][0]", "exponent"),
        (("torsion",), '{"kind": "cw", "representation": {"type": "regular", '
                       '"context": {"type": "cyclic", "order": 3}}, "top_degree": 1, '
                       '"cells": {"0": ["a"], "1": ["b"]}, "incidences": [{"from": "a", '
                       '"to": "b", "word": [[true, 1]]}]}', "incidences[0].word[0]",
         "word element"),
        (("torsion",), '{"kind": "cw", "representation": {"type": "regular", '
                       '"context": {"type": "cyclic", "order": 3}, "fiber_dim": true}, '
                       '"top_degree": 0, "cells": {"0": ["a"]}}', "representation",
         "fiber_dim"),
        (("torsion",), '{"kind": "cw", "representation": {"type": "unitary", '
                       '"generators": {"t": [[[-1, 0]]]}}, "top_degree": 1, '
                       '"cells": {"0": ["a"], "1": ["b"]}, "incidences": [{"from": ["a"], '
                       '"to": "b", "word": [["t", 1]]}]}', "non_finite.json.incidences[0]",
         "cell labels"),
        (("torsion",), '{"kind": "cw", "representation": {"type": "unitary", '
                       '"generators": {"t": [[[-1, 0]]]}}, "top_degree": 1, '
                       '"cells": {"0": ["a"], "1": ["b"]}, "incidences": [{"from": "a", '
                       '"to": {"x": 1}, "word": [["t", 1]]}]}',
         "non_finite.json.incidences[0]", "cell labels"),
        (("glue-check",), '{"kind": "gluing", "lower": {"representation": {"type": '
                          '"unitary", "generators": {"t": [[[-1, 0]]]}}, "top_degree": 1, '
                          '"cells": {"0": ["lo"]}}, "upper": {"representation": {"type": '
                          '"unitary", "generators": {"t": [[[-1, 0]]]}}, "top_degree": 1, '
                          '"cells": {"1": ["up"]}}, "coupling": [{"from": ["lo"], '
                          '"to": "up", "word": [["t", 1]]}]}',
         "non_finite.json.coupling[0]", "cell labels"),
        (("torsion",), '{"kind": "complex", "modules": [1, 1], "differentials": 5}',
         "non_finite.json]", "'differentials' must be a list"),
        (("torsion",), '{"kind": "complex", "modules": [1, -1], "differentials": [[]]}',
         "non_finite.json.modules[1]", "ambient dimension must be >= 0"),
        (("ses-check",), '{"kind": "ses", "sub": {"modules": [1]}, '
                         '"middle": {"modules": [-2]}, "quotient": {"modules": [1]}, '
                         '"include": [[[1]]], "project": [[[1]]]}',
         "non_finite.json.middle.modules[0]", "ambient dimension must be >= 0"),
    ], ids=["nan", "infinity-in-pair", "1e400", "laurent-minus-infinity", "true-entry",
            "true-order", "true-module", "true-exponent", "true-word-element",
            "true-fiber-dim", "list-from", "object-to", "list-coupling-from",
            "int-differentials", "negative-module", "negative-ses-module"])
    def test_non_finite_input_values_are_validation_errors(self, tmp_path, args,
                                                           text, where, message):
        # json.load accepts NaN, Infinity and 1e400 (as inf), and reads true
        # and false as bool, a subclass of int; labels and lists of the wrong
        # type, and negative dimensions, are rejected where they are read
        path = tmp_path / "non_finite.json"
        path.write_text(text)
        proc = run_cli(args[0], str(path), *args[1:])
        assert proc.returncode == 2
        assert message in proc.stderr
        assert where in proc.stderr

    @pytest.mark.parametrize("command, changes, where, message", [
        ("torsion", {"incidences": [{"from": "zzz", "to": "b", "word": [["t", 1]]}]},
         "cw.json]", "unknown cell 'zzz'"),
        ("torsion", {"cells": {"0": ["a"], "1": ["a"]}, "incidences": []},
         "cw.json]", "duplicate cell label 'a'"),
        ("torsion", {"cells": {"0": ["a"], "3": ["b"]}, "incidences": []},
         "cw.json]", "outside window 0..1"),
        ("torsion", {"top_degree": -1, "cells": {}, "incidences": []},
         "cw.json]", "top degree must be >= 0"),
        ("torsion", {"representation": {"type": "unitary", "generators": {"t": [[2]]}}},
         "cw.json.representation.generators]", "not unitary"),
        ("duality-check", {"incidences": [{"from": "a", "to": "b",
                                           "word": [["e", 1], ["s", 1]]}]},
         "cw.json.incidences[0].word[1]]", "unknown generator 's'"),
        ("hodge", {"representation": {"type": "regular",
                                      "context": {"type": "cyclic", "order": 3}},
                   "incidences": [{"from": "a", "to": "b", "word": [["q", 1]]}]},
         "cw.json.incidences[0].word[0]]", "unknown group element 'q'"),
        ("glue-check", {"coupling": {"from": "lo"}}, "cw.json.coupling]",
         "'coupling' must be a list"),
        ("glue-check", {"coupling": [{"from": "lo", "to": "up", "word": [["s", 1]]}]},
         "cw.json.coupling[0].word[0]]", "unknown generator 's'"),
        ("glue-check", {"coupling": [{"from": "lo", "to": "zz", "word": [["t", 1]]}]},
         "cw.json.coupling[0]]", "coupling target 'zz' is not an upper cell"),
        ("glue-check", {"coupling": [{"from": "lo", "to": "up", "word": [["t", 1]]},
                                     {"from": "zz", "to": "up", "word": [["t", 1]]}]},
         "cw.json.coupling[1]]", "coupling source 'zz' is not a lower cell"),
        ("glue-check", {"lower": {"representation": _UNITARY, "top_degree": 1,
                                  "cells": {"1": ["lo"]}},
                        "coupling": [{"from": "lo", "to": "up", "word": [["t", 1]]}]},
         "cw.json.coupling[0]]", "coupling ('up', 'lo') does not raise the degree by one"),
        ("glue-check", {"upper": {"representation": _UNITARY, "top_degree": 2,
                                  "cells": {"1": ["up"]}}},
         "cw.json]", "gluing factors must share a degree window"),
    ], ids=["unknown-cell", "duplicate-label", "outside-window", "negative-top-degree",
            "non-unitary-generator", "unknown-generator", "unknown-group-element",
            "coupling-not-a-list", "unknown-coupling-generator", "coupling-unknown-target",
            "coupling-unknown-source", "coupling-degree", "gluing-windows"])
    def test_cell_structure_errors_name_their_location(self, tmp_path, command, changes,
                                                       where, message):
        if command == "glue-check":
            data = {"kind": "gluing",
                    "lower": {"representation": _UNITARY, "top_degree": 1,
                              "cells": {"0": ["lo"]}},
                    "upper": {"representation": _UNITARY, "top_degree": 1,
                              "cells": {"1": ["up"]}}}
        else:
            data = {"kind": "cw", "representation": _UNITARY, "top_degree": 1,
                    "cells": {"0": ["a"], "1": ["b"]},
                    "incidences": [{"from": "a", "to": "b", "word": [["t", 1]]}]}
        path = tmp_path / "cw.json"
        path.write_text(json.dumps({**data, **changes}))
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert f"[at {path}" in proc.stderr and where in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_level_above_the_phase_kernel_is_refused_before_any_level(self, monkeypatch,
                                                                      capsys):
        # the phase kernel evaluates orders up to 2^31; a larger level would
        # first allocate its m numerators (32 GiB for 2^32)
        from torsionlab import towers

        def reached(*args, **kwargs):
            raise AssertionError("a tower grid was evaluated")

        monkeypatch.setattr(towers, "_grid_eigenvalues", reached)
        argv = ["lueck", "--op", "2 - t - t^-1", "--levels", "2,4294967296"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "level 4294967296 is above 2^31" in err and "[at --levels]" in err
        with pytest.raises(DataValidationError, match="above 2"):
            towers.approx_tower(towers.parse_laurent("2 - t - t^-1"), [2, 2 ** 32])
        assert towers.tower_levels([2, 2 ** 31]) == (2, 2 ** 31)

    def test_emission_failure_is_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._HANDLERS, "torsion",
                            lambda job: {"torsion": float("nan")})
        assert cli.main(["torsion", str(DATA / "circle_lambda_-1.json")]) == 1
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert captured.out == ""


def _matrix_json(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m)]


def _complex_json(c):
    return {"modules": [m.ambient_dim for m in c.modules], "offset": c.offset,
            "differentials": [_matrix_json(d.matrix) for d in c.differentials]}


def _ses_json(ses):
    return {"kind": "ses", "sub": _complex_json(ses.first),
            "middle": _complex_json(ses.middle), "quotient": _complex_json(ses.last),
            "include": [_matrix_json(f.matrix) for f in ses.f.components],
            "project": [_matrix_json(g.matrix) for g in ses.g.components]}


def test_ses_check_rank_tol_is_the_sequence_cutoff(tmp_path):
    # The ninth such draw has singular values on both sides of 0.6: with one
    # cutoff for the whole sequence additivity holds; mixing the default
    # cutoff (cached Hodge data) with 0.6 (torsions) left a residual of 0.14.
    rng = np.random.default_rng(3)
    for _ in range(9):
        ses = random_ses(rng, complex_field(), length=3, max_rank=2)
    path = tmp_path / "ses.json"
    path.write_text(json.dumps(_ses_json(ses)))
    report, _ = run_json("ses-check", str(path), "--rank-tol", "0.6")
    expected = milnor_check(ComplexSES(ses.f, ses.g, rank_tol=0.6))
    assert report["residual"] < 1e-9
    assert report["passed"] is True
    assert report["torsion_long_sequence"] == pytest.approx(expected.t_h, abs=1e-12)


def test_rank_tol_below_the_gram_floor_is_applied_or_reported(tmp_path):
    # The shear d = [[1, 1e4], [0, 1]] has singular values 1e4 and 1e-4 and
    # |det| = 1: at --rank-tol 1e-6 both count, and the torsion is log 1 = 0.
    # Its Gram matrix's floor (about 3.6e-7) lies above lambda = 1e-8, which
    # is zeroed: the report reads 9.21 (log 1e4), and says that the floor
    # decided.  At the default cutoff (above the floor) no such line appears.
    path = tmp_path / "shear.json"
    path.write_text(json.dumps({
        "kind": "complex", "context": {"type": "complex_field"}, "offset": 0,
        "modules": [2, 2], "differentials": [_matrix_json([[1.0, 1e4], [0.0, 1.0]])]}))
    report, _ = run_json("torsion", str(path), "--rank-tol", "1e-6")
    assert abs(report["torsion"]) <= 1e-9 or report["warnings"]
    default, _ = run_json("torsion", str(path))
    assert not [w for w in default["warnings"] if "noise floor" in w]


@pytest.mark.parametrize("element", [2.5, ["t", 1.5], [1, 2], ["t", 1, 2], None])
def test_word_elements_are_read_as_label_and_power(element):
    word = formats.parse_word([["t^2", 1], [3, 2], [["s", -1], [0, 1]]], "w")
    assert [e for e, _ in word] == [("t^2", 1), ("t", 3), ("s", -1)]
    with pytest.raises(DataValidationError, match=r"word element .* \[at w\[1\]\]"):
        formats.parse_word([["e", 1], [element, 1]], "w")


@pytest.mark.parametrize("context", [
    {"type": "finite_group", "table": [[0, 1], [1]]},
    {"type": "finite_group", "table": [["a", "b"], ["b", "a"]]},
    {"type": "finite_group", "table": [[0, 1.5], [1, 0]]},
    {"type": "finite_group", "table": [[0, 2], [1, 0]]},
    {"type": "finite_group", "table": [[0, 1], [1, 1]]},
    {"type": "finite_group", "table": [[0]], "labels": 5},
    {"type": "cyclic", "order": 0},
], ids=["ragged", "strings", "fraction", "out-of-range", "no-inverse", "labels-not-list",
        "cyclic-order-0"])
def test_bad_group_contexts_are_validation_errors_at_the_context(tmp_path, context):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "complex", "context": context, "modules": [2]}))
    proc = run_cli("torsion", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"[at {path}.context]" in proc.stderr


def _zero_sided_ses(include_zero):
    """0 -> C^1 and C -> C: the sub complex is 0 in degree 0, the quotient
    in degree 1, so those components have a zero-dimensional side."""
    one = [[[1, 0]]]
    return {"kind": "ses",
            "sub": {"modules": [0, 1], "differentials": [[]]},
            "middle": {"modules": [1, 1], "differentials": [one]},
            "quotient": {"modules": [1, 0], "differentials": [[]]},
            "include": [include_zero, one], "project": [one, []]}


@pytest.mark.parametrize("value, code", [([], 0), (None, 0), ("garbage", 2), ([[[1, 0]]], 2)],
                         ids=["empty", "null", "garbage", "wrong-shape"])
def test_ses_components_on_zero_dimensional_sides_are_read(tmp_path, value, code):
    path = tmp_path / "ses.json"
    path.write_text(json.dumps(_zero_sided_ses(value)))
    proc = run_cli("ses-check", str(path), "--json")
    assert proc.returncode == code, proc.stderr
    if code:
        assert "include[0]" in proc.stderr


@pytest.mark.parametrize("context", [
    {"type": "cyclic", "order": 4},
    {"type": "finite_group", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
     "labels": ["e", "t", "t^2", "t^3"]},
])
def test_glue_check_failure_names_the_rank_cutoff(tmp_path, context):
    # A cutoff above genuine singular values leaves harmonic spaces that are
    # not kernels, so the long sequence fails; the message blames the cutoff.
    rep = {"type": "regular", "context": context}
    word = [["e", [0.5, 0]], ["t", [1.0, 0]], [["t", 2], [0.3, 0]]]
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({
        "kind": "gluing",
        "lower": {"representation": rep, "top_degree": 1, "cells": {"0": ["lo"]},
                  "incidences": []},
        "upper": {"representation": rep, "top_degree": 1, "cells": {"1": ["up"]},
                  "incidences": []},
        "coupling": [{"from": "lo", "to": "up", "word": word}]}))
    proc = run_cli("glue-check", str(path), "--rank-tol", "0.3")
    assert proc.returncode == 2
    assert "long sequence maps do not compose to zero at rank cutoff 0.3" in proc.stderr
    assert "truncates the harmonic spaces" in proc.stderr
    assert run_cli("glue-check", str(path)).returncode == 0


def test_a_gluing_sequence_is_exact_at_any_cutoff():
    # The gluing sequence's maps are coordinate maps (every sigma is 1), so
    # its exactness does not depend on the cutoff: at 1 the glued circle's
    # sigma = 2 is kept, and at 2 the long sequence fails and names the
    # cutoff.  Cutting the maps' own sigma = 1 at either cutoff refused the
    # input as "last map is not surjective [at degree 0]".
    path = str(DATA / "glue_circle.json")
    report, _ = run_json("glue-check", path, "--rank-tol", "1")
    assert report["t_comb"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert report["passed"] is True
    proc = run_cli("glue-check", path, "--rank-tol", "2")
    assert proc.returncode == 2
    assert ("long sequence is not exact at rank cutoff 2 (a cutoff above genuine "
            "singular values") in proc.stderr
    assert "surjective" not in proc.stderr


@pytest.mark.parametrize("part", ["sub", "middle", "quotient"])
def test_a_sequence_part_on_another_degree_window_is_named(tmp_path, part):
    data = json.loads((DATA / "ses_split.json").read_text())
    data[part]["offset"] = 1
    message = _refused_at(tmp_path, "ses-check", data, part)
    assert ("complexes must cover the same degree window (got offset 1 and 2 modules, "
            "expected offset 0 and 2 modules)") in message


def test_a_sequence_from_a_file_is_validated_though_its_maps_are_coordinate_maps(tmp_path):
    # ses_split.json holds the arrays of an extension's inclusion and
    # projection, but only maps built as an extension are exact by
    # construction: a file's maps are checked, so a zero inclusion is refused
    data = json.loads((DATA / "ses_split.json").read_text())
    assert not formats.parse_ses(data).by_construction
    data["include"] = [[[[0, 0]], [[0, 0]]]] * 2
    path = tmp_path / "ses.json"
    path.write_text(json.dumps(data))
    proc = run_cli("ses-check", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "validation error: first map is not injective [at degree 0]\n"


def _regular_circle(tmp_path, m):
    rep = {"type": "regular", "context": {"type": "cyclic", "order": m}}
    circle = {"kind": "cw", "representation": rep, "top_degree": 1,
              "cells": {"0": ["min"], "1": ["max"]},
              "incidences": [{"from": "min", "to": "max",
                              "word": [[["t", 5], [1, 0]], ["e", [-1, 0]]]}]}
    path = tmp_path / f"circle_z{m}.json"
    path.write_text(json.dumps(circle))
    return str(path)


@pytest.mark.parametrize("command", ["torsion", "hodge", "duality-check"])
@pytest.mark.parametrize("source", ["circle_z3", "regular_z64"])
def test_rank_reports_compute_no_eigenvectors(tmp_path, monkeypatch, command, source):
    # torsion, harmonic dimensions and rank warnings read singular values
    # only: no command among these asks for a basis
    path = (str(DATA / "circle_z3.json") if source == "circle_z3"
            else _regular_circle(tmp_path, 64))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
    cli.run(cli.JobSpec(command, (path,)))
    assert calls == []


_Z2 = {"type": "cyclic", "order": 2}
_Z4_TABLE = {"type": "finite_group",
             "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}


def _refused_at(tmp_path, command, data, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    proc = run_cli(command, str(path), "--json")
    assert proc.returncode == 2, proc.stdout
    assert f"[at {path}.{where}]" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("context", [_Z2, {"type": "finite_group", "table": [[0, 1], [1, 0]]}],
                         ids=["cyclic", "table"])
def test_a_dense_map_that_is_not_linear_over_the_group_is_refused(tmp_path, context):
    # d = diag(1, 3) over Z/2 does not commute with t, which swaps the two
    # coordinates: its L2 torsion is not defined, yet it was reported
    diag = [[[1, 0], [0, 0]], [[0, 0], [3, 0]]]
    complex_ = {"kind": "complex", "context": context, "modules": [2, 2],
                "differentials": [diag]}
    message = _refused_at(tmp_path, "torsion", complex_, "differentials[0]")
    assert "not linear over the group" in message
    swap = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    part = {"context": context, "modules": [2], "differentials": []}
    ses = {"kind": "ses", "sub": part, "middle": part, "quotient": {**part, "modules": [0]},
           "include": [diag], "project": [[]]}
    _refused_at(tmp_path, "ses-check", ses, "include[0]")
    ok = {**complex_, "differentials": [swap]}  # t itself commutes with t
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(ok))
    assert run_cli("torsion", str(path)).returncode == 0


@pytest.mark.parametrize("context", [{"type": "cyclic", "order": 3},
                                     {"type": "finite_group", "table": [[0, 1], [1, 0]]}],
                         ids=["cyclic", "table"])
def test_a_module_dimension_off_the_group_order_is_refused_at_the_module(tmp_path, context):
    # a module over a group is l2(G)^n: a dimension of order + 1 is no such
    # module, in a complex file or in a sequence part
    order = 3 if context["type"] == "cyclic" else 2
    zeros = [[[0, 0]] * (order + 1)] * order
    complex_ = {"kind": "complex", "context": context, "modules": [order + 1, order],
                "differentials": [zeros]}
    message = _refused_at(tmp_path, "torsion", complex_, "modules[0]")
    assert f"not a multiple of the group order {order}" in message
    part = {"context": context, "modules": [order], "differentials": []}
    ses = {"kind": "ses", "sub": {**part, "modules": [order + 1]}, "middle": part,
           "quotient": {**part, "modules": [0]}, "include": [zeros], "project": [[]]}
    _refused_at(tmp_path, "ses-check", ses, "sub.modules[0]")


def _grouped(c, context):
    return {**_complex_json(c), "context": context}


@pytest.mark.parametrize("ctx, context", [
    (cyclic_group(3), {"type": "cyclic", "order": 3}),
    (finite_group(_Z4_TABLE["table"]), _Z4_TABLE),
], ids=["Z/3", "Z/4-table"])
def test_generated_complexes_and_sequences_over_groups_are_accepted(ctx, context):
    rng = np.random.default_rng(5)
    for _ in range(6):
        ses = random_ses(rng, ctx, length=3, max_rank=2)
        data = {**_ses_json(ses), "sub": _grouped(ses.first, context),
                "middle": _grouped(ses.middle, context),
                "quotient": _grouped(ses.last, context)}
        parsed = formats.parse_ses(data)
        for part in ("sub", "middle", "quotient"):
            formats.parse_complex(data[part])
        assert milnor_check(parsed).residual < 1e-7


def test_gluing_factors_with_different_representations_name_the_upper_one(tmp_path):
    other = {"type": "unitary", "generators": {"t": [[[0, 1]]]}}
    data = {"kind": "gluing",
            "lower": {"representation": _UNITARY, "top_degree": 1, "cells": {"0": ["lo"]}},
            "upper": {"representation": other, "top_degree": 1, "cells": {"1": ["up"]}},
            "coupling": [{"from": "lo", "to": "up", "word": [["t", 1]]}]}
    message = _refused_at(tmp_path, "glue-check", data, "upper.representation")
    assert "factors use different representations" in message


@pytest.mark.parametrize("part", ["middle", "quotient"])
def test_ses_parts_over_different_contexts_name_the_part(tmp_path, part):
    # Z/2 parts of dimension 2, and the named one over the complex field
    z2 = {"context": _Z2, "modules": [2], "differentials": []}
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    data = {"kind": "ses", "sub": z2, "middle": z2, "quotient": {**z2, "modules": [0]},
            "include": [eye], "project": [[]]}
    data[part] = {**data[part], "context": {"type": "complex_field"}}
    message = _refused_at(tmp_path, "ses-check", data, f"{part}.context")
    assert "different contexts" in message


def _character_cw(tmp_path, name, angle, cells, incidences):
    """A ``cw`` file with the 1 x 1 unitary representation t -> exp(2 pi i angle)."""
    z = complex(math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "kind": "cw", "representation": {"type": "unitary",
                                         "generators": {"t": [[[z.real, z.imag]]]}},
        "top_degree": len(cells) - 1, "cells": {str(q): c for q, c in enumerate(cells)},
        "incidences": [{"from": a, "to": b, "word": w} for a, b, w in incidences]}))
    return str(path)


def _trefoil(tmp_path, angle):
    """The presentation 2-complex of <x, y | xyx = yxy>, abelianized: its
    Alexander polynomial 1 - t + t^2 vanishes at exp(2 pi i / 6)."""
    minus, delta = [["t", 1], ["e", -1]], [["e", 1], ["t", -1], [["t", 2], 1]]
    return _character_cw(tmp_path, "trefoil", angle, [["v"], ["x", "y"], ["r"]], [
        ("v", "x", minus), ("v", "y", minus),
        ("x", "r", delta), ("y", "r", [[e, -c] for e, c in delta])])


def _lens(tmp_path, p, r):
    """L(p, r) at the character t -> exp(2 pi i / p)."""
    return _character_cw(tmp_path, f"lens_{p}_{r}", 1 / p, [["e0"], ["e1"], ["e2"], ["e3"]], [
        ("e0", "e1", [["t", 1], ["e", -1]]),
        ("e1", "e2", [[["t", k], 1] for k in range(p)]),
        ("e2", "e3", [[["t", r], 1], ["e", -1]])])


def _main_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def test_the_trefoil_at_a_root_of_its_alexander_polynomial(tmp_path, capsys):
    # d_1's words cancel to rounding (|1 - z + z^2| ~ 2.5e-16 at z = exp(2 pi
    # i / 6)); read against the words' magnitude, d_1 = 0, H^1 and H^2 are
    # one-dimensional, and the torsion is log sqrt 2 on both routes
    path = _trefoil(tmp_path, 1 / 6)
    report = _main_json(capsys, "torsion", path)
    for route in ("torsion", "torsion_via_laplacians"):
        assert abs(report[route] - 0.5 * math.log(2.0)) < 1e-12
    assert report["passed"] is True
    assert [w.split(":")[0] for w in report["warnings"]] == ["d at degree 1"]
    report = _main_json(capsys, "hodge", path)
    assert [row["harmonic_vn_dim"] for row in report["degrees"]] == [0, 1, 1]
    assert report["is_acyclic"] is False
    assert _main_json(capsys, "duality-check", path)["passed"] is True
    report = _main_json(capsys, "product", path, str(DATA / "interval_tau2.json"))
    assert report["passed"] is True
    assert abs(report["torsion_product"] - 0.5 * math.log(2.0)) < 1e-12


def test_the_trefoil_near_that_root_keeps_its_resolved_value(tmp_path, capsys):
    # at 2 pi (1/6 + 1e-9) d_1 is about 1e-8 of its words' magnitude: far
    # above the rounding floor, so the floor removes nothing
    report = _main_json(capsys, "torsion", _trefoil(tmp_path, 1 / 6 + 1e-9))
    assert abs(report["torsion"] - 18.3360826450063) < 1e-9


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_lens_spaces_at_a_primitive_character(tmp_path, capsys, p):
    # the norm element sum t^k vanishes at z = exp(2 pi i / p), and Milnor's
    # value is log|z - 1| + log|z^2 - 1|
    z = complex(math.cos(2 * math.pi / p), math.sin(2 * math.pi / p))
    report = _main_json(capsys, "torsion", _lens(tmp_path, p, 2))
    want = math.log(abs(z - 1)) + math.log(abs(z * z - 1))
    for route in ("torsion", "torsion_via_laplacians"):
        assert abs(report[route] - want) < 1e-12


@pytest.mark.parametrize("coefficient, code", [("1.00000001", 2), ("1.00000000001", 0)])
def test_lueck_refuses_an_operator_that_is_not_selfadjoint_to_composition_tol(
        capsys, coefficient, code):
    # 2 - t - c t^-1 has the selfadjointness defect |c - 1| against its
    # coefficient magnitude 4 + |c - 1|: 2.5e-9 is refused, 2.5e-12 is not
    argv = ["lueck", "--op", f"2 - t - {coefficient}*t^-1", "--levels", "2..8"]
    assert cli.main(argv) == code
    assert ("operator is not selfadjoint" in capsys.readouterr().err) == bool(code)
