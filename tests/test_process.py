"""The CLI as a process: ``cli.process_main`` runs a command with the cyclic
collector off and freezes the heap before exit, which is safe only because
a command leaves no cyclic garbage; a closed stdout ends it with 141."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torsionlab import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
COMMANDS = ("torsion", "hodge", "glue-check", "ses-check", "lueck",
            "duality-check", "product")


def _regular_inputs(tmp_path, m: int) -> list[Path]:
    """A circle and a two-arc gluing over the regular representation of Z/m."""
    rep = {"type": "regular", "context": {"type": "cyclic", "order": m}}
    circle = {"kind": "cw", "representation": rep, "top_degree": 1,
              "cells": {"0": ["min"], "1": ["max"]},
              "incidences": [{"from": "min", "to": "max",
                              "word": [[["t", 5], [1, 0]], ["e", [-1, 0]]]}]}
    gluing = {"kind": "gluing",
              "lower": {"representation": rep, "top_degree": 1,
                        "cells": {"0": ["low"]}, "incidences": []},
              "upper": {"representation": rep, "top_degree": 1,
                        "cells": {"1": ["up"]}, "incidences": []},
              "coupling": [{"from": "low", "to": "up",
                            "word": [["e", [1, 0]], [["t", 5], [-1, 0]]]}]}
    paths = [tmp_path / f"circle_z{m}.json", tmp_path / f"arcs_z{m}.json"]
    for path, data in zip(paths, (circle, gluing)):
        path.write_text(json.dumps(data))
    return paths


def _is_ours(obj) -> bool:
    return isinstance(obj, np.ndarray) or type(obj).__module__.startswith("torsionlab")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_leaves_no_cyclic_garbage_of_its_own(tmp_path, command):
    # process_main never collects, so whatever a command leaves in reference
    # cycles stays allocated until exit; argparse's parser is the only such
    # garbage, and it holds no array and no torsionlab object
    inputs = sorted(DATA.glob("*.json")) + _regular_inputs(tmp_path, 64)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = set()
        for path in inputs:
            argv = [command, str(path)] + ([str(path)] if command == "product" else [])
            for form in ([], ["--json"]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.add(cli.main(argv + form))
        gc.collect()
        ours = [type(obj).__qualname__ for obj in gc.garbage if _is_ours(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert 0 in codes
    assert ours == []


#: Runs ``python -m torsionlab <argv>`` and reports on stderr, from an atexit
#: handler, how many collections ran after this script started.
_COUNTER = """
import atexit, gc, json, runpy, sys
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(1))
atexit.register(lambda: print("collections", len(starts), file=sys.stderr))
sys.argv = ["torsionlab", *json.loads(sys.argv[1])]
runpy.run_module("torsionlab", run_name="__main__", alter_sys=True)
"""


def test_a_cli_process_runs_no_collection():
    argv = ["torsion", str(DATA / "circle_z3.json"), "--json"]
    proc = subprocess.run([sys.executable, "-c", _COUNTER, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    assert proc.stderr == "collections 0\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_in_process_main_leaves_the_collector_as_it_was(enabled):
    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["torsion", str(DATA / "circle_z3.json"), "--json"])
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == 0


def _into_a_closed_pipe(argv, unbuffered):
    """Exit code and stderr of ``python -m torsionlab <argv>`` whose stdout
    is a pipe with its read end closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torsionlab", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered, form):
    # an unbuffered stdout fails at the report's write, a buffered one at the
    # flush; neither is a numerical failure (exit 1)
    argv = ["torsion", str(DATA / "circle_z3.json"), *form]
    assert _into_a_closed_pipe(argv, unbuffered) == (141, "")


@pytest.mark.parametrize("argv, unbuffered", [
    (["--help"], ""), (["torsion", "--help"], ""),
    (["--help"], "1"), (["torsion", "--help"], "1"),
], ids=["main", "command", "main-unbuffered", "command-unbuffered"])
def test_help_into_a_closed_stdout_exits_141_without_a_traceback(argv, unbuffered):
    # argparse prints help and raises SystemExit(0).  A buffered stdout fails
    # at the flush, which once came only at interpreter exit (a reported
    # BrokenPipeError, exit 120); an unbuffered one fails at the help's
    # write, whose error argparse's own printing swallows (exit 0, the help
    # lost silently) and the parser's print_help lets through.
    assert _into_a_closed_pipe(argv, unbuffered) == (141, "")


def test_usage_errors_keep_their_exit_code():
    proc = subprocess.run([sys.executable, "-m", "torsionlab", "no-such-command"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage:")


def test_the_installed_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = target["torsionlab"].partition(":")
    tree = ast.parse((ROOT / "src" / "torsionlab" / "__main__.py").read_text())
    exits = [node.exc for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert len(exits) == 1 and exits[0].func.id == "SystemExit"
    (called,) = exits[0].args
    assert called.func.id == name
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and name in {alias.name for alias in node.names}]
    assert [f"torsionlab.{node.module}" for node in imports if node.level == 1] == [module]
    assert getattr(cli, name) is cli.process_main and module == cli.__name__
