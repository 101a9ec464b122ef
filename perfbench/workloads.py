"""The four benchmark workloads: seeded inputs, job lists and their checks.

``tower``, ``regular`` and ``cli-demos`` are lists of CLI jobs, each run as
``python -m torsionlab <argv> --json``; their inputs are files that
``prepare`` writes into a work directory.  ``random-ses`` is a list of
in-process calls on random exact sequences, complexes and chain maps that
``prepare`` generates.  Every input comes from the seed: it picks the
twists, signs, cell labels and term orders of the generated files, the
random instances, and the order in which a pass runs the jobs.  None of
these choices changes a reference value.

``size="tiny"`` shrinks the towers and groups for the self-test.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from oracles import Oracle

DEMO_FILES = ("acyclic_complex", "circle_lambda_-1", "circle_z3",
              "glue_circle", "interval_tau1", "interval_tau2", "ses_split")


@dataclass(frozen=True)
class Job:
    """One unit of work.  Jobs with equal keys must give equal bytes."""

    key: str
    check: Callable[[dict], list[str]]
    argv: tuple[str, ...] = ()
    call: Callable[[], dict] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    prepare: Callable[..., list[Job]]  # (workdir, seed, oracle, size, root)
    pass_s: float  # seconds of one pass at the seed, 2 cores, 1 BLAS thread

    def passes(self, seconds: float) -> int:
        """Passes that take about ``seconds`` at the seed (at least one)."""
        return max(1, round(seconds / self.pass_s))


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path.name


def _shuffled(rng: np.random.Generator, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# tower: lueck on Laurent operators


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _poly_adjoint(a: dict) -> dict:
    return {-e: c for e, c in a.items()}  # real coefficients


def _laurent_file(rng: np.random.Generator, rows: list[list[dict]]) -> dict:
    """``laurent`` input; the seed orders the terms of every entry."""
    def entry(poly: dict) -> list:
        terms = [[int(e), float(c), 0.0] for e, c in sorted(poly.items())]
        return [terms[i] for i in rng.permutation(len(terms))]
    return {"kind": "laurent", "rows": [[entry(p) for p in row] for row in rows]}


def _levels(lo: int, hi: int) -> list[int]:
    return [2 ** k for k in range(int(math.log2(lo)), int(math.log2(hi)) + 1)]


def prepare_tower(workdir: Path, seed: int, oracle: Oracle, size: str,
                  root: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    m_row = [{0: 1, 1: -1}, {0: 2, 1: -1}]                  # M = [1 - t, 2 - t]
    laplacian = [[_poly_mul(_poly_adjoint(a), b) for b in m_row] for a in m_row]
    flagship = {-1: -1, 0: 2, 1: -1}
    # (name, rows, top level, level closed form, circle integral, level tol);
    # top level None is the CLI default 2..4096.
    specs = [
        ("flagship", [[flagship]], None, oracles.flagship_level, 0.0,
         oracles.VALUE_TOL),
        ("golden", [[{-1: -1, 0: 3, 1: -1}]], 2048, oracles.golden_level,
         2.0 * math.log(oracles.GOLDEN), oracles.VALUE_TOL),
        ("squared", [[_poly_mul(flagship, flagship)]], 2048,
         oracles.squared_flagship_level, 0.0, oracles.SQUARED_LEVEL_TOL),
        ("laplacian", laplacian, 1024, oracles.laplacian_level,
         oracles.LAPLACIAN_LIMIT, oracles.VALUE_TOL),
        ("irrational", [[{-2: 4, -1: -12, 0: 17, 1: -12, 2: 4}]], 1024,
         oracles.irrational_level, 2.0 * oracles.LOG2, oracles.VALUE_TOL),
    ]
    jobs = []
    for name, rows, top, level, fourier, tol in specs:
        filename = _write(workdir / f"{name}.json", _laurent_file(rng, rows))
        if size == "tiny":
            top = 32
        argv = ("lueck", filename) if top is None else (
            "lueck", filename, "--levels", f"2..{top}")
        levels = _levels(2, 4096 if top is None else top)
        jobs.append(Job(" ".join(argv), oracle.lueck(level, levels, fourier, tol),
                        argv=argv))
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# regular: circle and two-arc gluing over the regular representation of Z/m


def _label(rng: np.random.Generator, stem: str) -> str:
    return f"{stem}_{int(rng.integers(0, 10 ** 6)):06d}"


def _twist(rng: np.random.Generator, m: int) -> list:
    """The generator t^k for a seeded odd k, which generates Z/m (m = 2^j)."""
    return ["t", int(2 * rng.integers(0, max(m // 2, 1)) + 1)]


def prepare_regular(workdir: Path, seed: int, oracle: Oracle, size: str,
                    root: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for m in ((4, 8, 16) if size == "tiny" else (64, 256, 512)):
        rep = {"type": "regular", "context": {"type": "cyclic", "order": m}}
        sign = float(rng.choice([-1.0, 1.0]))
        low, high = _label(rng, "min"), _label(rng, "max")
        circle = {
            "kind": "cw", "representation": rep, "top_degree": 1,
            "cells": {"0": [low], "1": [high]},
            "incidences": [{"from": low, "to": high,
                            "word": [[_twist(rng, m), [sign, 0]],
                                     ["e", [-sign, 0]]]}],
        }
        arc_low, arc_high = _label(rng, "low"), _label(rng, "up")
        sign = float(rng.choice([-1.0, 1.0]))
        gluing = {
            "kind": "gluing",
            "lower": {"representation": rep, "top_degree": 1,
                      "cells": {"0": [arc_low]}, "incidences": []},
            "upper": {"representation": rep, "top_degree": 1,
                      "cells": {"1": [arc_high]}, "incidences": []},
            "coupling": [{"from": arc_low, "to": arc_high,
                          "word": [["e", [sign, 0]],
                                   [_twist(rng, m), [-sign, 0]]]}],
        }
        cw = _write(workdir / f"circle_z{m}.json", circle)
        glued = _write(workdir / f"arcs_z{m}.json", gluing)
        value = oracles.circle_regular(m)
        ldp = 2.0 * value
        rows = [(0, 1.0, 1.0 / m, ldp), (1, 1.0, 1.0 / m, ldp)]
        for argv, check in (
                (("torsion", cw), oracle.torsion(value)),
                (("hodge", cw), oracle.hodge(rows, acyclic=False)),
                (("duality-check", cw), oracle.duality(value)),
                (("glue-check", glued), oracle.glue(value))):
            jobs.append(Job(" ".join(argv), check, argv=argv))
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# cli-demos: the demos/cli_tour.py jobs plus torsion and hodge on every
# complex and cw input of demos/data


def prepare_cli_demos(workdir: Path, seed: int, oracle: Oracle, size: str,
                      root: Path) -> list[Job]:
    rng = np.random.default_rng(seed)
    for name in DEMO_FILES:
        shutil.copyfile(root / "demos" / "data" / f"{name}.json",
                        workdir / f"{name}.json")
    log2, log3 = oracles.LOG2, oracles.LOG3
    flow = oracles.models.interval_flow_through().t_comb
    well = oracles.models.interval_interior_minimum().t_comb
    log4 = 2.0 * log2
    # file -> (torsion, hodge rows, acyclic)
    cells = {
        "acyclic_complex": (log2, [(0, 2, 0, log4), (1, 2, 0, log4)], True),
        "circle_lambda_-1": (log2, [(0, 1, 0, log4), (1, 1, 0, log4)], True),
        "circle_z3": (log3 / 3, [(0, 1, 1 / 3, 2 * log3 / 3),
                                 (1, 1, 1 / 3, 2 * log3 / 3)], False),
        "interval_tau1": (flow, [(0, 0, 0, 0.0), (1, 0, 0, 0.0)], True),
        "interval_tau2": (well, [(0, 1, 1, 0.0), (1, 0, 0, 0.0)], False),
    }
    tour_levels = _levels(2, 64)
    specs = [
        (("torsion", "circle_lambda_-1.json"), oracle.torsion(log2)),
        (("hodge", "interval_tau2.json"),
         oracle.hodge(cells["interval_tau2"][1], acyclic=False)),
        (("glue-check", "glue_circle.json"), oracle.glue(log2)),
        (("ses-check", "ses_split.json"), oracle.ses(log2, log2 + log3, log3)),
        (("duality-check", "circle_z3.json"), oracle.duality(log3 / 3)),
        (("lueck", "--op", "2 - t - t^-1", "--levels", "2..64"),
         oracle.lueck(oracles.flagship_level, tour_levels, 0.0)),
        (("product", "acyclic_complex.json", "acyclic_complex.json"),
         oracle.product(log2, log2, 0.0, 0.0)),
    ]
    for name, (value, rows, acyclic) in cells.items():
        specs.append((("torsion", f"{name}.json"), oracle.torsion(value)))
        specs.append((("hodge", f"{name}.json"), oracle.hodge(rows, acyclic)))
    jobs = [Job(" ".join(argv), check, argv=argv) for argv, check in specs]
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# random-ses: in-process calls on seeded random instances


def _capped_shape(rng: np.random.Generator, length: int,
                  cap: int) -> tuple[list[int], list[int]]:
    """Harmonic and boundary free ranks with every module of free rank <= cap."""
    while True:
        boundary, prev = [], 0
        for _ in range(length - 1):
            boundary.append(int(rng.integers(0, cap - prev + 1)))
            prev = boundary[-1]
        harmonic = []
        for i in range(length):
            used = (boundary[i - 1] if i else 0) + (
                boundary[i] if i < length - 1 else 0)
            harmonic.append(int(rng.integers(0, 2)) if used < cap else 0)
        if sum(harmonic) + sum(boundary):
            return harmonic, boundary


def _milnor(f, g) -> dict:
    from torsionlab.exact import ComplexSES, milnor_check
    report = milnor_check(ComplexSES(f, g))
    return {"residual": report.residual, "scale": report.t2,
            "t1": report.t1, "t3": report.t3, "t_h": report.t_h}


def _routes(c) -> dict:
    from torsionlab.complexes import torsion, torsion_via_laplacians
    a, b = torsion(c), torsion_via_laplacians(c)
    return {"residual": abs(a - b), "scale": a, "via": b}


def _cone(f) -> dict:
    from torsionlab.exact import cone_ses, milnor_check
    report = milnor_check(cone_ses(f))
    return {"residual": report.residual, "scale": report.t2,
            "t1": report.t1, "t3": report.t3, "t_h": report.t_h}


def _product(a, b) -> dict:
    from torsionlab.complexes import tensor_product, torsion
    t_ab = torsion(tensor_product(a, b))
    rhs = b.euler_characteristic() * torsion(a) + a.euler_characteristic() * torsion(b)
    return {"residual": abs(t_ab - rhs), "scale": t_ab, "rhs": rhs}


#: The shapes (lengths, free ranks, offsets) of the random instances come
#: from this fixed seed and only their entries from the workload seed, so
#: every seed asks for the same amount of work.
SHAPES_SEED = 0


def prepare_random_ses(workdir: Path, seed: int, oracle: Oracle, size: str,
                       root: Path) -> list[Job]:
    from torsionlab.generators import (random_chain_morphism,
                                       random_cochain_complex, random_ses)
    from torsionlab.vn import complex_field, cyclic_group

    rng = np.random.default_rng(seed)
    shape_rng = np.random.default_rng(SHAPES_SEED)

    def shape(length: int, cap: int) -> tuple[list[int], list[int]]:
        return _capped_shape(shape_rng, length, cap)

    per_kind = {"ses": 3, "routes": 3, "cone": 2, "product": 2}
    if size == "tiny":
        per_kind = dict.fromkeys(per_kind, 1)
    field = complex_field()
    jobs = []
    for ctx_name, ctx in (("C", field), ("Z/2", cyclic_group(2)),
                          ("Z/3", cyclic_group(3)), ("Z/6", cyclic_group(6))):
        for kind, count in per_kind.items():
            for i in range(count):
                length = int(shape_rng.integers(2, 5))
                if kind == "ses":
                    ses = random_ses(rng, ctx, length=length,
                                     shapes=(shape(length, 2), shape(length, 2)))
                    call = (lambda f=ses.f, g=ses.g: _milnor(f, g))
                    tol = oracles.MILNOR_TOL
                elif kind == "routes":
                    offset = int(shape_rng.integers(-2, 3))
                    c, _ = random_cochain_complex(rng, ctx, length, offset=offset,
                                                  shape=shape(length, 4))
                    call = (lambda c=c: _routes(c))
                    tol = oracles.ROUTE_TOL
                elif kind == "cone":
                    c, c_shape = random_cochain_complex(rng, ctx, 3,
                                                        shape=shape(3, 2))
                    f, _, _ = random_chain_morphism(rng, c, c_shape,
                                                    invertible=False)
                    call = (lambda f=f: _cone(f))
                    tol = oracles.MILNOR_TOL
                else:
                    a_length = min(length, 3)
                    a, _ = random_cochain_complex(rng, ctx, a_length,
                                                  shape=shape(a_length, 2))
                    b, _ = random_cochain_complex(rng, field, 2, shape=shape(2, 1))
                    call = (lambda a=a, b=b: _product(a, b))
                    tol = oracles.ROUTE_TOL
                jobs.append(Job(f"{kind} {ctx_name} #{i}", oracle.residual(tol),
                                call=call))
    return _shuffled(rng, jobs)


WORKLOADS = {w.name: w for w in (
    Workload("tower", False, prepare_tower, 18.0),
    Workload("regular", False, prepare_regular, 9.5),
    Workload("cli-demos", False, prepare_cli_demos, 4.0),
    Workload("random-ses", True, prepare_random_ses, 0.14),
)}
