"""Command-line front end.

Seven commands cover the library surface: ``torsion``, ``hodge``,
``glue-check``, ``ses-check``, ``lueck``, ``duality-check`` and ``product``.
Each reads job inputs in the JSON grammar of :mod:`torsionlab.formats`,
runs the computation, and writes either a human-readable listing or (with
``--json``) a canonical machine-readable report whose bytes are a pure
function of the job.

Exit codes: 0 on success, 2 when the input fails validation (the message
names the offending location), 1 when a computation fails numerically.
The environment variable ``TORSIONLAB_THREADS`` caps the linear-algebra
thread pools; it is honored at package import time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple


class JobSpec(NamedTuple):
    """One CLI invocation: a command, its inputs, and its knobs."""

    command: str
    inputs: tuple[str, ...]
    tol: float | None = None
    rank_tol: float | None = None
    json_output: bool = False
    seed: int | None = None
    levels: tuple[int, ...] | None = None
    degree: int | None = None
    op: str | None = None

    def echo(self) -> dict:
        out: dict = {"command": self.command, "inputs": list(self.inputs)}
        for key in ("tol", "rank_tol", "seed", "degree", "op"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.levels is not None:
            out["levels"] = list(self.levels)
        return out


def parse_levels(text: str) -> tuple[int, ...]:
    """Level lists: "2..4096" doubles from the start; "2,4,12" is literal."""
    from .errors import DataValidationError
    text = text.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo < 1 or hi < lo:
                raise ValueError
            levels = []
            m = lo
            while m <= hi:
                levels.append(m)
                m *= 2
            return tuple(levels)
        levels = tuple(int(piece) for piece in text.split(","))
        if not levels or any(m < 1 for m in levels):
            raise ValueError
        return levels
    except ValueError:
        raise DataValidationError(
            f"cannot parse levels {text!r}: use 'lo..hi' or 'm1,m2,...'",
            location="--levels") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Torsion invariants of twisted cochain complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None,
                       help="decision tolerance for the pass/fail verdict")
        p.add_argument("--rank-tol", type=float, default=None,
                       help="rank cutoff forwarded to the linear algebra")
        p.add_argument("--json", action="store_true",
                       help="emit the canonical JSON report")
        p.add_argument("--seed", type=int, default=None,
                       help="seed echoed into the report for reproducibility")

    p = sub.add_parser("torsion", help="torsion of a complex or cell complex")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("hodge", help="harmonic dimensions and Laplacian data")
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=None,
                   help="restrict the report to one degree")
    common(p)

    p = sub.add_parser("glue-check", help="gluing formula residual")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("ses-check", help="torsion additivity for a short exact sequence")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("lueck", help="finite-quotient tower and circle oracle")
    p.add_argument("input", nargs="?", default=None,
                   help="laurent-kind input file (alternative to --op)")
    p.add_argument("--op", default=None,
                   help='operator expression, e.g. "2 - t - t^-1"')
    p.add_argument("--levels", default=None,
                   help="tower levels: 'lo..hi' (doubling) or comma list")
    common(p)

    p = sub.add_parser("duality-check", help="Poincare duality residual")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("product", help="product formula for two complexes")
    p.add_argument("inputs", nargs=2)
    common(p)

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """--tol must be finite and > 0, --rank-tol finite and >= 0."""
    from .errors import DataValidationError
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise DataValidationError(
            f"--tol must be a finite number > 0, got {args.tol!r}", location="--tol")
    if args.rank_tol is not None and not (math.isfinite(args.rank_tol)
                                          and args.rank_tol >= 0):
        raise DataValidationError(
            f"--rank-tol must be a finite number >= 0, got {args.rank_tol!r}",
            location="--rank-tol")


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    _check_flags(args)
    if args.command == "product":
        inputs = tuple(args.inputs)
    elif getattr(args, "input", None) is not None:
        inputs = (args.input,)
    else:
        inputs = ()
    return JobSpec(
        command=args.command,
        inputs=inputs,
        tol=args.tol,
        rank_tol=args.rank_tol,
        json_output=args.json,
        seed=args.seed,
        levels=parse_levels(args.levels)
        if getattr(args, "levels", None) else None,
        degree=getattr(args, "degree", None),
        op=getattr(args, "op", None),
    )


def _load(job: JobSpec, *kinds: str, index: int = 0) -> dict:
    """The input file ``job.inputs[index]``; its kind must be one of ``kinds``."""
    from . import formats
    from .errors import DataValidationError
    path = job.inputs[index]
    data = formats.load_input(path)
    if data["kind"] not in kinds:
        raise DataValidationError(
            f"{job.command} expects kind {' or '.join(map(repr, kinds))}, "
            f"got {data['kind']!r}", location=path)
    return data


def _load_complex(job: JobSpec, index: int = 0):
    from . import formats
    path = job.inputs[index]
    data = _load(job, "complex", "cw", index=index)
    if data["kind"] == "complex":
        return formats.parse_complex(data, path)
    from .cells import build_complex
    return build_complex(formats.parse_cw(data, path))


def _run_torsion(job: JobSpec) -> dict:
    from .complexes import hodge, torsion, torsion_via_laplacians
    c = _load_complex(job)
    value = torsion(c, job.rank_tol)
    via = torsion_via_laplacians(c, job.rank_tol)
    tol = job.tol if job.tol is not None else 1e-8
    residual = abs(value - via)
    return {
        "job": job.echo(),
        "torsion": value,
        "torsion_via_laplacians": via,
        "route_residual": residual,
        "euler_characteristic": c.euler_characteristic(),
        "degrees": [c.offset, c.top_degree],
        "vn_dims": [c.module(q).vn_dim for q in c.degrees()],
        "passed": bool(residual <= tol * (1.0 + abs(value))),
        "warnings": list(hodge(c, job.rank_tol).warnings),
    }


def _run_hodge(job: JobSpec) -> dict:
    from .complexes import hodge, laplacian, log_det_prime
    from .errors import DataValidationError
    c = _load_complex(job)
    data = hodge(c, job.rank_tol)
    degrees = list(c.degrees())
    if job.degree is not None:
        if job.degree not in degrees:
            raise DataValidationError(
                f"degree {job.degree} outside the window "
                f"[{c.offset}, {c.top_degree}]", location="--degree")
        degrees = [job.degree]
    kappa = c.modules[0].context.kappa
    rows = []
    for q in degrees:
        rows.append({
            "degree": q,
            "vn_dim": c.module(q).vn_dim,
            "harmonic_vn_dim": kappa * data.harmonic_dim(q),
            "laplacian_log_det_prime":
                log_det_prime(laplacian(c, q), job.rank_tol),
        })
    return {
        "job": job.echo(),
        "degrees": rows,
        "is_acyclic": data.is_acyclic(),
        "warnings": list(data.warnings),
    }


def _run_glue_check(job: JobSpec) -> dict:
    from . import formats
    from .cells import glue_check
    spec = formats.parse_gluing(_load(job, "gluing"), job.inputs[0])
    report = glue_check(spec, rank_tol=job.rank_tol)
    tol = job.tol if job.tol is not None else 1e-9
    report = dict(report)
    report["job"] = job.echo()
    report["passed"] = bool(report["residual"] <= tol)
    return report


def _run_ses_check(job: JobSpec) -> dict:
    from . import formats
    from .exact import milnor_check
    ses = formats.parse_ses(_load(job, "ses"), job.inputs[0], job.rank_tol)
    report = milnor_check(ses)
    tol = job.tol if job.tol is not None else 1e-7
    bound = tol * (1.0 + abs(report.t2))
    return {
        "job": job.echo(),
        "torsion_sub": report.t1,
        "torsion_middle": report.t2,
        "torsion_quotient": report.t3,
        "torsion_long_sequence": report.t_h,
        "degreewise": [[q, report.degreewise[q]]
                       for q in sorted(report.degreewise)],
        "lhs": report.lhs,
        "rhs": report.rhs,
        "residual": report.residual,
        "passed": bool(report.residual <= bound),
    }


def _run_lueck(job: JobSpec) -> dict:
    from . import formats
    from .errors import DataValidationError, QuadratureError
    from .towers import (
        DEFAULT_LEVELS,
        LUECK_MAX_REFINEMENT,
        QUAD_TOL,
        approx_tower,
        fourier_quadrature,
        jensen_log_det,
        parse_laurent,
        tower_levels,
    )
    if (job.op is None) == (not job.inputs):
        raise DataValidationError(
            "lueck needs exactly one operator: a laurent input file or --op")
    if job.op is not None:
        operator = parse_laurent(job.op)
    else:
        operator = formats.parse_laurent_matrix(_load(job, "laurent"), job.inputs[0])
    levels = DEFAULT_LEVELS
    if job.levels is not None:
        try:
            levels = tower_levels(job.levels)
        except DataValidationError as exc:
            raise DataValidationError(str(exc), location="--levels") from None
    tower = approx_tower(operator, levels)
    limit = jensen_log_det(tower.operator)
    warnings = []
    jensen = {"degree": limit.degree, "rank": limit.rank,
              "roots_near_circle": limit.near_circle,
              "integer_coefficients": limit.integer}
    if limit.bracket is not None:
        jensen["bracket"] = list(limit.bracket)
        if limit.near_circle:
            warnings.append(
                f"{limit.near_circle} roots of the determinant polynomial lie "
                "within their error of the unit circle: the circle integral is "
                f"known only within [{limit.bracket[0]!r}, {limit.bracket[1]!r}]")
    quad_tol = job.tol if job.tol is not None else QUAD_TOL
    try:
        value, depth, increment = fourier_quadrature(
            tower.operator, quad_tol, LUECK_MAX_REFINEMENT)
        quadrature = {"depth": depth, "last_increment": increment,
                      "residual": abs(value - limit.value)}
    except QuadratureError as exc:
        low, high = exc.bracket
        quadrature = {"depth": LUECK_MAX_REFINEMENT,
                      "last_increment": abs(high - low), "bracket": [low, high]}
        warnings.append(
            f"the quadrature did not reach {quad_tol!r} at 2^{LUECK_MAX_REFINEMENT} "
            f"points: its last estimates are {low!r} and {high!r}")
    return {
        "job": job.echo(),
        "norm_bound": tower.norm_bound,
        "levels": [{"m": level.m, "log_det": level.log_det,
                    "smallest_positive": level.smallest_positive,
                    "largest": level.largest} for level in tower.levels],
        "fourier_log_det": limit.value,
        "jensen": jensen,
        "quadrature": quadrature,
        "warnings": warnings,
    }


def _run_duality_check(job: JobSpec) -> dict:
    from . import formats
    from .cells import dual_complex, t_comb
    cw = formats.parse_cw(_load(job, "cw"), job.inputs[0])
    value = t_comb(cw, job.rank_tol)
    dual_value = t_comb(dual_complex(cw), job.rank_tol)
    sign = (-1.0) ** (cw.top_degree + 1)
    residual = abs(value - sign * dual_value)
    tol = job.tol if job.tol is not None else 1e-9
    return {
        "job": job.echo(),
        "torsion": value,
        "dual_torsion": dual_value,
        "sign": sign,
        "residual": residual,
        "passed": bool(residual <= tol),
    }


def _run_product(job: JobSpec) -> dict:
    from .complexes import tensor_product, torsion
    a = _load_complex(job)
    b = _load_complex(job, 1)
    product = tensor_product(a, b)
    t_a, t_b = torsion(a, job.rank_tol), torsion(b, job.rank_tol)
    t_ab = torsion(product, job.rank_tol)
    chi_a, chi_b = a.euler_characteristic(), b.euler_characteristic()
    rhs = chi_b * t_a + chi_a * t_b
    residual = abs(t_ab - rhs)
    tol = job.tol if job.tol is not None else 1e-8
    return {
        "job": job.echo(),
        "torsion_product": t_ab,
        "torsion_factors": [t_a, t_b],
        "euler_characteristics": [chi_a, chi_b],
        "formula_rhs": rhs,
        "residual": residual,
        "passed": bool(residual <= tol * (1.0 + abs(t_ab))),
    }


_HANDLERS = {
    "torsion": _run_torsion,
    "hodge": _run_hodge,
    "glue-check": _run_glue_check,
    "ses-check": _run_ses_check,
    "lueck": _run_lueck,
    "duality-check": _run_duality_check,
    "product": _run_product,
}


def run(job: JobSpec) -> dict:
    """Execute one job and return its report (exceptions signal failure)."""
    return _HANDLERS[job.command](job)


def main(argv=None) -> int:
    import numpy as np

    from . import _thread_cap, formats
    from .errors import DataValidationError, NumericalError
    try:
        if _thread_cap() == 0:
            raise DataValidationError(
                "TORSIONLAB_THREADS must be a positive integer, got "
                f"{os.environ['TORSIONLAB_THREADS']!r}", location="environment")
        args = build_parser().parse_args(argv)
        job = _job_from_args(args)
        # An overflow is reported once, as the kernels' NumericalError.
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(job)
        if job.json_output:
            text = formats.canonical_json(report)
        else:
            text = formats.report_text(report)
    except DataValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
