"""Reference values and report checks for every benchmark job.

A check takes a job's report (the parsed canonical JSON of the CLI, or the
result dict of an in-process job) and returns the list of problems it
found; an empty list means the job is correct.  References are closed
forms, taken from ``torsionlab.models`` where the package records them:

* the circle over the regular representation of Z/m: log(m)/m;
* every level m of ``2 - t - t^-1``: 2 log(m)/m, and its circle integral 0;
* ``3 - t - t^-1``: log((3 + sqrt 5)/2), exact per level via Lucas numbers;
* |2 - 3t + 2t^2|^2: 2 log 2, exact per level through its unimodular roots;
* the demo circle with holonomy -1: log 2; the demo exact sequence: log 6.

``Oracle.shift`` moves every reference by a fixed amount; the self-test
uses it to show that a wrong reference is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from torsionlab import models

LOG2 = models.LOG2
LOG3 = math.log(3.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Absolute tolerance of closed-form torsions and tower levels.  Criterion 08
#: of the acceptance suite holds the flagship levels to the same 1e-9.
VALUE_TOL = 1e-9
#: Squared operators have eigenvalues ~(2 pi / m)^4 near the eigensolver's
#: clamping floor, so their deep levels are resolved to ~1e-10 only.
SQUARED_LEVEL_TOL = 1e-8
#: Circle integrals stop once successive extrapolations differ by QUAD_TOL
#: (1e-8); a tenfold margin covers the remaining extrapolation error.
FOURIER_TOL = 1e-7
#: Self-consistency residuals, as in the acceptance criteria 02, 04 and 05.
MILNOR_TOL = 1e-7
ROUTE_TOL = 1e-8


# ---------------------------------------------------------------------------
# closed forms


def circle_regular(m: int) -> float:
    """Torsion of the circle over the regular representation of Z/m."""
    return math.log(m) / m


def flagship_level(m: int) -> float:
    """Level m of 2 - t - t^-1: prod_{j != 0} |1 - w^j|^2 = m^2."""
    return 2.0 * math.log(m) / m


def golden_level(m: int) -> float:
    """Level m of 3 - t - t^-1: prod_j (3 - 2 cos(2 pi j/m)) = L_2m - 2."""
    return 2.0 * math.log(GOLDEN) + (2.0 / m) * math.log1p(-GOLDEN ** (-2 * m))


def squared_flagship_level(m: int) -> float:
    """Level m of (2 - t - t^-1)^2, the square of the flagship circulant."""
    return 2.0 * flagship_level(m)


#: 7 - 6 cos(theta) = 3 (r + 1/r - 2 cos(theta)) with this r < 1.
_LAPLACIAN_R = (7.0 - math.sqrt(13.0)) / 6.0


def laplacian_level(m: int) -> float:
    """Level m of M*M for M = [1 - t, 2 - t]: the symbol has rank one with
    nonzero eigenvalue |1 - z|^2 + |2 - z|^2 = 7 - 6 cos(theta)."""
    r = _LAPLACIAN_R
    return math.log(3.0 / r) + (2.0 / m) * math.log1p(-r ** m)


LAPLACIAN_LIMIT = math.log((7.0 + math.sqrt(13.0)) / 2.0)

#: 2 - 3z + 2z^2 = 2 (z - a)(z - conj a) with a = exp(i phi), cos(phi) = 3/4.
_IRRATIONAL_PHI = math.acos(0.75)


def irrational_level(m: int) -> float:
    """Level m of |2 - 3t + 2t^2|^2: 2 log 2 + (4/m) log |a^m - 1|."""
    return 2.0 * LOG2 + (4.0 / m) * math.log(
        2.0 * abs(math.sin(m * _IRRATIONAL_PHI / 2.0)))


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class Oracle:
    """Compares reports with references moved by ``shift`` (0 in real runs)."""

    shift: float = 0.0

    def close(self, label: str, got, want: float, tol: float) -> list[str]:
        want = want + self.shift
        if not isinstance(got, (int, float)) or isinstance(got, bool) \
                or not abs(got - want) <= tol:
            return [f"{label} = {got!r}, expected {want!r} within {tol:g}"]
        return []

    def small(self, label: str, got, tol: float) -> list[str]:
        """A residual, whose reference value is 0."""
        return self.close(label, got, 0.0, tol)

    # -- CLI reports ----------------------------------------------------------

    def torsion(self, expected: float):
        def check(report: dict) -> list[str]:
            return (_passed(report)
                    + self.close("torsion", report.get("torsion"), expected,
                                 VALUE_TOL)
                    + self.small("route_residual", report.get("route_residual"),
                                 ROUTE_TOL))
        return check

    def hodge(self, rows: list[tuple[int, float, float, float]], acyclic: bool):
        """rows: (degree, vn_dim, harmonic_vn_dim, laplacian_log_det_prime)."""
        def check(report: dict) -> list[str]:
            problems = []
            got = report.get("degrees") or []
            if [r.get("degree") for r in got] != [r[0] for r in rows]:
                return [f"hodge degrees {[r.get('degree') for r in got]}"]
            for row, (q, vn_dim, harmonic, ldp) in zip(got, rows):
                problems += self.close(f"vn_dim[{q}]", row.get("vn_dim"),
                                       vn_dim, VALUE_TOL)
                problems += self.close(f"harmonic_vn_dim[{q}]",
                                       row.get("harmonic_vn_dim"), harmonic,
                                       VALUE_TOL)
                problems += self.close(f"laplacian_log_det_prime[{q}]",
                                       row.get("laplacian_log_det_prime"), ldp,
                                       VALUE_TOL)
            if report.get("is_acyclic") is not acyclic:
                problems.append(f"is_acyclic = {report.get('is_acyclic')!r}")
            if report.get("warnings"):
                problems.append(f"warnings {report['warnings']!r}")
            return problems
        return check

    def duality(self, expected: float):
        def check(report: dict) -> list[str]:
            return (_passed(report)
                    + self.close("torsion", report.get("torsion"), expected,
                                 VALUE_TOL)
                    + self.close("dual_torsion", report.get("dual_torsion"),
                                 expected, VALUE_TOL))
        return check

    def glue(self, expected: float):
        def check(report: dict) -> list[str]:
            return (_passed(report)
                    + self.close("t_comb", report.get("t_comb"), expected,
                                 VALUE_TOL))
        return check

    def ses(self, sub: float, middle: float, quotient: float):
        def check(report: dict) -> list[str]:
            return (_passed(report)
                    + self.close("torsion_sub", report.get("torsion_sub"), sub,
                                 VALUE_TOL)
                    + self.close("torsion_middle", report.get("torsion_middle"),
                                 middle, VALUE_TOL)
                    + self.close("torsion_quotient",
                                 report.get("torsion_quotient"), quotient,
                                 VALUE_TOL))
        return check

    def product(self, t_a: float, t_b: float, chi_a: float, chi_b: float):
        """Product formula: T(A x B) = chi(B) T(A) + chi(A) T(B)."""
        def check(report: dict) -> list[str]:
            factors = report.get("torsion_factors") or [None, None]
            return (_passed(report)
                    + self.close("torsion_factors[0]", factors[0], t_a, VALUE_TOL)
                    + self.close("torsion_factors[1]", factors[1], t_b, VALUE_TOL)
                    + self.close("torsion_product", report.get("torsion_product"),
                                 chi_b * t_a + chi_a * t_b, VALUE_TOL))
        return check

    def lueck(self, level, levels: list[int], fourier: float,
              level_tol: float = VALUE_TOL):
        """Every level against ``level(m)``, the circle integral against
        ``fourier``."""
        def check(report: dict) -> list[str]:
            got = report.get("levels") or []
            if [row.get("m") for row in got] != levels:
                return [f"levels {[row.get('m') for row in got]}, "
                        f"expected {levels}"]
            problems = []
            for row in got:
                problems += self.close(f"log_det[m={row['m']}]",
                                       row.get("log_det"), level(row["m"]),
                                       level_tol)
            return problems + self.close("fourier_log_det",
                                         report.get("fourier_log_det"), fourier,
                                         FOURIER_TOL)
        return check

    # -- in-process results ---------------------------------------------------

    def residual(self, tol: float):
        """Result dicts carrying a residual and the scale it is relative to."""
        def check(result: dict) -> list[str]:
            scale = 1.0 + abs(result["scale"])
            return self.small("scaled residual", result["residual"] / scale, tol)
        return check


def _passed(report: dict) -> list[str]:
    return [] if report.get("passed") is True else [
        f"report passed flag is {report.get('passed')!r}"]
