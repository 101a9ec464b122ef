"""The two interval model cases and their ratio identities.

An interval [a, b] with the gradient flow of h(x) = x produces no cells at
all ("flow-through"), while a quadratic well with an interior minimum
produces a single 0-cell.  Both cell structures have combinatorial torsion
exactly zero, yet the analytic reference values differ from the
Reidemeister ones by the same ratio (log 2)/2 -- an instance of the general
cylinder and boundary formulas.  This script recomputes the combinatorial
side from the cell complexes and checks every identity bit for bit.
"""

import math

from torsionlab.cells import UnitaryRepresentation, build_complex, interval_tau1, interval_tau2, t_comb
from torsionlab.complexes import hodge
from torsionlab.models import (
    boundary_ratio,
    cylinder_ratio,
    interval_flow_through,
    interval_interior_minimum,
)

TRIVIAL = UnitaryRepresentation({"t": [[1.0]]})


def main():
    flow = interval_flow_through()
    well = interval_interior_minimum(1.0)

    print("stored model values")
    for model in (flow, well):
        print(f"  {model.name}")
        print(f"    t_comb = {model.t_comb:+.12f}")
        print(f"    t_an   = {model.t_an:+.12f}")
        print(f"    t_met  = {model.t_met:+.12f}")
        print(f"    ratio  = {model.log_ratio:+.12f}")

    print()
    print("recomputed combinatorial torsion")
    tau1 = interval_tau1(TRIVIAL)
    tau2 = interval_tau2(TRIVIAL)
    for name, cw in (("flow-through", tau1), ("interior minimum", tau2)):
        value = t_comb(cw)
        cells = sum(len(v) for v in cw.cells.values())
        print(f"  {name}: {cells} cell(s), t_comb = {value:+.12f}")
        assert value == 0.0

    data = hodge(build_complex(tau2))
    print(f"  interior-minimum harmonic dimension in degree 0: "
          f"{data.harmonic_dim(0)}")

    print()
    print("ratio identities (exact arithmetic over stored constants)")
    half_log2 = 0.5 * math.log(2.0)
    print(f"  log ratio            = {flow.log_ratio:+.12f}")
    print(f"  chi(point) * log2/2  = {cylinder_ratio(1.0):+.12f}")
    print(f"  chi(dI) * log2/4     = {boundary_ratio(2.0):+.12f}")
    assert flow.log_ratio == half_log2 == cylinder_ratio(1.0) == boundary_ratio(2.0)
    assert well.log_ratio == half_log2
    print("  all four agree exactly")


if __name__ == "__main__":
    main()
