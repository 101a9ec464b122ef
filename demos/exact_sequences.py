"""Additivity of torsion over short exact sequences, and mapping cones.

A short exact sequence of cochain complexes 0 -> C1 -> C2 -> C3 -> 0
induces a long exact sequence in reduced cohomology, itself an acyclic
complex with a torsion t_h, and the four numbers balance:

    log T(C2) = log T(C1) + log T(C3) + t_h.

The script generates a random twisted sequence, prints the degreewise
contributions to t_h, and verifies the balance.  It then builds the mapping
cone of a random chain map and checks two structural facts: the connecting
homomorphism of the cone sequence is the induced map on harmonic spaces up
to sign, and the cone of the identity is acyclic with torsion zero.
"""

import numpy as np

from torsionlab.complexes import (
    ComplexMorphism,
    hodge,
    induced_harmonic_map,
    mapping_cone,
    torsion,
)
from torsionlab.exact import cone_ses, connecting_hom, milnor_check
from torsionlab.generators import random_chain_morphism, random_cochain_complex, random_ses
from torsionlab.vn import Morphism, cyclic_group


def main():
    rng = np.random.default_rng(42)
    ctx = cyclic_group(2)

    print("random twisted short exact sequence over Z/2")
    ses = milnor_check(random_ses(rng, ctx, length=4, max_rank=1))
    print(f"  log T(C1) = {ses.t1:+.10f}")
    print(f"  log T(C2) = {ses.t2:+.10f}")
    print(f"  log T(C3) = {ses.t3:+.10f}")
    print(f"  t_h       = {ses.t_h:+.10f}")
    print("  degreewise module-sequence torsions (correction term; zero for")
    print("  coordinate inclusions and projections):")
    for degree in sorted(ses.degreewise):
        print(f"    degree {degree:+d}: {ses.degreewise[degree]:+.10f}")
    print(f"  |lhs - rhs| = {ses.residual:.2e}")

    print()
    print("mapping cone of a random chain map")
    c, shape = random_cochain_complex(rng, ctx, length=3, max_rank=2)
    f, _, _ = random_chain_morphism(rng, c, shape, invertible=False)
    cone_sequence = cone_ses(f)
    for i in list(cone_sequence.degrees())[:-1]:
        delta = connecting_hom(cone_sequence, i)
        induced = induced_harmonic_map(f, i + 1)
        if delta.array.size == 0:
            print(f"  degree {i:+d}: nothing to connect")
            continue
        # the largest block norm of a stack, the norm of the direct sum
        dist = min((delta - induced).norm(), (delta + induced).norm())
        print(f"  degree {i:+d}: ||connecting -+ induced|| = {dist:.2e}")

    print()
    print("cone of the identity map")
    ident = ComplexMorphism(c, c, [Morphism.identity(m) for m in c.modules])
    cone, _, _ = mapping_cone(ident)
    data = hodge(cone)
    print(f"  acyclic: {data.is_acyclic()}")
    print(f"  torsion: {torsion(cone):+.2e}")


if __name__ == "__main__":
    main()
