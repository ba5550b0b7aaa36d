"""Tabulate the signed density recovered from an exact relaxation.

For minimize x on [-1, 1] with the uniform reference measure, the optimal
moment vector is the Dirac at -1 and the recovered density is the kernel
section K_2t(-1, x).  The table shows the signed density sigma, the diagonal
kernel K(x, x), and the SOS density from the upper-bound hierarchy at the
same order, making the contrast between the two routes visible: sigma peaks
at exactly K(-1, -1) and dips negative in the interior, while the SOS
density stays nonnegative and only concentrates slowly.

Usage: python3 scripts/density_profile.py [t] [grid_points]
"""

import sys

import numpy as np

from cdmos.hierarchy import lower_bound, upper_bound
from cdmos.measures import UniformBox
from cdmos.momentmat import SemialgebraicSet
from cdmos.orthobasis import cd_kernel
from cdmos.polyring import Polynomial


def main():
    t = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    grid_n = int(sys.argv[2]) if len(sys.argv) > 2 else 11

    x = Polynomial.variable(1, 0)
    B = SemialgebraicSet(1, (1.0 - x * x,), box=((-1.0,), (1.0,)))
    mu = UniformBox((-1.0,), (1.0,))

    r = lower_bound(x, B, t, measure=mu)
    christoffel_at = r.christoffel_at()
    ub = upper_bound(x, mu, t)

    print(f"order t = {t}: rho_t = {r.rho:.8f}, u_t = {ub.u:.8f}")
    if r.extraction.certified:
        for xi, _ in r.extraction.minimizers:
            print(f"certified minimizer {xi}, "
                  f"christoffel value {christoffel_at[xi]:.8f} "
                  f"(= 1 / K({xi[0]:g}, {xi[0]:g}))")
    print(f"\n{'x':>8} {'sigma(x)':>12} {'K(x,x)':>12} {'sos density':>12}")
    for xv in np.linspace(-1.0, 1.0, grid_n):
        pt = (float(xv),)
        print(f"{xv:8.3f} {r.density(pt):12.6f} "
              f"{cd_kernel(r.density_basis, pt, pt):12.6f} "
              f"{ub.sos_density(pt):12.6f}")


if __name__ == "__main__":
    main()
