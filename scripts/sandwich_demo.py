"""Print the lower/upper bound sandwich for a few textbook instances.

Usage: python3 scripts/sandwich_demo.py [t_max]
"""

import sys

from cdmos.hierarchy import sandwich_sweep
from cdmos.measures import UniformBox
from cdmos.momentmat import SemialgebraicSet
from cdmos.polyring import Polynomial


def show(name, f, B, measure, t_max):
    print(f"\n{name}")
    print(f"{'t':>3} {'rho_t':>14} {'u_t':>14} {'gap':>12}  exact?")
    for row in sandwich_sweep(f, B, measure, t_max):
        rho = "-" if row.rho is None else f"{row.rho:14.8f}"
        u = "-" if row.u is None else f"{row.u:14.8f}"
        gap = "-" if row.gap is None else f"{row.gap:12.2e}"
        cert = ""
        if row.lower is not None:
            ex = row.lower.extraction
            if ex.certified:
                pts = ", ".join("(" + ", ".join(f"{v:.4f}" for v in xi) + ")"
                                for xi, _ in ex.minimizers)
                cert = f"certified at {pts}"
            else:
                cert = "not certified"
        print(f"{row.t:>3} {rho} {u} {gap}  {cert}")


def main():
    t_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4

    x = Polynomial.variable(1, 0)
    show("minimize x on [-1, 1]",
         x,
         SemialgebraicSet(1, (1.0 - x * x,), box=((-1.0,), (1.0,))),
         UniformBox((-1.0,), (1.0,)),
         t_max)

    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    show("minimize x1 x2 on [-1, 1]^2",
         x1 * x2,
         SemialgebraicSet(2, (1.0 - x1 * x1, 1.0 - x2 * x2),
                          box=((-1.0, -1.0), (1.0, 1.0))),
         UniformBox((-1.0, -1.0), (1.0, 1.0)),
         t_max)

    show("minimize (x^2 - 1)^2 on [-2, 2]",
         (x * x - 1.0) * (x * x - 1.0),
         SemialgebraicSet(1, (4.0 - x * x,), box=((-2.0,), (2.0,))),
         UniformBox((-2.0,), (2.0,)),
         t_max)


if __name__ == "__main__":
    main()
