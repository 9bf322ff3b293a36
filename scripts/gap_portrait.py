"""Edge-gap portrait for a sharp step: the Gaussian decay made visible.

Sweeps the first band toward its upper edge and tabulates the gap
against the square of the edge coupling and its erfc closed form, plus
the scaled distance between the band eigenprojection and its limit.
The three columns collapsing onto each other is the whole story: the
gap closes like a Gaussian in k, pinned by the coupling constant.

Run:  python3 scripts/gap_portrait.py [b] [w_plus]
"""

import math
import sys

from edgegap.fiber import FiberDiscretization, edge_comparisons, phi_squared
from edgegap.potentials import step_potential


def main():
    b = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    w_plus = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    w = step_potential(0.0, w_plus, 0.0)
    disc = FiberDiscretization(b=b, w=w)
    print(f"b={b}, step (0, {w_plus}) at x0=0, j=1")
    print(f"{'k':>5} {'edge gap':>13} {'phi_1^2':>13} {'erfc form':>13} "
          f"{'gap/phi^2':>10} {'scaled dist':>12}")
    for cmp in edge_comparisons(disc, 1, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)):
        k = cmp.k
        phi2 = phi_squared(1, k, b, w)
        closed = 0.5 * w_plus * math.erfc(k / b ** 0.5)
        print(f"{k:>5.1f} {cmp.gap_dist:>13.4e} {phi2:>13.4e} "
              f"{closed:>13.4e} {cmp.gap_dist / phi2:>10.5f} "
              f"{cmp.scaled_distance:>12.4e}")


if __name__ == "__main__":
    main()
