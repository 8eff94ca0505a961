"""Critical rays, asymptotic values, and the tails of the decay cones.

For f' = p exp(q) with d = deg q >= 1 and A the leading coefficient of q,
the plane splits into d sectors of opening 2 pi / d around the rays

    phi_k = ((2k - 1) pi - arg A) / d,   k = 1, ..., d,

along which Re(A z^d) -> -infinity. f tends to a finite limit a_k along
phi_k, and inside the surrounding decay cone

    f(z) = a_k + (p(z) / q'(z)) exp(q(z)) (1 + o(1)).

Everything here is computed from (p, q, c) by quadrature; nothing is
hardcoded to particular examples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import polyexp
from .errors import DegreeZero, ToleranceNotMet
from .polyexp import PolyExpFunction, ScaledComplex, eval_f
from .sectorgeom import angle_distance, wrap_angle


@dataclass(frozen=True)
class AsymptoticData:
    """Critical rays with their limits, frozen for one function.

    rays are sorted ascending in [0, 2 pi); values[k] is the limit of f
    along rays[k], certified to value_tol.
    """

    d: int
    A: complex
    rays: tuple[float, ...]
    values: tuple[complex, ...]
    value_tol: float

    def nearest_ray(self, theta: float) -> int:
        """Index of the ray closest to the direction theta."""
        return min(range(self.d),
                   key=lambda k: (angle_distance(theta, self.rays[k]), k))


def critical_rays(F: PolyExpFunction) -> list[float]:
    """The d directions of maximal decay of exp(q), sorted ascending.

    Raises DegreeZero when q is constant (no rays exist).
    """
    d = F.q.degree
    if d < 1:
        raise DegreeZero("deg q = 0: the function has no critical rays")
    arg_a = cmath.phase(F.A)
    rays = [wrap_angle(((2 * k - 1) * math.pi - arg_a) / d) for k in range(1, d + 1)]
    return sorted(rays)


def _tail_estimate(F: PolyExpFunction, z: complex) -> float:
    """|p(z)/q'(z)| exp(Re q(z)), the size of f(z) - a_k on a decay ray."""
    qp = F.q_prime(z)
    if qp == 0:
        return math.inf
    re_q = F.q(z).real
    if re_q > 700.0:
        return math.inf
    return abs(F.p(z) / qp) * math.exp(max(re_q, -745.0))


def asymptotic_values(F: PolyExpFunction,
                      tol: float = 1e-9) -> AsymptoticData:
    """Limits a_k of f along each critical ray, by straight-line quadrature.

    The integration endpoint R on each ray is pushed out, by factors of 1.2
    up to 50, until the dropped tail is provably below tol / 10, then
    f(R e^{i phi_k}) is evaluated with quadrature tolerance tol / 10. A tol
    that is not positive raises ValueError.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    rays = critical_rays(F)
    if F.p.is_zero:
        # f is constant; every limit equals c
        return AsymptoticData(d=F.d, A=F.A, rays=tuple(rays),
                              values=tuple(complex(F.c) for _ in rays),
                              value_tol=tol)
    values = []
    for phi in rays:
        direction = cmath.rect(1.0, phi)
        r = 1.0
        while r <= 50.0:
            if _tail_estimate(F, r * direction) < 0.1 * tol:
                break
            r *= 1.2
        else:
            raise ToleranceNotMet(
                f"tail along ray {phi:.6f} not below {0.1 * tol:.1e} by r = 50")
        values.append(eval_f(F, r * direction, 0.1 * tol))
    return AsymptoticData(d=F.d, A=F.A, rays=tuple(rays),
                          values=tuple(values), value_tol=tol)


def in_decay_interior(F: PolyExpFunction, z: complex) -> bool:
    """True when the leading term of Re q strictly decreases along the
    outward radial direction at z (z sits inside a decay cone): the cosine
    of its angle is below -0.05."""
    if F.q.degree < 1 or z == 0:
        return False
    ang = cmath.phase(F.A) + F.q.degree * cmath.phase(z)
    return math.cos(ang) < -0.05


def tail_end(F: PolyExpFunction, z: complex) -> complex:
    """Truncation point of the tail integral from z, for z inside a decay
    cone: the first point z * 1.25^j outward where Re q has dropped by 46
    (relative truncation below 1e-20).

    Raises ValueError when z is not inside a decay cone or Re q rises on
    the way out, and ToleranceNotMet when 60 steps do not reach the drop.
    """
    z = complex(z)
    if not in_decay_interior(F, z):
        raise ValueError(f"{z} is not inside a decay cone; tail form invalid")
    re0 = F.q(z).real
    u = 1.0
    re_prev = re0
    for _ in range(60):
        u *= 1.25
        re_u = F.q(z * u).real
        if re_u > re_prev + 1e-9:
            raise ValueError("Re q not decreasing outward; tail form invalid")
        re_prev = re_u
        if re_u <= re0 - 46.0:
            break
    else:
        raise ToleranceNotMet("could not find a truncation radius for the tail")
    return z * u


def tail_remainder(F: PolyExpFunction, z: complex,
                   tol: float = 1e-12) -> ScaledComplex:
    """Exact f(z) - a_k as a scaled integral, for z inside a decay cone.

    Integrates -p exp(q) from z radially outward to tail_end(F, z),
    entirely in scaled arithmetic. The result keeps full relative precision
    even when |f - a_k| is far below the cancellation floor of direct
    double-precision evaluation.
    """
    z = complex(z)
    # through the module, so that a wrapper installed on
    # polyexp.integral_scaled_parts sees this call too
    return polyexp.integral_scaled_parts(F, z, tail_end(F, z), tol)[0].neg()


def accumulation_rays_analytic(data: AsymptoticData, target: complex,
                               tol: float = 1e-6) -> list[float]:
    """Directions where a-points of f accumulate, for a finite target a.

    a-points cluster along the two transition rays phi_k +- pi/(2d) of every
    decay sector whose limit differs from the target; a sector with
    a_k = target contributes none. Result sorted ascending in [0, 2 pi).
    """
    if data.d < 1:
        raise DegreeZero("no rays for constant q")
    half = math.pi / (2 * data.d)
    out: list[float] = []
    for k in range(data.d):
        if abs(data.values[k] - complex(target)) <= tol:
            continue
        for cand in (wrap_angle(data.rays[k] - half), wrap_angle(data.rays[k] + half)):
            if not any(angle_distance(cand, r) <= 1e-12 for r in out):
                out.append(cand)
    return sorted(out)
