"""Exhaustive feasibility engine over accumulation-ray configurations.

A configuration fixes the exponent degree d, arg A, and the 0/1 value
carried by each decay sector. The induced accumulation rays for zeros and
1-points are phi_k +- pi/(2d); a ray joins the target-a set exactly when
the decay sector it borders carries a value different from a. Minimal
cones of the two ray sets then decide whether either sector hypothesis
(disjoint small cones, or a separating half-plane) could ever be met;
enumeration confirms neither is, which is exactly what rules such
functions out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CounterexampleFound
from .sectorgeom import (ANGLE_TOL, RaySet, Sector, TWO_PI, angle_distance,
                         minimal_cone, separated, wrap_angle)


@dataclass(frozen=True)
class AccumulationConfig:
    """Degree, arg of the leading coefficient, and the per-sector values."""

    d: int
    argA: float
    assignment: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        assignment = tuple(int(v) for v in self.assignment)
        if len(assignment) != self.d:
            raise ValueError("assignment length must equal d")
        if any(v not in (0, 1) for v in assignment):
            raise ValueError("assignment values must be 0 or 1")
        object.__setattr__(self, "assignment", assignment)

    @property
    def mixed(self) -> bool:
        return len(set(self.assignment)) == 2

    def ray_pair(self, k: int) -> tuple:
        """Boundary rays of decay sector k (0-based), phi_k +- pi/(2d)."""
        phi = ((2 * (k + 1) - 1) * math.pi - self.argA) / self.d
        half = 0.5 * math.pi / self.d
        return (wrap_angle(phi - half), wrap_angle(phi + half))


def config_rays(cfg: AccumulationConfig) -> tuple:
    """(zero_rays, one_rays) induced by the sector values.

    Zeros accumulate on rays bordering sectors with value 1 (0 differs
    from the sector value there); 1-points on rays bordering value-0
    sectors. A constant assignment leaves one set empty.
    """
    zero: list[float] = []
    one: list[float] = []
    for k, v in enumerate(cfg.assignment):
        pair = cfg.ray_pair(k)
        if v == 1:
            zero.extend(pair)
        else:
            one.extend(pair)
    return RaySet(zero), RaySet(one)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Cone geometry of one configuration against the sector hypotheses.

    Openings are full opening angles (2 * half_opening); an empty ray set
    has opening 0 and no cone. disjoint reports whether the two minimal
    cones meet only in 0 (an empty set counts as disjoint unless the other
    cone covers the plane).
    """

    config: AccumulationConfig
    zero_rays: RaySet
    one_rays: RaySet
    zero_cone: Sector | None
    one_cone: Sector | None
    zero_cone_opening: float
    one_cone_opening: float
    disjoint: bool
    disjoint_cone_hypothesis_met: bool
    halfplane_hypothesis_met: bool


def _cone(rays: RaySet) -> Sector | None:
    return minimal_cone(rays) if len(rays) else None


def _disjoint(c0: Sector | None, c1: Sector | None) -> bool:
    if c0 is not None and c1 is not None:
        return separated(c0, c1)
    other = c0 if c1 is None else c1
    if other is None:
        return True
    # a degenerate sector fits anywhere the other cone leaves a gap
    return other.half_opening < math.pi - ANGLE_TOL


def _halfplane_separates(zero_cone: Sector | None,
                         one_cone: Sector | None) -> bool:
    """Can some closed half-plane contain the 1-point cone while staying
    angularly disjoint from the zero cone?"""
    if one_cone is not None and one_cone.half_opening > 0.5 * math.pi + ANGLE_TOL:
        return False
    if one_cone is None:
        # half-plane free; only the zero cone must leave room
        return zero_cone is None or zero_cone.half_opening < 0.5 * math.pi - ANGLE_TOL
    if zero_cone is None:
        return True
    slack = 0.5 * math.pi - one_cone.half_opening
    reach = min(math.pi,
                angle_distance(zero_cone.bisector, one_cone.bisector) + slack)
    return reach > 0.5 * math.pi + zero_cone.half_opening + ANGLE_TOL


def assess(cfg: AccumulationConfig) -> FeasibilityVerdict:
    """Build both minimal cones and test the two sector hypotheses.

    The first hypothesis asks for disjoint cones with min opening < pi/2
    and max opening < pi. The second asks for a zero cone of opening
    under pi/3 and a closed half-plane holding the 1-point cone while
    meeting the zero cone only in 0.
    """
    zero_rays, one_rays = config_rays(cfg)
    c0 = _cone(zero_rays)
    c1 = _cone(one_rays)
    th0 = c0.opening if c0 is not None else 0.0
    th1 = c1.opening if c1 is not None else 0.0
    disjoint = _disjoint(c0, c1)
    thm1 = (disjoint
            and min(th0, th1) < 0.5 * math.pi - ANGLE_TOL
            and max(th0, th1) < math.pi - ANGLE_TOL)
    thm3 = (th0 < math.pi / 3.0 - ANGLE_TOL
            and _halfplane_separates(c0, c1))
    return FeasibilityVerdict(cfg, zero_rays, one_rays, c0, c1, th0, th1,
                              disjoint, thm1, thm3)


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of the exhaustive sweep; violations stays empty unless the
    ray or cone computation itself is broken."""

    dmax: int
    arg_samples: int
    configs_checked: int
    halfplane_met_degrees: tuple
    violations: tuple

    def to_dict(self) -> dict:
        return {"dmax": self.dmax, "configs_checked": self.configs_checked,
                "violations": list(self.violations)}


def enumerate_configs(dmax: int, arg_samples: int = 16) -> EnumerationReport:
    """Sweep every configuration with d <= dmax over an argA grid.

    Asserts, for every configuration: (i) no mixed assignment meets the
    disjoint-cone hypothesis; (ii) for odd d and mixed values, cones of
    opening < pi cannot coexist on both sides (the parity step: d would
    have to be even); (iii) the half-plane hypothesis is met only at
    d = 1. Any hit raises CounterexampleFound carrying the config.
    """
    if not 1 <= dmax <= 12:
        raise ValueError("dmax must lie in 1..12")
    if arg_samples < 1:
        raise ValueError("arg_samples must be positive")
    checked = 0
    met3: set[int] = set()
    violations: list[str] = []
    for d in range(1, dmax + 1):
        for assignment in itertools.product((0, 1), repeat=d):
            for j in range(arg_samples):
                arg_a = TWO_PI * j / arg_samples
                cfg = AccumulationConfig(d, arg_a, assignment)
                v = assess(cfg)
                checked += 1
                if v.disjoint_cone_hypothesis_met and cfg.mixed:
                    violations.append(
                        f"disjoint-cone hypothesis met: {cfg}")
                if (cfg.mixed and d % 2 == 1
                        and v.zero_cone_opening < math.pi - 1e-9
                        and v.one_cone_opening < math.pi - 1e-9):
                    violations.append(
                        f"odd-degree parity violated: {cfg}")
                if v.halfplane_hypothesis_met:
                    met3.add(d)
                    if d >= 3:
                        violations.append(
                            f"half-plane hypothesis met at d = {d}: {cfg}")
    if violations:
        raise CounterexampleFound("; ".join(violations[:3]))
    return EnumerationReport(dmax, arg_samples, checked,
                             tuple(sorted(met3)), tuple(violations))
