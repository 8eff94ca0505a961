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

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CounterexampleFound
from .sectorgeom import (ANGLE_TOL, ConeRows, TWO_PI, bisector_distance,
                         cone_rows, separated_rows, wrap_angles)

# rows per array pass of enumerate_configs (2d ray columns each): the
# temporaries of a pass stay under a megabyte, and larger passes ran no faster
_PASS_ROWS = 512
# largest argA grid enumerate_configs accepts: 8,386,560 rows at dmax 12
MAX_ARG_SAMPLES = 1024


@dataclass(frozen=True)
class AccumulationConfig:
    """Degree, arg of the leading coefficient, and the per-sector values."""

    d: int
    argA: float
    assignment: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not math.isfinite(self.argA):
            raise ValueError("argA must be finite")
        assignment = tuple(int(v) for v in self.assignment)
        if len(assignment) != self.d:
            raise ValueError("assignment length must equal d")
        if any(v not in (0, 1) for v in assignment):
            raise ValueError("assignment values must be 0 or 1")
        object.__setattr__(self, "assignment", assignment)


def _boundary_rays(d: int, arg_a: np.ndarray) -> np.ndarray:
    """(rows, d, 2) boundary rays phi_k -+ pi/(2d), one row per argA."""
    k = np.arange(d)
    phi = ((2 * (k + 1) - 1) * math.pi - arg_a[:, None]) / d
    half = 0.5 * math.pi / d
    return wrap_angles(np.stack([phi - half, phi + half], axis=-1))


def _config_cones(d: int, arg_a: np.ndarray,
                  values: np.ndarray) -> tuple[ConeRows, ConeRows]:
    """Zero-ray and one-ray sets with their cones, one row per config.

    Zeros accumulate on rays bordering sectors with value 1 (0 differs
    from the sector value there); 1-points on rays bordering value-0
    sectors. values is (rows, d) of 0/1.
    """
    rays = _boundary_rays(d, arg_a).reshape(len(arg_a), 2 * d)
    on_zero = np.repeat(values == 1, 2, axis=1)
    return (cone_rows(np.where(on_zero, rays, math.nan)),
            cone_rows(np.where(on_zero, math.nan, rays)))


class _Verdicts(NamedTuple):
    """Full cone openings (0 for an empty set) and flags, one entry per
    config. disjoint_cone: disjoint cones, min opening < pi/2, max < pi.
    halfplane: a zero cone under pi/3 and a closed half-plane holding the
    1-point cone while meeting the zero cone only in 0."""

    zero_opening: np.ndarray
    one_opening: np.ndarray
    disjoint: np.ndarray
    disjoint_cone: np.ndarray
    halfplane: np.ndarray


def _verdict_rows(zero: ConeRows, one: ConeRows) -> _Verdicts:
    """Openings, disjointness and both sector hypotheses, elementwise.

    An empty ray set has opening 0 and no cone; it is disjoint from the
    other cone unless that one covers the plane. The half-plane test asks
    whether some closed half-plane can contain the 1-point cone while
    staying angularly disjoint from the zero cone.
    """
    has0 = zero.count > 0
    has1 = one.count > 0
    h0 = zero.half_opening
    h1 = one.half_opening
    th0 = np.where(has0, 2.0 * h0, 0.0)
    th1 = np.where(has1, 2.0 * h1, 0.0)
    dist = bisector_distance(zero.bisector, one.bisector)
    # a degenerate sector fits anywhere the other cone leaves a gap
    disjoint = np.where(
        has0 & has1, separated_rows(zero.bisector, h0, one.bisector, h1),
        np.where(has0, h0 < math.pi - ANGLE_TOL,
                 ~has1 | (h1 < math.pi - ANGLE_TOL)))
    disjoint_cone = (disjoint
                     & (np.minimum(th0, th1) < 0.5 * math.pi - ANGLE_TOL)
                     & (np.maximum(th0, th1) < math.pi - ANGLE_TOL))
    # with no 1-point cone the half-plane is free and only the zero cone
    # must leave room; otherwise the half-plane's slack around the 1-point
    # cone has to reach past the zero cone
    reach = np.minimum(math.pi, dist + (0.5 * math.pi - h1))
    halfplane = np.where(
        has1,
        (h1 <= 0.5 * math.pi + ANGLE_TOL)
        & (~has0 | (reach > 0.5 * math.pi + h0 + ANGLE_TOL)),
        ~has0 | (h0 < 0.5 * math.pi - ANGLE_TOL))
    halfplane &= th0 < math.pi / 3.0 - ANGLE_TOL
    return _Verdicts(th0, th1, disjoint, disjoint_cone, halfplane)


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


_VIOLATION = ("disjoint-cone hypothesis met: {cfg}",
              "odd-degree parity violated: {cfg}",
              "half-plane hypothesis met at d = {d}: {cfg}")


def _is_count(n) -> bool:
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _sweep_passes(dmax: int, arg_samples: int):
    """(d, code, values, arg_a) per pass of at most _PASS_ROWS configs, in
    sweep order: row code * arg_samples + j holds the code-th assignment
    of itertools.product((0, 1), repeat=d) at argA = 2 pi j / arg_samples."""
    for d in range(1, dmax + 1):
        n = arg_samples << d
        bits = np.arange(d - 1, -1, -1)
        for lo in range(0, n, _PASS_ROWS):
            code, j = np.divmod(np.arange(lo, min(n, lo + _PASS_ROWS)),
                                arg_samples)
            values = (code[:, None] >> bits) & 1
            yield d, code, values, TWO_PI * j / arg_samples


def enumerate_configs(dmax: int, arg_samples: int = 16) -> EnumerationReport:
    """Sweep every configuration with d <= dmax over an argA grid.

    Asserts, for every configuration: (i) no mixed assignment meets the
    disjoint-cone hypothesis; (ii) for odd d and mixed values, cones of
    opening < pi cannot coexist on both sides (the parity step: d would
    have to be even); (iii) the half-plane hypothesis is met only at
    d = 1. Any hit raises CounterexampleFound naming the first three
    offending configs in sweep order (degree, then assignment in
    lexicographic order, then argA = 2 pi j / arg_samples).

    dmax is an integer in 1..12 and arg_samples one in
    1..MAX_ARG_SAMPLES. The 2^d * arg_samples configs of each degree are
    assessed as arrays, at most _PASS_ROWS at a time.
    """
    if not _is_count(dmax) or not 1 <= dmax <= 12:
        raise ValueError("dmax must be an integer in 1..12")
    if not _is_count(arg_samples) or not 1 <= arg_samples <= MAX_ARG_SAMPLES:
        raise ValueError(
            f"arg_samples must be an integer in 1..{MAX_ARG_SAMPLES}")
    checked = 0
    met3: set[int] = set()
    violations: list[str] = []
    for d, code, values, arg_a in _sweep_passes(dmax, arg_samples):
        v = _verdict_rows(*_config_cones(d, arg_a, values))
        checked += len(code)
        mixed = (code > 0) & (code < (1 << d) - 1)
        parity = (mixed & (d % 2 == 1)
                  & (v.zero_opening < math.pi - 1e-9)
                  & (v.one_opening < math.pi - 1e-9))
        if v.halfplane.any():
            met3.add(d)
        hits = np.stack([v.disjoint_cone & mixed, parity,
                         v.halfplane & (d >= 3)], axis=1)
        for row, kind in zip(*np.nonzero(hits)):
            cfg = AccumulationConfig(d, float(arg_a[row]),
                                     tuple(values[row].tolist()))
            violations.append(_VIOLATION[kind].format(d=d, cfg=cfg))
        # later passes cannot change the first three
        if len(violations) >= 3:
            break
    if violations:
        raise CounterexampleFound("; ".join(violations[:3]))
    return EnumerationReport(dmax, arg_samples, checked,
                             tuple(sorted(met3)), tuple(violations))
