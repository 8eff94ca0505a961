"""Closed sectors and ray sets on the circle of directions.

A sector is stored as (bisector, half_opening); membership is closed, so
boundary rays count as inside, and the origin belongs to every sector.
Angular comparisons use an absolute tolerance of 1e-12 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import EmptyRaySet

TWO_PI = 2.0 * math.pi

ANGLE_TOL = 1e-12


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the half-open interval [0, 2pi)."""
    t = math.fmod(float(theta), TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        # fmod of a tiny negative can round back up to exactly 2pi
        t = 0.0
    return t


def angle_distance(a: float, b: float) -> float:
    """Angular separation between two directions, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class Sector:
    """Closed sector {z : dist(arg z, bisector) <= half_opening} plus {0}.

    half_opening lies in [0, pi]; pi means the whole plane. full_plane is
    informational: it marks sectors produced by minimal_cone when the rays
    left no usable gap.
    """

    bisector: float
    half_opening: float
    full_plane: bool = False

    def __post_init__(self):
        if not (-ANGLE_TOL <= self.half_opening <= math.pi + ANGLE_TOL):
            raise ValueError(
                f"half_opening {self.half_opening} outside [0, pi]")
        object.__setattr__(self, "bisector", wrap_angle(self.bisector))
        object.__setattr__(self, "half_opening",
                           min(max(self.half_opening, 0.0), math.pi))

    @property
    def opening(self) -> float:
        return 2.0 * self.half_opening

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if z == 0:
            return True
        return (angle_distance(math.atan2(z.imag, z.real), self.bisector)
                <= self.half_opening + ANGLE_TOL)

    def contains_angle(self, theta: float) -> bool:
        return angle_distance(theta, self.bisector) <= self.half_opening + ANGLE_TOL

    def rotated(self, theta: float) -> "Sector":
        return Sector(self.bisector + theta, self.half_opening, self.full_plane)

    def to_dict(self) -> dict:
        return {"bisector": self.bisector, "half_opening": self.half_opening}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Sector":
        obj = json.loads(text)
        return cls(float(obj["bisector"]), float(obj["half_opening"]))


class RaySet:
    """Sorted distinct ray directions in [0, 2pi), deduplicated to 1e-12."""

    __slots__ = ("angles",)

    def __init__(self, angles):
        ws = sorted(wrap_angle(t) for t in angles)
        out: list[float] = []
        for t in ws:
            if not out or t - out[-1] > ANGLE_TOL:
                out.append(t)
        # the first and last entry can alias across the 0/2pi seam
        if len(out) > 1 and (out[0] + TWO_PI) - out[-1] <= ANGLE_TOL:
            out.pop()
        self.angles = tuple(out)

    def __iter__(self):
        return iter(self.angles)

    def __len__(self) -> int:
        return len(self.angles)

    def __getitem__(self, i):
        return self.angles[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, RaySet):
            return self.angles == other.angles
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.angles)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t:.12g}" for t in self.angles)
        return f"RaySet([{inner}])"

    def rotated(self, theta: float) -> "RaySet":
        return RaySet(t + theta for t in self.angles)


def minimal_cone(rays) -> Sector:
    """Smallest closed sector containing every ray of the set.

    The cone is the complement of the largest circular gap between
    consecutive ray angles. A single ray gives a degenerate sector of
    opening zero; if no gap wider than the angle tolerance survives the
    result covers the plane and carries the full_plane flag.
    """
    if not isinstance(rays, RaySet):
        rays = RaySet(rays)
    angs = rays.angles
    if not angs:
        raise EmptyRaySet("minimal_cone needs at least one ray")
    m = len(angs)
    if m == 1:
        return Sector(angs[0], 0.0)
    best_gap = -1.0
    best_i = 0
    for i in range(m):
        nxt = angs[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
        gap = nxt - angs[i]
        if gap > best_gap:
            best_gap = gap
            best_i = i
    if best_gap <= ANGLE_TOL:
        return Sector(angs[0], math.pi, full_plane=True)
    # covered arc runs ccw from the gap's far edge back to its near edge
    start = angs[(best_i + 1) % m]
    half = 0.5 * (TWO_PI - best_gap)
    return Sector(start + half, half)


def separated(s0: Sector, s1: Sector) -> bool:
    """True iff the two closed angular intervals are disjoint on the circle."""
    return (angle_distance(s0.bisector, s1.bisector)
            > s0.half_opening + s1.half_opening + ANGLE_TOL)


@dataclass(frozen=True)
class SectorReport:
    """Partition of a point list against a sector hypothesis at radius r0."""

    sector: Sector
    r0: float
    small: tuple          # |z| < r0
    inside: tuple         # |z| >= r0, inside the sector
    outside: tuple        # |z| >= r0, outside the sector
    holds: bool

    def to_dict(self) -> dict:
        enc = lambda zs: [[z.real, z.imag] for z in zs]
        return {"sector": self.sector.to_dict(), "r0": self.r0,
                "small": enc(self.small), "inside": enc(self.inside),
                "outside": enc(self.outside), "holds": self.holds}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def sector_report(points, s: Sector, r0: float) -> SectorReport:
    """Check "all points of modulus >= r0 lie in s" on a finite sample.

    Points inside the radius-r0 disk are set aside (the hypothesis only
    speaks about the tail); the claim holds iff no remaining point falls
    outside the sector.
    """
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    small: list[complex] = []
    inside: list[complex] = []
    outside: list[complex] = []
    for p in points:
        z = complex(p)
        if abs(z) < r0:
            small.append(z)
        elif s.contains(z):
            inside.append(z)
        else:
            outside.append(z)
    return SectorReport(s, float(r0), tuple(small), tuple(inside),
                        tuple(outside), not outside)
