"""Closed sectors and ray sets on the circle of directions.

A sector is stored as (bisector, half_opening); membership is closed, so
boundary rays count as inside, and the origin belongs to every sector.
Angular comparisons use an absolute tolerance of 1e-12 throughout.

The ray-set and cone rules (sort, deduplicate, drop the seam alias, take
the complement of the largest gap) live in one array core, cone_rows,
which handles many ray sets of wrapped angles at once; RaySet and
minimal_cone are its one-row uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise, by the same IEEE operations (np.fmod is the
    exact remainder that math.fmod is)."""
    t = np.fmod(theta, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    return np.where(t >= TWO_PI, 0.0, t)


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

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if z == 0:
            return True
        return (angle_distance(math.atan2(z.imag, z.real), self.bisector)
                <= self.half_opening + ANGLE_TOL)

    def to_dict(self) -> dict:
        return {"bisector": self.bisector, "half_opening": self.half_opening}


class ConeRows(NamedTuple):
    """Ray sets and their minimal cones, one row per set.

    rays holds each row's distinct directions sorted in [0, 2pi) in its
    first count entries and NaN after them. bisector and half_opening
    describe the minimal cone (NaN for an empty row); full_plane marks a
    row whose rays left no gap wider than ANGLE_TOL.
    """

    rays: np.ndarray
    count: np.ndarray
    bisector: np.ndarray
    half_opening: np.ndarray
    full_plane: np.ndarray

    def ray_set(self, i: int) -> "RaySet":
        # row i is deduplicated already; RaySet() would do it again
        out = RaySet.__new__(RaySet)
        out.angles = tuple(self.rays[i, :self.count[i]].tolist())
        return out

    def sector(self, i: int) -> "Sector | None":
        if self.count[i] == 0:
            return None
        return Sector(float(self.bisector[i]), float(self.half_opening[i]),
                      bool(self.full_plane[i]))


def cone_rows(angles: np.ndarray) -> ConeRows:
    """Deduplicated ray sets and minimal cones of the rows of angles.

    angles is (rows, m), wrapped to [0, 2pi) (wrap_angles), with NaN
    marking an absent ray. Each row is sorted; a ray is kept when it lies
    more than ANGLE_TOL past the last kept one, and the last kept ray is
    dropped when it aliases the first across the 0/2pi seam. The cone is the
    complement of the largest circular gap between consecutive rays (the
    first one on ties): a single ray gives opening zero, and a row whose
    widest gap is within ANGLE_TOL covers the plane.
    """
    a = np.sort(angles, axis=1, kind="stable")
    if a.shape[1] == 0:
        # give the empty sets one absent ray, so every row has a column 0
        a = np.full((len(a), 1), math.nan)
    n = len(a)
    rows = np.arange(n)
    # keep[j] compares with the largest kept ray before j; starting from
    # "keep every ray", each round fixes at least one more leading column,
    # and the first round that changes nothing has reached the one
    # left-to-right solution (two rounds unless near-duplicates chain)
    keep = ~np.isnan(a)
    head = np.full((n, 1), -math.inf)
    while True:
        kept = np.maximum.accumulate(np.where(keep, a, -math.inf), axis=1)
        step = a - np.concatenate([head, kept[:, :-1]], axis=1) > ANGLE_TOL
        if np.array_equal(step, keep):
            break
        keep = step
    # kept rays move to the front of their row, still in order
    a = np.sort(np.where(keep, a, math.nan), axis=1, kind="stable")
    count = keep.sum(axis=1)
    top = np.maximum(count - 1, 0)
    seam = (count > 1) & ((a[:, 0] + TWO_PI) - a[rows, top] <= ANGLE_TOL)
    a[rows[seam], top[seam]] = math.nan
    count = count - seam
    top = np.maximum(count - 1, 0)
    # gap i runs from ray i to ray i + 1; the last one wraps to ray 0
    gaps = np.concatenate([a[:, 1:] - a[:, :-1], head], axis=1)
    gaps = np.where(np.isnan(gaps), -math.inf, gaps)
    gaps[rows, top] = (a[:, 0] + TWO_PI) - a[rows, top]
    best = np.argmax(gaps, axis=1)
    best_gap = gaps[rows, best]
    # the covered arc runs ccw from the gap's far edge back to its near edge
    start = a[rows, (best + 1) % np.maximum(count, 1)]
    half = 0.5 * (TWO_PI - best_gap)
    bisector = wrap_angles(start + half)
    half = np.minimum(np.maximum(half, 0.0), math.pi)
    full = (count > 1) & (best_gap <= ANGLE_TOL)
    single = count == 1
    bisector = np.where(single | full, a[:, 0], bisector)
    half = np.where(single, 0.0, np.where(full, math.pi, half))
    empty = count == 0
    return ConeRows(a, count, np.where(empty, math.nan, bisector),
                    np.where(empty, math.nan, half), full)


def bisector_distance(b0, b1):
    """angle_distance of directions already in [0, 2pi), elementwise."""
    d = np.abs(b0 - b1)
    return np.minimum(d, TWO_PI - d)


def separated_rows(b0, h0, b1, h1):
    """separated() elementwise on (bisector, half_opening) arrays."""
    return bisector_distance(b0, b1) > h0 + h1 + ANGLE_TOL


class RaySet:
    """Sorted distinct ray directions in [0, 2pi), deduplicated to 1e-12
    by the rule of cone_rows; angles must be finite."""

    __slots__ = ("angles",)

    def __init__(self, angles):
        row = np.array([[float(t) for t in angles]], dtype=np.float64)
        if not np.isfinite(row).all():
            raise ValueError("ray angles must be finite")
        self.angles = cone_rows(wrap_angles(row)).ray_set(0).angles

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


def minimal_cone(rays) -> Sector:
    """Smallest closed sector containing every ray of the set.

    The cone is the complement of the largest circular gap between
    consecutive ray angles. A single ray gives a degenerate sector of
    opening zero; if no gap wider than the angle tolerance survives the
    result covers the plane and carries the full_plane flag.
    """
    if not isinstance(rays, RaySet):
        rays = RaySet(rays)
    if not rays.angles:
        raise EmptyRaySet("minimal_cone needs at least one ray")
    return cone_rows(np.array([rays.angles])).sector(0)


def separated(s0: Sector, s1: Sector) -> bool:
    """True iff the two closed angular intervals are disjoint on the circle."""
    return bool(separated_rows(s0.bisector, s0.half_opening,
                               s1.bisector, s1.half_opening))


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
