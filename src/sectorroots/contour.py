"""Path integrals and winding numbers on axis-aligned boxes.

integrate_segments is an adaptive Gauss-Kronrod (7, 15) scheme that
integrates many straight segments at once, one array pass per refinement
round, and every segment integral of p exp(q) runs through it;
integrate_segment_err, its one-segment form, serves the kernel check.
Winding numbers are computed by tracking the continuous argument of f - a
along the box boundary, never by numerical integration of f'/(f - a), so
the count is an exact integer with a measurable phase defect. The same
walk gives, at no extra evaluation, the first power sums of the enclosed
zeros of f - a from its continuous logarithm, integrated edge by edge:
Simpson's rule on an edge that took its dyadic plan, the trapezoid rule on
one that bisected.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ToleranceNotMet
from .polyexp import ScaledComplex, _wrap_phase

# 15-point Kronrod nodes and weights with the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


# Kronrod and embedded Gauss weights as the two columns of one matrix, so
# one product gives both estimates for every panel of a pass
_W2 = np.zeros((15, 2), dtype=complex)
_W2[:, 0] = _WK
_W2[_GAUSS_IDX, 1] = _WG

# one ulp of a 15-point weighted sum, with headroom for the running totals
# that every split updates (children added, parent subtracted)
_ROUNDOFF = 5e-15
_MAX_PANELS = 4096
# splits a panel may come from before its segment fails
_MAX_DEPTH = 50
# panels evaluated per array pass; bounds the memory of long batches
_PASS_ROWS = 512


def _panels(g: Callable, z0: np.ndarray, delta: np.ndarray, seg, ts, half):
    """Kronrod estimates, error estimates and L1 magnitudes of panels.

    Row j is the panel of segment seg[j] (an index array, or a slice of the
    segments) at the parameters ts[j] (the 15 nodes in s) with half-width
    half[j]; ts and half may also be one row shared by all.
    """
    vals = g(z0[seg, None] + ts * delta[seg, None], seg)
    sums = vals @ _W2
    k = half * sums[:, 0]
    return k, np.abs(k - half * sums[:, 1]), half * (np.abs(vals) @ _WK)


def _child_panels(g: Callable, z0: np.ndarray, delta: np.ndarray,
                  seg: np.ndarray, mids: np.ndarray, halves: np.ndarray):
    """_panels for the panels of segments seg (an index array) with centres
    mids and half-widths halves, in passes of at most _PASS_ROWS panels."""
    out = [_panels(g, z0, delta, seg[rows],
                   mids[rows, None] + halves[rows, None] * _XK, halves[rows])
           for rows in (slice(lo, lo + _PASS_ROWS)
                        for lo in range(0, len(seg), _PASS_ROWS))]
    return out[0] if len(out) == 1 else tuple(
        np.concatenate(x) for x in zip(*out))


# the 15 nodes of the first panel, s in [0, 1]
_TS0 = 0.5 + 0.5 * _XK


def integrate_segments(g: Callable, z0: np.ndarray, delta: np.ndarray,
                       tol: float, noise: np.ndarray):
    """Adaptive GK(7, 15) integrals along k straight segments at once.

    Segment i runs from z0[i] to z0[i] + delta[i]. g(z, seg) receives an
    array of points, one row of 15 per panel, with seg selecting the
    segment of each row (an index array or a slice), and returns the
    integrand there. All first panels are evaluated in one pass; after that
    only segments whose summed error estimate exceeds
    tol * (1 + |I|) + noise[i] * L1 are refined, in groups of at most
    _PASS_ROWS, each round splitting the worst panel of every such segment
    and evaluating all the children in one pass (_refine_segments). Per
    segment this is the same worst-first refinement, with the same panel
    budget (_MAX_PANELS) and depth limit (_MAX_DEPTH), as a segment
    integrated alone. noise[i] (at least _ROUNDOFF) is the relative noise
    of segment i's samples; a segment stalls at that floor, which is
    attained accuracy, not failure.

    Returns (values, bounds, failures): the integrals, their absolute error
    bounds, and a dict mapping the index of every segment that ran out of
    panels or depth to its ToleranceNotMet (its value and bound are then
    meaningless).
    """
    k = len(z0)
    noise = np.maximum(noise, _ROUNDOFF)
    if k <= _PASS_ROWS:
        total, total_err, total_l1 = _panels(g, z0, delta, slice(None),
                                             _TS0, 0.5)
    else:
        total, total_err, total_l1 = (np.concatenate(x) for x in zip(*(
            _panels(g, z0, delta, slice(lo, lo + _PASS_ROWS), _TS0, 0.5)
            for lo in range(0, k, _PASS_ROWS))))
    todo = (total_err > tol * (1.0 + np.abs(total))
            + noise * total_l1).nonzero()[0]
    failures: dict[int, ToleranceNotMet] = {}
    # each segment's refinement is independent of the others, so taking
    # the failing segments in groups only bounds the panels held at once
    for lo in range(0, len(todo), _PASS_ROWS):
        _refine_segments(g, z0, delta, tol, noise, todo[lo:lo + _PASS_ROWS],
                         total, total_err, total_l1, failures)
    return (total * delta, (total_err + noise * total_l1) * np.abs(delta),
            failures)


def _refine_segments(g, z0, delta, tol, noise, todo, total, total_err,
                     total_l1, failures):
    """Worst-first refinement of the segments in todo, updating the total
    arrays in place and recording failures. Heap entries and the checks
    between rounds are those of a one-segment adaptive scheme."""
    todo = todo.tolist()
    val = {i: complex(total[i]) for i in todo}
    err = {i: float(total_err[i]) for i in todo}
    l1 = {i: float(total_l1[i]) for i in todo}
    heaps = {i: [(-err[i], 0, 0.0, 1.0, 0, val[i], l1[i])] for i in todo}
    counter = dict.fromkeys(todo, 1)
    while todo:
        popped = []
        seg = []
        mids = []
        halves = []
        for i in todo:
            if counter[i] >= _MAX_PANELS:
                failures[i] = ToleranceNotMet(
                    f"segment quadrature: {_MAX_PANELS} panels exhausted, "
                    f"error {err[i]:.3e}")
                continue
            item = heapq.heappop(heaps[i])
            if item[4] >= _MAX_DEPTH:
                failures[i] = ToleranceNotMet(
                    f"segment quadrature: depth {_MAX_DEPTH} reached, error "
                    f"{err[i]:.3e} vs target {tol * (1 + abs(val[i])):.3e}")
                continue
            a, b = item[2], item[3]
            mid = 0.5 * (a + b)
            popped.append((i, mid, item))
            seg += (i, i)
            mids += (0.5 * (a + mid), 0.5 * (mid + b))
            halves += (0.5 * (mid - a), 0.5 * (b - mid))
        if not popped:
            break
        kv, ke, kl = (x.tolist() for x in _child_panels(
            g, z0, delta, np.array(seg), np.array(mids), np.array(halves)))
        todo = []
        for j, (i, mid, (neg_err, _, a, b, depth, v, vl1)) in enumerate(popped):
            v1, v2 = kv[2 * j], kv[2 * j + 1]
            e1, e2 = ke[2 * j], ke[2 * j + 1]
            l11, l12 = kl[2 * j], kl[2 * j + 1]
            val[i] += (v1 + v2) - v
            err[i] += (e1 + e2) - (-neg_err)
            l1[i] += (l11 + l12) - vl1
            c = counter[i]
            heapq.heappush(heaps[i], (-e1, c, a, mid, depth + 1, v1, l11))
            heapq.heappush(heaps[i], (-e2, c + 1, mid, b, depth + 1, v2, l12))
            counter[i] = c + 2
            if err[i] > tol * (1.0 + abs(val[i])) + noise[i] * l1[i]:
                todo.append(i)
    for i in val:
        total[i] = val[i]
        total_err[i] = err[i]
        total_l1[i] = l1[i]


def integrate_segment_err(g: Callable, z0: complex, z1: complex,
                          tol: float = 1e-12) -> tuple[complex, float]:
    """Adaptive integral of g along [z0, z1] plus its absolute error bound.

    g must accept a one-dimensional numpy array of points. This is
    integrate_segments with k = 1 and the noise floor _ROUNDOFF; it raises
    the segment's ToleranceNotMet when the panel budget or the depth limit
    runs out.
    """
    z0 = complex(z0)
    delta = complex(z1) - z0
    if delta == 0:
        return 0j, 0.0

    def rows(z, seg):
        return np.asarray(g(z.ravel()), dtype=complex).reshape(z.shape)

    vals, bounds, failures = integrate_segments(
        rows, np.array([z0]), np.array([delta]), tol, np.array([_ROUNDOFF]))
    if failures:
        raise failures[0]
    return complex(vals[0]), float(bounds[0])


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("box must have positive width and height")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def corners(self) -> list[complex]:
        """Counterclockwise from the lower-left corner."""
        return [complex(self.x0, self.y0), complex(self.x1, self.y0),
                complex(self.x1, self.y1), complex(self.x0, self.y1)]

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (self.x0 - pad <= z.real <= self.x1 + pad
                and self.y0 - pad <= z.imag <= self.y1 + pad)

    def split(self, cross: complex | None = None) -> list["Box"]:
        """Four children sharing the crosshair point (default: center)."""
        c = self.center if cross is None else complex(cross)
        cx, cy = c.real, c.imag
        if not (self.x0 < cx < self.x1 and self.y0 < cy < self.y1):
            raise ValueError("crosshair outside the box interior")
        return [Box(self.x0, self.y0, cx, cy), Box(cx, self.y0, self.x1, cy),
                Box(self.x0, cy, cx, self.y1), Box(cx, cy, self.x1, self.y1)]

    def expanded(self, frac: float) -> "Box":
        dx = frac * self.width
        dy = frac * self.height
        return Box(self.x0 - dx, self.y0 - dy, self.x1 + dx, self.y1 + dy)


@dataclass(frozen=True)
class WindingResult:
    """Integer count, the raw (unrounded) winding value, the defect, the
    walk's estimate of the sum of the enclosed zeros of f - a, and their
    centred power sums s_1 .. s_min(count, 6) (see winding_count)."""

    count: int
    raw: complex
    roundoff: float
    root_sum: complex
    power_sums: tuple = ()


_PHASE_STEP = 0.5 * math.pi
_MAX_BISECT = 42
# power sums a walk returns, at most: s_1 .. s_min(count, _POWER_SUMS)
_POWER_SUMS = 6


@dataclass
class PathSample:
    """One boundary point: w = f - a in scaled form with the log of its
    absolute error bound. A walk takes samples in runs (z, v): points and
    a (3, k) array of their log|w|, arg w and error logs."""

    z: complex
    w: ScaledComplex
    err_log: float

    @classmethod
    def of_run(cls, z, v, i: int) -> "PathSample":
        """Sample i of the run (z, v)."""
        return cls(complex(z[i]), ScaledComplex(*v[:2, i].tolist()),
                   float(v[2, i]))

    def run(self) -> tuple:
        """The run of this sample alone."""
        return (np.array([self.z]),
                np.array([[self.w.logmag], [self.w.phase], [self.err_log]]))


def _refine(pathval, s0, s1, depth: int, zs: list, steps: list) -> None:
    """The phase steps from s0 to s1, bisected until each moves the
    argument by less than pi/2. For every sample the accepted steps end
    on, in walk order and s1 last, appends its z to zs and
    complex(log|w|, phase change) to steps, as scalars."""
    dphi = _wrap_phase(s1.w.phase - s0.w.phase)
    if abs(dphi) < _PHASE_STEP:
        zs.append(s1.z)
        steps.append(complex(s1.w.logmag, dphi))
        return
    if depth >= _MAX_BISECT:
        raise ToleranceNotMet("phase step would not settle under bisection")
    zm = 0.5 * (s0.z + s1.z)
    sm = PathSample.of_run(*next(pathval.extend(s0, [zm])), 0)
    _refine(pathval, s0, sm, depth + 1, zs, steps)
    _refine(pathval, sm, s1, depth + 1, zs, steps)


def _run_steps(pathval, prev, z, v, zs: list, steps: list) -> PathSample:
    """The phase steps of the run (z, v) after the sample prev, by one diff,
    appended to zs and steps in walk order: those under pi/2 as slices, the
    others bisected by _refine. Returns the run's last sample."""
    if len(z) == 1:
        last = PathSample.of_run(z, v, 0)
        _refine(pathval, prev, last, 0, zs, steps)
        return last
    dphi = v[1] - np.concatenate(([prev.w.phase], v[1, :-1]))
    # _wrap_phase on every step: fmod has the same bits as math.fmod
    np.fmod(dphi, 2.0 * math.pi, out=dphi)
    dphi[dphi > math.pi] -= 2.0 * math.pi
    dphi[dphi <= -math.pi] += 2.0 * math.pi
    step = v[0].astype(complex)
    step.imag = dphi
    lo = 0
    for i in np.flatnonzero(~(np.abs(dphi) < _PHASE_STEP)).tolist():
        zs.append(z[lo:i])
        steps.append(step[lo:i])
        _refine(pathval, prev if i == 0 else PathSample.of_run(z, v, i - 1),
                PathSample.of_run(z, v, i), 0, zs, steps)
        lo = i + 1
    zs.append(z[lo:])
    steps.append(step[lo:])
    return PathSample.of_run(z, v, len(z) - 1)


def _trapezoid(half: np.ndarray) -> np.ndarray:
    """The trapezoid rule's weights on the ends of steps whose halves are
    half: weight * g summed is the rule's integral of g."""
    weight = np.zeros(len(half) + 1, dtype=half.dtype)
    weight[:-1] = half
    weight[1:] += half
    return weight


def _power_sums(box: Box, first, z: np.ndarray, walk: np.ndarray,
                count: int, edges) -> tuple:
    """s_k = count u_s^k - (k / 2 pi i) oint u^(k-1) L du, k = 1 ..
    min(count, _POWER_SUMS), over the walk's samples z, its start first
    included, with walk the steps after it (_refine): u = (z - c) / rho
    with c the box centre and rho its half-diagonal, u_s the walk's start,
    and L = log|w| + i arg w continuous, taken relative to its value at
    the start.

    edges holds (start, steps) for each edge in walk order: the index in z
    of its first sample and the steps of its plan. Each edge is integrated
    on its own: by Simpson's rule, the trapezoid sums at h and 2h combined
    by Richardson, when it took exactly the steps of its plan, and by the
    trapezoid rule when a bisection midpoint made its steps unequal."""
    c, rho = box.center, 0.5 * box.diameter
    u = (z - c) / rho
    L = np.empty_like(u)
    L[0] = 0.0
    L[1:] = walk.real - first.w.logmag
    L[1:] += 1j * np.cumsum(walk.imag)
    # oint g du = sum(weight * g): the trapezoid rule T_h on every step,
    # then (T_h - T_2h) / 3 on every edge that kept its plan, T_2h the
    # trapezoid rule on every other sample of the edge
    half = 0.5 * np.diff(u)
    weight = _trapezoid(half)
    ends = [s for s, _ in edges[1:]] + [len(u) - 1]
    for (s, steps), e in zip(edges, ends):
        if e - s == steps:
            h = half[s:e]
            fix = _trapezoid(h)
            fix[::2] -= _trapezoid(h[0::2] + h[1::2])
            weight[s:e + 1] += fix / 3.0
    term = L * weight
    sums = []
    for k in range(1, min(count, _POWER_SUMS) + 1):
        oint = complex(term.sum())
        sums.append(complex(count * u[0] ** k - k * oint / (2j * math.pi)))
        term = term * u
    return tuple(sums)


def edge_reversed(z0: complex, z1: complex) -> bool:
    """True when the walk z0 -> z1 runs against its edge's canonical
    orientation, which starts from the endpoint smaller by (real, imag)."""
    return (z1.real, z1.imag) < (z0.real, z0.imag)


def dyadic_steps(n: int) -> int:
    """The steps of an edge plan asked for n: the least power of two that
    is at least n, and at least 2, so a plan is never sparser than its
    swing bound asks."""
    return 1 << (max(n, 2) - 1).bit_length()


def edge_points(z0: complex, z1: complex, n: int) -> np.ndarray:
    """The samples of a walk along the axis-aligned edge z0 -> z1 after
    z0, as an array: the points of dyadic_steps(n) equal steps, the last
    of them exactly z1.

    Each point is the midpoint 0.5 (a + b) of the two points of the plan
    one level coarser that it lies between, coordinate by coordinate: the
    formula of Box.center. The walk z1 -> z0 therefore visits exactly the
    same points in reverse, bit for bit, and the plan of 2^k steps to a
    box's centre coordinate is the first half of the plan of 2^(k+1)
    steps along the box's edge, so a centre split's children walk points
    of their parent's plans.
    """
    steps = dyadic_steps(n)
    pts = np.empty(steps + 1, dtype=complex)
    pts[0], pts[-1] = z0, z1
    # an axis-aligned edge: one coordinate is halved, the other constant
    along, across = ((pts.real, pts.imag) if z0.imag == z1.imag
                     else (pts.imag, pts.real))
    across[1:-1] = across[0]
    h = steps
    while h > 1:
        mid = along[h // 2::h]
        np.add(along[:-1:h], along[h::h], out=mid)
        mid *= 0.5
        h //= 2
    return pts[1:]


def winding_count(pathval, box: Box) -> WindingResult:
    """Winding number of f - a around 0 along the box boundary (ccw).

    pathval provides start/extend evaluation of w = f - a in scaled form and
    raises BoundaryTooClose itself when a sample fails the headroom rule
    (w = 0, or |w| under 1e4 times its error bound); a sample that clears
    it has a correct phase however small |w| is.
    Each edge is announced by min_samples(z_from, z_to), then walked by
    one extend(prev, edge_points(z_from, z_to, n)) call (all points but the
    last on the edge that closes the loop); the walk takes every step of a
    run (_run_steps) before it pulls the next, and a bisection midpoint zm
    after s0 is extend(s0, [zm]). The plan is dyadic: an edge that two
    boxes share is walked through the same points both ways when
    min_samples gives the same n both ways, and a half of it, cut at its
    box's centre coordinate, through every other point of the edge's
    plan, so a path evaluator can serve them from the samples of an
    earlier walk.

    The walk also gives the power sums of the zeros of w inside the box
    (Delves & Lyness, Math. Comp. 21 (1967) 543-560). In the centred,
    scaled variable u = (z - c) / rho, with c the box centre and rho its
    half-diagonal, integrating s_k = (1/2 pi i) oint u^k w'/w dz by parts
    gives s_k = count * u_s^k - (k/2 pi i) oint u^(k-1) L du, where
    L = log|w| + i arg w is continuous along the walk and u_s is the corner
    the walk starts from. The walk notes where each edge's samples start,
    and takes each integral edge by edge over the samples it visits
    (_power_sums): by Simpson's rule, the trapezoid sums of the edge's
    dyadic plan at h and 2h combined by Richardson, on an edge that took
    exactly its plan, and by the trapezoid rule, bisection midpoints
    included, on an edge that bisected. The sums need no evaluation beyond
    the count. power_sums holds s_1 .. s_min(count, 6), and root_sum =
    count * c + rho * s_1 estimates the sum of the enclosed zeros (0 when
    there are none).
    """
    corners = box.corners()
    first = pathval.start(corners[0])
    zs: list = [first.z]
    steps: list = []
    # (index in the walk of its first sample, steps of its plan) per edge
    edges = []
    prev = first
    for i in range(4):
        z_from = corners[i]
        z_to = corners[(i + 1) % 4]
        pts = edge_points(z_from, z_to, pathval.min_samples(z_from, z_to))
        edges.append((sum(map(np.size, zs)) - 1, len(pts)))
        # the last edge closes the loop on the exact starting sample
        for z, v in pathval.extend(prev, pts[:-1] if i == 3 else pts):
            prev = _run_steps(pathval, prev, z, v, zs, steps)
    _refine(pathval, prev, first, 0, zs, steps)
    walk = np.hstack(steps)
    raw = float(walk.imag.sum()) / (2.0 * math.pi)
    count = int(round(raw))
    roundoff = abs(raw - count)
    if roundoff > 0.25 or count < 0:
        raise ToleranceNotMet(
            f"winding phase defect {roundoff:.3f} too large (raw {raw:.6f})")
    sums = (_power_sums(box, first, np.hstack(zs), walk, count, edges)
            if count else ())
    root_sum = (count * box.center + 0.5 * box.diameter * sums[0]
                if sums else 0j)
    return WindingResult(count=count, raw=complex(raw), roundoff=roundoff,
                         root_sum=root_sum, power_sums=sums)
