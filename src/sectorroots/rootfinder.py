"""a-point location by winding-count subdivision and Newton refinement.

The search walks the argument of f - a around box boundaries to count
enclosed a-points, splits any box holding more than one (or larger than the
isolation size) on a quadtree, and polishes each isolated root by Newton's
method with the exact derivative p e^q. Winding counts certify completeness:
the multiplicities returned sum to the winding number of the whole region.

Newton starts from the root moment of the walk that counted the box: for a
box that winds once, contour.winding_count's root_sum estimates the
enclosed root from the continuous logarithm of f - a the walk already
carries. The search keeps that estimate until the box is isolated, and
starts from the box centre when the estimate lies outside the box.

Boxes whose entire boundary lies beyond the overflow guard in a growth
sector are not searched; they are reported as clipped in the result so the
omission is visible. Boundary walks that pass too close to an a-point are
retried with the box (or the subdivision crosshair) jittered by about one
percent of the side length, five times, before the failure propagates.

Every walk of one search (one model, one target) goes through one shared
memo, _SharedWalk. Sibling boxes walk their common crosshair spokes in
opposite directions, and neighbouring boxes share corners; the memo serves
an edge's samples to the second walk along it, in reverse, and a corner's
sample to every later walk that starts or arrives there. The memo lives as
long as the search and is dropped with it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import DegreeZero
from .contour import Box, edge_points, edge_reversed, winding_count
from .errors import (BoundaryTooClose, DerivativeVanishes, NoConvergence,
                     ToleranceNotMet)
from .funcmodel import PathSample, PolyExpRootModel
from .polyexp import (OVERFLOW_LOG, Polynomial, PolyExpFunction,
                      ScaledComplex, segments_re_q_max)

# stop subdividing an isolated root below this box diameter
_DIAM_STOP = 1e-3
_DEPTH_MAX = 40
# crosshair / boundary offsets tried on BoundaryTooClose, in units of the
# box side; first entry is the unperturbed attempt
_JITTER = ((0.0, 0.0), (0.0071, -0.0043), (-0.0062, 0.0087),
           (0.0094, 0.0052), (-0.0049, -0.0091), (0.0036, 0.0098))
# relative gap under which two moduli count as equal in the listed order
_MODULUS_TIE = 1e-12


@dataclass(frozen=True)
class RootRecord:
    """One located a-point with its isolating certificate."""

    location: complex
    target: complex
    residual: float
    multiplicity: int
    box_certificate: Box
    cluster: bool = False


def sort_records(records) -> list[RootRecord]:
    """Records by ascending |z|, and by arg in [0, 2 pi) among moduli tied
    to a relative 1e-12.

    The moduli of a conjugate pair differ by rounding only, so ordering
    them by |z| alone would list the pair in an order set by the last bit.
    """
    out: list[RootRecord] = []
    tied: list[RootRecord] = []
    for rec in sorted(records, key=lambda r: abs(r.location)):
        r = abs(rec.location)
        if tied and r - abs(tied[-1].location) > _MODULUS_TIE * r:
            out.extend(sorted(tied, key=_arg_key))
            tied = []
        tied.append(rec)
    out.extend(sorted(tied, key=_arg_key))
    return out


def _arg_key(rec: RootRecord) -> float:
    z = rec.location
    return math.atan2(z.imag, z.real) % (2.0 * math.pi)


@dataclass
class SearchResult:
    """Roots found in a region plus the metadata needed to audit the run.

    Iterates as a plain sequence of RootRecord. winding_total is the count
    over the searched boundary; clipped lists sub-boxes skipped because
    their boundary lies entirely beyond the overflow guard.
    """

    records: list[RootRecord]
    target: complex
    region: Box
    searched: Box
    winding_total: int
    clipped: list[Box] = field(default_factory=list)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.records)

    def to_csv(self, path: str | None = None) -> str:
        text = roots_to_csv(self.records)
        if path is not None:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        return text


def roots_to_csv(records) -> str:
    buf = io.StringIO()
    buf.write("re,im,target_re,target_im,residual,multiplicity\n")
    for r in records:
        buf.write("%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (
            r.location.real, r.location.imag, r.target.real, r.target.imag,
            r.residual, r.multiplicity))
    return buf.getvalue()


def _boundary_min_re_q(q: Polynomial, box: Box) -> float:
    """Exact minimum of Re q over the four box edges."""
    neg = Polynomial(tuple(-c for c in q.coeffs))
    corners = box.corners()
    return -float(segments_re_q_max(neg, corners, corners[1:] + corners[:1]).max())


def _overflow_clipped(model, box: Box) -> bool:
    """True when every f on the box boundary overflows past rescue.

    Only polyexp-backed models can overflow; other models (canonical
    products and the like) never clip.
    """
    F = getattr(model, "F", None)
    if F is None:
        return False
    return _boundary_min_re_q(F.q, box) > OVERFLOW_LOG - 10.0


class _SharedWalk:
    """Path evaluator for every walk of one search: serves the edges and
    corners that an earlier walk of the search evaluated, and passes every
    other sample to inner, the model's path evaluator for the target.

    edges maps the canonical endpoints of an edge (contour.edge_reversed)
    to (n, samples): n is what min_samples gave for it, and samples is a
    (3, n - 1) array of log|w|, arg w and error log at its interior points
    in canonical order. An edge is stored once its walk has returned its
    last interior sample, so a walk that raises partway stores nothing for
    that edge. An edge borders at most two boxes of the quadtree, so its
    entry is popped when it is served. corners maps a point to the sample a
    walk started at or ended an edge on. Bisection midpoints always go to
    inner.
    """

    def __init__(self, inner):
        self.inner = inner
        self.edges: dict = {}
        self.corners: dict = {}
        # the edge being walked: its planned points, the index of the next
        # one, its key and n, whether the walk runs against the canonical
        # orientation, and the samples served (walk order) or returned
        self._pts: list[complex] = []
        self._next = 0
        self._key = None
        self._n = 0
        self._flip = False
        self._served = None
        self._walked: list[PathSample] = []

    def start(self, z: complex) -> PathSample:
        s = self.corners.get(z)
        if s is None:
            s = self.corners[z] = self.inner.start(z)
        return s

    def min_samples(self, z0: complex, z1: complex) -> int:
        flip = edge_reversed(z0, z1)
        key = (z1, z0) if flip else (z0, z1)
        hit = self.edges.pop(key, None)
        if hit is None:
            n = self.inner.min_samples(z0, z1)
            self._served = None
            self._walked = []
        else:
            n, samples = hit
            self._served = (samples[:, ::-1] if flip else samples).tolist()
        self._pts = edge_points(z0, z1, n)
        self._next = 0
        self._key, self._n, self._flip = key, n, flip
        return n

    def extend(self, prev: PathSample, z: complex) -> PathSample:
        k = self._next
        pts = self._pts
        if k >= len(pts) or z != pts[k]:
            return self.inner.extend(prev, z)
        self._next = k + 1
        if k == len(pts) - 1:
            s = self.corners.get(z)
            if s is None:
                s = self.corners[z] = self.inner.extend(prev, z)
            return s
        served = self._served
        if served is not None:
            return PathSample(z, ScaledComplex(served[0][k], served[1][k]),
                              served[2][k])
        s = self.inner.extend(prev, z)
        self._walked.append(s)
        if k == len(pts) - 2:
            self._store()
        return s

    def _store(self) -> None:
        samples = np.array([(s.w.logmag, s.w.phase, s.err_log)
                            for s in self._walked]).T
        self.edges[self._key] = (self._n,
                                 samples[:, ::-1] if self._flip else samples)


class _Search:
    """Recursive winding subdivision over any model exposing the sample
    protocol (path_evaluator/diff_sample/diff_near/diff_scaled/
    derivative_scaled/min_samples). Its walks share one _SharedWalk."""

    def __init__(self, model, a: complex, tol: float):
        self.model = model
        self.a = a
        self.tol = tol
        self.clipped: list[Box] = []
        self.path = _SharedWalk(model.path_evaluator(a))
        # the walk's root estimate of every box that wound once and is not
        # yet isolated (contour.WindingResult.root_sum)
        self.guesses: dict[Box, complex] = {}

    def wind(self, box: Box) -> int:
        result = winding_count(self.path, box)
        if result.count == 1:
            self.guesses[box] = result.root_sum
        return result.count

    def descend(self, box: Box, count: int, depth: int) -> list[RootRecord]:
        if count == 0:
            return []
        if depth >= _DEPTH_MAX:
            return [self._cluster(box, count)]
        if count == 1:
            rec = self._isolate(box)
            if rec is not None:
                return [rec]
            if box.diameter <= _DIAM_STOP:
                return [self._polish(box, count)]
        try:
            children, counts = self._split(box, count)
        except BoundaryTooClose:
            if box.diameter > _DIAM_STOP:
                raise
            # multiple root: every jittered cut passes through the flat
            # patch where |f - a| sits below the proximity floor, so no
            # finer certificate exists; report the cell at the stop scale
            return [self._polish(box, count)]
        out: list[RootRecord] = []
        for ch, c in zip(children, counts):
            if c > 0:
                out.extend(self.descend(ch, c, depth + 1))
        return out

    def _split(self, box: Box, count: int):
        last: Exception | None = None
        for dx, dy in _JITTER:
            cross = complex(box.center.real + dx * box.width,
                            box.center.imag + dy * box.height)
            children = box.split(cross)
            skipped: list[Box] = []
            try:
                counts = []
                for ch in children:
                    if _overflow_clipped(self.model, ch):
                        skipped.append(ch)
                        counts.append(0)
                    else:
                        counts.append(self.wind(ch))
                if sum(counts) != count and not skipped:
                    raise ToleranceNotMet(
                        f"child winding sum {sum(counts)} != parent {count} "
                        f"in {box}")
            except (BoundaryTooClose, ToleranceNotMet) as exc:
                last = exc
                # these children are dropped with their estimates
                for ch in children:
                    self.guesses.pop(ch, None)
                continue
            self.clipped.extend(skipped)
            return children, counts
        raise BoundaryTooClose(
            f"subdivision of {box} failed after {len(_JITTER) - 1} jitter "
            f"retries: {last}")

    def _isolate(self, box: Box) -> RootRecord | None:
        """Newton from the root moment of the walk, else the centre, of a
        winding-1 box, certified by a small winding box around the refined
        point. None falls back to splitting."""
        guess = self.guesses.pop(box, None)
        if guess is None or not box.contains(guess):
            guess = box.center
        try:
            z, res = _newton(self.model, self.a, guess, self.tol, maxit=24)
        except (NoConvergence, DerivativeVanishes, BoundaryTooClose,
                ToleranceNotMet):
            return None
        margin = 1e-9 * (1.0 + box.diameter)
        if not (box.x0 + margin < z.real < box.x1 - margin
                and box.y0 + margin < z.imag < box.y1 - margin):
            # converged outside (or on the skin of) this box: not our root
            return None
        side = _DIAM_STOP / (2.0 * math.sqrt(2.0)) * 0.9
        for dx, dy in _JITTER:
            cert = Box(z.real - side + dx * side, z.imag - side + dy * side,
                       z.real + side + dx * side, z.imag + side + dy * side)
            try:
                if winding_count(self.path, cert).count == 1:
                    return RootRecord(z, self.a, res, 1, cert)
            except (BoundaryTooClose, ToleranceNotMet):
                continue
        return None

    def _polish(self, box: Box, count: int) -> RootRecord:
        try:
            z, res = _newton(self.model, self.a, box.center, self.tol)
        except (NoConvergence, DerivativeVanishes):
            return self._cluster(box, count)
        if not box.contains(z, pad=box.diameter):
            # Newton escaped the certificate; fall back to the box center
            return self._cluster(box, count)
        return RootRecord(z, self.a, res, count, box)

    def _cluster(self, box: Box, count: int) -> RootRecord:
        z = box.center
        res = self.model.diff_scaled(z, self.a).abs_value()
        return RootRecord(z, self.a, res, count, box, cluster=True)


def _newton(model, a: complex, z0: complex, tol: float,
            maxit: int = 50) -> tuple[complex, float]:
    """Newton iteration for f(z) = a from z0. Returns (root, residual).

    Each iterate takes f - a from the previous one by model.diff_near when
    that value clears the walk's headroom rule and stays above the goal;
    otherwise, and for the first iterate, from model.diff_sample. Every
    convergence test, the polishing step and the returned residual
    therefore use diff_sample's value, the same as diff_scaled.
    """
    z = complex(z0)
    goal = tol * (1.0 + abs(a))
    leash = 1e3 * (1.0 + abs(z0))
    best_res = math.inf
    held = None
    for _ in range(maxit):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > leash:
            raise NoConvergence(f"iteration escaped to {z} from seed {z0}")
        s = None if held is None else model.diff_near(held, z)
        if s is None or s.w.abs_value() <= goal:
            s = model.diff_sample(z, a)
        w = s.w
        res = w.abs_value()
        if res <= goal:
            # one polishing step for the quadratic gain, kept only if better
            fp = model.derivative_scaled(z)
            if not fp.is_zero and fp.logmag >= -OVERFLOW_LOG:
                z2 = z - w.div(fp).to_complex()
                res2 = model.diff_scaled(z2, a).abs_value()
                if res2 < res:
                    return z2, res2
            return z, res
        fp = model.derivative_scaled(z)
        if fp.is_zero or fp.logmag < -OVERFLOW_LOG:
            raise DerivativeVanishes(f"|f'| vanishes near {z}")
        step = w.div(fp).to_complex()
        cap = 0.5 * (1.0 + abs(z))
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            raise NoConvergence(f"non-finite step at {z}")
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
        held = s
        best_res = min(best_res, res)
    raise NoConvergence(
        f"no root to residual {goal:.2e} within {maxit} iterations from {z0}; "
        f"best |f-a| = {best_res:.2e}")


def _build_model(F: PolyExpFunction, data=None) -> PolyExpRootModel:
    model = PolyExpRootModel(F, data=data)
    if data is None:
        try:
            model.ensure_data()
        except (DegreeZero, ToleranceNotMet):
            model.data = None
    return model


def search_region(model, a: complex, region: Box,
                  tol: float) -> SearchResult:
    """Locate every a-point of model's function inside region.

    Returns a SearchResult (iterable of RootRecord in sort_records order)
    whose total multiplicity equals the winding number over the
    searched boundary. If the region boundary passes near an a-point it is
    grown by steps of 0.3 percent (up to five) until the walk succeeds; the
    searched box is recorded in the result.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    a = complex(a)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError("target must be finite")
    search = _Search(model, a, tol)
    searched = region
    top_count = None
    last: Exception | None = None
    for i in range(len(_JITTER)):
        searched = region.expanded(0.003 * i)
        if _overflow_clipped(model, searched):
            return SearchResult([], a, region, searched, 0, [searched])
        try:
            top_count = search.wind(searched)
            break
        except (BoundaryTooClose, ToleranceNotMet) as exc:
            last = exc
    if top_count is None:
        raise BoundaryTooClose(
            f"region boundary {region} stayed too close to an a-point after "
            f"{len(_JITTER) - 1} retries: {last}")

    records = search.descend(searched, top_count, 0)
    records = sort_records(_dedup(records, searched.diameter))
    result = SearchResult(records, a, region, searched, top_count,
                          search.clipped)
    if not search.clipped and result.total_multiplicity != top_count:
        raise ToleranceNotMet(
            f"multiplicity sum {result.total_multiplicity} != region winding "
            f"{top_count}")
    return result


def find_a_points(F: PolyExpFunction, a: complex, region: Box,
                  tol: float = 1e-9, *, data=None) -> SearchResult:
    """Locate every a-point of f inside region; see search_region."""
    return search_region(_build_model(F, data), a, region, tol)


def _dedup(records: list[RootRecord], diameter: float) -> list[RootRecord]:
    """Merge records closer than 1e-8 of the region diameter."""
    if not records:
        return []
    eps = 1e-8 * diameter
    records = sorted(records, key=lambda r: abs(r.location))
    out: list[RootRecord] = []
    for rec in records:
        merged = False
        for i in range(len(out) - 1, -1, -1):
            prev = out[i]
            if abs(rec.location) - abs(prev.location) > eps:
                break
            if abs(rec.location - prev.location) <= eps:
                keep = prev if prev.residual <= rec.residual else rec
                out[i] = RootRecord(keep.location, keep.target, keep.residual,
                                    prev.multiplicity + rec.multiplicity,
                                    keep.box_certificate,
                                    prev.cluster or rec.cluster)
                merged = True
                break
        if not merged:
            out.append(rec)
    return out


def newton_refine(F: PolyExpFunction, a: complex, z0: complex,
                  tol: float = 1e-12, maxit: int = 50,
                  *, data=None) -> RootRecord:
    """Polish a seed to an a-point and certify it with a winding box.

    The isolating box starts at twice the step scale and grows by factors
    of 8 until it encloses winding exactly 1 (or gives up at moderate size,
    returning the refined point with the smallest certified box attempted).
    """
    a = complex(a)
    model = _build_model(F, data)
    z, res = _newton(model, a, z0, tol, maxit)

    side = max(1e-7, 1e-5 * abs(z))
    box = None
    count = 1
    for _ in range(6):
        cand = Box(z.real - side, z.imag - side, z.real + side, z.imag + side)
        try:
            count = winding_count(model.path_evaluator(a), cand).count
        except (BoundaryTooClose, ToleranceNotMet):
            side *= 8.0
            continue
        if count >= 1:
            box = cand
            break
        side *= 8.0
    if box is None:
        box = Box(z.real - side, z.imag - side, z.real + side, z.imag + side)
        count = 1
    return RootRecord(z, a, res, count, box)
