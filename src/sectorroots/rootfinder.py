"""a-point location by winding-count subdivision and Newton refinement.

The search walks the argument of f - a around box boundaries to count
enclosed a-points, splits any box holding more than one (or larger than the
isolation size) on a quadtree, and polishes each isolated root by Newton's
method with the exact derivative p e^q. Winding counts certify completeness:
the multiplicities returned sum to the winding number of the whole region.

Boxes whose entire boundary lies beyond the overflow guard in a growth
sector are not searched; they are reported as clipped in the result so the
omission is visible. Boundary walks that pass too close to an a-point are
retried with the box (or the subdivision crosshair) jittered by about one
percent of the side length, five times, before the failure propagates.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .asymptotics import DegreeZero
from .contour import Box, winding_count
from .errors import (BoundaryTooClose, DerivativeVanishes, NoConvergence,
                     ToleranceNotMet)
from .funcmodel import PolyExpRootModel
from .polyexp import (OVERFLOW_LOG, Polynomial, PolyExpFunction,
                      segments_re_q_max)

# stop subdividing an isolated root below this box diameter
_DIAM_STOP = 1e-3
_DEPTH_MAX = 40
# crosshair / boundary offsets tried on BoundaryTooClose, in units of the
# box side; first entry is the unperturbed attempt
_JITTER = ((0.0, 0.0), (0.0071, -0.0043), (-0.0062, 0.0087),
           (0.0094, 0.0052), (-0.0049, -0.0091), (0.0036, 0.0098))


@dataclass(frozen=True)
class RootRecord:
    """One located a-point with its isolating certificate."""

    location: complex
    target: complex
    residual: float
    multiplicity: int
    box_certificate: Box
    cluster: bool = False

    def sort_key(self) -> tuple[float, float]:
        z = self.location
        return (abs(z), math.atan2(z.imag, z.real))


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


def _default_threads() -> int:
    raw = os.environ.get("SECTORROOTS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _boundary_min_re_q(q: Polynomial, box: Box) -> float:
    """Exact minimum of Re q over the four box edges."""
    if q.degree < 1:
        z = complex(box.x0, box.y0)
        return q(z).real
    neg = Polynomial(tuple(-c for c in q.coeffs))
    corners = box.corners()
    return -float(segments_re_q_max(neg, corners, corners[1:] + corners[:1]).max())


def _wind_once(model, a: complex, box: Box) -> int:
    return winding_count(model.path_evaluator(a), box).count


def _overflow_clipped(model, box: Box) -> bool:
    """True when every f on the box boundary overflows past rescue.

    Only polyexp-backed models can overflow; other models (canonical
    products and the like) never clip.
    """
    F = getattr(model, "F", None)
    if F is None:
        return False
    return _boundary_min_re_q(F.q, box) > OVERFLOW_LOG - 10.0


class _Search:
    """Recursive winding subdivision over any model exposing the sample
    protocol (path_evaluator/diff_scaled/derivative_scaled/min_samples)."""

    def __init__(self, model, a: complex, tol: float, threads: int):
        self.model = model
        self.a = a
        self.tol = tol
        self.threads = threads
        self.clipped: list[Box] = []
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    def wind(self, box: Box) -> int:
        return _wind_once(self.model, self.a, box)

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
        keep = [(ch, c) for ch, c in zip(children, counts) if c > 0]
        if self.pool is not None and depth <= 1 and len(keep) > 1:
            futures = [self.pool.submit(self.descend, ch, c, depth + 1)
                       for ch, c in keep]
            out: list[RootRecord] = []
            for fut in futures:
                out.extend(fut.result())
            return out
        out = []
        for ch, c in keep:
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
            except (BoundaryTooClose, ToleranceNotMet) as exc:
                last = exc
                continue
            if sum(counts) != count and not skipped:
                last = ToleranceNotMet(
                    f"child winding sum {sum(counts)} != parent {count} in {box}")
                continue
            self.clipped.extend(skipped)
            return children, counts
        raise BoundaryTooClose(
            f"subdivision of {box} failed after {len(_JITTER) - 1} jitter "
            f"retries: {last}")

    def _isolate(self, box: Box) -> RootRecord | None:
        """Newton from the center of a winding-1 box, certified by a small
        winding box around the refined point. None falls back to splitting."""
        try:
            z, res = _newton(self.model, self.a, box.center, self.tol, maxit=24)
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
                if self.wind(cert) == 1:
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
    """Newton iteration for f(z) = a from z0. Returns (root, residual)."""
    z = complex(z0)
    goal = tol * (1.0 + abs(a))
    leash = 1e3 * (1.0 + abs(z0))
    best_res = math.inf
    for _ in range(maxit):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > leash:
            raise NoConvergence(f"iteration escaped to {z} from seed {z0}")
        w = model.diff_scaled(z, a)
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
        best_res = min(best_res, res)
    raise NoConvergence(
        f"no root to residual {goal:.2e} within {maxit} iterations from {z0}; "
        f"best |f-a| = {best_res:.2e}")


def _build_model(F: PolyExpFunction, tol: float,
                 data=None) -> PolyExpRootModel:
    model = PolyExpRootModel(F, tol=1e-13, data=data)
    if data is None:
        try:
            model.ensure_data()
        except (DegreeZero, ToleranceNotMet):
            model.data = None
    return model


def find_a_points(F: PolyExpFunction, a: complex, region: Box,
                  tol: float = 1e-9, *, data=None,
                  threads: int | None = None) -> SearchResult:
    """Locate every a-point of f inside region.

    Returns a SearchResult (iterable of RootRecord, sorted by modulus then
    argument) whose total multiplicity equals the winding number over the
    searched boundary. If the region boundary passes near an a-point it is
    grown by steps of 0.3 percent (up to five) until the walk succeeds; the
    searched box is recorded in the result.
    """
    a = complex(a)
    if threads is None:
        threads = _default_threads()
    model = _build_model(F, tol, data)

    searched = region
    top_count = None
    last: Exception | None = None
    for i in range(len(_JITTER)):
        searched = region.expanded(0.003 * i)
        if _boundary_min_re_q(F.q, searched) > OVERFLOW_LOG - 10.0:
            return SearchResult([], a, region, searched, 0, [searched])
        try:
            top_count = _wind_once(model, a, searched)
            break
        except (BoundaryTooClose, ToleranceNotMet) as exc:
            last = exc
    if top_count is None:
        raise BoundaryTooClose(
            f"region boundary {region} stayed too close to an a-point after "
            f"{len(_JITTER) - 1} retries: {last}")

    search = _Search(model, a, tol, threads)
    try:
        records = search.descend(searched, top_count, 0)
    finally:
        search.close()
    records = _dedup(records, searched.diameter)
    records.sort(key=RootRecord.sort_key)
    result = SearchResult(records, a, region, searched, top_count,
                          search.clipped)
    if not search.clipped and result.total_multiplicity != top_count:
        raise ToleranceNotMet(
            f"multiplicity sum {result.total_multiplicity} != region winding "
            f"{top_count}")
    return result


def _dedup(records: list[RootRecord], diameter: float) -> list[RootRecord]:
    """Merge records closer than 1e-8 of the region diameter."""
    if not records:
        return []
    eps = 1e-8 * diameter
    records = sorted(records, key=RootRecord.sort_key)
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
    model = _build_model(F, tol, data)
    z, res = _newton(model, a, z0, tol, maxit)

    side = max(1e-7, 1e-5 * abs(z))
    box = None
    count = 1
    for _ in range(6):
        cand = Box(z.real - side, z.imag - side, z.real + side, z.imag + side)
        try:
            count = _wind_once(model, a, cand)
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
