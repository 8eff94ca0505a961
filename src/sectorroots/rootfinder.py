"""a-point location by winding-count subdivision and Newton refinement.

The search walks the argument of f - a around box boundaries to count
enclosed a-points, splits any box holding more than one (or larger than the
isolation size) on a quadtree, and polishes each isolated root by Newton's
method with the exact derivative p e^q. Winding counts certify completeness:
the multiplicities returned sum to the winding number of the whole region.

Newton starts from seeds the walk that counted the box already gives: for
a box that winds m <= 6 times, contour.winding_count returns the power sums
s_1 .. s_m of the enclosed a-points about the box centre, by Simpson's
rule on each edge that kept its dyadic plan and the trapezoid rule on one
that bisected, and the seeds are the roots of the monic polynomial with
those power sums (Newton's identities). A box that winds once keeps its
seed until it is isolated, and starts from its centre when the seed lies
outside it. A box that winds 2 to 6 times, and whose count its parent's
split confirmed, is solved from its m seeds without a split when Newton
converges from each to m points inside it, more than two certificate
half-sides apart, with certificate boxes inside it that do not overlap;
otherwise it is split.
Newton's first value is carried from the walk's sample at the box corner
nearest the seed (_newton), and a run gives up at the first iterate
outside the box.

Each point is certified by Kantorovich's theorem (Ortega & Rheinboldt
1970, 12.6) from the model's bound on |f''| over the certificate disc
(curvature_log; polyexp and canonical products alike): from f - a and its
error bound, f' and that bound, a ball proves that the certificate box
holds exactly one a-point, and that it is simple. Where the ball test
fails or the model gives no bound there, the certificate box is walked
once and must wind once; a box that does not is split instead.

Every box of the quadtree is wound, growth sectors included: the walk's
values are log-scaled, so no boundary overflows. Only the subdivision
crosshair and the region are jittered: a split whose walks pass too close
to an a-point is retried with the crosshair moved by about one percent of
the side, and a region boundary is grown by 0.3 percent, five times each,
before the failure propagates.

Every walk of one search (one model, one target) goes through one shared
store, _SharedWalk, which keeps the samples of every walk per grid line.
Edge plans are dyadic, so a centre split's children walk their outer
half-edges through points of their parent's edges, and sibling boxes walk
their common crosshair spokes in reverse: those samples, and the corners
a later walk starts or arrives at, are served from the store. The store
lives as long as the search.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .contour import (Box, PathSample, dyadic_steps, edge_points,
                      winding_count)
from .errors import (BoundaryTooClose, DerivativeVanishes, NoConvergence,
                     ToleranceNotMet)
from .funcmodel import _clears_headroom, build_model
from .polyexp import (OVERFLOW_LOG, PolyExpFunction, ScaledComplex, _LOG2,
                      _logaddexp)

# stop subdividing an isolated root below this box diameter
_DIAM_STOP = 1e-3
# half-side of a root's certificate box, whose diameter is 0.9 _DIAM_STOP,
# and the radius of the disc that circumscribes it
_CERT_SIDE = _DIAM_STOP / (2.0 * math.sqrt(2.0)) * 0.9
_CERT_RADIUS = math.sqrt(2.0) * _CERT_SIDE
_LOG_SIDE = math.log(_CERT_SIDE)
_LOG_RADIUS = math.log(_CERT_RADIUS)
_DEPTH_MAX = 40
# crosshair offsets tried on BoundaryTooClose, in units of the box side,
# and the count of region growths; first entry is the unperturbed attempt
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
    over the searched boundary. clipped is always empty: every box is
    wound. It is kept for readers of the field.
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


# a grid line that holds no sample yet
_NO_LINE = (np.empty(0), np.empty((3, 0)))


def _line(z0: complex, z1: complex) -> tuple:
    """The grid line of the edge z0 -> z1: (0, y) for a horizontal edge,
    (1, x) for a vertical one."""
    return (0, z0.imag) if z0.imag == z1.imag else (1, z0.real)


class _SharedWalk:
    """The path evaluator of every walk of one search (model and target a):
    it plans each edge, takes the samples of the model, and serves every
    planned point that an earlier walk of the search evaluated.

    lines maps a grid line (_line) to its samples: the ascending positions
    along it (x on (0, y), y on (1, x)) and a (3, k) array of log|w|, arg
    w and error log there. It takes every sample the model gives for a
    planned point as the walk pulls it, and every walk start (on the
    horizontal line), and lives as long as the search.

    min_samples(z0, z1) plans the edge about to be walked with n from
    model.min_samples, or with the finer plan whose interior is stored.
    Plans are dyadic (contour.edge_points rounds n up to a power of two),
    so a centre split's child plans its outer half-edges through its
    parent's points. The next extend(prev, pts) takes the plan (pts are
    edge_points(z0, z1, n), or all but the last): it serves the points
    stored on the line, the end corner also from the line across, and
    takes the others from model.edge(a, held, points) as one chain from
    the sample before the first of them, pulled no further than the walk
    needs. Any other extend (a bisection midpoint) goes to model.edge as
    it is, and a walk's start, unless stored, to model.start. Plans off
    the grid (jittered crosshairs, grown regions, certificate boxes)
    share no points with earlier ones and are walked fresh.

    walked, served and unplanned count the samples the model took for
    planned points, those served from the lines and those of other extend
    calls.
    """

    def __init__(self, model, a: complex):
        self.model = model
        self.a = complex(a)
        self.lines: dict = {}
        self._plan = None  # min_samples' plan, until extend takes it
        self.walked = self.served = self.unplanned = 0

    def _at(self, key, t: float):
        """The (3,) column stored on line key at position t, or None."""
        pos, vals = self.lines.get(key, _NO_LINE)
        i = bisect_left(pos, t)
        return vals[:, i] if i < len(pos) and pos[i] == t else None

    def sample(self, z: complex) -> PathSample | None:
        """The stored sample at z, from either grid line through it."""
        v = self._at((0, z.imag), z.real)
        if v is None:
            v = self._at((1, z.real), z.imag)
        return None if v is None else PathSample(
            z, ScaledComplex(*v[:2].tolist()), float(v[2]))

    def _store(self, key, t: np.ndarray, v: np.ndarray) -> None:
        """Adds the samples v at the positions t, none stored yet, to line
        key."""
        pos, vals = self.lines.get(key, _NO_LINE)
        pos = np.concatenate((pos, t))
        order = np.argsort(pos, kind="stable")
        self.lines[key] = (pos[order],
                           np.concatenate((vals, v), axis=1)[:, order])

    def start(self, z: complex) -> PathSample:
        s = self.sample(z)
        if s is None:
            s = self.model.start(self.a, z)
            self._store((0, z.imag), np.array([z.real]), s.run()[1])
        return s

    def min_samples(self, z0: complex, z1: complex) -> int:
        n = self.model.min_samples(z0, z1)
        key = _line(z0, z1)
        t0, t1 = (z0.real, z1.real) if key[0] == 0 else (z0.imag, z1.imag)
        # the samples stored on the edge after its start: (t0, t1] or
        # [t1, t0)
        pos = self.lines.get(key, _NO_LINE)[0]
        side = bisect_right if t0 < t1 else bisect_left
        count = abs(side(pos, t1) - side(pos, t0))
        self._plan = key, z1
        # the finest plan whose interior is stored, when finer than n's
        steps = 1 << (count + 1).bit_length() - 1
        while steps > dyadic_steps(n):
            t = edge_points(z0, z1, steps)[:-1]
            if self._find(key, t.real if key[0] == 0 else t.imag)[2].all():
                return steps
            steps //= 2
        return n

    def _find(self, key, t: np.ndarray):
        """The samples stored on line key, the index there of each
        position t, and whether a sample is stored at it."""
        pos, vals = self.lines.get(key, _NO_LINE)
        i = np.searchsorted(pos, t)
        got = i < len(pos)
        got[got] = pos[i[got]] == t[got]
        return vals, i, got

    def extend(self, prev: PathSample, pts):
        plan, self._plan = self._plan, None
        if plan is None:
            self.unplanned += len(pts)
            return self.model.edge(self.a, prev, pts)
        return self._edge(prev, pts, *plan)

    def _edge(self, prev: PathSample, pts, key, z1: complex):
        """The runs of the planned points pts on line key: those stored
        there served, the end corner z1 also from the line across, and the
        others from one model chain, stored as they come."""
        z = np.asarray(pts, dtype=complex)
        t = z.real if key[0] == 0 else z.imag
        n = len(z)
        vals, i, got = self._find(key, t)
        v = np.empty((3, n))
        v[:, got] = vals[:, i[got]]
        if not got[-1] and z[-1] == z1:
            end = (self._at((1, z1.real), z1.imag) if key[0] == 0
                   else self._at((0, z1.imag), z1.real))
            if end is not None:
                v[:, -1] = end
                got[-1] = True
        new = np.flatnonzero(~got)
        done = new[0] if len(new) else n
        self.served += int(done)
        if done:
            yield z[:done], v[:, :done]
        k = 0
        for zr, vr in self.model.edge(self.a, PathSample.of_run(
                z, v, done - 1) if done else prev, z[new]) if len(new) else ():
            at = new[k:k + len(zr)]
            v[:, at] = vr
            self._store(key, t[at], vr)
            self.walked += len(zr)
            k += len(zr)
            upto = new[k] if k < len(new) else n
            self.served += int(upto - done) - len(zr)
            yield z[done:upto], v[:, done:upto]
            done = upto


class _Search:
    """Recursive winding subdivision over any model exposing the sample
    protocol (start/edge/min_samples for its walks, which share one
    _SharedWalk; diff_sample/diff_near/diff_scaled/derivative_scaled/
    curvature_log for Newton and its certificates)."""

    def __init__(self, model, a: complex, tol: float):
        self.model = model
        self.a = a
        self.tol = tol
        self.path = _SharedWalk(model, a)
        # Newton seeds of every box that wound 1 .. 6 times and is not yet
        # descended: the points whose power sums are the walk's per-edge
        # Simpson (or, on an edge that bisected, trapezoid) sums
        self.seeds: dict[Box, list[complex]] = {}

    def wind(self, box: Box) -> int:
        result = winding_count(self.path, box)
        if result.count and len(result.power_sums) == result.count:
            self.seeds[box] = _seeds(box, result)
        return result.count

    def descend(self, box: Box, count: int, depth: int) -> list[RootRecord]:
        seeds = self.seeds.pop(box, None)
        if count == 0:
            return []
        if depth >= _DEPTH_MAX:
            return [self._cluster(box, count)]
        if count == 1:
            rec = self._isolate(box, seeds)
            if rec is not None:
                return [rec]
            if box.diameter <= _DIAM_STOP:
                return [self._polish(box, count)]
        elif seeds is not None and depth >= 1:
            # the parent's child sum confirmed this count; the search
            # region's own count is confirmed only by its split
            records = self._solve(box, seeds)
            if records is not None:
                return records
        try:
            children, counts = self._split(box, count)
        except BoundaryTooClose:
            if box.diameter > _DIAM_STOP:
                raise
            # multiple root: every jittered cut passes through the flat
            # patch where |f - a| fails the headroom rule against its
            # error bound, so no finer certificate exists; report the cell
            # at the stop scale
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
            try:
                counts = [self.wind(ch) for ch in children]
                if sum(counts) != count:
                    raise ToleranceNotMet(
                        f"child winding sum {sum(counts)} != parent {count} "
                        f"in {box}")
            except (BoundaryTooClose, ToleranceNotMet) as exc:
                last = exc
                # these children are dropped with their seeds
                for ch in children:
                    self.seeds.pop(ch, None)
                continue
            return children, counts
        raise BoundaryTooClose(
            f"subdivision of {box} failed after {len(_JITTER) - 1} jitter "
            f"retries: {last}")

    def _isolate(self, box: Box, seeds) -> RootRecord | None:
        """Newton from the walk's seed, else the centre, of a winding-1
        box, certified by a Kantorovich ball or else by a small winding box
        around the refined point. None falls back to splitting."""
        seed = seeds[0] if seeds and box.contains(seeds[0]) else box.center
        s = self._converge(box, seed)
        return None if s is None else self._certify(s)

    def _solve(self, box: Box, seeds) -> list[RootRecord] | None:
        """The m = len(seeds) a-points of a box that winds m times, by
        Newton from the seeds, each certified inside the box. m distinct
        certified a-points in a box that winds m times are all of them.
        None falls back to splitting."""
        if not all(_inside(box, z) for z in seeds):
            return None
        points = []
        for seed in seeds:
            s = self._converge(box, seed)
            # a point within two certificate half-sides of an earlier one
            # could share its certificate's a-point; a cluster (a multiple
            # root) fails here, before any later seed runs or any
            # certificate is walked
            if s is None or any(abs(s.z - t.z) <= 2.0 * _CERT_SIDE
                                for t in points):
                return None
            points.append(s)
        records = []
        for s in points:
            rec = self._certify(s, box)
            if rec is None:
                return None
            # a walked certificate places its a-point anywhere in its box,
            # so two of them must not overlap
            if any(_overlap(rec.box_certificate, r.box_certificate)
                   for r in records):
                return None
            records.append(rec)
        return records

    def _converge(self, box: Box, seed: complex) -> PathSample | None:
        """Newton from seed, carried from the corner of box nearest the
        seed and given up when an iterate leaves box; the sample at the
        root when it lies strictly inside box, else None."""
        held = min(filter(None, map(self.path.sample, box.corners())),
                   key=lambda h: abs(h.z - seed), default=None)
        try:
            s = _newton(self.model, self.a, seed, self.tol, maxit=24,
                        held=held, box=box)
        except (NoConvergence, DerivativeVanishes, BoundaryTooClose,
                ToleranceNotMet):
            return None
        # converged outside (or on the skin of) this box: not our root
        return s if _inside(box, s.z) else None

    def _certify(self, s: PathSample, within: Box | None = None
                 ) -> RootRecord | None:
        """The record of the a-point Newton converged to at s.z, with a
        certificate box of half-side _CERT_SIDE centred on it that holds
        exactly one a-point: proved by a Kantorovich ball, or else by one
        walk of the box when the Newton step at s.z is shorter than the
        half-side. With within, only a certificate inside that box counts.
        None when no certificate holds."""
        z = s.z
        cert = Box(z.real - _CERT_SIDE, z.imag - _CERT_SIDE,
                   z.real + _CERT_SIDE, z.imag + _CERT_SIDE)
        if within is not None and not all(
                _inside(within, c) for c in cert.corners()):
            return None
        rec = RootRecord(z, self.a, s.w.abs_value(), 1, cert)
        ball = _ball(self.model, s)
        # B(z, t*) inside the box, the box inside B(z, t**)
        if ball is not None and ball[0] < _LOG_SIDE and _LOG_RADIUS < ball[1]:
            return rec
        # a Newton step |w/w'| longer than the half-side points out of the
        # box, and the walk would not wind once: split instead
        fp = self.model.derivative_scaled(z)
        if fp.is_zero or s.w.logmag - fp.logmag > _LOG_SIDE:
            return None
        try:
            return rec if winding_count(self.path, cert).count == 1 else None
        except (BoundaryTooClose, ToleranceNotMet):
            return None

    def _polish(self, box: Box, count: int) -> RootRecord:
        try:
            s = _newton(self.model, self.a, box.center, self.tol)
        except (NoConvergence, DerivativeVanishes):
            return self._cluster(box, count)
        if not box.contains(s.z, pad=box.diameter):
            # Newton escaped the certificate; fall back to the box center
            return self._cluster(box, count)
        return RootRecord(s.z, self.a, s.w.abs_value(), count, box)

    def _cluster(self, box: Box, count: int) -> RootRecord:
        z = box.center
        res = self.model.diff_scaled(z, self.a).abs_value()
        return RootRecord(z, self.a, res, count, box, cluster=True)


def _inside(box: Box, z: complex) -> bool:
    """z lies in box, at least 1e-9 (1 + diameter) from its edges."""
    margin = 1e-9 * (1.0 + box.diameter)
    return (box.x0 + margin < z.real < box.x1 - margin
            and box.y0 + margin < z.imag < box.y1 - margin)


def _overlap(b: Box, c: Box) -> bool:
    return b.x0 <= c.x1 and c.x0 <= b.x1 and b.y0 <= c.y1 and c.y0 <= b.y1


def _seeds(box: Box, result) -> list[complex]:
    """The m = result.count points whose centred power sums are the
    walk's: the roots of the monic polynomial that Newton's identities
    build from s_1 .. s_m, mapped back from u = (z - c) / rho."""
    if result.count == 1:
        return [result.root_sum]
    # e_k, the elementary symmetric functions: k e_k =
    # sum_{i=1..k} (-1)^(i-1) e_(k-i) s_i
    e = [1.0 + 0j]
    for k in range(1, result.count + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * result.power_sums[i - 1]
                     for i in range(1, k + 1)) / k)
    c, rho = box.center, 0.5 * box.diameter
    return [c + rho * u
            for u in _roots([(-1) ** k * ek for k, ek in enumerate(e)])]


def _roots(coeffs: list) -> list[complex]:
    """Roots of the monic polynomial with descending coefficients coeffs,
    by the Weierstrass (Durand-Kerner) iteration updated in place: to
    1e-12, or after 64 sweeps where a cluster converges only linearly.
    np.roots would give them too, but its eigenvalue routine pages about
    1 MB of LAPACK code into the process."""
    m = len(coeffs) - 1
    u = [(0.4 + 0.9j) ** k for k in range(m)]
    for _ in range(64):
        moved = 0.0
        for i, ui in enumerate(u):
            p = 0j
            for c in coeffs:
                p = p * ui + c
            d = 1.0 + 0j
            for j, uj in enumerate(u):
                if j != i:
                    d *= ui - uj
            if d == 0:
                return u
            step = p / d
            u[i] = ui - step
            moved = max(moved, abs(step))
        if moved < 1e-12:
            break
    return u


def _ball(model, s: PathSample) -> tuple[float, float] | None:
    """Kantorovich's radii (log t*, log t**) for the zero of w = f - a
    near s.z, or None when the theorem does not apply (Ortega & Rheinboldt
    1970, 12.6).

    With beta = 1/|w'(z)|, eta = beta (|w| + its error bound), K a bound
    on |w''| over the disc of radius _CERT_RADIUS about z, and
    h = beta K eta < 1/2, let t* = 2 eta / (1 + sqrt(1 - 2h)) and
    t** = (1 + sqrt(1 - 2h)) / (beta K). When t* <= _CERT_RADIUS, w has
    exactly one zero within t* of z, it is simple, and w has no other
    zero within min(t**, _CERT_RADIUS) of z. None when h >= 1/2 or the model
    gives no bound on |w''| (curvature_log is None). Computed in logs,
    since |w'| spans hundreds of orders.
    """
    log_k = model.curvature_log(s.z, _CERT_RADIUS)
    if log_k is None:
        return None
    fp = model.derivative_scaled(s.z)
    if fp.is_zero:
        return None
    log_beta = -fp.logmag
    log_eta = log_beta + _logaddexp(s.w.logmag, s.err_log)
    log_h = log_beta + log_k + log_eta
    if not log_h < -_LOG2:
        return None
    root = math.sqrt(1.0 - 2.0 * math.exp(log_h))
    return (_LOG2 + log_eta - math.log1p(root),
            math.log1p(root) - log_beta - log_k)


def _newton(model, a: complex, z0: complex, tol: float, maxit: int = 50,
            held: PathSample | None = None, box: Box | None = None
            ) -> PathSample:
    """Newton iteration for f(z) = a from z0. Returns the sample of f - a
    at the root by model.diff_sample: its |w| is the residual, and its
    err_log the log of that value's error bound.

    Each iterate carries f - a from the sample before it by
    model.diff_near, the first from held when given (a sample of f - a
    near z0). The carried value ends the iteration when |w| plus its
    bound is at most the goal, which proves convergence. It is the
    iterate's value when it clears the walk's headroom rule and |w| is
    above the goal. Otherwise, and when nothing is carried, the iterate
    takes diff_sample's value, and ends the iteration when that is at
    most the goal. The polishing step carries its value from the
    converged sample, and the returned sample is taken by diff_sample
    unless it already is. With box, an iterate outside it raises
    NoConvergence: the caller wants a root in box, and an iterate that
    left it is bound elsewhere (or lost).
    """
    z = complex(z0)
    goal = tol * (1.0 + abs(a))
    log_goal = math.log(goal)
    leash = 1e3 * (1.0 + abs(z0))
    best_res = math.inf
    for _ in range(maxit):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) > leash:
            raise NoConvergence(f"iteration escaped to {z} from seed {z0}")
        if box is not None and not box.contains(z):
            raise NoConvergence(f"iteration left {box} at {z}")
        s = None if held is None else model.diff_near(held, z)
        if s is not None and _logaddexp(s.w.logmag, s.err_log) <= log_goal:
            return _polished(model, a, s, False)
        exact = s is None or not (_clears_headroom(s.w.logmag, s.err_log)
                                  and s.w.abs_value() > goal)
        if exact:
            s = model.diff_sample(z, a)
        w = s.w
        res = w.abs_value()
        if res <= goal:
            return _polished(model, a, s, exact)
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


def _polished(model, a: complex, s: PathSample, exact: bool) -> PathSample:
    """One Newton step from the converged sample s for the quadratic gain,
    kept only if its |w|, carried from s (by diff_sample when nothing is
    carried), is smaller; the kept point's sample by diff_sample. exact
    tells whether s is diff_sample's already."""
    fp = model.derivative_scaled(s.z)
    if not fp.is_zero and fp.logmag >= -OVERFLOW_LOG:
        z2 = s.z - s.w.div(fp).to_complex()
        s2 = model.diff_near(s, z2)
        exact2 = s2 is None
        if exact2:
            s2 = model.diff_sample(z2, a)
        if s2.w.abs_value() < s.w.abs_value():
            s, exact = s2, exact2
    return s if exact else model.diff_sample(s.z, a)


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
    result = SearchResult(records, a, region, searched, top_count)
    if result.total_multiplicity != top_count:
        raise ToleranceNotMet(
            f"multiplicity sum {result.total_multiplicity} != region winding "
            f"{top_count}")
    return result


def find_a_points(F: PolyExpFunction, a: complex, region: Box,
                  tol: float = 1e-9, *, data=None) -> SearchResult:
    """Locate every a-point of f inside region; see search_region."""
    return search_region(build_model(F, data), a, region, tol)


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
