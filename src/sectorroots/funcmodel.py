"""Safe evaluation models for a-point searches.

A root search needs w(z) = f(z) - a with reliable phase and magnitude on
contours that cross decay sectors, where direct evaluation of f loses w to
cancellation (f agrees with its limit a_k to hundreds of digits), and growth
sectors, where f is astronomically large. Everything here therefore works in
log-scaled complex arithmetic with an explicit log error bound carried along
the walk:

  * boundary samples extend incrementally by short-segment integrals, whose
    error scales with the local size of e^q rather than with the worst
    point ever visited;
  * a walk start, or a sample whose headroom between |w| and the
    accumulated error has collapsed, is re-anchored: integrated from the
    nearest point the model remembers (its last _ANCHOR_MEMORY anchored
    points whose f clears the headroom rule, closer than |z|/2), or, when
    none is near or its sum fails the headroom rule, by a fresh integral
    along the ray from 0, whose error is relative to the value at the
    sample itself;
  * inside a decay cone whose limit matches the target, w is replaced by
    the exact outward tail integral, which stays accurate when |f - a| is
    hundreds of orders below 1.

Targets within the certified tolerance of a computed limit a_k are treated
as exactly equal to it: the family's exact limits are only known through
quadrature, and the search is for a-points of the ideal target, not of its
floating-point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import (AsymptoticData, asymptotic_values, in_decay_interior,
                          sector_remainder, tail_remainder)
from .contour import edge_points
from .errors import BoundaryTooClose, NearCriticalZero, ToleranceNotMet
from .polyexp import (PolyExpFunction, ScaledComplex, _logaddexp,
                      eval_f_prime, integral_scaled_batch,
                      integral_scaled_parts)

# demanded log-gap between |w| and its error bound before a sample is trusted
_HEADROOM_LOG = math.log(1e4)
# relative floor under which a contour is declared too close to an a-point
_PROXIMITY = 1e-9
_LOG_PROX = math.log(_PROXIMITY)
# Re q must be at least this negative before the tail rescue is worthwhile;
# anchored evaluation keeps headroom down to about Re q = -20, so this
# overlaps it with margin on both sides
_RESCUE_DEPTH = -18.0
# relative accuracy of the tail rescue (quadrature + truncation)
_RESCUE_REL_LOG = math.log(1e-11)


# representation noise of one scaled add, a shade above double eps
_LOG_EPS = math.log(1e-15)

# anchored points a model remembers as starts for later integrals
_ANCHOR_MEMORY = 16

# walk increments integrated per batch; bounds the memory a long edge
# takes, and the work left unused when a walk stops partway
_PLAN_BLOCK = 256


@dataclass
class PathSample:
    """One boundary point: w = f - a in scaled form with the log of its
    absolute error bound."""

    z: complex
    w: ScaledComplex
    err_log: float


def _add_increment(w: ScaledComplex, err_log: float, inc: ScaledComplex,
                   inc_err_log: float) -> tuple[ScaledComplex, float]:
    """w + inc, with the error logs summed and the representation noise of
    the sum added."""
    err_log = _logaddexp(err_log, inc_err_log)
    w = w.add(inc)
    if not w.is_zero:
        err_log = _logaddexp(err_log, _LOG_EPS + w.logmag)
    return w, err_log


def _less_target(f: ScaledComplex, f_err: float,
                 neg_a: ScaledComplex) -> tuple[ScaledComplex, float]:
    """w = f - a from f and neg_a = -a, with f's error log plus the
    representation noise of the subtraction."""
    return f.add(neg_a), _logaddexp(
        f_err, _LOG_EPS + max(f.logmag, neg_a.logmag))


def _clears_headroom(w: ScaledComplex, err_log: float) -> bool:
    return not w.is_zero and w.logmag - err_log >= _HEADROOM_LOG


def _try(z: complex, w: ScaledComplex, err_log: float) -> PathSample | None:
    """The sample, if w clears the headroom rule against its error."""
    return PathSample(z, w, err_log) if _clears_headroom(w, err_log) else None


class PolyExpRootModel:
    """Evaluation services for one (F, tolerance) pair.

    data supplies the critical rays and limits used for decay-cone rescue;
    without it the model still works wherever anchored evaluation does.
    """

    def __init__(self, F: PolyExpFunction, tol: float = 1e-13,
                 data: AsymptoticData | None = None):
        self.F = F
        self.tol = tol
        self.log_tol = math.log(tol)
        self.data = data
        # (z, f, err_log) of recent anchored points, newest last. Replaced
        # whole on every insert, so a reader never sees it half updated;
        # an insert lost to a concurrent one only costs a later integral
        # from 0
        self._anchors: tuple = ()

    def ensure_data(self) -> AsymptoticData | None:
        if self.data is None and self.F.q.degree >= 1 and not self.F.p.is_zero:
            self.data = asymptotic_values(self.F, tol=1e-10)
        return self.data

    # -- scalar evaluations -------------------------------------------------

    def derivative_scaled(self, z: complex) -> ScaledComplex:
        return eval_f_prime(self.F, z)

    def anchored_f(self, z: complex) -> tuple[ScaledComplex, float]:
        """f(z) by a fresh integral from 0, with the log error bound. The
        point is remembered as an anchor for near_f when f clears the
        headroom rule."""
        z = complex(z)
        c_sc = ScaledComplex.from_complex(complex(self.F.c))
        if z == 0:
            return c_sc, self.log_tol + min(c_sc.logmag, 0.0)
        val, int_err_log = integral_scaled_parts(self.F, 0j, z, self.tol)
        fs = c_sc.add(val)
        err_log = _logaddexp(int_err_log,
                             _LOG_EPS + max(fs.logmag, c_sc.logmag))
        if _clears_headroom(fs, err_log):
            self._anchors = (self._anchors
                             + ((z, fs, err_log),))[-_ANCHOR_MEMORY:]
        return fs, err_log

    def near_f(self, z: complex) -> tuple[ScaledComplex, float] | None:
        """f(z) integrated from the nearest remembered anchor closer than
        |z|/2, with the log error bound; None when there is no such anchor
        or its integral fails. The caller judges the headroom."""
        best = None
        reach = 0.5 * abs(z)
        for anchor in self._anchors:
            d = abs(z - anchor[0])
            if d < reach:
                best, reach = anchor, d
        return None if best is None else self._carry(*best, z)

    def _carry(self, z0: complex, v0: ScaledComplex, err0: float,
               z: complex) -> tuple[ScaledComplex, float] | None:
        """v0, a value of f or of f - a at z0 with log error bound err0,
        carried to z by the integral over [z0, z]; None when the
        quadrature fails."""
        try:
            inc, inc_err_log = integral_scaled_parts(self.F, z0, z, self.tol)
        except ToleranceNotMet:
            return None
        return _add_increment(v0, err0, inc, inc_err_log)

    def in_rescue_zone(self, z: complex) -> bool:
        return (self.data is not None
                and in_decay_interior(self.F, z)
                and self.F.q(complex(z)).real <= _RESCUE_DEPTH)

    def _rescue(self, z: complex, a: complex) -> ScaledComplex | None:
        """f(z) - a through the scaled tail integral, if z sits deep in a
        decay cone and the machinery applies; None otherwise."""
        if not self.in_rescue_zone(z):
            return None
        return self.rescued(z, a, tail_remainder(self.F, z, self.tol))

    def rescued(self, z: complex, a: complex,
                tail: ScaledComplex) -> ScaledComplex:
        """f(z) - a from tail = f(z) - a_k, the tail integral at a z in the
        rescue zone: a target within the certified tolerance of a_k is
        taken as a_k itself, any other adds the gap a_k - a."""
        data = self.data
        k = data.nearest_ray(math.atan2(z.imag, z.real) % (2 * math.pi))
        gap = complex(a) - data.values[k]
        if abs(gap) <= 10.0 * data.value_tol * (1.0 + abs(a)):
            return tail
        return ScaledComplex.from_complex(-gap).add(tail)

    def diff_sample(self, z: complex, a: complex) -> PathSample:
        """f(z) - a with the best available relative accuracy, from the
        decay-cone tail or from 0, and the log of its error bound."""
        z = complex(z)
        rescued = self._rescue(z, a)
        if rescued is not None:
            return PathSample(z, rescued, rescued.logmag + _RESCUE_REL_LOG)
        fs, f_err = self.anchored_f(z)
        return PathSample(z, *_less_target(
            fs, f_err, ScaledComplex.from_complex(-complex(a))))

    def diff_scaled(self, z: complex, a: complex) -> ScaledComplex:
        """f(z) - a with the best available relative accuracy."""
        return self.diff_sample(z, a).w

    def diff_near(self, held: PathSample, z: complex) -> PathSample | None:
        """f(z) - a as held.w plus the integral over [held.z, z], or None
        when the quadrature fails or the sum does not clear the headroom
        rule."""
        z = complex(z)
        carried = self._carry(held.z, held.w, held.err_log, z)
        return None if carried is None else _try(z, *carried)

    # -- boundary-walk evaluation -------------------------------------------

    def path_evaluator(self, a: complex) -> "_PolyExpPath":
        return _PolyExpPath(self, complex(a))

    def min_samples(self, z0: complex, z1: complex) -> int:
        """Initial sample count for an edge, from a bound on the phase
        variation of exp(q) plus slack for the polynomial factor."""
        qd = self.F.q_prime
        pts = [z0 + (z1 - z0) * t for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        qmax = max(abs(qd(w)) for w in pts)
        swing = abs(z1 - z0) * 1.5 * qmax
        n = 8 + int(swing / (0.5 * math.pi)) + 4 * (self.F.p.degree + 1)
        return min(n, 20000)


class _PolyExpPath:
    """Incremental scaled evaluator of w = f - a along a polygonal walk.

    min_samples(z0, z1) also plans the edge about to be walked, whose
    samples are contour.edge_points(z0, z1, n): the increments between them
    are integrated as one batch per block of _PLAN_BLOCK, when the walk
    takes the first step of the block. extend uses the planned increment
    when it steps to the next planned sample, and integrates any other step
    (a bisection midpoint) alone.
    """

    def __init__(self, model: PolyExpRootModel, a: complex):
        self.model = model
        self.a = a
        self.neg_a = ScaledComplex.from_complex(-a)
        self.F = model.F
        self.tol = model.tol
        self.floor_log = _LOG_PROX + math.log(max(1.0, abs(a)))
        self._edge: list[complex] = []
        self._next = 0
        self._block: dict = {}

    def _check_floor(self, s: PathSample) -> PathSample:
        if s.w.logmag >= self.floor_log:
            return s
        # deep decay: legitimate w values fall far below any absolute floor,
        # so measure proximity against the local sector remainder scale
        if self.model.in_rescue_zone(s.z):
            try:
                rem, _ = sector_remainder(self.F, s.z, self.model.data)
            except NearCriticalZero:
                rem = ScaledComplex.zero()
            if not rem.is_zero and s.w.logmag >= rem.logmag + _LOG_PROX:
                return s
        raise BoundaryTooClose(
            f"|f - a| below proximity floor at {s.z} "
            f"(log|w| = {s.w.logmag:.2f}, floor log = {self.floor_log:.2f})")

    def _build(self, z: complex, prev: PathSample | None) -> PathSample:
        if prev is not None:
            # w obeys the same increments as f, so extending w directly
            # avoids ever reconstructing the difference f - a
            inc, inc_err_log = self._increment(prev.z, z)
            s = _try(z, *_add_increment(prev.w, prev.err_log, inc,
                                        inc_err_log))
            if s is not None:
                return self._check_floor(s)
        near = self.model.near_f(z)
        if near is not None:
            s = _try(z, *_less_target(*near, self.neg_a))
            if s is not None:
                return self._check_floor(s)
        w, err_log = _less_target(*self.model.anchored_f(z), self.neg_a)
        s = _try(z, w, err_log)
        if s is not None:
            return self._check_floor(s)
        rescued = self.model._rescue(z, self.a)
        if rescued is not None and not rescued.is_zero:
            s = PathSample(z, rescued, rescued.logmag + _RESCUE_REL_LOG)
            return self._check_floor(s)
        raise BoundaryTooClose(
            f"cannot separate f - a from its error bound at {z} "
            f"(log|w| ~ {w.logmag:.2f}, err log {err_log:.2f})")

    def _increment(self, z0: complex, z1: complex) -> tuple[ScaledComplex, float]:
        """integral_scaled_parts over [z0, z1], taken from the edge plan when
        the step is the plan's next increment. A planned increment whose
        quadrature failed raises here, when the walk reaches it."""
        part = self._block.pop((z0, z1), None)
        if part is None:
            i = self._next
            edge = self._edge
            if not (i + 1 < len(edge) and edge[i] == z0 and edge[i + 1] == z1):
                return integral_scaled_parts(self.F, z0, z1, self.tol)
            pts = edge[i:i + _PLAN_BLOCK + 1]
            self._next = i + len(pts) - 1
            parts = integral_scaled_batch(self.F, pts[:-1], pts[1:], self.tol)
            self._block = dict(zip(zip(pts[:-1], pts[1:]), parts))
            part = self._block.pop((z0, z1))
        if isinstance(part, ToleranceNotMet):
            raise part
        return part

    def start(self, z: complex) -> PathSample:
        return self._build(complex(z), None)

    def extend(self, prev: PathSample, z: complex) -> PathSample:
        return self._build(complex(z), prev)

    def min_samples(self, z0: complex, z1: complex) -> int:
        n = self.model.min_samples(z0, z1)
        self._edge = [complex(z0)] + edge_points(complex(z0), complex(z1), n)
        self._next = 0
        self._block = {}
        return n
