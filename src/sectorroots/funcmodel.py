"""Safe evaluation models for a-point searches.

A root search needs w(z) = f(z) - a with reliable phase and magnitude on
contours that cross decay sectors, where direct evaluation of f loses w to
cancellation (f agrees with its limit a_k to hundreds of digits), and growth
sectors, where f is astronomically large. Everything here therefore works in
log-scaled complex arithmetic with an explicit log error bound carried along
the walk:

  * boundary samples extend incrementally by short-segment integrals, whose
    error scales with the local size of e^q rather than with the worst
    point ever visited; the planned samples of an edge are integrated and
    summed block by block as arrays, the sums of one scaled add per sample
    taken in the same order;
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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (AsymptoticData, asymptotic_values, in_decay_interior,
                          sector_remainder, tail_remainder)
from .contour import edge_points, edge_reversed
from .errors import BoundaryTooClose, NearCriticalZero, ToleranceNotMet
from .polyexp import (PolyExpFunction, ScaledComplex, _logaddexp,
                      eval_scaled_exp, integral_raw_batch,
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
# log-range of term scales summed at one reference exponent; with the
# headroom rule it keeps every usable partial sum far above underflow
_SPAN_LOG = 600.0


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
        """f'(z) = p(z) exp(q(z)), never overflowing."""
        pz = self.F.p(complex(z))
        if pz == 0:
            return ScaledComplex.zero()
        return ScaledComplex.from_complex(pz).mul(eval_scaled_exp(self.F.q, z))

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
        variation of exp(q) plus slack for the polynomial factor; the same
        in both directions."""
        if edge_reversed(z0, z1):
            z0, z1 = z1, z0
        qd = self.F.q_prime
        pts = [z0 + (z1 - z0) * t for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        qmax = max(abs(qd(w)) for w in pts)
        swing = abs(z1 - z0) * 1.5 * qmax
        n = 8 + int(swing / (0.5 * math.pi)) + 4 * (self.F.p.degree + 1)
        return min(n, 20000)


def _block_samples(w: ScaledComplex, err_log: float, val: np.ndarray,
                   m: np.ndarray, inc_err: np.ndarray):
    """Walk samples from w, with log error bound err_log, through the
    increments val[k] * exp(m[k]) with log error bounds inc_err[k], as
    lists (logmag, phase, err_log, clears_headroom), one entry per sample.

    This is _add_increment applied in turn: the partial sums share one
    reference exponent, and the error logs are summed in the scalar order
    (previous bound, increment bound, representation noise of the new
    sum). The samples stop before the first one at which the running
    maximum of the term scales has risen more than _SPAN_LOG above its
    value at the first sample; the caller restarts from the last sample.
    A sample's error bound is at least e^-35 times its largest term (the
    quadrature bound of an increment is at least 5e-15 of its L1 norm),
    so a sample that clears the headroom rule lies within _SPAN_LOG + 26
    of the reference exponent, far above underflow.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.concatenate(([w.logmag], np.log(np.abs(val)) + m))
    top = np.maximum.accumulate(scale)
    n = int(np.searchsorted(top[1:], top[1] + _SPAN_LOG, side="right"))
    ref = top[n]
    terms = np.empty(n + 1, dtype=complex)
    terms[0] = cmath.rect(1.0, w.phase) * math.exp(w.logmag - ref)
    terms[1:] = val[:n] * np.exp(m[:n] - ref)
    sums = np.cumsum(terms)[1:]
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(sums)) + ref
    errs = np.empty(2 * n + 1)
    errs[0] = err_log
    errs[1::2] = inc_err[:n]
    errs[2::2] = _LOG_EPS + logmag
    errs = np.logaddexp.accumulate(errs)[2::2]
    ok = logmag - errs >= _HEADROOM_LOG
    return (logmag.tolist(), np.angle(sums).tolist(), errs.tolist(),
            ok.tolist())


class _PolyExpPath:
    """Incremental scaled evaluator of w = f - a along a polygonal walk.

    min_samples(z0, z1) also plans the edge about to be walked, whose
    samples are contour.edge_points(z0, z1, n). When the walk takes the
    first step of a block of _PLAN_BLOCK planned steps, their increments
    are integrated as one batch (polyexp.integral_raw_batch), and the
    samples of the block are summed from the walk's last sample as arrays
    (_block_samples). extend(prev, z) returns the next of them when z is
    the next planned point and prev.z the planned point before it; when
    prev is not the sample it last returned, the sums restart from prev. A
    sample that fails the headroom rule is re-anchored as in the scalar
    walk, and the rest of the block is summed again from it; a planned
    increment whose quadrature failed raises when the walk reaches it. Any
    other step (a bisection midpoint) is integrated alone.
    """

    def __init__(self, model: PolyExpRootModel, a: complex):
        self.model = model
        self.a = a
        self.neg_a = ScaledComplex.from_complex(-a)
        self.F = model.F
        self.tol = model.tol
        self.floor_log = _LOG_PROX + math.log(max(1.0, abs(a)))
        self._edge: list[complex] = []
        # the planned sample last returned, at self._edge[self._pos]
        self._last: PathSample | None = None
        self._pos = 0
        # increments of the steps from edge points _inc_lo .. _inc_hi - 1
        self._inc_lo = self._inc_hi = 0
        self._inc = None
        # samples summed ahead, from edge point _ahead_lo on
        self._ahead_lo = 0
        self._ahead: tuple = ([], [], [], [])

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
            inc, inc_err_log = integral_scaled_parts(self.F, prev.z, z,
                                                     self.tol)
            s = _try(z, *_add_increment(prev.w, prev.err_log, inc,
                                        inc_err_log))
            if s is not None:
                return self._check_floor(s)
        return self._anchor(z)

    def _anchor(self, z: complex) -> PathSample:
        """The sample at z from a remembered anchor, from 0 or from the
        decay-cone tail, whichever first clears the headroom rule."""
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

    def _sum_ahead(self, j: int) -> None:
        """Sum the samples from edge point j to the end of its block, from
        the last planned sample; the block's increments are integrated
        first when step j is the first of a block."""
        i = j - 1
        if not self._inc_lo <= i < self._inc_hi:
            pts = self._edge[i:i + _PLAN_BLOCK + 1]
            self._inc = integral_raw_batch(self.F, pts[:-1], pts[1:],
                                           self.tol)
            self._inc_lo, self._inc_hi = i, i + len(pts) - 1
        val, m, inc_err, failures = self._inc
        k = i - self._inc_lo
        stop = min((f for f in failures if f >= k), default=len(val))
        if stop == k:
            raise failures[k]
        last = self._last
        self._ahead_lo = j
        self._ahead = _block_samples(last.w, last.err_log, val[k:stop],
                                     m[k:stop], inc_err[k:stop])

    def _planned(self, j: int) -> PathSample:
        k = j - self._ahead_lo
        if not 0 <= k < len(self._ahead[0]):
            self._sum_ahead(j)
            k = 0
        logmag, phase, err_log, ok = self._ahead
        z = self._edge[j]
        if ok[k]:
            s = self._check_floor(
                PathSample(z, ScaledComplex(logmag[k], phase[k]), err_log[k]))
        else:
            s = self._anchor(z)
            # the samples ahead were summed from the value replaced here
            self._ahead = ([], [], [], [])
        self._last, self._pos = s, j
        return s

    def start(self, z: complex) -> PathSample:
        s = self._build(complex(z), None)
        self._last, self._edge = s, []
        return s

    def extend(self, prev: PathSample, z: complex) -> PathSample:
        j = self._pos + 1
        edge = self._edge
        if j < len(edge) and z == edge[j] and prev.z == edge[j - 1]:
            if prev is not self._last:
                # the walk goes on from a sample summed elsewhere (a
                # corner served by the caller): sum the block from it
                self._last = prev
                self._ahead = ([], [], [], [])
            return self._planned(j)
        return self._build(complex(z), prev)

    def min_samples(self, z0: complex, z1: complex) -> int:
        n = self.model.min_samples(z0, z1)
        z0 = complex(z0)
        self._edge = [z0] + edge_points(z0, complex(z1), n)
        self._pos = 0
        self._inc_lo = self._inc_hi = 0
        self._ahead = ([], [], [], [])
        return n
