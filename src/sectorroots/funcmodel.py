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
    taken in the same order, and handed to the walk in runs;
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
from collections import deque

import numpy as np

from .asymptotics import (AsymptoticData, DegreeZero, asymptotic_values,
                          in_decay_interior, tail_remainder)
from .contour import PathSample, edge_reversed
from .errors import BoundaryTooClose, ToleranceNotMet
from .polyexp import (PolyExpFunction, ScaledComplex, _logaddexp,
                      _segment_tables, _wrap_phase, integral_raw_batch,
                      integral_scaled_parts)

# demanded log-gap between |w| and its error bound before a sample is trusted
_HEADROOM_LOG = math.log(1e4)
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


def _clears_headroom(logmag, err_log):
    """The one acceptance test of a boundary sample: w != 0 and
    log|w| - err_log >= _HEADROOM_LOG, with logmag = log|w| (-inf at 0).
    Elementwise on arrays. A sample that clears it has a phase error below
    1e-4 radians however small |w| is, so no floor on |w| is needed."""
    return logmag - err_log >= _HEADROOM_LOG


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
        # (z, f, err_log) of recent anchored points, newest last
        self._anchors: deque = deque(maxlen=_ANCHOR_MEMORY)

    # -- scalar evaluations -------------------------------------------------

    def derivative_scaled(self, z: complex) -> ScaledComplex:
        """f'(z) = p(z) exp(q(z)), never overflowing."""
        z = complex(z)
        pz = self.F.p(z)
        if pz == 0:
            return ScaledComplex.zero()
        qz = self.F.q(z)
        return ScaledComplex.from_complex(pz).mul(
            ScaledComplex(qz.real, _wrap_phase(qz.imag)))

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
        if _clears_headroom(fs.logmag, err_log):
            self._anchors.append((z, fs, err_log))
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

    def _rescue(self, z: complex, a: complex) -> PathSample | None:
        """f(z) - a through the scaled tail integral, with the log of its
        error bound, if z sits deep in a decay cone and the machinery
        applies; None otherwise."""
        if (self.data is None or not in_decay_interior(self.F, z)
                or self.F.q(complex(z)).real > _RESCUE_DEPTH):
            return None
        w = self.rescued(z, a, tail_remainder(self.F, z, self.tol))
        return PathSample(z, w, w.logmag + _RESCUE_REL_LOG)

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
            return rescued
        fs, f_err = self.anchored_f(z)
        return PathSample(z, *_less_target(
            fs, f_err, ScaledComplex.from_complex(-complex(a))))

    def diff_scaled(self, z: complex, a: complex) -> ScaledComplex:
        """f(z) - a with the best available relative accuracy."""
        return self.diff_sample(z, a).w

    def diff_near(self, held: PathSample, z: complex) -> PathSample | None:
        """f(z) - a as held.w plus the integral over [held.z, z], with its
        log error bound; None when the quadrature fails. The caller judges
        the headroom."""
        z = complex(z)
        carried = self._carry(held.z, held.w, held.err_log, z)
        return None if carried is None else PathSample(z, *carried)

    def curvature_log(self, z: complex, r: float) -> float:
        """log of a bound on sup |w''| over the disc |zeta - z| <= r.

        w'' = g e^q with g = p' + p q'. With g_k and q_k the Taylor
        coefficients at z, |g| <= sum_k |g_k| r^k and
        Re q <= Re q_0 + sum_{k>=1} |q_k| r^k on the disc (_disc_sizes).
        """
        F = self.F
        g = np.convolve(F.p.coeffs or (0j,), F.q_prime.coeffs or (0j,))
        dp = F.p.derivative().coeffs
        g[:len(dp)] += dp
        g0, g_tail = _disc_sizes(tuple(g.tolist()), complex(z), r)
        q0, q_tail = _disc_sizes(F.q.coeffs, complex(z), r)
        g_max = abs(g0) + g_tail
        if g_max == 0.0:
            return -math.inf
        return math.log(g_max) + q0.real + q_tail

    # -- boundary-walk evaluation -------------------------------------------
    # A walk of w = f - a (rootfinder._SharedWalk) takes its starts from
    # start, and an edge's planned samples, or an unplanned point such as a
    # bisection midpoint alone, from edge.

    def start(self, a: complex, z: complex) -> PathSample:
        """The sample of f - a at z from a remembered anchor, from 0 or from
        the decay-cone tail, whichever first clears the headroom rule."""
        z = complex(z)
        neg_a = ScaledComplex.from_complex(-complex(a))
        for value in (self.near_f, self.anchored_f):
            f = value(z)
            if f is not None:
                s = PathSample(z, *_less_target(*f, neg_a))
                if _clears_headroom(s.w.logmag, s.err_log):
                    return s
        r = self._rescue(z, a)
        if r is not None and _clears_headroom(r.w.logmag, r.err_log):
            return r
        raise BoundaryTooClose(
            f"cannot separate f - a from its error bound at {z} "
            f"(log|w| ~ {s.w.logmag:.2f}, err log {s.err_log:.2f})")

    def edge(self, a: complex, prev: PathSample, pts):
        """The runs of f - a at pts, carried from prev (carried); a sample
        that fails the headroom rule is replaced by start."""
        return carried(self, prev, pts, _clears_headroom,
                       lambda s: self.start(a, s.z))

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


def _disc_sizes(coeffs: tuple, z: complex, r: float) -> tuple:
    """(c_0, sum_{k>=1} |c_k| r^k) for the Taylor coefficients c_k at z of
    the polynomial with ascending coefficients coeffs. The sum is raised by
    1e-13 sum_i |coeffs_i| (|z| + r)^i, which covers the rounding of every
    c_k, c_0 included."""
    coeffs = coeffs or (0j,)
    powers = np.arange(len(coeffs))
    c = (z ** powers) @ _segment_tables(coeffs)[0]
    tail = float(np.abs(c[1:]) @ (r ** powers[1:]))
    slack = 1e-13 * float(np.abs(coeffs) @ ((abs(z) + r) ** powers))
    return complex(c[0]), tail + slack


def build_model(F: PolyExpFunction,
                data: AsymptoticData | None = None) -> PolyExpRootModel:
    """A model of F with data, or else with F's asymptotic data at tol
    1e-10; without any when F has no critical rays (constant q or p = 0)
    or their limits miss that tolerance."""
    if data is None and F.q.degree >= 1 and not F.p.is_zero:
        try:
            data = asymptotic_values(F, tol=1e-10)
        except (DegreeZero, ToleranceNotMet):
            data = None
    return PolyExpRootModel(F, data=data)


def _block_samples(w: ScaledComplex, err_log: float, val: np.ndarray,
                   m: np.ndarray, inc_err: np.ndarray) -> np.ndarray:
    """Walk samples from w, with log error bound err_log, through the
    increments val[k] * exp(m[k]) with log error bounds inc_err[k], as a
    (3, n) array of their log|w|, arg w and error logs.

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
    out = np.empty((3, n))
    with np.errstate(divide="ignore"):
        out[0] = np.log(np.abs(sums)) + ref
    out[1] = np.angle(sums)
    errs = np.empty(2 * n + 1)
    errs[0] = err_log
    errs[1::2] = inc_err[:n]
    errs[2::2] = _LOG_EPS + out[0]
    out[2] = np.logaddexp.accumulate(errs)[2::2]
    return out


def carried(model: PolyExpRootModel, held: PathSample, pts, accept, fix):
    """A lazy walk of model's function through pts, carried from held: each
    sample is the one before it plus the chord increment to it, yielded in
    runs (z, v) of consecutive samples (PathSample). When the carry first
    reaches a block of _PLAN_BLOCK chords, the block is integrated as one
    batch (polyexp.integral_raw_batch) and summed from the sample before it
    as arrays (_block_samples), restarting where their span stops them.

    A run ends at the end of a block, before a chord whose quadrature
    failed (the next pull raises its ToleranceNotMet), or before the first
    sample that fails accept(logmag, err_log), applied elementwise: the
    next pull passes it to fix, whose replacement is yielded alone and the
    rest summed from it, or whose None ends the walk."""
    pts = np.asarray(pts, dtype=complex)
    for lo in range(0, len(pts), _PLAN_BLOCK):
        z1 = pts[lo:lo + _PLAN_BLOCK]
        val, m, inc_err, failures = integral_raw_batch(
            model.F, np.concatenate(([held.z], z1[:-1])), z1, model.tol)
        stop = min(failures, default=len(z1))
        k = 0
        while k < stop:
            v = _block_samples(held.w, held.err_log, val[k:stop], m[k:stop],
                               inc_err[k:stop])
            good = accept(v[0], v[2])
            j = len(good) if good.all() else int(good.argmin())
            if j:
                yield z1[k:k + j], v[:, :j]
            if j == len(good):
                held = PathSample.of_run(z1[k:], v, j - 1)
            else:
                held = fix(PathSample.of_run(z1[k:], v, j))
                if held is None:
                    return
                yield held.run()
                j += 1
            k += j
        if stop < len(z1):
            raise failures[stop]
