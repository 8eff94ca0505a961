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
  * when the headroom between |w| and the accumulated error collapses, the
    value is re-anchored by a fresh integral along the ray from 0, whose
    error is relative to the value at the sample itself;
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

import numpy as np

from .asymptotics import (AsymptoticData, asymptotic_values, in_decay_interior,
                          sector_remainder, tail_remainder)
from .contour import edge_points
from .errors import BoundaryTooClose, NearCriticalZero, ToleranceNotMet
from .polyexp import (PolyExpFunction, ScaledComplex, eval_f_prime,
                      integral_scaled_batch, integral_scaled_parts)

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

    def ensure_data(self) -> AsymptoticData | None:
        if self.data is None and self.F.q.degree >= 1 and not self.F.p.is_zero:
            self.data = asymptotic_values(self.F, tol=1e-10)
        return self.data

    # -- scalar evaluations -------------------------------------------------

    def derivative_scaled(self, z: complex) -> ScaledComplex:
        return eval_f_prime(self.F, z)

    def anchored_f(self, z: complex) -> tuple[ScaledComplex, float]:
        """f(z) by a fresh integral from 0, with the log error bound."""
        z = complex(z)
        c_sc = ScaledComplex.from_complex(complex(self.F.c))
        if z == 0:
            return c_sc, self.log_tol + min(c_sc.logmag, 0.0)
        val, int_err_log = integral_scaled_parts(self.F, 0j, z, self.tol)
        fs = c_sc.add(val)
        err_log = np.logaddexp(int_err_log,
                               _LOG_EPS + max(fs.logmag, c_sc.logmag))
        return fs, float(err_log)

    def in_rescue_zone(self, z: complex) -> bool:
        return (self.data is not None
                and in_decay_interior(self.F, z)
                and self.F.q(complex(z)).real <= _RESCUE_DEPTH)

    def _rescue(self, z: complex, a: complex) -> ScaledComplex | None:
        """f(z) - a through the scaled tail integral, if z sits deep in a
        decay cone and the machinery applies; None otherwise."""
        if not self.in_rescue_zone(z):
            return None
        data = self.data
        tail = tail_remainder(self.F, z, self.tol)
        k = data.nearest_ray(math.atan2(z.imag, z.real) % (2 * math.pi))
        gap = complex(a) - data.values[k]
        if abs(gap) <= 10.0 * data.value_tol * (1.0 + abs(a)):
            return tail
        return ScaledComplex.from_complex(-gap).add(tail)

    def diff_scaled(self, z: complex, a: complex) -> ScaledComplex:
        """f(z) - a with the best available relative accuracy."""
        z = complex(z)
        rescued = self._rescue(z, a)
        if rescued is not None:
            return rescued
        fs, _ = self.anchored_f(z)
        return fs.add(ScaledComplex.from_complex(-complex(a)))

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

    def _try(self, z: complex, w: ScaledComplex,
             err_log: float) -> PathSample | None:
        if w.is_zero or w.logmag - err_log < _HEADROOM_LOG:
            return None
        return PathSample(z, w, err_log)

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
            err_log = float(np.logaddexp(prev.err_log, inc_err_log))
            w = prev.w.add(inc)
            if not w.is_zero:
                err_log = float(np.logaddexp(err_log, _LOG_EPS + w.logmag))
            s = self._try(z, w, err_log)
            if s is not None:
                return self._check_floor(s)
        f, f_err = self.model.anchored_f(z)
        w = f.add(self.neg_a)
        err_log = float(np.logaddexp(
            f_err, _LOG_EPS + max(f.logmag, self.neg_a.logmag)))
        s = self._try(z, w, err_log)
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
