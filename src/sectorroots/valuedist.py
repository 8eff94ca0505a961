"""Growth and counting statistics for the integral family, plus the
canonical products with zeros on the positive axis.

log M(r) and circle means are computed through the scaled evaluator, so
overflow regions (order 2 and 3 growth leaves double range long before
r = 11) and deep decay sectors (where direct evaluation of f would lose
everything to cancellation) both give honest log-magnitudes.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .asymptotics import in_decay_interior, tail_remainder
from .contour import Box, PathSample, edge_reversed
from .errors import (BoundaryTooClose, NonPositiveLogM, OverflowRegion,
                     TailTooLarge, ToleranceNotMet)
from .funcmodel import (_RESCUE_REL_LOG, PolyExpRootModel, _clears_headroom,
                        build_model, carried)
from .polyexp import PolyExpFunction, ScaledComplex
from .rayconfig import _is_count
from .rootfinder import SearchResult, search_region
from .sectorgeom import RaySet

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)

_CHUNK = 1 << 19
# a circle sample of log|f| is held when its error bound is at most this
# share of |f|, about the error of log|f| it allows
_ACCEPT = 1e-9
_ACCEPT_LOG = math.log(_ACCEPT)
# core factor counts above this are refused before anything is allocated
_MAX_CORE = 1 << 24
# a canonical-product tail term is kept while it can move log P this much
_TAIL_EPS = 1e-18


def _bernoulli(n_max: int) -> list:
    """Exact B_0..B_n_max from sum over k <= n of C(n+1, k) B_k = 0."""
    B = [Fraction(1)]
    for n in range(1, n_max + 1):
        B.append(-sum(math.comb(n + 1, k) * B[k] for k in range(n))
                 / (n + 1))
    return B


# Euler-Maclaurin weights B_2m/(2m)!, m = 1..12, each rounded once
_EM_COEFFS = tuple(float(b / math.factorial(2 * m)) for m, b in
                   enumerate(_bernoulli(24)[2::2], start=1))


def _circle_points(r: float, n: int) -> list:
    """The n equispaced points r e^{2 pi i j/n} of |z| = r, j = 0 .. n-1."""
    return [r * cmath.exp(1j * t)
            for t in np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)]


def _held(logmag, err_log):
    """A circle sample is held when its relative error bound is at most
    _ACCEPT; elementwise on arrays."""
    return err_log - logmag <= _ACCEPT_LOG


class _Ring:
    """The circle |z| = r of a model as n equispaced samples
    (_circle_points), with the values of f it holds there, each with a
    relative error bound of at most _ACCEPT: log|f|, arg f and the log
    error bound, as arrays over the grid.

    scan() fills them. Anchors at the local minima of Re q on the
    ring get f by diff_sample (the tail rescue or an integral from 0).
    Between two anchors the samples are carried from each anchor by chord
    increments (walk), up to the maximum of Re q between them, so that
    |f| grows along every carry. A sample whose value misses _ACCEPT is
    carried from the other anchor, past the maximum, or else re-anchored
    by diff_sample; if that misses too, ToleranceNotMet. A point off the
    grid (off_grid) is carried from the nearest grid sample, then from the
    one on its other side, then taken by diff_sample.
    """

    def __init__(self, model: PolyExpRootModel, r: float, n: int):
        self.model = model
        self.points = _circle_points(r, n)
        self.step = 2.0 * math.pi / n
        self.values = self.logmag = self.phase = self.err_log = None

    def sample(self, j: int) -> PathSample:
        return PathSample.of_run(self.points, self.values,
                                 j % len(self.points))

    def hold(self, j: int, s: PathSample) -> None:
        self.values[:, j % len(self.points)] = (s.w.logmag, s.w.phase,
                                                s.err_log)

    def direct(self, z: complex) -> PathSample:
        """f(z) by diff_sample; in a decay cone shallower than the rescue
        zone, where the integral from 0 can miss _ACCEPT, by the tail."""
        model = self.model
        s = model.diff_sample(z, 0j)
        if (not _held(s.w.logmag, s.err_log) and model.data is not None
                and in_decay_interior(model.F, z)):
            w = model.rescued(z, 0j, tail_remainder(model.F, z, model.tol))
            s = PathSample(z, w, w.logmag + _RESCUE_REL_LOG)
        if _held(s.w.logmag, s.err_log):
            return s
        raise ToleranceNotMet(
            f"log|f| at {z} has relative error bound "
            f"{math.exp(s.err_log - s.w.logmag):.1e} above {_ACCEPT:.0e}")

    def scan(self) -> None:
        points = self.points
        n = len(points)
        req = self.model.F.q(np.array(points)).real
        low = (req <= np.roll(req, 1)) & (req < np.roll(req, -1))
        anchors = np.flatnonzero(low).tolist() or [int(np.argmin(req))]
        self.values = np.full((3, n), np.nan)
        self.logmag, self.phase, self.err_log = self.values
        for j in anchors:
            self.hold(j, self.direct(points[j]))
        for a, b in zip(anchors, anchors[1:] + [anchors[0] + n]):
            # the samples a + 1 .. b - 1 (mod n) not held yet are u .. v
            u, v = a + 1, b - 1
            if u > v:
                continue
            peak = u + int(np.argmax(req[np.arange(u, v + 1) % n]))
            u += self.walk(u - 1, range(u, peak + 1))
            stuck = u <= peak
            v -= self.walk(v + 1, range(v, u - 1, -1))
            while u <= v:
                if stuck:
                    self.hold(u, self.direct(points[u % n]))
                    u += 1
                u += self.walk(u - 1, range(u, v + 1))
                stuck = True

    def walk(self, start: int, targets: range) -> int:
        """Carry the sample held at grid index start through the grid
        indices targets (mod n), each next to the one before, by
        funcmodel.carried, holding every value up to the first that misses
        _ACCEPT, a run at a time; the count held. A chord whose quadrature
        failed ends the walk."""
        idx = np.array(targets) % len(self.points)
        held = 0
        try:
            for _, v in carried(self.model, self.sample(start),
                                [self.points[j] for j in idx.tolist()],
                                _held, lambda s: None):
                self.values[:, idx[held:held + v.shape[1]]] = v
                held += v.shape[1]
        except ToleranceNotMet:
            pass
        return held

    def off_grid(self, z: complex) -> PathSample:
        t = math.atan2(z.imag, z.real) / self.step
        j = math.floor(t)
        for i in ((j, j + 1) if t - j <= 0.5 else (j + 1, j)):
            held = self.sample(i)
            moved = self.model._carry(held.z, held.w, held.err_log, z)
            if moved is not None:
                s = PathSample(z, *moved)
                if _held(s.w.logmag, s.err_log):
                    return s
        return self.direct(z)


def _log_abs_f(ring: _Ring, pts: list) -> list:
    """log|f| at each point of pts, all on the circle of ring: a grid point
    from the ring's scan (run on the first call), any other point carried
    from the grid (_Ring.off_grid). Every value has a relative error bound
    of at most _ACCEPT, or ToleranceNotMet is raised.
    """
    if ring.logmag is None:
        ring.scan()
    n = len(ring.points)
    out = []
    for z in pts:
        j = round(math.atan2(z.imag, z.real) / ring.step) % n
        if z == ring.points[j]:
            out.append(float(ring.logmag[j]))
        else:
            out.append(ring.off_grid(complex(z)).w.logmag)
    return out


def _golden_max(log_abs, r: float, lo: float, hi: float,
                iters: int = 48) -> float:
    """Golden-section maximization of log_abs(r e^{it}) over t in [lo, hi],
    until the arc is shorter than 1e-9. The first log_abs call carries both
    initial points, and each later call one."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = log_abs([r * cmath.exp(1j * x1), r * cmath.exp(1j * x2)])
    for _ in range(iters):
        if b - a < 1e-9:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = log_abs([r * cmath.exp(1j * x2)])[0]
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = log_abs([r * cmath.exp(1j * x1)])[0]
    return f1 if f1 >= f2 else f2


def _check_circle(r: float, samples: int) -> None:
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if not _is_count(samples) or samples < 64:
        raise ValueError("need an integer of at least 64 circle samples")


def _circle_max(log_abs, r: float, samples: int) -> float:
    """Max of log_abs on the circle |z| = r.

    Scans the `samples` points of _circle_points in one log_abs call, then
    polishes the best direction by golden section over its bracketing arc
    (_golden_max). log_abs takes a list of points on the circle and
    returns their values.
    """
    vals = log_abs(_circle_points(r, samples))
    j = int(np.argmax(vals))
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)[j]
    step = 2.0 * math.pi / samples
    polished = _golden_max(log_abs, r, float(t - step), float(t + step))
    return max(float(vals[j]), float(polished))


def log_max_modulus(F: PolyExpFunction, r: float, samples: int = 256,
                    *, data=None) -> float:
    """Natural log of max |f| on the circle |z| = r, by _ring_max."""
    _check_circle(r, samples)
    return _ring_max(build_model(F, data), r, samples)


def _ring_max(model: PolyExpRootModel, r: float, samples: int) -> float:
    """_circle_max of log|f| on one _Ring of model."""
    ring = _Ring(model, r, samples)
    return _circle_max(lambda pts: _log_abs_f(ring, pts), r, samples)


def circle_log_mean(F: PolyExpFunction, r: float, samples: int = 4096,
                    *, data=None) -> float:
    """Mean of log|f| over `samples` equispaced points of |z| = r.

    On the periodic circle the rectangle rule is spectrally accurate as
    long as no zero of f sits on (or hugs) the circle. The samples are
    those of one _Ring scan.
    """
    _check_circle(r, samples)
    ring = _Ring(build_model(F, data), r, samples)
    total = 0.0
    for v in _log_abs_f(ring, ring.points):
        total += v
    return total / samples


def jensen_defect(F: PolyExpFunction, roots, r: float, samples: int = 4096,
                  *, data=None) -> float:
    """Absolute defect of Jensen's identity at radius r.

    Compares the circle mean of log|f| against log|f(0)| plus the full
    counting integral sum(m * log(r/|z_k|)) over the located zeros with
    |z_k| <= r. A complete, correctly-multiplicity'd zero list drives the
    defect to quadrature accuracy; a missed or spurious zero shows up as
    an O(log) offset.

    Note the full integral starts at 0, not at the N(r) normalization
    point 1: zeros inside the unit disk enter with log(r/|z|). With the
    truncated normalization the identity would be off by the constant
    sum(m * log(1/|z_k|)) over moduli below 1.
    """
    if abs(F.c) == 0.0:
        raise ValueError("Jensen's identity needs f(0) != 0")
    mean = circle_log_mean(F, r, samples, data=data)
    total = 0.0
    for rec in roots:
        z = complex(getattr(rec, "location", rec))
        m = int(getattr(rec, "multiplicity", 1))
        if 0.0 < abs(z) <= r:
            total += m * math.log(r / abs(z))
    return abs(total + math.log(abs(complex(F.c))) - mean)


def order_estimate(F_or_product, rgrid, *, samples: int = 128,
                   data=None) -> float:
    """Least-squares slope of log log M(r) against log r.

    Accepts either the integral family or a CanonicalProduct. The grid must
    be ascending with at least 4 radii, all beyond r = 2 (closer in, log M
    can dip under e and the outer log loses meaning: NonPositiveLogM).
    """
    radii = [float(r) for r in rgrid]
    if len(radii) < 4:
        raise ValueError("order estimate needs at least 4 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("rgrid must be strictly ascending")
    if radii[0] <= 2.0:
        raise ValueError("all radii must exceed 2")
    if not all(math.isfinite(r) for r in radii):
        raise ValueError("all radii must be finite")
    for r in radii:
        _check_circle(r, samples)
    if isinstance(F_or_product, CanonicalProduct):
        logm = _product_log_max(F_or_product, radii, samples)
    else:
        model = build_model(F_or_product, data)
        logm = [_ring_max(model, r, samples) for r in radii]
    bad = [r for r, m in zip(radii, logm) if m <= 1.0]
    if bad:
        raise NonPositiveLogM(
            f"log M(r) <= 1 at r = {bad[0]}; grid starts too far in")
    x = np.log(radii)
    y = np.log(logm)
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# counting functions


@dataclass(frozen=True)
class CountingTable:
    """n(r), N(r) and log M(r) on a shared radius grid.

    N(r) = integral of n(t)/t from 1 to r, evaluated in closed form from
    the root moduli; moduli below 1 contribute log r.
    """

    radii: tuple
    n: tuple
    N: tuple
    logM: tuple

    @property
    def slack(self) -> tuple:
        """Jensen slack N(r) - logM(r), nonpositive up to the O(1) term."""
        return tuple(nv - lm for nv, lm in zip(self.N, self.logM))

    def rows(self):
        return zip(self.radii, self.n, self.N, self.logM, self.slack)

    def to_csv(self, path: str | None = None) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["r", "n", "N", "logM", "slack"])
        for r, n, nn, lm, sl in self.rows():
            w.writerow([f"{r:.17g}", n, f"{nn:.17g}", f"{lm:.17g}",
                        f"{sl:.17g}"])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _root_moduli(roots):
    pairs = []
    for rec in roots:
        z = getattr(rec, "location", rec)
        m = int(getattr(rec, "multiplicity", 1))
        pairs.append((abs(complex(z)), m))
    pairs.sort(key=lambda p: p[0])
    return pairs


def counting_functions(roots, logM, rgrid) -> CountingTable:
    """Exact n(r)/N(r) from located roots, tabulated against log M.

    roots may be RootRecords (multiplicity honored) or bare complex
    numbers. logM is either a sequence aligned with rgrid or a callable
    evaluated on it. The root list must be complete out to max(rgrid).
    """
    radii = [float(r) for r in rgrid]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("rgrid must be strictly ascending")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if callable(logM):
        logm = [float(logM(r)) for r in radii]
    else:
        logm = [float(v) for v in logM]
        if len(logm) != len(radii):
            raise ValueError("logM and rgrid lengths differ")
    pairs = _root_moduli(roots)
    mods = [p[0] for p in pairs]
    cum = np.cumsum([p[1] for p in pairs]) if pairs else np.zeros(0)

    ns = []
    Ns = []
    for r in radii:
        k = bisect_right(mods, r)
        ns.append(int(cum[k - 1]) if k else 0)
        acc = 0.0
        if r >= 1.0:
            for rho, m in pairs[:k]:
                acc += m * (math.log(r) - math.log(max(rho, 1.0)))
        else:
            # integral runs backward from 1; only moduli below 1 matter
            for rho, m in pairs:
                if rho < 1.0:
                    acc += m * math.log(max(rho, r))
                else:
                    break
        Ns.append(acc)
    return CountingTable(tuple(radii), tuple(ns), tuple(Ns), tuple(logm))


# ---------------------------------------------------------------------------
# canonical products with zeros a_n = n^(1/rho)


def core_terms(rho: float, radius: float) -> int:
    """Core size for |z| <= radius: N = max(64, ceil((4 radius)^rho) + 8).

    Then a_{N+1} >= 4 radius, so the zeta tail converges at least like
    4^-j there. Raises TailTooLarge when N would pass 2^24 factors.
    """
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    x = (4.0 * float(radius)) ** rho
    if not x <= _MAX_CORE - 8:
        raise TailTooLarge(
            f"|z| = {radius:.6g} needs about {x:.3g} core factors at "
            f"rho = {rho:g}, over the cap of {_MAX_CORE}")
    return max(64, math.ceil(x) + 8)


def _scaled_hurwitz(x: np.ndarray, q: int) -> np.ndarray:
    """q^x zeta(x, q) = sum over k >= 0 of (1 + k/q)^-x, for x > 1, q >= 1.

    zeta(x, q) itself underflows once x log q passes about 708; the scaled
    sum stays near q/(x - 1) + 1/2. The first K terms are summed directly
    and the rest by Euler-Maclaurin from M = q + K. K is chosen so that
    M >= x + 30, where each of the twelve Bernoulli terms is at least 39
    times smaller than the one before; a row whose direct terms fall below
    e^-46 before K reaches that drops its remainder instead.
    """
    need = np.maximum(0.0, np.ceil(x) + 30.0 - q)
    negligible = np.ceil(q * np.expm1(46.0 / x))
    K = int(np.max(np.minimum(need, negligible)))
    k = np.arange(K, dtype=np.float64)
    direct = np.exp(-np.outer(x, np.log1p(k / q))).sum(axis=1)
    M = float(q + K)
    em = M / (x - 1.0) + 0.5
    t = x / M
    for m, b in enumerate(_EM_COEFFS, start=1):
        em = em + b * t
        t = t * (x + 2 * m - 1) * (x + 2 * m) / (M * M)
    rest = np.exp(-x * math.log1p(K / q)) * em
    return direct + np.where(need <= K, rest, 0.0)


class _ZetaTail:
    """log of prod over n > N of (1 - z/a_n), for |z| < a_{N+1}/2.

    Expanding each logarithm gives -sum_j c_j z^j with
    c_j = zeta(j/rho, N+1)/j. The series is kept in u = z/a_{N+1} as
    T(u) = sum_j d_j u^j, d_j = c_j a_{N+1}^j, so log prod = -T. Terms are
    kept while 2^-j d_j >= 1e-18: on the whole admitted disk |u| < 1/2 the
    dropped terms move log P by less than 2e-18. T and its derivative are
    power sums over the same d_j.
    """

    def __init__(self, rho: float, n: int):
        s = 1.0 / rho
        q = n + 1
        try:
            self.scale = float(q) ** s
        except OverflowError:
            raise TailTooLarge(
                f"a_{q} = {q}^(1/{rho:g}) overflows double range") from None
        self.rho = rho
        self.n = n
        self.radius = 0.5 * self.scale
        j = np.arange(1, math.ceil(math.log2((q + 1) / _TAIL_EPS)) + 2)
        d = _scaled_hurwitz(j * s, q) / j
        J = int(np.nonzero(d * 0.5 ** j >= _TAIL_EPS)[0][-1]) + 1
        self.j, self.d = j[:J], d[:J]

    def admitted(self, z: np.ndarray) -> np.ndarray:
        """Mask of the points of z inside the admitted disk."""
        return np.abs(z) < self.radius

    def check(self, z: complex) -> None:
        """TailTooLarge, naming the n_terms that admits z, outside it."""
        if self.admitted(np.array([z]))[0]:
            return
        try:
            hint = f"n_terms = {core_terms(self.rho, abs(z))} admits it"
        except TailTooLarge as exc:
            hint = str(exc)
        raise TailTooLarge(
            f"|z| = {abs(z):.6g} >= a_{self.n + 1}/2 = {self.radius:.6g} "
            f"with n_terms = {self.n}; {hint}")

    def series(self, z: np.ndarray) -> np.ndarray:
        """T(z/a_{N+1}) at every point of z, unchecked against the disk, at
        most _CHUNK terms a pass; a row's sum (u^j a running product along
        it, half the time of u ** j) does not depend on its batch."""
        T = np.empty(len(z), dtype=complex)
        rows = _CHUNK // len(self.d)
        for i in range(0, len(z), rows):
            u = np.repeat(z[i:i + rows, None] / self.scale, len(self.d), 1)
            T[i:i + rows] = (np.multiply.accumulate(u, 1) * self.d).sum(-1)
        return T

    def dlog(self, z: complex) -> complex:
        """d/dz of T(z/a_{N+1}), at a z the disk admits (unchecked)."""
        u = np.array([z])[:, None] / self.scale
        jd = self.j * self.d
        return complex((u ** (self.j - 1) * jd).sum(axis=-1)[0]) / self.scale


@dataclass(frozen=True)
class CanonicalProduct:
    """prod (1 - z/a_n), a_n = n^(1/rho), 0 < rho < 1: n_terms factors
    kept as a product, the rest as a zeta-series tail."""

    rho: float
    n_terms: int

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not _is_count(self.n_terms) or self.n_terms < 1:
            raise ValueError("n_terms must be positive: an integer >= 1")

    @cached_property
    def zeros(self) -> np.ndarray:
        """Ascending zero moduli. Materialized lazily; avoid for huge n_terms."""
        n = np.arange(1, self.n_terms + 1, dtype=np.float64)
        return n ** (1.0 / self.rho)

    @cached_property
    def tail(self) -> _ZetaTail:
        """The factors beyond n_terms, as a zeta series."""
        return _ZetaTail(self.rho, self.n_terms)

    @property
    def max_radius(self) -> float:
        """The tail admits |z| < a_{N+1}/2, N = n_terms."""
        return self.tail.radius


def _product_values(P: CanonicalProduct, z: np.ndarray) -> np.ndarray:
    """P at every point of the 1-D array z, NaN where the tail does not
    admit the point: the core product over the first P.n_terms zeros, at
    most _CHUNK factors a pass in chunks of zeros and of rows, times
    exp(-T). A row's operations, so its bits, do not depend on its batch."""
    s = 1.0 / P.rho
    width = min(P.n_terms, _CHUNK)
    rows = _CHUNK // width
    core = np.ones(len(z), dtype=complex)
    for lo in range(1, P.n_terms + 1, width):
        # z * (1/a) has the bits of z / a (numpy divides by a real as a
        # product with its reciprocal) in less than half the time
        inv = 1.0 / np.arange(lo, min(lo + width, P.n_terms + 1),
                              dtype=np.float64) ** s
        for i in range(0, len(z), rows):
            block = np.multiply.reduce(1.0 - z[i:i + rows, None] * inv, 1)
            core[i:i + rows] = np.multiply(core[i:i + rows], block)
    # np.multiply, out of place: numpy's complex product is not commutative
    # bit for bit, `a * b` swaps its operands when b is a temporary of 256
    # KB or more, and `a *= b` takes another path for one element
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(P.tail.admitted(z),
                        np.multiply(core, np.exp(-P.tail.series(z))), np.nan)


def canonical_product_eval(P: CanonicalProduct, z: complex) -> complex:
    """P(z) by _product_values: the first P.n_terms factors times exp(-T).

    T is the zeta series of the remaining factors (see _ZetaTail), exact to
    rounding for |z| < P.max_radius; beyond it TailTooLarge names the
    n_terms that admits z, a value past double range is OverflowRegion,
    and a point that is not finite is a ValueError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("evaluation point must be finite")
    val = complex(_product_values(P, np.array([z]))[0])
    if not cmath.isfinite(val):
        P.tail.check(z)
        raise OverflowRegion(f"|P(z)| overflows double range at z = {z}")
    return val


def canonical_one_point_rays(rho: float) -> RaySet:
    """Rays where the 1-points of the canonical product accumulate.

    With positive zeros the product has the indicator
    h(theta) = pi cos(rho (theta - pi)) / sin(pi rho) on [0, 2 pi], and
    P - 1 has the indicator max(h, 0). Its 1-points accumulate only where
    that indicator has a kink. For rho >= 1/2, h vanishes at
    arg z = +-pi(1 - 1/(2 rho)) and is <= 0 between them, around arg z = 0,
    so the kinks are those two rays. For rho <= 1/2, h > 0 on (0, 2 pi) and
    the only kink is the jump of h' at the zero ray, so the only ray is 0.
    Both cases give the single ray 0 at rho = 1/2.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if rho <= 0.5:
        return RaySet([0.0])
    t = math.pi * (1.0 - 0.5 / rho)
    return RaySet([t, -t])


class CanonicalProductModel:
    """Sample-protocol evaluator for a canonical product on |z| <= r_max.

    The core keeps the core_terms(rho, r_max) factors, which hold every
    zero up to 4 r_max; the rest is the zeta tail of that core, admitted
    out to at least 2 r_max. Works with the winding subdivision search
    (start/edge/min_samples for its walks, diff_sample/diff_near/
    diff_scaled/derivative_scaled/curvature_log for Newton). value, values
    and derivative_scaled all read _product_values on the model's core.

    Direct evaluation is absolute here, so a walk carries no state: |P|
    stays within double range on any disk the tail admits, and P - a
    inherits only the factor-count rounding noise. Every walk sample,
    a start or a bisection midpoint included, is one of edge's, and must
    clear the headroom rule (funcmodel._clears_headroom) against its
    rounding bound, or the walk raises BoundaryTooClose. There is no floor
    on |P - a| itself: P is tiny along the positive axis, where its zeros
    lie, and a sample there that clears the rule has a correct phase.
    """

    def __init__(self, P: CanonicalProduct, r_max: float):
        if not r_max > 0.0:
            raise ValueError("r_max must be positive")
        self.r_max = float(r_max)
        self.core = CanonicalProduct(P.rho, core_terms(P.rho, r_max))
        self.n_core = self.core.n_terms
        self.a = self.core.zeros
        self.tail = self.core.tail
        # rounding grows with the factor count and the size of log(tail)
        T = self.tail.series(np.array([self.r_max + 0j]))[0]
        self.rel_err = (self.n_core + 16 + abs(T)) * 1e-16
        self._near = self.a[self.a <= 4.0 * r_max]

    def value(self, z: complex) -> complex:
        return canonical_product_eval(self.core, z)

    def values(self, z: np.ndarray) -> np.ndarray:
        """value at every point of z, NaN where the tail does not admit
        the point (value raises TailTooLarge there)."""
        return _product_values(self.core, z)

    # --- sample protocol -------------------------------------------------

    def err_bound(self, abs_val, a: complex):
        """Rounding bound of P - a from |P| (elementwise on arrays): the
        factor-count noise of P and of the subtraction."""
        return self.rel_err * (abs_val + abs(a)) + 1e-300

    def diff_sample(self, z: complex, a: complex) -> PathSample:
        """P(z) - a by direct evaluation, with the log of its rounding
        bound (the bound a walk's samples are held to)."""
        a = complex(a)
        val = self.value(z)
        return PathSample(complex(z), ScaledComplex.from_complex(val - a),
                          math.log(self.err_bound(abs(val), a)))

    def diff_scaled(self, z: complex, a: complex) -> ScaledComplex:
        return self.diff_sample(z, a).w

    def diff_near(self, held: PathSample, z: complex) -> None:
        """Direct evaluation is absolute, so no value is carried from a
        nearby point: Newton evaluates every iterate by diff_sample."""
        return None

    def curvature_log(self, z: complex, r: float) -> None:
        """No bound on |P''| is derived, so a root's certificate box is
        walked."""
        return None

    def derivative_scaled(self, z: complex) -> ScaledComplex:
        z = complex(z)
        diffs = z - self.a
        k = int(np.argmin(np.abs(diffs)))
        if diffs[k] == 0:
            # on a zero: product rule leaves the deleted-factor product
            self.tail.check(z)
            rest = np.delete(1.0 - z / self.a, k)
            tail = complex(np.exp(-self.tail.series(np.array([z])))[0])
            return ScaledComplex.from_complex(
                complex(np.prod(rest)) * tail * (-1.0 / self.a[k]))
        val = self.value(z)
        # P' = P (log P)', the core's log-derivative less the tail's
        dlog = complex(np.sum(1.0 / diffs)) - self.tail.dlog(z)
        return ScaledComplex.from_complex(val * dlog)

    def start(self, a: complex, z: complex) -> PathSample:
        """The walk's sample of P - a at z: edge's, at z alone."""
        return PathSample.of_run(*next(self.edge(a, None, [z])), 0)

    def edge(self, a: complex, prev: PathSample | None, pts: list):
        """The samples of P - a at pts as one run, evaluated in one pass
        (values) when pulled, nothing carried from prev. It ends before the
        first sample that fails the headroom rule, where the next pull
        raises TailTooLarge outside the admitted disk, else
        BoundaryTooClose."""
        a = complex(a)
        z = np.array(pts, dtype=complex)
        val = self.values(z)
        with np.errstate(divide="ignore"):
            v = np.array([np.log(np.abs(val - a)), np.angle(val - a),
                          np.log(self.err_bound(np.abs(val), a))])
        good = _clears_headroom(v[0], v[2])
        j = len(good) if good.all() else int(good.argmin())
        if j:
            yield z[:j], v[:, :j]
        if j < len(good):
            s = PathSample.of_run(z, v, j)
            if s.w.logmag != s.w.logmag:
                self.tail.check(s.z)
            raise BoundaryTooClose(
                f"|P - a| = {s.w.abs_value():.3e} at {s.z} fails the "
                f"headroom rule against its error bound "
                f"{math.exp(s.err_log):.3e}")

    def min_samples(self, z0: complex, z1: complex) -> int:
        """Sample count for an edge from the phase its nearby zeros can
        turn; the same in both directions."""
        z0 = complex(z0)
        z1 = complex(z1)
        if edge_reversed(z0, z1):
            z0, z1 = z1, z0
        d = z1 - z0
        L = abs(d)
        if L == 0.0 or len(self._near) == 0:
            return 12
        t = ((self._near - z0.real) * d.real + (0.0 - z0.imag) * d.imag)
        # L * L underflows to 0 on edges shorter than about 1e-154
        t = np.clip(t / L / L, 0.0, 1.0)
        px = z0.real + t * d.real
        py = z0.imag + t * d.imag
        dist = np.hypot(self._near - px, py)
        phase = float(np.sum(np.minimum(math.pi, L / np.maximum(dist, 1e-6))))
        return min(12 + int(phase / 1.2) + int(0.5 * L), 20000)


def _product_log_max(P: CanonicalProduct, radii, samples: int) -> list:
    """max log|P| on each circle |z| = r of radii, by _circle_max, from one
    values call per scan or polish round; OverflowRegion once |P| leaves
    double range (log M(r) above about 709)."""
    def log_abs(m: CanonicalProductModel, pts: list) -> list:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.abs(m.values(np.array(pts))))
        if not (out < math.inf).all():
            raise OverflowRegion(f"|P| overflows on |z| = {m.r_max:g}")
        return out.tolist()
    return [_circle_max(lambda pts, m=CanonicalProductModel(P, r):
                        log_abs(m, pts), r, samples) for r in radii]


def find_product_a_points(P: CanonicalProduct, a: complex, region: Box,
                          tol: float = 1e-9) -> SearchResult:
    """Locate every a-point of the canonical product inside region.

    Same subdivision search as the integral family (see
    rootfinder.search_region), driven by the direct product evaluator.
    """
    r_max = max(abs(z) for z in region.expanded(0.05).corners())
    return search_region(CanonicalProductModel(P, r_max), a, region, tol)
