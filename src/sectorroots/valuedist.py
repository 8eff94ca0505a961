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
from functools import cached_property

import numpy as np
from scipy.special import zeta

from .asymptotics import tail_end
from .contour import Box, edge_points, edge_reversed
from .errors import (BoundaryTooClose, NonPositiveLogM, TailTooLarge,
                     ToleranceNotMet)
from .funcmodel import PathSample, PolyExpRootModel, _HEADROOM_LOG
from .polyexp import PolyExpFunction, ScaledComplex, integral_raw_batch
from .rootfinder import SearchResult, _build_model, search_region
from .sectorgeom import RaySet

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)

_CHUNK = 1 << 19
# circle samples evaluated per quadrature batch; bounds the memory of the
# chunks a batch holds on the long radial paths of growth sectors
_CIRCLE_BLOCK = 64
# core factor counts above this are refused before anything is allocated
_MAX_CORE = 1 << 24
# a canonical-product tail term is kept while it can move log P this much
_TAIL_EPS = 1e-18
# Euler-Maclaurin weights B_2m/(2m)! = (-1)^(m+1) 2 zeta(2m)/(2 pi)^(2m)
_EM_COEFFS = tuple((-1) ** (m + 1) * 2.0 * float(zeta(2.0 * m))
                   / (2.0 * math.pi) ** (2 * m) for m in range(1, 13))


def _log_abs_f(model: PolyExpRootModel, z: list) -> list:
    """log|f| at each point of the list z via the scaled evaluator.

    Decay interiors go through the tail rescue (f = a_k + remainder), which
    keeps log|f| exact even where the anchored integral would return the
    asymptotic value plus noise. Every point's integral, [0, z] or the tail
    [z, tail_end(z)], goes into one quadrature batch. The error raised is
    that of the first point that fails, in list order.
    """
    pts = [complex(w) for w in z]
    F = model.F
    rescue = [model.in_rescue_zone(w) for w in pts]
    starts = [w if tail else 0j for w, tail in zip(pts, rescue)]
    ends = []
    errors = {}
    for i, (w, tail) in enumerate(zip(pts, rescue)):
        try:
            ends.append(tail_end(F, w) if tail else w)
        except (ValueError, ToleranceNotMet) as exc:
            errors[i] = exc
            # a zero-length stand-in; the error is raised in its place
            ends.append(w)
    val, m, _, failures = integral_raw_batch(F, starts, ends, model.tol)
    c = ScaledComplex.from_complex(complex(F.c))
    out = []
    for i, (w, tail, v, mi) in enumerate(zip(pts, rescue, val.tolist(),
                                             m.tolist())):
        if i in errors:
            raise errors[i]
        if i in failures:
            raise failures[i]
        part = ScaledComplex.from_complex(v).shift(mi)
        if tail:
            out.append(model.rescued(w, 0j, part.neg()).logmag)
        else:
            out.append(c.add(part).logmag)
    return out


def _golden_max(g, lo: float, hi: float, iters: int = 48):
    """Plain golden-section maximization on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(iters):
        if b - a < 1e-9:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _check_circle(r: float, samples: int) -> None:
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if samples < 64:
        raise ValueError("need at least 64 circle samples")


def _circle_max(log_abs, r: float, samples: int) -> float:
    """Max of log_abs on the circle |z| = r.

    Scans `samples` equispaced directions, then polishes the best one with
    a golden-section pass over the bracketing arc. log_abs takes a list of
    points and returns their values: _CIRCLE_BLOCK points per call in the
    scan, one in the polish.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = [r * cmath.exp(1j * t) for t in thetas]
    vals = []
    for lo in range(0, samples, _CIRCLE_BLOCK):
        vals += log_abs(pts[lo:lo + _CIRCLE_BLOCK])
    j = int(np.argmax(vals))
    step = 2.0 * math.pi / samples
    _, polished = _golden_max(lambda t: log_abs([r * cmath.exp(1j * t)])[0],
                              thetas[j] - step, thetas[j] + step)
    return max(float(vals[j]), float(polished))


def log_max_modulus(F: PolyExpFunction, r: float, samples: int = 256,
                    *, data=None) -> float:
    """Natural log of max |f| on the circle |z| = r, by _circle_max."""
    _check_circle(r, samples)
    model = _build_model(F, data)
    return _circle_max(lambda pts: _log_abs_f(model, pts), r, samples)


def circle_log_mean(F: PolyExpFunction, r: float, samples: int = 4096,
                    *, data=None) -> float:
    """Mean of log|f| over `samples` equispaced points of |z| = r.

    On the periodic circle the rectangle rule is spectrally accurate as
    long as no zero of f sits on (or hugs) the circle.
    """
    _check_circle(r, samples)
    model = _build_model(F, data)
    pts = [r * cmath.exp(1j * (2.0 * math.pi * k / samples))
           for k in range(samples)]
    total = 0.0
    for lo in range(0, samples, _CIRCLE_BLOCK):
        for v in _log_abs_f(model, pts[lo:lo + _CIRCLE_BLOCK]):
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
    if isinstance(F_or_product, CanonicalProduct):
        logm = [_product_log_max(F_or_product, r, samples) for r in radii]
    else:
        model_data = data
        if model_data is None:
            model_data = _build_model(F_or_product).data
        logm = [log_max_modulus(F_or_product, r, samples, data=model_data)
                for r in radii]
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
    dropped terms move log P by less than 2e-18.
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
        # highest power first, for Horner
        self._d = [float(v) for v in d[J - 1::-1]]
        self._jd = [float(v) for v in (j * d)[J - 1::-1]]

    def _u(self, z: complex) -> complex:
        u = z / self.scale
        if abs(u) >= 0.5:
            try:
                hint = (f"n_terms = {core_terms(self.rho, abs(z))} "
                        f"admits it")
            except TailTooLarge as exc:
                hint = str(exc)
            raise TailTooLarge(
                f"|z| = {abs(z):.6g} >= a_{self.n + 1}/2 = "
                f"{self.radius:.6g} with n_terms = {self.n}; {hint}")
        return u

    def log(self, z: complex) -> complex:
        """T(z/a_{N+1}), so that the tail factor is exp(-T)."""
        return self.series(self._u(z))

    def series(self, u):
        """T(u) by Horner; u may be a scalar or an array, and is not
        checked against the admitted disk |u| < 1/2."""
        acc = 0j
        for d in self._d:
            acc = (acc + d) * u
        return acc

    def dlog(self, z: complex) -> complex:
        """d/dz of T(z/a_{N+1})."""
        u = self._u(z)
        acc = 0j
        for jd in self._jd:
            acc = acc * u + jd
        return acc / self.scale


@dataclass(frozen=True)
class CanonicalProduct:
    """prod (1 - z/a_n), a_n = n^(1/rho), 0 < rho < 1: n_terms factors
    kept as a product, the rest as a zeta-series tail."""

    rho: float
    n_terms: int

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.n_terms < 1:
            raise ValueError("n_terms must be positive")

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


def canonical_product_eval(P: CanonicalProduct, z: complex) -> complex:
    """P(z): the first P.n_terms factors times the tail factor exp(-T).

    T is the zeta series of the remaining factors (see _ZetaTail), exact to
    rounding for |z| < P.max_radius; beyond it TailTooLarge names the
    n_terms that admits z, and a point that is not finite is a ValueError.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("evaluation point must be finite")
    tail = P.tail.log(z)
    s = 1.0 / P.rho
    core = 1.0 + 0.0j
    for lo in range(1, P.n_terms + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, P.n_terms)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        core *= complex(np.prod(1.0 - z / n ** s))
    return core * cmath.exp(-tail)


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
    (path_evaluator/diff_sample/diff_near/diff_scaled/derivative_scaled/
    min_samples).
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
        self.rel_err = (self.n_core + 16 + abs(self.tail.log(r_max))) * 1e-16
        self._near = self.a[self.a <= 4.0 * r_max]

    def value(self, z: complex) -> complex:
        return canonical_product_eval(self.core, z)

    def values(self, z: np.ndarray) -> np.ndarray:
        """value at every point of z, NaN where the tail does not admit
        the point (value raises TailTooLarge there). The core product is
        taken by rows, at most _CHUNK factors per pass."""
        u = z / self.tail.scale
        core = np.empty(len(z), dtype=complex)
        rows = max(1, _CHUNK // len(self.a))
        for lo in range(0, len(z), rows):
            core[lo:lo + rows] = np.prod(
                1.0 - z[lo:lo + rows, None] / self.a, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(np.abs(u) < 0.5,
                            core * np.exp(-self.tail.series(u)), np.nan)

    def log_abs(self, z: complex) -> float:
        z = complex(z)
        tail = self.tail.log(z)
        w = np.abs(1.0 - z / self.a)
        with np.errstate(divide="ignore"):
            s = float(np.sum(np.log(w)))
        return s - tail.real

    # --- sample protocol -------------------------------------------------

    def diff_sample(self, z: complex, a: complex) -> PathSample:
        """P(z) - a by direct evaluation, with the log of its rounding
        bound (the bound _ProductPath walks with)."""
        a = complex(a)
        val = self.value(z)
        err = self.rel_err * (abs(val) + abs(a)) + 1e-300
        return PathSample(complex(z), ScaledComplex.from_complex(val - a),
                          math.log(err))

    def diff_scaled(self, z: complex, a: complex) -> ScaledComplex:
        return self.diff_sample(z, a).w

    def diff_near(self, held: PathSample, z: complex) -> None:
        """Direct evaluation is absolute, so no value is carried from a
        nearby point: Newton evaluates every iterate by diff_sample."""
        return None

    def derivative_scaled(self, z: complex) -> ScaledComplex:
        z = complex(z)
        diffs = z - self.a
        k = int(np.argmin(np.abs(diffs)))
        if diffs[k] == 0:
            # on a zero: product rule leaves the deleted-factor product
            rest = np.delete(1.0 - z / self.a, k)
            tail = cmath.exp(-self.tail.log(z))
            return ScaledComplex.from_complex(
                complex(np.prod(rest)) * tail * (-1.0 / self.a[k]))
        val = self.value(z)
        # P' = P (log P)', the core's log-derivative less the tail's
        dlog = complex(np.sum(1.0 / diffs)) - self.tail.dlog(z)
        return ScaledComplex.from_complex(val * dlog)

    def path_evaluator(self, a: complex) -> "_ProductPath":
        return _ProductPath(self, complex(a))

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


class _ProductPath:
    """Boundary-walk evaluator of w = P - a for canonical products.

    Direct evaluation is absolute here (no incremental state): |P| stays
    within double range on any disk the tail admits, and w inherits only
    the factor-count rounding noise. min_samples evaluates P at all the
    points of the edge about to be walked in one pass
    (CanonicalProductModel.values); extend takes the planned value when
    it steps to the next planned point, and evaluates any other point (a
    bisection midpoint) alone. Every sample passes the same floor and
    headroom checks.
    """

    def __init__(self, model: CanonicalProductModel, a: complex):
        self.model = model
        self.a = complex(a)
        self.floor_log = math.log(1e-9 * max(1.0, abs(self.a)))
        self._pts: list[complex] = []
        # (log|w|, arg w, error log) at the planned points
        self._planned: tuple = ([], [], [])
        self._next = 0

    def _checked(self, s: PathSample) -> PathSample:
        if s.w.is_zero or s.w.logmag < self.floor_log:
            raise BoundaryTooClose(
                f"|P - a| = {s.w.abs_value():.3e} under the proximity floor "
                f"at {s.z}")
        if s.w.logmag - s.err_log < _HEADROOM_LOG:
            raise BoundaryTooClose(
                f"|P - a| at {s.z} inside evaluation noise "
                f"({s.w.abs_value():.3e} vs err {math.exp(s.err_log):.3e})")
        return s

    def start(self, z: complex) -> PathSample:
        return self._checked(self.model.diff_sample(z, self.a))

    def extend(self, prev: PathSample, z: complex) -> PathSample:
        i = self._next
        if i < len(self._pts) and z == self._pts[i]:
            self._next = i + 1
            logmag, phase, err_log = self._planned
            # NaN where the tail does not admit z: start raises there
            if logmag[i] == logmag[i]:
                return self._checked(PathSample(
                    complex(z), ScaledComplex(logmag[i], phase[i]),
                    err_log[i]))
        return self.start(z)

    def min_samples(self, z0: complex, z1: complex) -> int:
        n = self.model.min_samples(z0, z1)
        self._pts = edge_points(complex(z0), complex(z1), n)
        val = self.model.values(np.array(self._pts))
        w = val - self.a
        err = self.model.rel_err * (np.abs(val) + abs(self.a)) + 1e-300
        with np.errstate(divide="ignore"):
            self._planned = (np.log(np.abs(w)).tolist(),
                             np.angle(w).tolist(), np.log(err).tolist())
        self._next = 0
        return n


def _product_log_max(P: CanonicalProduct, r: float,
                     samples: int = 128) -> float:
    """max log|P| on |z| = r, by _circle_max."""
    _check_circle(r, samples)
    model = CanonicalProductModel(P, r)
    return _circle_max(lambda pts: [model.log_abs(z) for z in pts], r,
                       samples)


def find_product_a_points(P: CanonicalProduct, a: complex, region: Box,
                          tol: float = 1e-9) -> SearchResult:
    """Locate every a-point of the canonical product inside region.

    Same subdivision search as the integral family (see
    rootfinder.search_region), driven by the direct product evaluator.
    """
    r_max = max(abs(z) for z in region.expanded(0.05).corners())
    return search_region(CanonicalProductModel(P, r_max), a, region, tol)
