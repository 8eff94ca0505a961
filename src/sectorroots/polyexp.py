"""Entire functions of the form f(z) = c + int_0^z p(t) exp(q(t)) dt.

p and q are polynomials. The family is closed under the data (p, q, c), and
every evaluation routine here works from that data alone. Values of f can
span thousands of orders of magnitude, so alongside plain complex evaluation
there is a scaled representation (log-magnitude, phase) and scaled variants
of the integral that never overflow. Every segment integral of p exp(q),
a single one included, is one batch of contour.integrate_segments
(integral_raw_batch).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OverflowRegion

# Largest exponent allowed in plain double-precision evaluation. exp(690)
# is near 1e299, which leaves headroom for the polynomial factor.
OVERFLOW_LOG = 690.0


def _horner(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending coefficients at an array of points."""
    if len(coeffs) < 2:
        return np.full(z.shape, coeffs[0] if coeffs else 0j, dtype=complex)
    acc = coeffs[-1] * z
    for c in coeffs[-2:0:-1]:
        if c:
            acc += c
        acc *= z
    if coeffs[0]:
        acc += coeffs[0]
    return acc


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) for two floats, bit for bit np.logaddexp
    (the same branches, on the same libm exp and log1p) without the
    ufunc call overhead; infinities of either sign and NaN behave alike."""
    if x == y:
        return x + _LOG2
    d = x - y
    if d > 0.0:
        return x + math.log1p(math.exp(-d))
    if d <= 0.0:
        return y + math.log1p(math.exp(d))
    return d


def _wrap_phase(t: float) -> float:
    """Reduce to (-pi, pi]."""
    t = math.fmod(t, 2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    elif t <= -math.pi:
        t += 2.0 * math.pi
    return t


class Polynomial:
    """Polynomial with complex coefficients, ascending order.

    coeffs[k] multiplies z**k. Trailing zero coefficients are stripped so
    the leading coefficient is nonzero whenever the polynomial is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] = ()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, z):
        """Horner evaluation; z may be a scalar or a numpy array."""
        if isinstance(z, np.ndarray):
            return _horner(self.coeffs, z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


@dataclass(frozen=True)
class ScaledComplex:
    """Nonzero complex number exp(logmag + i*phase); zero is logmag = -inf.

    The representation survives magnitudes far outside double range and
    keeps full relative precision in both magnitude and phase.
    """

    logmag: float
    phase: float

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(float("-inf"), 0.0)

    @staticmethod
    def from_complex(w: complex) -> "ScaledComplex":
        w = complex(w)
        if w == 0:
            return ScaledComplex.zero()
        # math.atan2, not cmath.phase: the latter raises OverflowError on
        # some libm builds when imag/real underflows to a subnormal
        return ScaledComplex(math.log(abs(w)), math.atan2(w.imag, w.real))

    @property
    def is_zero(self) -> bool:
        return self.logmag == float("-inf")

    def to_complex(self) -> complex:
        """Convert to a plain complex; overflows to inf beyond double range."""
        if self.is_zero:
            return 0j
        if self.logmag > 709.0:
            return cmath.rect(float("inf"), self.phase)
        return cmath.rect(math.exp(self.logmag), self.phase)

    def shift(self, dlog: float) -> "ScaledComplex":
        """Multiply by exp(dlog)."""
        if self.is_zero:
            return self
        return ScaledComplex(self.logmag + dlog, self.phase)

    def mul(self, other: "ScaledComplex") -> "ScaledComplex":
        if self.is_zero or other.is_zero:
            return ScaledComplex.zero()
        return ScaledComplex(self.logmag + other.logmag,
                             _wrap_phase(self.phase + other.phase))

    def div(self, other: "ScaledComplex") -> "ScaledComplex":
        if other.is_zero:
            raise ZeroDivisionError("scaled division by zero")
        if self.is_zero:
            return self
        return ScaledComplex(self.logmag - other.logmag,
                             _wrap_phase(self.phase - other.phase))

    def neg(self) -> "ScaledComplex":
        if self.is_zero:
            return self
        return ScaledComplex(self.logmag, _wrap_phase(self.phase + math.pi))

    def add(self, other: "ScaledComplex") -> "ScaledComplex":
        """Sum; exact when the magnitudes are within double headroom of
        each other, otherwise the smaller term is dropped (it is below
        relative machine precision in that case)."""
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        big, small = (self, other) if self.logmag >= other.logmag else (other, self)
        if big.logmag - small.logmag > 40.0:
            return big
        w = cmath.rect(1.0, big.phase) + cmath.rect(
            math.exp(small.logmag - big.logmag), small.phase)
        if w == 0:
            return ScaledComplex.zero()
        return ScaledComplex.from_complex(w).shift(big.logmag)

    def abs_value(self) -> float:
        """|self| as a double; underflows to 0 and overflows to inf."""
        if self.is_zero:
            return 0.0
        if self.logmag > 709.0:
            return float("inf")
        if self.logmag < -745.0:
            return 0.0
        return math.exp(self.logmag)


@dataclass(frozen=True)
class PolyExpFunction:
    """The data (p, q, c) defining f(z) = c + int_0^z p exp(q)."""

    p: Polynomial
    q: Polynomial
    c: complex

    @property
    def d(self) -> int:
        """deg q, the number of critical rays."""
        return max(self.q.degree, 0)

    @property
    def A(self) -> complex:
        """Leading coefficient of q (only meaningful when d >= 1)."""
        if self.q.degree < 1:
            raise ValueError("q is constant; no leading coefficient of interest")
        return self.q.leading

    @functools.cached_property
    def q_prime(self) -> Polynomial:
        """q', built once per function."""
        return self.q.derivative()


@functools.lru_cache(maxsize=64)
def _segment_tables(coeffs: tuple) -> tuple[np.ndarray, ...]:
    """Constant matrices for a polynomial with these coefficients.

    With B[i, j] = coeffs[i + j] * binom(i + j, j) and exponents e = 0 ..
    n - 1, (z0**e @ B) * delta**e are the coefficients of s**j in
    poly(z0 + s*delta); S takes those to the values at s = 0, 1/2, 1 and
    then the s-derivatives there.
    """
    n = max(len(coeffs), 1)
    B = np.zeros((n, n), dtype=complex)
    for i in range(len(coeffs)):
        for j in range(len(coeffs) - i):
            B[i, j] = coeffs[i + j] * math.comb(i + j, j)
    j = np.arange(n)[:, None]
    s = np.array([0.0, 0.5, 1.0])
    S = np.hstack([s ** j, j * s ** np.maximum(j - 1, 0)]).astype(complex)
    tables = (B, np.arange(n).astype(complex), S)
    for t in tables:
        t.flags.writeable = False
    return tables


def _horner_real(R: np.ndarray, s: np.ndarray) -> np.ndarray:
    acc = R[:, -1]
    for j in range(R.shape[1] - 2, -1, -1):
        acc = acc * s + R[:, j]
    return acc


def _re_poly_max(R: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Max over s in [0, 1] of each row's real polynomial (ascending
    coefficients), given the larger endpoint value of each row: the max is
    there or at an interior local maximum, found in closed form up to
    degree 3 and from the roots of the derivative above."""
    k, n = R.shape
    if n < 3:
        return best
    # r' moves at most sum_j j |r_j| (j >= 2) from r'(0) = r_1 over
    # [0, 1]; rows where that cannot change its sign peak at an end
    turns = np.abs(R[:, 2:]) @ np.arange(2.0, n) >= np.abs(R[:, 1])
    if not turns.any():
        return best
    if n > 4:
        for i in turns.nonzero()[0].tolist():
            c = np.trim_zeros(R[i], "b")
            if len(c) < 3:
                continue
            for r in np.roots((np.arange(1, len(c)) * c[1:])[::-1]):
                if abs(r.imag) < 1e-9 and 0.0 < r.real < 1.0:
                    best[i] = max(best[i], np.polyval(c[::-1], r.real))
        return best
    r1, r2 = R[:, 1], R[:, 2]
    peaks = []
    quad = r2 < 0.0
    if n == 4:
        r3 = R[:, 3]
        # r' = 3 r3 s^2 + 2 r2 s + r1 has its + to - crossing, the local
        # max of a cubic, at (-r2 - sqrt(disc)) / (3 r3)
        disc = r2 * r2 - 3.0 * r3 * r1
        cubic = r3 != 0.0
        quad &= ~cubic
        real = cubic & (disc >= 0.0)
        if real.any():
            peaks.append(((-r2 - np.sqrt(np.where(real, disc, 0.0)))
                          / (3.0 * np.where(real, r3, 1.0)), real))
    # a concave quadratic peaks at -r1 / (2 r2), inside when 0 < r1 < -2 r2
    quad &= (r1 > 0.0) & (r1 < -2.0 * r2)
    if quad.any():
        peaks.append((-0.5 * r1 / np.where(quad, r2, -1.0), quad))
    for s, ok in peaks:
        inside = ok & (s > 0.0) & (s < 1.0)
        if inside.any():
            best = np.where(inside, np.maximum(best, _horner_real(R, s)), best)
    return best


def _segment_data(q: Polynomial, z0: np.ndarray, delta: np.ndarray):
    """Per segment [z0, z0 + delta]: the exact max of Re q, the largest |q|
    at s = 0, 1/2, 1 (the phase noise of exp(q) scales with it) and 1.5
    times the largest |dq/ds| there (a bound on the phase swing of exp(q)),
    all from the Taylor coefficients of q in the segment parameter s."""
    B, e, S = _segment_tables(q.coeffs)
    T = ((z0[:, None] ** e) @ B) * (delta[:, None] ** e)
    Q = T @ S
    A = np.abs(Q).reshape(-1, 2, 3).max(axis=2)
    m = _re_poly_max(T.real, np.maximum(Q[:, 0].real, Q[:, 2].real))
    return m, A[:, 0], 1.5 * A[:, 1]


def segments_re_q_max(q: Polynomial, z0, z1) -> np.ndarray:
    """Exact max of Re q on each straight segment [z0[i], z1[i]].

    Re q restricted to a segment is a real polynomial in the parameter, so
    the maximum sits at an endpoint or at a real critical point inside.
    """
    z0 = np.asarray(z0, dtype=complex)
    return _segment_data(q, z0, np.asarray(z1) - z0)[0]


# phase swing of exp(q) one GK(7, 15) panel resolves: for exp(i theta s)
# on [0, 1] its |K - G| / L1 is 3e-13 at theta = 3, 2e-11 at 4 and 2e-7 at
# 8, and a swing (1.5 max |dq/ds|) of 4 keeps theta under about 2.7
_PANEL_SWING = 4.0


def _chunk_counts(swing: np.ndarray) -> np.ndarray:
    """Chunks per segment, planned so that one panel resolves each: a
    segment of swing at most _PANEL_SWING stays whole, a longer one is cut
    into ceil(swing / _PANEL_SWING) chunks, at most 256."""
    return np.clip(np.ceil(swing / _PANEL_SWING), 1, 256).astype(int)


def _quadrature(F: PolyExpFunction, z0: np.ndarray, delta: np.ndarray,
                m: np.ndarray, mag: np.ndarray, tol: float):
    """The quadrature core: integrals of p exp(q - m[i]) over the segments
    [z0[i], z0[i] + delta[i]] in one GK batch, as integrate_segments
    returns them (values, absolute bounds, failures), in units of exp(m).
    Where |q| reaches mag[i], exp(q) carries phase noise of |q| ulps, below
    which refinement cannot help: that is segment i's noise floor."""
    from .contour import integrate_segments

    p, q = F.p.coeffs, F.q.coeffs
    return integrate_segments(
        lambda z, seg: _horner(p, z) * np.exp(_horner(q, z) - m[seg, None]),
        z0, delta, tol, 1e-15 * (1.0 + mag))


def _chunks(F: PolyExpFunction, z0: np.ndarray, z1: np.ndarray,
            swing: np.ndarray):
    """The chunks of the segments [z0[i], z1[i]]: the count n[i] of each
    segment's chunks, the segment of every chunk, the chunk starts and
    lengths, and the max of Re q and the largest |q| on each chunk."""
    n = _chunk_counts(swing)
    seg = np.repeat(np.arange(len(z0)), n)
    ends = np.cumsum(n)
    j = np.arange(len(seg)) - np.repeat(ends - n, n)
    step = ((z1 - z0) / n)[seg]
    c0 = z0[seg] + j * step
    c1 = z0[seg] + (j + 1) * step
    c1[ends - 1] = z1
    cd = c1 - c0
    cm, cmag, _ = _segment_data(F.q, c0, cd)
    return n, seg, c0, cd, cm, cmag


def integral_raw_batch(F: PolyExpFunction, z0, z1, tol: float = 1e-12):
    """The integrals of p exp(q) over the segments [z0[i], z1[i]] in one
    quadrature batch, as arrays: (val, m, err_log, failures).

    Segment i's integral is val[i] * exp(m[i]), with log absolute error
    bound err_log[i] (-inf, with val[i] = 0, for a zero-length segment);
    failures maps the index of every segment whose quadrature failed to
    its ToleranceNotMet, and val and err_log mean nothing there. Segments
    with a large phase swing are cut into chunks, the chunks of every
    segment go to the quadrature together, and the chunks of a segment are
    summed at the largest of their scales. A segment's result does not
    depend on the rest of the batch beyond rounding: BLAS may sum one row
    of a larger matrix product in a different order. A single segment is a
    batch of one (_one_segment_parts), so it runs this same code.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    m, mag, swing = _segment_data(F.q, z0, z1 - z0)
    if not (swing > _PANEL_SWING).any():
        vals, bounds, failures = _quadrature(F, z0, z1 - z0, m, mag, tol)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return vals, m, m + np.log(bounds), failures
    n, seg, c0, cd, cm, cmag = _chunks(F, z0, z1, swing)
    cv, cb, cf = _quadrature(F, c0, cd, cm, cmag, tol)
    first = np.cumsum(n) - n
    m = np.maximum.reduceat(cm, first)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.add.reduceat(cv * np.exp(cm - m[seg]), first)
        err_log = np.logaddexp.reduceat(cm + np.log(cb), first)
    failures = {}
    for i in sorted(cf):
        failures.setdefault(int(seg[i]), cf[i])
    return vals, m, err_log, failures


def _one_segment_parts(F: PolyExpFunction, z0: complex, z1: complex,
                       tol: float) -> tuple[ScaledComplex, float]:
    """integral_scaled_parts for one segment of nonzero length: a batch of
    one (integral_raw_batch), cut into chunks like any other segment when
    its phase swing calls for them."""
    val, m, err_log, failures = integral_raw_batch(F, [z0], [z1], tol)
    if failures:
        raise failures[0]
    value = ScaledComplex.from_complex(complex(val[0])).shift(float(m[0]))
    return value, float(err_log[0])


def integral_scaled_parts(F: PolyExpFunction, z0: complex, z1: complex,
                          tol: float = 1e-12) -> tuple[ScaledComplex, float]:
    """int_{z0}^{z1} p exp(q) along the straight segment, in scaled form,
    and the log of its attained absolute error bound.

    The exponential is factored at the path maximum of Re q, so the working
    integrand is bounded by |p| and the result keeps full relative accuracy
    for arbitrarily large or small magnitudes. The error bound covers
    quadrature truncation and the machine roundoff floor of the samples,
    in the same (true, unscaled) units as the value.
    """
    z0 = complex(z0)
    z1 = complex(z1)
    if z0 == z1:
        return ScaledComplex.zero(), -math.inf
    return _one_segment_parts(F, z0, z1, tol)


def eval_f(F: PolyExpFunction, z: complex, tol: float = 1e-12) -> complex:
    """f(z) by adaptive quadrature along the straight segment [0, z].

    Raises OverflowRegion when Re q exceeds the safe exponent range anywhere
    on the path; callers should switch to the sector form there.
    """
    z = complex(z)
    if z == 0:
        return complex(F.c)
    m = segments_re_q_max(F.q, [0j], [z])[0]
    if m > OVERFLOW_LOG:
        raise OverflowRegion(
            f"Re q reaches {m:.1f} > {OVERFLOW_LOG:.0f} on [0, {z}]")
    val = integral_scaled_parts(F, 0j, z, tol)[0]
    return complex(F.c) + val.to_complex()


# ---------------------------------------------------------------------------
# JSON encoding of function specifications


def _pair(w: complex) -> list[float]:
    w = complex(w)
    return [w.real, w.imag]


def function_to_json(F: PolyExpFunction) -> str:
    """Serialize as {"p": [[re, im], ...], "q": [[re, im], ...], "c": [re, im]}."""
    doc = {
        "p": [_pair(c) for c in F.p.coeffs],
        "q": [_pair(c) for c in F.q.coeffs],
        "c": _pair(F.c),
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def function_from_json(text: str) -> PolyExpFunction:
    doc = json.loads(text)
    for key in ("p", "q", "c"):
        if key not in doc:
            raise ValueError(f"function spec missing key {key!r}")
    p = Polynomial([complex(re, im) for re, im in doc["p"]])
    q = Polynomial([complex(re, im) for re, im in doc["q"]])
    c = complex(doc["c"][0], doc["c"][1])
    return PolyExpFunction(p=p, q=q, c=c)


def load_function(path) -> PolyExpFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(fh.read())

