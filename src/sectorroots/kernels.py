"""The comparison kernel K and its power-weighted integral identity.

K(x) = x^2 (beta + x^2) / (1 + 2 beta x^2 + x^4) with beta = cos(pi - 2 eps),
alpha = sin(eps). The integral of K(s)/s^(2+delta) over (0, inf) has the
closed residue form (pi / (2 sin(pi gamma))) cos(gamma (pi - 2 eps)) with
gamma = (1+delta)/2; the module cross-validates it by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour
from .errors import BoundViolated, ToleranceNotMet


@dataclass(frozen=True)
class KernelParams:
    """Kernel parameters (eps, delta) and the derived constants.

    eps is the sector half-angle offset in (0, pi/2]; delta in (0, 1) is
    the integral weight exponent. alpha = 1 (eps = pi/2) is allowed; there
    the quadratic-bound constant c1 degenerates to infinity.
    """

    eps: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 0.5 * math.pi:
            raise ValueError("eps must lie in (0, pi/2]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def alpha(self) -> float:
        return math.cos(0.5 * math.pi - self.eps)

    @property
    def beta(self) -> float:
        # 2 alpha^2 - 1 = cos(pi - 2 eps)
        return math.cos(math.pi - 2.0 * self.eps)

    @property
    def gamma(self) -> float:
        return 0.5 * (1.0 + self.delta)

    @property
    def c1(self) -> float:
        a = self.alpha
        s = 4.0 * a * math.sqrt(max(0.0, 1.0 - a * a))
        return math.inf if s == 0.0 else 1.0 / s


# past this x (x^4 overflows near 1.16e77), K is divided through by x^4
_X4_SAFE = 1e77


def kernel_K(x, P: KernelParams):
    """K(x); accepts scalars or numpy arrays, x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x2 = x * x
        y2 = 1.0 / x2
        val = np.where(
            x > _X4_SAFE,
            (P.beta * y2 + 1.0) / (y2 * y2 + 2.0 * P.beta * y2 + 1.0),
            x2 * (P.beta + x2) / (1.0 + 2.0 * P.beta * x2 + x2 * x2))
    return float(val) if val.ndim == 0 else val


def kernel_integral_residue(P: KernelParams) -> float:
    """Closed form of the integral of K(s)/s^(2+delta) over (0, inf)."""
    g = P.gamma
    return 0.5 * math.pi / math.sin(math.pi * g) * math.cos(
        g * (math.pi - 2.0 * P.eps))


def kernel_integral_quadrature(P: KernelParams, tol: float = 1e-9) -> float:
    """The same integral by adaptive quadrature, absolute error <= tol.

    Substituting x = s^2 gives (1/2) integral of x^(-gamma) (x+beta) /
    (1 + 2 beta x + x^2). The head [0,1] under x = w^(1/(1-gamma)) and the
    tail (inverted, u = 1/x) under u = v^(1/gamma) both turn into smooth
    integrands on [0,1]: the Jacobian cancels the endpoint power exactly.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    g = P.gamma
    b = P.beta

    def head(w):
        x = w ** (1.0 / (1.0 - g))
        return (x + b) / (1.0 + 2.0 * b * x + x * x) / (1.0 - g)

    def tail(v):
        u = v ** (1.0 / g)
        return (1.0 + b * u) / (1.0 + 2.0 * b * u + u * u) / g

    each = 0.2 * tol
    # looked up on its module at call time, so a wrapper installed there
    # sees both calls
    vh, eh = contour.integrate_segment_err(head, 0.0, 1.0, tol=each)
    vt, et = contour.integrate_segment_err(tail, 0.0, 1.0, tol=each)
    bound = 0.5 * (eh + et)
    if bound > tol:
        raise ToleranceNotMet(
            f"quadrature error bound {bound:.3e} exceeds tol {tol:.3e}")
    return 0.5 * (vh.real + vt.real)


@dataclass(frozen=True)
class KernelBoundsReport:
    """Pointwise slack of the two kernel bounds over a grid.

    quad_slack is max of c1*x^2 - |K(x)| (all x); tail_slack is max of
    4x^2/(2+x^4) - |K(x) - 1| over grid points x >= 2, or None if the
    grid has none.
    """

    params: KernelParams
    points: tuple
    quad_slack: float
    tail_slack: float | None


def kernel_bounds_check(P: KernelParams, grid) -> KernelBoundsReport:
    """Assert |K| <= c1 x^2 and, past x = 2, |K - 1| <= 4x^2/(2+x^4).

    The second bound controls the deviation of K from its limit 1 at
    infinity (K itself tends to 1, so no decaying bound on |K| can hold
    there; the deviation version is provable for every beta in [-1, 1]).
    Raises BoundViolated naming the first witness point in grid order; a
    violation would mean the kernel implementation is broken. Grid points
    must be finite and nonnegative; ValueError otherwise. Past x = 1e154,
    c1 x^2 exceeds double range and quad_slack is inf.
    """
    xs = np.fromiter(grid, dtype=np.float64)
    if not (np.isfinite(xs) & (xs >= 0.0)).all():
        raise ValueError("grid points must be finite and nonnegative")
    k = kernel_K(xs, P)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y2 = 1.0 / (xs * xs)
        tb = np.where(xs > _X4_SAFE, 4.0 * y2 / (2.0 * y2 * y2 + 1.0),
                      4.0 * xs * xs / (2.0 + xs ** 4))
        qb = (P.c1 * xs * xs if math.isfinite(P.c1)
              else np.full_like(xs, math.inf))
    absk = np.abs(k)
    tail = xs >= 2.0
    dev = np.abs(k - 1.0)
    over_quad = absk > qb + 1e-12
    over_tail = tail & (dev > tb + 1e-12)
    bad = np.flatnonzero(over_quad | over_tail)
    if bad.size:
        i = bad[0]
        x = float(xs[i])
        if over_quad[i]:
            raise BoundViolated(
                f"|K({x})| = {absk[i]:.6e} exceeds c1 x^2 = {qb[i]:.6e}")
        raise BoundViolated(
            f"|K({x}) - 1| = {dev[i]:.6e} exceeds 4x^2/(2+x^4) = "
            f"{tb[i]:.6e}")
    quad_slack = float(np.max(qb - absk, initial=-math.inf))
    tail_slack = float(np.max((tb - dev)[tail])) if tail.any() else None
    return KernelBoundsReport(P, tuple(xs.tolist()), quad_slack, tail_slack)


def kernel_report(P: KernelParams, tol: float = 1e-9) -> dict:
    """Residue/quadrature cross-check as a JSON-ready dict."""
    res = kernel_integral_residue(P)
    quad = kernel_integral_quadrature(P, tol)
    return {"eps": P.eps, "delta": P.delta, "residue": res,
            "quadrature": quad, "abs_diff": abs(res - quad)}


def kernel_grid_report(eps_values=(0.2, 0.5, 1.0, 1.4),
                       delta_values=(0.05, 0.1, 0.3, 0.6),
                       tol: float = 1e-9) -> list[dict]:
    """Cross-check over the (eps, delta) grid; one dict per pair."""
    return [kernel_report(KernelParams(e, d), tol)
            for e in eps_values for d in delta_values]
