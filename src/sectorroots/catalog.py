"""Built-in example functions.

The two worked examples plus two degenerate encodings used for
calibration. Coefficients that equal reciprocal gamma values are
computed with `math.gamma`, never pasted in as decimals;
`gamma_quadrature` computes the same Gamma values by QUADPACK as an
independent check. It is the only part of the package that needs scipy,
and imports it when called.
"""

from __future__ import annotations

import functools
import math

from .contour import Box
from .polyexp import PolyExpFunction, Polynomial


@functools.lru_cache(maxsize=None)
def gamma_quadrature(s: float) -> float:
    """Gamma(s) as the integral of t^(s-1) e^(-t), s > 0.

    Split at 1 so QUADPACK sees the endpoint singularity (s < 1) and the
    infinite tail separately.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    from scipy.integrate import quad
    head, eh = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    tail, et = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 1.0, math.inf,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    if eh + et > 1e-11:
        raise ArithmeticError(f"gamma quadrature error bound {eh + et:.3e}")
    return head + tail


def example1() -> PolyExpFunction:
    """f(z) = 1/2 + integral of (2/sqrt(pi)) t^2 e^(-t^2).

    Degree 2; decay rays at 0 and pi carry asymptotic values 1 and 0, so
    zeros drift to +-pi/4 and 1-points to pi +- pi/4.
    """
    coeff = 2.0 / math.gamma(0.5)
    return PolyExpFunction(p=Polynomial((0.0, 0.0, coeff)),
                           q=Polynomial((0.0, 0.0, -1.0)),
                           c=0.5)


def example2() -> PolyExpFunction:
    """f(z) = 1/3 + integral of (a t^3 + b t) e^(-t^3).

    a = 1/Gamma(4/3), b = 1/Gamma(2/3) make the value along the positive
    real ray exactly 1; the other two decay rays carry 0.
    """
    a = 1.0 / math.gamma(4.0 / 3.0)
    b = 1.0 / math.gamma(2.0 / 3.0)
    return PolyExpFunction(p=Polynomial((0.0, b, 0.0, a)),
                           q=Polynomial((0.0, 0.0, 0.0, -1.0)),
                           c=1.0 / 3.0)


def exp_function() -> PolyExpFunction:
    """e^z written as 1 + integral of e^t."""
    return PolyExpFunction(p=Polynomial((1.0,)),
                           q=Polynomial((0.0, 1.0)),
                           c=1.0)


def square_minus_one() -> PolyExpFunction:
    """z^2 - 1; constant exponent, handy for rootfinder calibration."""
    return PolyExpFunction(p=Polynomial((0.0, 2.0)),
                           q=Polynomial((0.0,)),
                           c=-1.0)


def example(which: int) -> PolyExpFunction:
    if which == 1:
        return example1()
    if which == 2:
        return example2()
    raise ValueError("example index must be 1 or 2")


def example_region(which: int) -> Box:
    """Search windows used throughout: [-8,8]^2 and [-6,6]^2."""
    if which == 1:
        return Box(-8.0, -8.0, 8.0, 8.0)
    if which == 2:
        return Box(-6.0, -6.0, 6.0, 6.0)
    raise ValueError("example index must be 1 or 2")
