"""Shared fixtures.

The example root searches are expensive (the degree-3 example takes tens
of seconds), so they are session-scoped and shared between the unit tests
and the acceptance gate. Acceptance results are collected into a registry
and echoed as one line per criterion at the end of the run.
"""

import cmath
import functools
import math
import time

import pytest

from sectorroots import (Box, ScaledComplex, SectorRootsError,
                         asymptotic_values, example1, example2,
                         find_a_points)
from sectorroots.polyexp import _wrap_phase

# criterion id -> (passed, detail); filled by tests/test_acceptance.py
CRITERIA: dict = {}


def record_criterion(num: int, passed: bool, detail: str) -> None:
    CRITERIA[num] = (bool(passed), detail)


@functools.lru_cache(maxsize=None)
def gamma_quadrature(s: float) -> float:
    """Gamma(s) as the integral of t^(s-1) e^(-t), s > 0, by QUADPACK: the
    independent check of the examples' math.gamma coefficients.

    Split at 1 so QUADPACK sees the endpoint singularity (s < 1) and the
    infinite tail separately.
    """
    from scipy.integrate import quad
    head, eh = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    tail, et = quad(lambda t: t ** (s - 1.0) * math.exp(-t), 1.0, math.inf,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    if eh + et > 1e-11:
        raise ArithmeticError(f"gamma quadrature error bound {eh + et:.3e}")
    return head + tail


class NearCriticalZero(SectorRootsError):
    """q' is numerically zero at the evaluation point of the sector form."""


def sector_remainder(F, z: complex, data) -> tuple:
    """(p(z)/q'(z)) exp(q(z)) in scaled form, and the nearest ray index:
    the first-order sector form of f - a_k, which the tests check against
    quadrature and the growth criteria.

    Raises NearCriticalZero when q'(z) is numerically zero, where the
    sector form degenerates.
    """
    z = complex(z)
    qp = F.q_prime(z)
    if abs(qp) < 1e-12 * (1.0 + abs(z)) ** max(data.d - 1, 0):
        raise NearCriticalZero(f"q'({z}) ~ 0; sector form undefined here")
    k = data.nearest_ray(cmath.phase(z) % (2.0 * math.pi))
    pz = F.p(z)
    if pz == 0:
        return ScaledComplex.zero(), k
    factor = ScaledComplex.from_complex(pz / qp)
    qz = F.q(z)
    return factor.mul(ScaledComplex(qz.real, _wrap_phase(qz.imag))), k


def asymptotic_approx(F, z: complex, data):
    """First-order sector approximation a_k + (p/q') exp(q) at z.

    Returns (value, k). value is a plain complex when it fits in double
    range; in growth regions beyond that it is a ScaledComplex (where the
    a_k term is below relative machine precision anyway).
    """
    rem, k = sector_remainder(F, z, data)
    if rem.is_zero or rem.logmag <= 690.0:
        return complex(data.values[k]) + rem.to_complex(), k
    return rem, k



def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in range(1, 10):
        if num in CRITERIA:
            passed, detail = CRITERIA[num]
            tr.write_line(f"{'PASS' if passed else 'FAIL'} criterion {num}: "
                          f"{detail}")
        else:
            tr.write_line(f"NOT RUN criterion {num}: no result recorded")


@pytest.fixture(scope="session")
def ex1():
    return example1()


@pytest.fixture(scope="session")
def ex2():
    return example2()


@pytest.fixture(scope="session")
def data1(ex1):
    return asymptotic_values(ex1, tol=1e-9)


@pytest.fixture(scope="session")
def data2(ex2):
    return asymptotic_values(ex2, tol=1e-9)


def _timed_search(F, target, region, data):
    t0 = time.perf_counter()
    result = find_a_points(F, target, region, tol=1e-9, data=data)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ex1_zeros(ex1, data1):
    return _timed_search(ex1, 0j, Box(-8, -8, 8, 8), data1)


@pytest.fixture(scope="session")
def ex1_ones(ex1, data1):
    return _timed_search(ex1, 1.0 + 0j, Box(-8, -8, 8, 8), data1)


@pytest.fixture(scope="session")
def ex2_zeros(ex2, data2):
    return _timed_search(ex2, 0j, Box(-6, -6, 6, 6), data2)


@pytest.fixture(scope="session")
def ex2_ones(ex2, data2):
    return _timed_search(ex2, 1.0 + 0j, Box(-6, -6, 6, 6), data2)
