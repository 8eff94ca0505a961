"""asymptotics: critical rays, limits along them, sector approximations."""

import cmath
import math

import mpmath as mp
import pytest

from sectorroots import (DegreeZero, PolyExpFunction, Polynomial,
                         accumulation_rays_analytic, asymptotic_values,
                         critical_rays, eval_f, exp_function,
                         square_minus_one)
from conftest import asymptotic_approx, sector_remainder

from sectorroots.asymptotics import in_decay_interior, tail_remainder

mp.mp.dps = 30


def test_critical_rays_example1(ex1):
    rays = critical_rays(ex1)
    assert rays == pytest.approx([0.0, math.pi], abs=1e-12)


def test_critical_rays_example2(ex2):
    rays = critical_rays(ex2)
    want = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    assert rays == pytest.approx(want, abs=1e-12)


def test_critical_rays_rotation():
    # multiplying A by e^{i t} rotates every ray by -t/d
    t = 0.7
    base = PolyExpFunction(Polynomial((1.0,)), Polynomial((0.0, 0.0, -1.0)),
                           0.0)
    spun = PolyExpFunction(Polynomial((1.0,)),
                           Polynomial((0.0, 0.0, -cmath.exp(1j * t))), 0.0)
    r0 = critical_rays(base)
    r1 = critical_rays(spun)
    for a, b in zip(r0, sorted((x + t / 2.0) % (2.0 * math.pi) for x in r1)):
        assert a == pytest.approx(b % (2.0 * math.pi), abs=1e-12)


def test_degree_zero_raises():
    with pytest.raises(DegreeZero):
        critical_rays(square_minus_one())


def test_asymptotic_values_example1(data1):
    assert abs(data1.values[0] - 1.0) < 1e-8
    assert abs(data1.values[1] - 0.0) < 1e-8


def test_asymptotic_values_example2(data2):
    want = (1.0, 0.0, 0.0)
    for v, w in zip(data2.values, want):
        assert abs(v - w) < 1e-8


def test_asymptotic_values_exp():
    data = asymptotic_values(exp_function(), tol=1e-10)
    assert data.d == 1
    assert data.rays == pytest.approx((math.pi,), abs=1e-12)
    assert abs(data.values[0]) < 1e-10


def test_constant_p_limits_equal_c():
    F = PolyExpFunction(Polynomial(()), Polynomial((0.0, 0.0, -1.0)), 2.5)
    data = asymptotic_values(F)
    assert all(v == 2.5 for v in data.values)


def test_nearest_ray(data1):
    assert data1.nearest_ray(0.1) == 0
    assert data1.nearest_ray(3.0) == 1
    assert data1.nearest_ray(2.0 * math.pi - 0.05) == 0


def test_sector_remainder_matches_truth(ex1, data1):
    # deep in the decay cone the first-order form tracks f - a_k closely
    z = 6.0 + 0.5j
    rem, k = sector_remainder(ex1, z, data1)
    assert k == 0
    truth = complex(mp.erfc(mp.mpc(z)) / 2
                    + mp.mpc(z) / mp.sqrt(mp.pi) * mp.e ** (-mp.mpc(z) ** 2))
    got = -rem.to_complex()  # f - a_0 = -(p/q') e^q (1 + O(1/z^2))
    assert abs(got - truth) / abs(truth) < 0.02


def test_asymptotic_approx_agrees_with_quadrature(ex1, data1):
    z = 5.5 * cmath.exp(0.3j)
    approx, k = asymptotic_approx(ex1, z, data1)
    truth = eval_f(ex1, z)
    assert abs(approx - truth) / abs(truth) < 0.01


def test_in_decay_interior(ex1):
    assert in_decay_interior(ex1, 3.0 + 0.1j)
    assert not in_decay_interior(ex1, 3.0j)
    assert not in_decay_interior(ex1, 0.0)


def test_tail_remainder_full_precision(ex1, data1):
    # exact f - a_0 via the outward tail integral, against mpmath erfc
    z = 4.0 + 0.3j
    tail = tail_remainder(ex1, z)
    truth = mp.erfc(mp.mpc(z)) / 2 \
        + mp.mpc(z) / mp.sqrt(mp.pi) * mp.e ** (-mp.mpc(z) ** 2)
    assert tail.logmag == pytest.approx(float(mp.log(abs(truth))), abs=1e-9)
    # f - a_0 = -(erfc/2 + z e^{-z^2}/sqrt(pi)) near the positive real axis
    got = tail.to_complex()
    assert abs(got + complex(truth)) / abs(complex(truth)) < 1e-11


def test_tail_remainder_rejects_growth_cone(ex1):
    with pytest.raises(ValueError):
        tail_remainder(ex1, 3.0j)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_asymptotic_values_rejects_nonpositive_tol(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        asymptotic_values(exp_function(), tol=tol)


def test_accumulation_rays_example1(data1):
    zeros = accumulation_rays_analytic(data1, 0j)
    ones = accumulation_rays_analytic(data1, 1.0 + 0j)
    assert zeros == pytest.approx([math.pi / 4, 7 * math.pi / 4], abs=1e-12)
    assert ones == pytest.approx([3 * math.pi / 4, 5 * math.pi / 4],
                                 abs=1e-12)


def test_accumulation_rays_example2(data2):
    zeros = accumulation_rays_analytic(data2, 0j)
    ones = accumulation_rays_analytic(data2, 1.0 + 0j)
    assert zeros == pytest.approx([math.pi / 6, 11 * math.pi / 6], abs=1e-9)
    want = [math.pi / 2, 5 * math.pi / 6, 7 * math.pi / 6, 3 * math.pi / 2]
    assert ones == pytest.approx(want, abs=1e-9)


def test_accumulation_rays_generic_target(data1):
    # a target equal to no limit collects every transition ray
    rays = accumulation_rays_analytic(data1, 0.5 + 0.5j)
    assert len(rays) == 4
