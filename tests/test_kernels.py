"""Kernel identity and bounds: closed residue form, quadrature
cross-check against an independent high-precision oracle, pointwise
bound reports."""

import math

import mpmath as mp
import numpy as np
import pytest

from sectorroots import (BoundViolated, KernelParams, kernel_K, kernels,
                         kernel_bounds_check, kernel_grid_report,
                         kernel_integral_quadrature, kernel_integral_residue)
from sectorroots.kernels import kernel_report

mp.mp.dps = 30


def test_params_validate():
    with pytest.raises(ValueError):
        KernelParams(0.0, 0.5)
    with pytest.raises(ValueError):
        KernelParams(0.5 * math.pi + 1e-9, 0.5)
    with pytest.raises(ValueError):
        KernelParams(0.5, 0.0)
    with pytest.raises(ValueError):
        KernelParams(0.5, 1.0)
    KernelParams(0.5 * math.pi, 0.5)  # right endpoint allowed


def test_derived_constants():
    P = KernelParams(0.25 * math.pi, 0.4)
    assert P.alpha == pytest.approx(math.sin(0.25 * math.pi), abs=1e-15)
    assert P.beta == pytest.approx(0.0, abs=1e-15)
    assert P.gamma == pytest.approx(0.7, abs=1e-15)
    assert P.c1 == pytest.approx(0.5, abs=1e-12)
    assert KernelParams(0.5 * math.pi, 0.4).c1 == math.inf


def test_kernel_values():
    P = KernelParams(0.5 * math.pi, 0.5)
    assert kernel_K(0.0, P) == 0.0
    # beta = 1 collapses K to x^2/(1+x^2)
    assert kernel_K(1.0, P) == pytest.approx(0.5, abs=1e-15)
    assert kernel_K(3.0, P) == pytest.approx(9.0 / 10.0, abs=1e-15)
    # K(1) = 1/2 for every eps: numerator and denominator share (1+beta)
    for eps in (0.1, 0.3, 0.8, 1.2):
        assert kernel_K(1.0, KernelParams(eps, 0.5)) == pytest.approx(
            0.5, abs=1e-14)


def test_kernel_limit_one():
    P = KernelParams(0.3, 0.5)
    for x in (20.0, 50.0, 200.0):
        assert abs(kernel_K(x, P) - 1.0) <= 4.0 * x * x / (2.0 + x ** 4)


def test_kernel_past_x4_overflow():
    # x^4 overflows past about 1.16e77; K is taken divided through by x^4
    # there, and tends to 1
    P = KernelParams(0.5, 0.5)
    assert kernel_K(1e78, P) == 1.0
    b = mp.mpf(P.beta)
    for x in (1e20, 3e77, 1e200):
        X = mp.mpf(x)
        want = X ** 2 * (b + X ** 2) / (1 + 2 * b * X ** 2 + X ** 4)
        assert kernel_K(x, P) == pytest.approx(float(want), rel=1e-15)
    # below the switch the direct formula is kept, bit for bit
    xs = np.geomspace(1e-3, 1e76, 300)
    x2 = xs * xs
    direct = x2 * (P.beta + x2) / (1.0 + 2.0 * P.beta * x2 + x2 * x2)
    assert np.array_equal(kernel_K(xs, P), direct)


def test_kernel_array_input():
    P = KernelParams(0.7, 0.2)
    xs = np.linspace(0.0, 5.0, 11)
    vals = kernel_K(xs, P)
    assert isinstance(vals, np.ndarray)
    assert vals[0] == 0.0
    assert vals.shape == xs.shape


def test_residue_closed_form_special_point():
    # eps = pi/2, delta = 1/2: gamma = 3/4, cosine argument vanishes,
    # value is (pi/2)/sin(3pi/4) = pi/sqrt(2)
    P = KernelParams(0.5 * math.pi, 0.5)
    assert kernel_integral_residue(P) == pytest.approx(
        math.pi / math.sqrt(2.0), abs=1e-14)


def test_residue_against_mpmath_quadrature():
    # independent oracle: integrate K(s)/s^(2+delta) directly at 30 digits
    eps = mp.mpf("0.7")
    delta = mp.mpf("0.37")
    beta = mp.cos(mp.pi - 2 * eps)

    def integrand(s):
        s2 = s * s
        return (beta + s2) / ((1 + 2 * beta * s2 + s2 * s2) * s ** delta)

    want = mp.quad(integrand, [0, 1, 10, 100, mp.inf])
    P = KernelParams(float(eps), float(delta))
    assert kernel_integral_residue(P) == pytest.approx(float(want), abs=1e-12)
    assert kernel_integral_quadrature(P) == pytest.approx(float(want),
                                                          abs=1e-9)


def test_quadrature_matches_residue_on_grid():
    reports = kernel_grid_report(eps_values=(0.2, 0.5, 1.0, 0.5 * math.pi),
                                 delta_values=(0.05, 0.3, 0.6, 0.9))
    assert len(reports) == 16
    worst = max(rep["abs_diff"] for rep in reports)
    assert worst < 1e-8


def test_kernel_report_keys():
    rep = kernel_report(KernelParams(0.5, 0.1))
    assert set(rep) == {"eps", "delta", "residue", "quadrature", "abs_diff"}
    assert rep["abs_diff"] < 1e-9


def test_quadrature_reaches_the_engine_through_its_module(monkeypatch):
    # the kernel check looks integrate_segment_err up on contour at call
    # time, so a wrapper installed there (a tracer's) sees the head and the
    # tail integral
    from sectorroots import contour

    real = contour.integrate_segment_err
    calls = []

    def counted(g, z0, z1, *args, **kwargs):
        calls.append((z0, z1))
        return real(g, z0, z1, *args, **kwargs)

    monkeypatch.setattr(contour, "integrate_segment_err", counted)
    P = KernelParams(0.5, 0.3)
    assert kernel_integral_quadrature(P) == pytest.approx(
        kernel_integral_residue(P), abs=1e-9)
    assert calls == [(0.0, 1.0), (0.0, 1.0)]


def test_quadrature_validates_tol():
    with pytest.raises(ValueError):
        kernel_integral_quadrature(KernelParams(0.5, 0.5), tol=0.0)


def test_small_delta_limit():
    # as delta -> 0 the residue tends to (pi/2) sin(eps) from below, with
    # first-order coefficient -(pi/4)(pi - 2 eps) cos(eps)
    for eps in (0.2, 1.0):
        lim = 0.5 * math.pi * math.sin(eps)
        coeff = -0.25 * math.pi * (math.pi - 2.0 * eps) * math.cos(eps)
        for delta in (1e-5, 1e-6):
            diff = kernel_integral_residue(KernelParams(eps, delta)) - lim
            assert diff / delta == pytest.approx(coeff, rel=2e-2)


def test_bounds_hold_on_dense_grid():
    grid = np.concatenate([np.linspace(0.0, 12.0, 4801),
                           np.geomspace(12.0, 1e4, 400)])
    for eps in (0.1, 0.5, 1.0, 0.5 * math.pi):
        rep = kernel_bounds_check(KernelParams(eps, 0.5), grid)
        assert rep.tail_slack is not None and rep.tail_slack >= 0.0
        if eps == 0.5 * math.pi:
            assert rep.quad_slack == math.inf
        else:
            assert rep.quad_slack >= 0.0


def test_bounds_check_small_grid():
    rep = kernel_bounds_check(KernelParams(0.5, 0.5), [0.0, 0.5, 1.5])
    assert rep.tail_slack is None  # nothing at or past x = 2
    with pytest.raises(ValueError):
        kernel_bounds_check(KernelParams(0.5, 0.5), [-1.0])


def test_bounds_check_rejects_non_finite_points():
    # nan used to pass with quad_slack = inf, and inf gave tail_slack = nan
    P = KernelParams(0.5, 0.5)
    for grid in ([0.5, math.nan, 3.0], [math.inf], [-math.inf]):
        with pytest.raises(ValueError, match="finite"):
            kernel_bounds_check(P, grid)
    # past x = 1e77, where x^4 overflows, both bounds are still checked
    rep = kernel_bounds_check(P, [3.0, 1e100, 1e300])
    assert math.isfinite(rep.tail_slack) and rep.tail_slack >= 0.0
    assert kernel_bounds_check(P, [1e76]).tail_slack >= 0.0


def test_bounds_check_names_first_witness(monkeypatch):
    P = KernelParams(0.5, 0.5)
    # the tail bound fails past x = 3, the quadratic one at x = 0.25
    monkeypatch.setattr(kernels, "kernel_K",
                        lambda x, P: np.where(x > 3.0, 5.0, 0.0)
                        + np.where(x == 0.25, 1.0, 0.0))
    with pytest.raises(BoundViolated, match=r"\|K\(3\.5\) - 1\|"):
        kernel_bounds_check(P, [0.0, 1.0, 3.5, 4.0])
    with pytest.raises(BoundViolated, match=r"\|K\(0\.25\)\| = 1"):
        kernel_bounds_check(P, [0.0, 0.25, 3.5])


def test_bounds_report_matches_pointwise_rule():
    P = KernelParams(0.7, 0.5)
    grid = np.concatenate([np.linspace(0.0, 12.0, 241),
                           np.geomspace(12.0, 1e4, 40)])
    rep = kernel_bounds_check(P, grid)
    quad = [P.c1 * x * x - abs(kernel_K(x, P)) for x in grid]
    tail = [4.0 * x * x / (2.0 + x ** 4) - abs(kernel_K(x, P) - 1.0)
            for x in grid if x >= 2.0]
    assert rep.points == tuple(float(x) for x in grid)
    assert rep.quad_slack == max(quad)
    assert rep.tail_slack == max(tail)
