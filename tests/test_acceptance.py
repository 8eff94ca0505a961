"""Acceptance gate.

One test per criterion, each at its stated tolerance. Every test records
a PASS/FAIL line (echoed in the terminal summary) carrying the measured
numbers, then asserts.

Three checks compare against an expectation derived from the analysis
and evaluated independently of the code under test:

- criterion 4: the first-order sector form a_k + (p/q') e^q leaves a
  relative error equal, to leading order, to the next integration-by-parts
  term |(p'q' - p q'') / (p q'^2)| = O(r^-d) (exactly 1/(2 r^2) for the
  degree-2 example), so the error falls by about 2^d from r = 10 to 20;
- criterion 5: near delta = 0 the kernel identity approaches
  (pi/2) sin eps linearly, with slope dI/ddelta(0) =
  -(pi/4)(pi - 2 eps) cos eps, so at delta = 1e-3 the gap to the limit is
  that first-order term (2.11e-3 at eps = 0.2);
- criterion 8: for zeros n^(1/rho) the 1-points accumulate where the
  indicator max(h, 0), h(theta) = pi cos(rho(theta - pi)) / sin(pi rho),
  has a kink; for rho = 1/3 that is the positive real axis only.
"""

import cmath
import math

import numpy as np
from conftest import record_criterion

from sectorroots import (AccumulationConfig, Box, CanonicalProduct,
                         KernelParams, ScaledComplex, canonical_one_point_rays,
                         canonical_product_eval, enumerate_configs,
                         exp_function, find_product_a_points, jensen_defect,
                         kernel_grid_report, kernel_integral_quadrature,
                         kernel_integral_residue, order_estimate, rayconfig)
from sectorroots.asymptotics import asymptotic_approx
from sectorroots.catalog import gamma_quadrature
from sectorroots.funcmodel import PolyExpRootModel
from sectorroots.sectorgeom import angle_distance
from sectorroots.valuedist import core_terms

PI = math.pi


def _conclude(num: int, ok: bool, detail: str) -> None:
    record_criterion(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


def _crash(num: int, exc: BaseException) -> None:
    record_criterion(num, False, f"crashed: {type(exc).__name__}: {exc}")


def _worst_deviation(result, center: float, r_min: float,
                     r_max: float | None = None) -> float:
    worst = 0.0
    for rec in result:
        z = rec.location
        if abs(z) < r_min or (r_max is not None and abs(z) > r_max):
            continue
        worst = max(worst, angle_distance(cmath.phase(z), center))
    return worst


def test_criterion_1_erf_example_geometry(ex1_zeros, ex1_ones):
    try:
        zeros, t_zeros = ex1_zeros
        ones, t_ones = ex1_ones
        limit = PI / 4 + 0.05
        dev_zero = _worst_deviation(zeros, 0.0, 3.0)
        dev_one = _worst_deviation(ones, PI, 3.0)
        worst_res = max(max((r.residual for r in zeros), default=0.0),
                        max((r.residual for r in ones), default=0.0))
        winding_ok = (zeros.total_multiplicity == zeros.winding_total
                      and ones.total_multiplicity == ones.winding_total)
        seconds = t_zeros + t_ones
    except Exception as exc:
        _crash(1, exc)
        raise
    ok = (dev_zero < limit and dev_one < limit and worst_res < 1e-9
          and winding_ok and seconds < 60.0)
    _conclude(1, ok,
              f"{len(zeros)} zeros/{len(ones)} 1-points in [-8,8]^2; ray "
              f"deviations {dev_zero:.4f}/{dev_one:.4f} < {limit:.4f}; max "
              f"residual {worst_res:.2e} < 1e-9; multiplicity == winding "
              f"{winding_ok}; {seconds:.1f} s < 60 s")


def test_criterion_2_asymptotic_values(ex1, data1, ex2, data2):
    try:
        err1 = max(abs(data1.values[0] - 1.0), abs(data1.values[1]))
        err2 = max(abs(data2.values[0] - 1.0), abs(data2.values[1]),
                   abs(data2.values[2]))
        # the examples' math.gamma coefficients against QUADPACK
        coeff_err = max(
            abs(ex1.p.coeffs[2] - 2.0 / gamma_quadrature(0.5)),
            abs(ex2.p.coeffs[3] - 1.0 / gamma_quadrature(4.0 / 3.0)),
            abs(ex2.p.coeffs[1] - 1.0 / gamma_quadrature(2.0 / 3.0)))
    except Exception as exc:
        _crash(2, exc)
        raise
    ok = err1 <= 1e-8 and err2 <= 1e-8 and coeff_err <= 1e-10
    _conclude(2, ok,
              f"limit errors {err1:.2e} (deg 2), {err2:.2e} (deg 3) <= 1e-8; "
              f"coefficients 2/Gamma(1/2) (ex1), 1/Gamma(4/3) and "
              f"1/Gamma(2/3) (ex2) from math.gamma within {coeff_err:.2e} "
              f"<= 1e-10 of the QUADPACK Gamma integrals")


def test_criterion_3_cubic_example_geometry(ex2_zeros, ex2_ones):
    try:
        zeros, _ = ex2_zeros
        ones, _ = ex2_ones
        limit = PI / 6 + 0.05
        dev_zero = _worst_deviation(zeros, 0.0, 3.0, 6.0)
        # the half-plane proxy applies to the same |z| >= 3 range; the
        # smallest 1-point pair (modulus 1.29) sits right of the slab
        halfplane_bad = [rec.location for rec in ones
                         if 3.0 <= abs(rec.location) <= 6.0
                         and rec.location.real >= 0.05 * abs(rec.location)]
    except Exception as exc:
        _crash(3, exc)
        raise
    ok = dev_zero < limit and not halfplane_bad
    _conclude(3, ok,
              f"{len(zeros)} zeros/{len(ones)} 1-points in [-6,6]^2; zero "
              f"ray deviation {dev_zero:.4f} < {limit:.4f} on 3 <= |z| <= 6; "
              f"{len(halfplane_bad)} 1-points with Re z >= 0.05|z| there")


def _next_term(F, z: complex) -> float:
    """|(p'q' - p q'') / (p q'^2)| at z: the relative size of the term the
    first-order sector form drops (one more integration by parts)."""
    dp, dq = F.p.derivative(), F.q.derivative()
    ddq = dq.derivative()
    return abs((dp(z) * dq(z) - F.p(z) * ddq(z)) / (F.p(z) * dq(z) ** 2))


def test_criterion_4_sector_approximation_decay(ex1, ex2, data1, data2):
    try:
        rows = []
        for F, data in ((ex1, data1), (ex2, data2)):
            theta = data.rays[0] + 0.5 * PI / data.d + 0.2
            errs, quotients = [], []
            for r in (10.0, 20.0):
                z = r * cmath.exp(1j * theta)
                approx, _ = asymptotic_approx(F, z, data)
                if not isinstance(approx, ScaledComplex):
                    approx = ScaledComplex.from_complex(approx)
                truth = PolyExpRootModel(F, tol=1e-12).anchored_f(z)[0]
                err = approx.add(truth.neg()).div(truth).abs_value()
                errs.append(err)
                quotients.append(err / _next_term(F, z))
            rows.append((data.d, quotients, math.log2(errs[0] / errs[1])))
    except Exception as exc:
        _crash(4, exc)
        raise
    ok = (all(abs(qt - 1.0) <= 0.1 for _, qts, _ in rows for qt in qts)
          and all(abs(rate - d) <= 0.25 for d, _, rate in rows))
    shown = "; ".join(
        f"deg {d}: error/next term {qts[0]:.4f} (r = 10), {qts[1]:.4f} "
        f"(r = 20), log2(error(10)/error(20)) = {rate:.4f}"
        for d, qts, rate in rows)
    _conclude(4, ok,
              f"{shown}; required within 10 % of the next "
              f"integration-by-parts term and within 0.25 of d")


def test_criterion_5_kernel_identity():
    delta = 1e-3
    try:
        grid_worst = max(row["abs_diff"] for row in kernel_grid_report())
        small_delta = []
        for eps in (0.2, 0.5, 1.0):
            P = KernelParams(eps, delta)
            limit = 0.5 * PI * math.sin(eps)
            # dI/ddelta at delta = 0 of the closed form
            first = -0.25 * PI * (PI - 2.0 * eps) * math.cos(eps) * delta
            for value in (kernel_integral_residue(P),
                          kernel_integral_quadrature(P)):
                small_delta.append(abs(value - limit - first) / abs(first))
    except Exception as exc:
        _crash(5, exc)
        raise
    ok = grid_worst < 1e-6 and all(d <= 0.01 for d in small_delta)
    diffs = ", ".join(f"{d:.2e}" for d in small_delta)
    _conclude(5, ok,
              f"16-point grid max |residue - quadrature| = {grid_worst:.2e} "
              f"< 1e-6; delta = 1e-3 gap to (pi/2) sin eps vs first-order "
              f"term -(pi/4)(pi - 2 eps) cos(eps) delta, relative "
              f"differences (residue, quadrature at eps = 0.2, 0.5, 1.0): "
              f"[{diffs}] <= 0.01")


def test_criterion_6_jensen_identity(ex1, data1, ex1_zeros):
    try:
        zeros, _ = ex1_zeros
        defects = [jensen_defect(ex1, zeros, r, 4096, data=data1)
                   for r in (2.0, 4.0, 6.0)]
    except Exception as exc:
        _crash(6, exc)
        raise
    ok = all(d <= 1e-4 for d in defects)
    shown = ", ".join(f"{d:.2e}" for d in defects)
    _conclude(6, ok,
              f"identity defects at r = 2, 4, 6 with 4096 samples: "
              f"[{shown}], all <= 1e-4 (also certifies the zero list)")


def test_criterion_7_order_estimates(ex1, ex2, data1, data2):
    try:
        grid = tuple(np.geomspace(3.0, 11.0, 5))
        est_exp = order_estimate(exp_function(), grid)
        est1 = order_estimate(ex1, grid, data=data1)
        est2 = order_estimate(ex2, grid, data=data2)
    except Exception as exc:
        _crash(7, exc)
        raise
    ok = (abs(est_exp - 1.0) <= 0.05 and abs(est1 - 2.0) <= 0.1
          and abs(est2 - 3.0) <= 0.15)
    _conclude(7, ok,
              f"orders on geometric grid to r = 11: exp {est_exp:.4f} "
              f"(1 +- 0.05), deg-2 example {est1:.4f} (2 +- 0.1), deg-3 "
              f"example {est2:.4f} (3 +- 0.15)")


def test_criterion_8_canonical_products():
    try:
        n = core_terms(0.5, 1.0)
        value = canonical_product_eval(CanonicalProduct(0.5, n), -1.0 + 0j)
        closed = math.sinh(PI) / PI
        eval_err = abs(value - closed)

        res = find_product_a_points(CanonicalProduct(1.0 / 3.0, 64),
                                    1.0 + 0j,
                                    Box(-60.5, -60.5, 60.5, 60.5))
        rays = canonical_one_point_rays(1.0 / 3.0)
        annulus = [rec.location for rec in res
                   if 20.0 <= abs(rec.location) <= 60.0]
        devs = [min(angle_distance(cmath.phase(z), t) for t in rays)
                for z in annulus]
        rays_ok = bool(annulus) and all(d <= 0.3 for d in devs)
    except Exception as exc:
        _crash(8, exc)
        raise
    ok = eval_err < 1e-6 and rays_ok
    where = ", ".join(f"{z:.3f} (dev {d:.3f})"
                      for z, d in zip(annulus, devs)) or "none"
    _conclude(8, ok,
              f"sinh(pi)/pi error {eval_err:.2e} < 1e-6 with {n} factors; "
              f"1-points in 20 <= |z| <= 60: {where}; required within 0.3 "
              f"of the rho = 1/3 rays {[round(t, 4) for t in rays]}")


def test_criterion_9_enumeration_and_ray_sets(data1, data2):
    try:
        rep = enumerate_configs(8)
        published = {
            (2, (1, 0)): ((PI / 4, 7 * PI / 4),
                          (3 * PI / 4, 5 * PI / 4)),
            (3, (1, 0, 0)): ((PI / 6, 11 * PI / 6),
                             (PI / 2, 5 * PI / 6, 7 * PI / 6, 3 * PI / 2)),
        }
        worst = 0.0
        for data in (data1, data2):
            cfg = AccumulationConfig(
                data.d, cmath.phase(data.A) % (2 * PI),
                tuple(int(round(v.real)) for v in data.values))
            # the ray sets the sweep itself builds for this configuration
            cones = rayconfig._config_cones(cfg.d, np.array([cfg.argA]),
                                            np.array([cfg.assignment]))
            zero, one = (c.ray_set(0) for c in cones)
            want_zero, want_one = published[(data.d, cfg.assignment)]
            for got, want in ((zero, want_zero), (one, want_one)):
                assert len(got) == len(want)
                for t in want:
                    worst = max(worst,
                                min(angle_distance(t, g) for g in got))
    except Exception as exc:
        _crash(9, exc)
        raise
    ok = rep.violations == () and worst <= 1e-9
    _conclude(9, ok,
              f"{rep.configs_checked} configurations to degree 8: "
              f"{len(rep.violations)} counterexamples; published ray sets "
              f"reproduced to {worst:.2e} <= 1e-9")
