"""valuedist: max modulus, Jensen means, counting tables, canonical
products."""

import cmath
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from sectorroots import (Box, CanonicalProduct, NonPositiveLogM, TailTooLarge,
                         ToleranceNotMet, canonical_one_point_rays,
                         canonical_product_eval, circle_log_mean,
                         counting_functions, exp_function,
                         find_product_a_points, jensen_defect,
                         log_max_modulus, order_estimate, square_minus_one,
                         valuedist)
from sectorroots.cli import main
from sectorroots.funcmodel import build_model
from sectorroots.valuedist import (CanonicalProductModel, _EM_COEFFS,
                                   _scaled_hurwitz, core_terms)

mp.mp.dps = 30


# -- log max modulus ----------------------------------------------------------

def test_log_max_modulus_exp():
    F = exp_function()
    for r in (1.0, 5.0, 10.0):
        assert log_max_modulus(F, r) == pytest.approx(r, abs=1e-10)


def test_log_max_modulus_square():
    F = square_minus_one()
    # max of |z^2 - 1| on |z| = r is r^2 + 1 (attained on the imaginary axis)
    for r in (2.0, 3.0):
        assert log_max_modulus(F, r) == pytest.approx(math.log(r * r + 1.0),
                                                      abs=1e-10)


def test_log_max_modulus_validates():
    with pytest.raises(ValueError):
        log_max_modulus(exp_function(), 0.0)
    with pytest.raises(ValueError):
        log_max_modulus(exp_function(), 1.0, samples=8)


def test_log_max_modulus_rejects_non_finite_radius():
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError):
            log_max_modulus(exp_function(), r)


# -- circle mean and Jensen ---------------------------------------------------

def test_circle_log_mean_rejects_non_finite_radius():
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError):
            circle_log_mean(exp_function(), r)


def test_jensen_defect_rejects_non_finite_radius():
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError):
            jensen_defect(square_minus_one(), [1.0 + 0j, -1.0 + 0j], r)


def test_circle_log_mean_exp():
    # mean of log|e^{r e^{i t}}| = mean of r cos t = 0
    assert circle_log_mean(exp_function(), 3.0) == pytest.approx(0.0,
                                                                 abs=1e-12)


def test_jensen_defect_square():
    # z^2 - 1 with both roots supplied satisfies the identity exactly
    F = square_minus_one()
    for r in (2.0, 5.0):
        d = jensen_defect(F, [1.0 + 0j, -1.0 + 0j], r)
        assert abs(d) < 1e-12


def test_jensen_defect_flags_missing_root():
    F = square_minus_one()
    d = jensen_defect(F, [1.0 + 0j], 2.0)
    assert abs(d) == pytest.approx(math.log(2.0), abs=1e-10)


def test_jensen_rejects_zero_at_origin():
    F = exp_function()  # fine
    assert abs(jensen_defect(F, [], 2.0)) < 1e-12
    from sectorroots import PolyExpFunction, Polynomial
    G = PolyExpFunction(Polynomial((0.0, 2.0)), Polynomial((0.0,)), 0.0)
    with pytest.raises(ValueError):
        jensen_defect(G, [0j], 1.0)


# -- order estimation ---------------------------------------------------------

def test_order_estimate_exp():
    est = order_estimate(exp_function(), (4.0, 6.0, 9.0, 13.5, 20.0))
    assert est == pytest.approx(1.0, abs=0.05)


# criterion 7's grid as the benchmark builds it, 3 (11/3)^(k/4); the fourth
# radius is an ulp below np.geomspace(3, 11, 5)'s
_ORDER_GRID = tuple(3.0 * (11.0 / 3.0) ** (k / 4.0) for k in range(5))

# log M(r) on _ORDER_GRID with 128 samples, each radius scanned and polished
# alone, before the polish ran in lockstep
_PINNED_LOG_M = {
    "ex2": [27.172926421568896, 72.01423030133762, 190.35149012741664,
            503.4104596826375, 1332.4176619898913],
    "exp": [2.9999999999999973, 4.151347725692713, 5.744562646538026,
            7.9492256926016545, 10.999999999999996],
    "product": [3.054196103249618, 3.851353573330137, 4.817707620546587,
                5.98310860397433, 7.382659372395041],
}


@pytest.mark.parametrize("which", list(_PINNED_LOG_M))
def test_lockstep_maxima_match_each_radius_alone(request, which):
    calls = []
    if which == "product":
        P = CanonicalProduct(0.5, 64)

        def maxima(radii):
            return valuedist._product_log_max(P, radii, 128)
    else:
        F, data = ((request.getfixturevalue("ex2"),
                    request.getfixturevalue("data2")) if which == "ex2"
                   else (exp_function(), None))
        model = build_model(F, data)

        def log_abs(pts, owners):
            calls.append(len(pts))
            return valuedist._log_abs_f(model, pts)

        def maxima(radii):
            calls.clear()
            return valuedist._circle_maxima(log_abs, radii, 128)

    alone = [maxima([r])[0] for r in _ORDER_GRID]
    together = maxima(list(_ORDER_GRID))
    assert alone == together == _PINNED_LOG_M[which]
    if which != "product":
        # two scan blocks per radius, then one call per polish round for
        # all five radii, the first with both starting points of each
        assert calls == [64] * 10 + [10] + [5] * 39
    if which == "ex2":
        est = order_estimate(F, _ORDER_GRID, data=data)
        assert est == 2.9953753600779742


def test_golden_maxima_radii_stop_on_their_own():
    # arcs of widths 0.5, 1e-3 and 2 need about 42, 29 and 45 rounds to
    # shrink below 1e-9; in lockstep each radius still takes its own steps
    sizes = []

    def log_abs(pts, owners):
        sizes.append(len(pts))
        return [-(cmath.phase(z) - 0.1 * abs(z)) ** 2 for z in pts]

    radii, his = [1.0, 2.0, 3.0], [0.5, 1e-3, 2.0]
    alone = []
    rounds = []
    for r, hi in zip(radii, his):
        sizes.clear()
        alone += valuedist._golden_maxima(log_abs, [r], [0.0], [hi])
        rounds.append(len(sizes))
    sizes.clear()
    assert valuedist._golden_maxima(log_abs, radii, [0.0] * 3, his) == alone
    r1, r2, r3 = sorted(rounds)
    assert r1 < r2 < r3
    assert sizes == [6] + [3] * (r1 - 1) + [2] * (r2 - r1) + [1] * (r3 - r2)


def test_order_estimate_validates():
    with pytest.raises(ValueError):
        order_estimate(exp_function(), (4.0, 6.0, 9.0))  # too few radii
    with pytest.raises(ValueError):
        order_estimate(exp_function(), (9.0, 6.0, 4.0, 3.0))  # not ascending
    with pytest.raises(ValueError):
        order_estimate(exp_function(), (1.5, 4.0, 6.0, 9.0))  # inside r = 2


def test_order_estimate_rejects_non_finite_radius():
    for grid in ((4.0, 6.0, 9.0, math.inf), (4.0, 6.0, math.nan, 9.0),
                 (math.nan, 4.0, 6.0, 9.0)):
        with pytest.raises(ValueError):
            order_estimate(exp_function(), grid)
        with pytest.raises(ValueError):
            order_estimate(CanonicalProduct(0.5, 64), grid)


def test_order_estimate_small_function_guard():
    from sectorroots import PolyExpFunction, Polynomial
    # f = 0.1: logM <= 1 everywhere
    F = PolyExpFunction(Polynomial(()), Polynomial((0.0, 1.0)), 0.1)
    with pytest.raises(NonPositiveLogM):
        order_estimate(F, (2.1, 2.5, 3.0, 3.5))


# -- batched circle samples ---------------------------------------------------

def _log_abs_pointwise(model, z):
    """log|f(z)| one point at a time through the model's own evaluators."""
    if model.in_rescue_zone(z):
        return model.diff_scaled(z, 0j).logmag
    return model.anchored_f(z)[0].logmag


def _circle(r, n):
    return [r * cmath.exp(1j * (2.0 * math.pi * k / n)) for k in range(n)]


@pytest.mark.parametrize("which, r, n", [(1, 6.0, 4096), (2, 11.0, 128)])
def test_log_abs_f_batch_matches_pointwise(request, which, r, n):
    # ex1 at r = 6 mixes anchored and rescued samples; ex2 at r = 11 cuts
    # its radial paths into up to 75 chunks
    F = request.getfixturevalue(f"ex{which}")
    model = build_model(F, request.getfixturevalue(f"data{which}"))
    pts = _circle(r, n)
    if which == 1:
        assert 0 < sum(model.in_rescue_zone(z) for z in pts) < n
    batched = []
    for lo in range(0, n, 64):
        batched += valuedist._log_abs_f(model, pts[lo:lo + 64])
    for z, got in zip(pts, batched):
        want = _log_abs_pointwise(model, z)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
    for z, got in zip(pts[::n // 8], batched[::n // 8]):
        assert valuedist._log_abs_f(model, [z]) == [got]


def test_log_abs_f_batch_raises_first_failure(monkeypatch, ex1, data1):
    model = build_model(ex1, data1)
    pts = _circle(6.0, 64)
    rescue = [k for k, z in enumerate(pts) if model.in_rescue_zone(z)]
    batch = valuedist.integral_raw_batch
    tail_end = valuedist.tail_end

    def failing(quad_at, tail_at):
        def quad(F, z0, z1, tol):
            val, m, err_log, failures = batch(F, z0, z1, tol)
            failures[quad_at] = ToleranceNotMet(f"quadrature at {quad_at}")
            return val, m, err_log, failures

        def end(F, z):
            if z == pts[tail_at]:
                raise ValueError(f"tail at {tail_at}")
            return tail_end(F, z)

        monkeypatch.setattr(valuedist, "integral_raw_batch", quad)
        monkeypatch.setattr(valuedist, "tail_end", end)
        with pytest.raises((ToleranceNotMet, ValueError)) as info:
            valuedist._log_abs_f(model, pts)
        return str(info.value)

    plain = [k for k in range(64) if k not in rescue]
    assert rescue[0] < plain[-1] and plain[0] < rescue[-1]
    assert failing(plain[0], rescue[-1]) == f"quadrature at {plain[0]}"
    assert failing(plain[-1], rescue[0]) == f"tail at {rescue[0]}"
    assert failing(rescue[1], rescue[2]) == f"quadrature at {rescue[1]}"
    assert failing(rescue[2], rescue[1]) == f"tail at {rescue[1]}"


# -- counting functions -------------------------------------------------------

def test_counting_trivial_oracle():
    # roots at moduli 1, 2, 3 against logM(r) = r
    roots = [1.0 + 0j, 2.0j, -3.0 + 0j]
    table = counting_functions(roots, lambda r: r, (1.0, 2.0, 3.0, 4.0))
    assert table.n == (1, 2, 3, 3)
    want_N = (0.0,
              math.log(2.0),
              2.0 * math.log(3.0) - math.log(2.0),
              3.0 * math.log(4.0) - math.log(2.0) - math.log(3.0))
    for got, want in zip(table.N, want_N):
        assert got == pytest.approx(want, abs=1e-12)
    assert all(s == pytest.approx(nv - r, abs=1e-12)
               for s, nv, r in zip(table.slack, table.N, table.radii))


def test_counting_moduli_below_one_normalization():
    # N integrates n(t)/t from 1, so a root inside the unit disk
    # contributes log r, not log(r/|root|)
    table = counting_functions([0.5 + 0j], lambda r: r, (2.0,))
    assert table.N[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_counting_table_csv():
    table = counting_functions([1.0 + 0j], lambda r: r, (1.0, 2.0))
    text = table.to_csv()
    assert text.splitlines()[0] == "r,n,N,logM,slack"
    assert len(text.strip().splitlines()) == 3


def test_counting_accepts_records(ex1_zeros):
    result, _ = ex1_zeros
    table = counting_functions(result, lambda r: r * r, (2.0, 4.0, 6.0))
    # the conjugate pair at modulus 0.962 sits inside every radius
    assert table.n[0] >= 2
    assert list(table.n) == sorted(table.n)
    assert table.n[-1] <= result.total_multiplicity


# -- canonical products -------------------------------------------------------

def test_product_validates():
    with pytest.raises(ValueError):
        CanonicalProduct(0.0, 100)
    with pytest.raises(ValueError):
        CanonicalProduct(1.0, 100)
    with pytest.raises(ValueError):
        CanonicalProduct(0.5, 0)


def test_product_zeros_grid():
    P = CanonicalProduct(0.5, 10)
    assert P.zeros[0] == pytest.approx(1.0)
    assert P.zeros[3] == pytest.approx(16.0)


def test_product_eval_oracle_rho_half():
    # P(-x) = prod (1 + x/n^2) = sinh(pi sqrt(x))/(pi sqrt(x))
    P = CanonicalProduct(0.5, 10_000_000)
    got = canonical_product_eval(P, -0.04 + 0j)
    want = math.sinh(0.2 * math.pi) / (0.2 * math.pi)
    assert abs(got - want) < 1e-8


def _sinc_root(z: complex) -> complex:
    # rho = 1/2: P(z) = prod (1 - z/n^2) = sin(pi sqrt z)/(pi sqrt z)
    w = math.pi * cmath.sqrt(z)
    return cmath.sin(w) / w


def test_product_eval_tail_guard():
    # 8000 factors admit |z| < 8001^2/2; the tail series carries the rest
    got = canonical_product_eval(CanonicalProduct(0.5, 8000), 2.5 + 0j)
    assert abs(got - _sinc_root(2.5)) < 1e-12
    # a_9 = 81: eight factors admit |z| < 40.5 and no further
    P = CanonicalProduct(0.5, 8)
    assert P.max_radius == 40.5
    with pytest.raises(TailTooLarge, match="n_terms = 64"):
        canonical_product_eval(P, 50.0 + 0j)
    for direction in (1.0, -1.0, cmath.exp(2.0j)):
        inside = direction * P.max_radius * (1.0 - 1e-9)
        want = _sinc_root(inside)
        got = canonical_product_eval(P, inside)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        with pytest.raises(TailTooLarge):
            canonical_product_eval(P, inside * (1.0 + 2e-9))


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, -math.inf),
                               complex(math.nan, 0.0)])
def test_product_eval_rejects_nonfinite_point(z):
    P = CanonicalProduct(0.5, 64)
    with pytest.raises(ValueError, match="evaluation point must be finite"):
        canonical_product_eval(P, z)
    with pytest.raises(ValueError, match="evaluation point must be finite"):
        CanonicalProductModel(P, 2.0).value(z)
    with pytest.raises(ValueError, match="radius must be finite"):
        core_terms(0.5, abs(z))


def test_product_eval_mpmath_oracle():
    # second-order oracle at 30 digits; z kept inside the tail bound
    P = CanonicalProduct(1.0 / 3.0, 2000)
    z = mp.mpc(0.03, 0.015)
    prod = mp.mpf(1)
    for n in range(1, 2001):
        prod *= (1 - z / n ** 3)
    s1 = mp.zeta(3, 2001)
    s2 = mp.zeta(6, 2001)
    want = complex(prod * mp.e ** (-z * s1 - z * z * s2 / 2))
    got = canonical_product_eval(P, complex(z))
    assert abs(got - want) / abs(want) < 1e-12


def _mp_product(rho: float, z: complex, n_core: int = 1000):
    """P(z) and P'(z) at 40 digits: the log-sum of the first n_core factors
    plus mpmath's Hurwitz-zeta tail, for the double s = 1/rho the library
    uses (near rho = 1, one ulp of s moves P by a few 1e-14)."""
    with mp.workdps(40):
        s = mp.mpf(1.0 / rho)
        z = mp.mpc(z)
        zeros = [mp.mpf(n) ** s for n in range(1, n_core + 1)]
        log_p = mp.fsum(mp.log(1 - z / a) for a in zeros)
        dlog = mp.fsum(1 / (z - a) for a in zeros)
        j = 1
        while True:
            c = mp.zeta(j * s, n_core + 1) / j
            log_p -= c * z ** j
            dlog -= j * c * z ** (j - 1)
            if abs(c * z ** j) < mp.mpf(10) ** -30:
                break
            j += 1
        value = mp.exp(log_p)
        return complex(value), complex(value * dlog)


@pytest.mark.parametrize("rho", [0.75, 0.9])
def test_product_mpmath_oracle_rho_above_half(rho):
    # log P holds up to ~40 here (the tail sum of 1/a_n grows as rho -> 1):
    # a few ulps of it, plus 64 factors of rounding, stay under 1e-13
    P = CanonicalProduct(rho, 64)
    model = CanonicalProductModel(P, r_max=8.0)
    for z in (-1.0 + 0j, 3.0 + 2.0j, 5.0 - 4.0j):
        value, deriv = _mp_product(rho, z)
        for got in (canonical_product_eval(P, z), model.value(z)):
            assert abs(got - value) < 1e-13 * abs(value)
        got = model.derivative_scaled(z).to_complex()
        assert abs(got - deriv) < 1e-13 * abs(deriv)


@pytest.mark.parametrize("rho", [0.75, 0.9])
def test_product_cli_rho_above_half_bounded(capsys, rho):
    # bounded work: a first-order tail alone would need ~3.7e22 factors
    start = time.perf_counter()
    code = main(["product", "--rho", str(rho), "--eval=-1", "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_terms"] == 64
    value, _ = _mp_product(rho, -1.0)
    assert abs(complex(*payload["value"]) - value) < 1e-13 * abs(value)


def test_product_model_derivative_on_a_zero():
    # rho = 1/2 at z = n^2: P'(z) = (-1)^n / (2 n^2), taken by the
    # deleted-factor branch (core product without factor n, times the tail)
    model = CanonicalProductModel(CanonicalProduct(0.5, 64), r_max=8.0)
    for n in (1, 2):
        got = model.derivative_scaled(float(n * n)).to_complex()
        want = (-1) ** n / (2.0 * n * n)
        assert abs(got - want) < 1e-13 * abs(want)


def test_product_model_factor_cap():
    # (4e9)^0.9 is about 4e8 core factors, over the 2^24 cap
    with pytest.raises(TailTooLarge, match="cap"):
        CanonicalProductModel(CanonicalProduct(0.9, 64), r_max=1e9)


def test_scaled_hurwitz_mpmath_oracle():
    # q^x zeta(x, q), including x log q > 708 where zeta(x, q) underflows;
    # mpmath's zeta(x, q) cancels about x log10(q) digits, so it gets them
    cases = [(65, x) for x in (1.0001, 1.1111, 2.0, 13.3, 40.0, 200.0, 400.0)]
    cases += [((1 << 24) + 1, x) for x in (1.001, 1.5, 9.0, 60.0)]
    for q, x in cases:
        got = _scaled_hurwitz(np.array([x]), q)[0]
        with mp.workdps(30 + int(x * math.log10(q))):
            want = mp.zeta(x, q) * mp.mpf(q) ** x
        assert abs(got - want) < 1e-15 * want, (q, x)


def test_euler_maclaurin_weights_mpmath_oracle():
    # B_2m/(2m)! from exact Bernoulli numbers, each correctly rounded
    assert len(_EM_COEFFS) == 12
    with mp.workdps(40):
        for m in range(1, 13):
            want = float(mp.bernoulli(2 * m) / mp.factorial(2 * m))
            assert _EM_COEFFS[m - 1] == want, m


def test_one_point_rays_formula():
    # rho <= 1/2: the indicator is positive off the zero ray
    for rho in (0.25, 1.0 / 3.0, 0.49, 0.5):
        rays = canonical_one_point_rays(rho)
        assert list(rays) == pytest.approx([0.0], abs=1e-12)
    rays = canonical_one_point_rays(0.75)
    assert list(rays) == pytest.approx([math.pi / 3, 5 * math.pi / 3],
                                       abs=1e-12)


def test_product_order_estimate():
    P = CanonicalProduct(1.0 / 3.0, 400)
    est = order_estimate(P, (250.0, 700.0, 2000.0, 5600.0))
    assert est == pytest.approx(1.0 / 3.0, abs=0.1)


def test_product_model_matches_contracted_eval():
    P = CanonicalProduct(1.0 / 3.0, 30_000)
    model = CanonicalProductModel(P, r_max=8.0)
    core = CanonicalProduct(P.rho, model.n_core)
    for z in (0.5 + 0.5j, -3.0 + 2.0j, 7.0 + 0j):
        direct = canonical_product_eval(P, z)
        assert abs(model.value(z) - direct) < 1e-9 * max(1.0, abs(direct))
        # the model's value is the scalar evaluator on its own core
        assert model.value(z) == canonical_product_eval(core, z)


@pytest.mark.parametrize("family", ["polyexp", "product"])
def test_diff_scaled_is_diff_sample_value(family, ex1, data1):
    if family == "polyexp":
        model = build_model(ex1, data1)
    else:
        model = CanonicalProductModel(CanonicalProduct(0.5, 64), 8.0)
    # a growth point, a point in the rescue cone and one near the origin
    for z, a in ((1.0 + 2.0j, 0j), (5.0 + 0.3j, 1.0 + 0j), (0.2 - 0.1j, 0.5j)):
        assert model.diff_scaled(z, a) == model.diff_sample(z, a).w


def test_product_root_search_small_box():
    P = CanonicalProduct(1.0 / 3.0, 4000)
    res = find_product_a_points(P, 1.0 + 0j, Box(-5.0, -5.0, 5.0, 5.0))
    assert res.total_multiplicity == res.winding_total == 1
    assert abs(res[0].location) < 1e-9  # P(0) = 1


def test_product_zero_search_where_p_decays():
    # the rho = 3/4 zeros n^(4/3) lie on the positive axis, where |P| is
    # about 4e-7 near n = 4: samples there are far below 1e-9 in |w| and
    # still clear the headroom rule, so the search certifies the zero
    P = CanonicalProduct(0.75, 64)
    res = find_product_a_points(P, 0j, Box(5.9, -0.4, 6.9, 0.4))
    assert res.winding_total == res.total_multiplicity == len(res) == 1
    assert abs(res[0].location - 4.0 ** (4.0 / 3.0)) < 1e-8
    assert res[0].residual < 1e-9


def test_product_zero_search_along_the_zero_ray():
    P = CanonicalProduct(0.75, 64)
    res = find_product_a_points(P, 0j, Box(0.5, -0.4, 20.0, 0.4))
    assert res.winding_total == len(res) == 9
    # |P'| falls to about 1e-8 at the far zeros, so a residual of 1e-14
    # leaves the location some 1e-5 off: the certificate box is the check
    for n, rec in enumerate(res, start=1):
        assert rec.multiplicity == 1
        zn = n ** (4.0 / 3.0)
        b = rec.box_certificate
        assert b.x0 <= zn <= b.x1 and b.y0 <= 0.0 <= b.y1


@pytest.mark.parametrize("height", [1e-170, 5e-324])
def test_product_search_tiny_box_edge(height):
    # the short edges once divided by an underflowed L * L and raised a
    # bare ValueError on a NaN sample count
    P = CanonicalProduct(0.5, 64)
    res = find_product_a_points(P, 0j, Box(2.0, 0.0, 3.0, height))
    assert len(res) == res.winding_total == 0
    assert not res.clipped


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_product_search_rejects_bad_tolerance(tol):
    P = CanonicalProduct(1.0 / 3.0, 64)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        find_product_a_points(P, 1.0 + 0j, Box(-5.0, -5.0, 5.0, 5.0), tol=tol)
