"""valuedist: max modulus, Jensen means, counting tables, canonical
products."""

import cmath
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from sectorroots import (Box, CanonicalProduct, NonPositiveLogM,
                         OverflowRegion, TailTooLarge, ToleranceNotMet,
                         canonical_one_point_rays, canonical_product_eval,
                         circle_log_mean,
                         counting_functions, exp_function,
                         find_product_a_points, jensen_defect,
                         log_max_modulus, order_estimate, square_minus_one,
                         valuedist)
from sectorroots.cli import main
from sectorroots import funcmodel
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


def test_sample_counts_must_be_integers():
    F = exp_function()
    calls = [lambda n: log_max_modulus(F, 2.0, samples=n),
             lambda n: circle_log_mean(F, 2.0, samples=n),
             lambda n: jensen_defect(F, [], 2.0, samples=n),
             lambda n: order_estimate(F, (4.0, 6.0, 9.0, 13.5), samples=n)]
    for call in calls:
        for bad in (64.5, 100.0, True):
            with pytest.raises(ValueError, match="integer"):
                call(bad)
    assert log_max_modulus(F, 2.0, samples=np.int64(64)) == pytest.approx(
        2.0, abs=1e-10)


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

# log M(r) on _ORDER_GRID with 128 samples. ex2: log|f| by _ex2_log_abs at
# the polished argmax (the scan sample at arg z = pi on every radius);
# exp: log M = r. The products' values are the scan's own, pinned bit for
# bit since the polish ran radius by radius.
_PINNED_LOG_M = {
    "ex2": [27.1729264215689, 72.01423030133763, 190.35149012741664,
            503.4104596826375, 1332.4176619898913],
    "exp": list(_ORDER_GRID),
    "product": [3.0541961032496188, 3.851353573330137, 4.817707620546588,
                5.983108603974331, 7.382659372395042],
}


@pytest.mark.parametrize("which", list(_PINNED_LOG_M))
def test_circle_maxima_pinned_per_radius(request, monkeypatch, which):
    calls = []
    if which == "product":
        got = valuedist._product_log_max(CanonicalProduct(0.5, 64),
                                         _ORDER_GRID, 128)
    else:
        F, data = ((request.getfixturevalue("ex2"),
                    request.getfixturevalue("data2")) if which == "ex2"
                   else (exp_function(), None))
        log_abs_f = valuedist._log_abs_f

        def counted(ring, pts):
            calls.append(len(pts))
            return log_abs_f(ring, pts)

        monkeypatch.setattr(valuedist, "_log_abs_f", counted)
        model = build_model(F, data)
        got = [valuedist._ring_max(model, r, 128) for r in _ORDER_GRID]
    pinned = _PINNED_LOG_M[which]
    if which == "product":
        # rho = 1/2: |P| is largest at -r, where P = sinh(pi sqrt r) /
        # (pi sqrt r)
        with mp.workdps(40):
            for g, r in zip(got, _ORDER_GRID):
                x = mp.pi * mp.sqrt(r)
                assert abs(g - mp.log(mp.sinh(x) / x)) <= 2 * math.ulp(g)
        assert got == pinned
    else:
        # a few ulps of log M: far inside the 1e-9 acceptance bound
        for g, want in zip(got, pinned):
            assert abs(g - want) <= 4e-15 * want
        # per radius: one scan call, then one golden-section call with both
        # starting points and one for each later round
        assert calls == ([128, 2] + [1] * 39) * 5
    if which == "ex2":
        est = order_estimate(F, _ORDER_GRID, data=data)
        want = np.polyfit(np.log(_ORDER_GRID), np.log(pinned), 1)[0]
        assert abs(est - want) <= 1e-14


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


# -- carried circle samples ---------------------------------------------------

def _ex1_log_abs(z):
    """log|f| of example 1 from f = 1/2 + erf(z)/2 - z e^(-z^2)/sqrt(pi),
    with the digits that 1/2 + erf(z)/2 can cancel added."""
    with mp.workdps(30 + int(abs((z * z).real) / 2.3)):
        w = mp.mpc(z)
        f = (mp.mpf(1) / 2 + mp.erf(w) / 2
             - w * mp.exp(-w * w) / mp.sqrt(mp.pi))
        return float(mp.log(abs(f)))


def _ex2_log_abs(z):
    """log|f| of example 2 from its incomplete-gamma closed form.

    With y = z / omega^j, omega = e^(2 pi i/3) and arg y in (-pi/3, pi/3],
    f = 1/3 + (a/3) omega^4j gamma(4/3, y^3) + (b/3) omega^2j gamma(2/3, y^3).
    Writing gamma(s, x) = Gamma(s) - Gamma(s, x), with a Gamma(4/3) =
    b Gamma(2/3) = 1 and 1 + omega^j + omega^2j = 0 for j != 0,
    f = [j = 0] - (a/3) omega^4j Gamma(4/3, y^3) - (b/3) omega^2j
    Gamma(2/3, y^3), which cancels only near a zero of f; the lower form
    needs about |Re z^3|/2.3 more digits and seconds per point at r = 11.
    """
    with mp.workdps(40):
        w = mp.mpc(z)
        omega = mp.exp(2j * mp.pi / 3)
        j = int(mp.nint(mp.arg(w) / (2 * mp.pi / 3)))
        if mp.arg(w) - 2 * mp.pi * j / 3 <= -mp.pi / 3:
            j -= 1
        x = (w / omega ** j) ** 3
        s1, s2 = mp.mpf(4) / 3, mp.mpf(2) / 3
        f = ((1 if j == 0 else 0)
             - omega ** (4 * j) * mp.gammainc(s1, x) / (3 * mp.gamma(s1))
             - omega ** (2 * j) * mp.gammainc(s2, x) / (3 * mp.gamma(s2)))
        return float(mp.log(abs(f)))


def _ring_values(F, data, r, n):
    ring = valuedist._Ring(build_model(F, data), r, n)
    return ring, valuedist._log_abs_f(ring, ring.points)


def test_carried_log_abs_f_matches_closed_forms(ex1, ex2, data1, data2):
    # the three ex2 samples that the scan from 0 got wrong by 30.1 (r = 11),
    # 4.7e-5 and 9.3e-9 in log|f|, with bounds of 375 relative, 1.5e-2 and
    # none
    for r, k in ((11.0, 75), (3.0 * (11.0 / 3.0) ** 0.75, 53), (3.0, 79)):
        ring, vals = _ring_values(ex2, data2, r, 128)
        assert abs(vals[k] - _ex2_log_abs(ring.points[k])) <= 1e-9, (r, k)
    ring, vals = _ring_values(ex1, data1, 6.0, 4096)
    for z, got in zip(ring.points[::256], vals[::256]):
        assert abs(got - _ex1_log_abs(z)) <= 1e-9, z


@pytest.mark.parametrize("which, r, n", [(1, 6.0, 4096), (2, 11.0, 128)])
def test_log_abs_f_batch_matches_pointwise(request, which, r, n):
    # every 16th sample of the ex1 ring, where anchors sit in both decay
    # cones, and every sample of the ex2 ring, which spans |Re q| = 1331
    F = request.getfixturevalue(f"ex{which}")
    ring, vals = _ring_values(F, request.getfixturevalue(f"data{which}"),
                              r, n)
    oracle, stride = (_ex1_log_abs, 16) if which == 1 else (_ex2_log_abs, 1)
    for z, got in zip(ring.points[::stride], vals[::stride]):
        assert abs(got - oracle(z)) <= 1e-10, z
    # every sample holds a value within the acceptance bound
    assert (ring.err_log - ring.logmag <= math.log(1e-9)).all()


def test_circle_scan_reanchors_planted_fault(monkeypatch, ex1, data1):
    model = build_model(ex1, data1)
    points = valuedist._circle_points(2.0, 64)
    clean = valuedist._log_abs_f(valuedist._Ring(model, 2.0, 64), points)
    batch = funcmodel.integral_raw_batch
    diff_sample = valuedist.PolyExpRootModel.diff_sample
    direct = []

    def counted(self, z, a):
        direct.append(z)
        return diff_sample(self, z, a)

    def inflated(ccw_only):
        def chords(F, z0, z1, tol):
            val, m, err_log, failures = batch(F, z0, z1, tol)
            ccw = (np.conj(np.asarray(z0)) * np.asarray(z1)).imag > 0
            bad = ccw if ccw_only else True
            return val, m, np.where(bad, err_log + 60.0, err_log), failures
        return chords

    monkeypatch.setattr(valuedist.PolyExpRootModel, "diff_sample", counted)
    # the counterclockwise chords miss the bound: every sample is carried
    # from the other side, past the maximum of Re q, and only the two
    # anchors (arg z = 0, pi) are taken directly
    monkeypatch.setattr(funcmodel, "integral_raw_batch", inflated(True))
    got = valuedist._log_abs_f(valuedist._Ring(model, 2.0, 64), points)
    assert len(direct) == 2
    assert all(abs(u - v) <= 1e-9 for u, v in zip(got, clean))
    # every chord misses: every sample is re-anchored by diff_sample
    monkeypatch.setattr(funcmodel, "integral_raw_batch", inflated(False))
    got = valuedist._log_abs_f(valuedist._Ring(model, 2.0, 64), points)
    assert got == [diff_sample(model, z, 0j).w.logmag for z in points]

    # the direct paths inflated too (diff_sample and the tail): nothing
    # meets the bound, so the scan raises instead of returning a value
    def inflated_direct(self, z, a):
        s = diff_sample(self, z, a)
        return valuedist.PathSample(s.z, s.w, s.err_log + 60.0)

    monkeypatch.setattr(valuedist.PolyExpRootModel, "diff_sample",
                        inflated_direct)
    monkeypatch.setattr(valuedist, "_RESCUE_REL_LOG", 60.0)
    with pytest.raises(ToleranceNotMet):
        valuedist._log_abs_f(valuedist._Ring(model, 2.0, 64), points)


def test_jensen_defect_ex1_within_benchmark_bound(ex1, data1, ex1_zeros):
    # the benchmark's bound, five orders below criterion 6's
    zeros, _ = ex1_zeros
    for r in (2.0, 4.0, 6.0):
        assert jensen_defect(ex1, zeros, r, 4096, data=data1) <= 1e-9, r


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


def test_counting_moduli_below_one_at_radii_below_one():
    # for r < 1, N(r) = -int_r^1 n(t)/t dt = sum of log max(|a|, r) over
    # the moduli below 1
    table = counting_functions([0.25, 0.5, 2.0], lambda r: r, (0.3, 0.75))
    assert table.n == (1, 2)
    assert table.N == pytest.approx(
        (math.log(0.3) + math.log(0.5), 2.0 * math.log(0.75)), abs=1e-15)


@pytest.mark.parametrize("call, error, message", [
    (lambda: counting_functions([], lambda r: r, (2.0, 1.0)), ValueError,
     "strictly ascending"),
    (lambda: counting_functions([], lambda r: r, (0.0, 1.0)), ValueError,
     "radii must be positive"),
    (lambda: canonical_one_point_rays(1.0), ValueError, "rho must lie"),
    (lambda: CanonicalProductModel(CanonicalProduct(0.5, 64), 0.0),
     ValueError, "r_max must be positive"),
    (lambda: CanonicalProduct(0.001, 64).tail, TailTooLarge,
     "overflows double range"),
], ids=["descending grid", "grid not positive", "one-point rays rho 1",
        "product model r_max 0", "tail past double range"])
def test_input_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    for bad in (64.0, 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            CanonicalProduct(0.5, bad)
    assert canonical_product_eval(CanonicalProduct(0.5, np.int64(64)),
                                  -1) == canonical_product_eval(
                                      CanonicalProduct(0.5, 64), -1)


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


def test_product_eval_past_double_range_raises(capsys):
    # P(-x) = sinh(pi sqrt(x))/(pi sqrt(x)) passes double range near
    # x = 51,000; the tail of 498 factors admits -60000, so the value is
    # an overflow, not a missing factor
    P = CanonicalProduct(0.5, core_terms(0.5, 60000.0))
    assert P.max_radius > 60000.0
    with pytest.raises(OverflowRegion, match="overflows double range"):
        canonical_product_eval(P, -60000.0 + 0j)
    assert math.isfinite(canonical_product_eval(P, -40000.0 + 0j).real)
    assert main(["product", "--rho", "0.5", "--eval=-60000"]) == 2
    assert "overflows double range" in capsys.readouterr().err


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
    # rho = 3/4: log M(1000) is about 790, past double range
    with pytest.raises(OverflowRegion, match="1000"):
        order_estimate(CanonicalProduct(0.75, 64), (250.0, 500.0, 1000.0,
                                                    2000.0))


@pytest.mark.parametrize("rho", [1.0 / 3.0, 0.5, 0.75])
def test_product_value_same_bits_alone_and_batched(rho):
    # value and values read one evaluator, and a row's operations do not
    # depend on its batch: 300 random points of the admitted disk per rho,
    # alone, together and repeated 60 times (18,000 points, past numpy's
    # 256 KB threshold for computing into a temporary operand)
    model = CanonicalProductModel(CanonicalProduct(rho, 64), 20.0)
    rng = np.random.default_rng(7)
    radius = model.tail.radius * np.sqrt(rng.uniform(0.0, 0.99, 300))
    zs = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 300))
    batch = model.values(zs)
    big = model.values(np.tile(zs, 60))
    for k, z in enumerate(zs.tolist()):
        alone = model.value(z)
        assert alone == batch[k] == model.values(np.array([z]))[0], (k, z)
        assert alone == big[k] == big[k + 300 * 59], (k, z)
        assert alone == canonical_product_eval(model.core, z)


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
