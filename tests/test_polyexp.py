"""polyexp: representation, scaled arithmetic, overflow-safe evaluation.

Oracles: mpmath closed forms for the example functions, direct complex
arithmetic for ScaledComplex, dense sampling for the segment maximum.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorroots import (OverflowRegion, PolyExpFunction, Polynomial,
                         ScaledComplex, eval_f, exp_function,
                         function_from_json, function_to_json,
                         square_minus_one)
from sectorroots import ToleranceNotMet, contour, polyexp
from sectorroots.funcmodel import PolyExpRootModel
from sectorroots.polyexp import (_logaddexp, integral_raw_batch,
                                 integral_scaled_parts, segments_re_q_max)

mp.mp.dps = 30


def f1_closed_form(z):
    """Example 1 equals 1/2 + erf(z)/2 - z exp(-z^2)/sqrt(pi)."""
    z = mp.mpc(z)
    return complex(mp.mpf(1) / 2 + mp.erf(z) / 2
                   - z / mp.sqrt(mp.pi) * mp.e ** (-z * z))


# -- Polynomial ---------------------------------------------------------------

def test_polynomial_basics():
    p = Polynomial((1.0, 0.0, 3.0))
    assert p.degree == 2
    assert p.leading == 3.0
    assert p(2.0) == 13.0
    assert p.derivative()(2.0) == 12.0
    assert Polynomial(()).is_zero
    assert Polynomial(()).degree == -1


def test_polynomial_trailing_zeros_trimmed():
    p = Polynomial((2.0, 1.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.leading == 1.0


def test_polynomial_vectorized():
    p = Polynomial((1.0, 2.0))
    zs = np.array([0.0, 1.0, 1j], dtype=complex)
    assert np.allclose(p(zs), [1.0, 3.0, 1.0 + 2j])


# -- ScaledComplex ------------------------------------------------------------

finite = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)


@given(finite, finite)
@settings(max_examples=150, deadline=None)
def test_scaled_mul_div_match_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    assert cmath.isclose(sa.mul(sb).to_complex(), a * b, rel_tol=1e-12)
    assert cmath.isclose(sa.div(sb).to_complex(), a / b, rel_tol=1e-12)


@given(finite, finite)
@settings(max_examples=150, deadline=None)
def test_scaled_add_matches_complex(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    s = sa.add(sb).to_complex()
    assert abs(s - (a + b)) <= 1e-12 * (abs(a) + abs(b))


def test_scaled_beyond_double_range():
    big = ScaledComplex(logmag=5000.0, phase=1.0)
    prod = big.mul(big)
    assert prod.logmag == pytest.approx(10000.0)
    ratio = prod.div(big)
    assert ratio.logmag == pytest.approx(5000.0)
    assert ratio.phase == pytest.approx(1.0)


def test_scaled_shift_and_zero():
    z = ScaledComplex.zero()
    assert z.is_zero
    assert z.add(ScaledComplex.from_complex(2.0)).to_complex() == 2.0
    w = ScaledComplex.from_complex(1.0).shift(math.log(10.0))
    assert w.to_complex() == pytest.approx(10.0)


def test_logaddexp_bit_identical_to_numpy():
    rng = np.random.default_rng(20261018)
    xs = rng.normal(scale=50.0, size=20000)
    ys = rng.normal(scale=50.0, size=20000)
    ys[::7] = xs[::7]                      # exact ties
    ys[1::7] = xs[1::7] * (1.0 + 1e-15)    # ties up to an ulp or two
    ys[2::7] = xs[2::7] + 800.0            # one term far below the other
    inf, nan = math.inf, math.nan
    edge = [(inf, inf), (-inf, -inf), (inf, -inf), (-inf, inf), (-inf, 3.0),
            (3.0, -inf), (inf, 3.0), (-2.0, inf), (nan, 1.0), (1.0, nan),
            (0.0, 0.0), (-0.0, 0.0), (-745.0, -745.0), (1e308, 1e308),
            (-1e308, 1e308), (5e-324, 0.0), (709.0, 709.0)]
    with np.errstate(all="ignore"):
        for x, y in list(zip(xs.tolist(), ys.tolist())) + edge:
            got, want = _logaddexp(x, y), float(np.logaddexp(x, y))
            assert type(got) is float
            same = got == want or (math.isnan(got) and math.isnan(want))
            assert same, (x, y, got, want)


def test_scaled_exp_matches_cmath():
    # with p = 1, f' = exp(q) in scaled form
    q = Polynomial((0.5, 0.0, -1.0))
    model = PolyExpRootModel(PolyExpFunction(Polynomial((1.0,)), q, 0.0))
    for z in (0.3 + 0.2j, -1.0 + 2.0j):
        got = model.derivative_scaled(z).to_complex()
        assert cmath.isclose(got, cmath.exp(q(z)), rel_tol=1e-12)


# -- function evaluation ------------------------------------------------------

def test_derived_degree_and_leading(ex1):
    assert ex1.d == 2
    assert ex1.A == -1.0


def test_eval_f_example1_closed_form(ex1):
    # mixed tolerance: at 3.5j the value is ~4e5, so the achievable
    # absolute error scales with |f| (integrand noise floor), not with 1
    for z in (0.0, 0.3 + 0.2j, -1.5 + 2.0j, 2.0 - 1.0j, 3.5j):
        want = f1_closed_form(z)
        assert abs(eval_f(ex1, complex(z)) - want) < 1e-12 * (1 + abs(want))


def test_eval_f_exp_encoding():
    F = exp_function()
    for z in (0.0 + 0j, 1.0 + 1.0j, -2.3 + 0.4j, 3.0):
        assert cmath.isclose(eval_f(F, complex(z)), cmath.exp(complex(z)),
                             rel_tol=1e-12)


def test_eval_f_square_minus_one():
    F = square_minus_one()
    for z in (0.0 + 0j, 1.0 + 0j, 2.0 - 1.0j):
        assert abs(eval_f(F, z) - (z * z - 1.0)) < 1e-13


def test_eval_f_prime(ex1):
    # f' = p e^q exactly
    z = 1.2 - 0.7j
    want = ex1.p(z) * cmath.exp(ex1.q(z))
    got = PolyExpRootModel(ex1).derivative_scaled(z).to_complex()
    assert cmath.isclose(got, want, rel_tol=1e-12)


def test_eval_f_overflow_raises(ex1):
    with pytest.raises(OverflowRegion):
        eval_f(ex1, 40.0j)  # Re q = 1600 on the imaginary axis


def test_eval_f_scaled_growth_region(ex1):
    # compare log|f| against the closed form via mpmath at a growth point,
    # where eval_f overflows and the scaled integral from 0 does not
    z = 12.0j
    got = PolyExpRootModel(ex1, tol=1e-12).anchored_f(z)[0]
    want = mp.mpf(1) / 2 + mp.erf(mp.mpc(z)) / 2 \
        - mp.mpc(z) / mp.sqrt(mp.pi) * mp.e ** (-mp.mpc(z) ** 2)
    assert got.logmag == pytest.approx(float(mp.log(abs(want))), abs=1e-10)


def test_segment_re_q_max_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = Polynomial(tuple(coeffs))
        z0 = complex(*rng.normal(size=2))
        z1 = complex(*rng.normal(size=2))
        ts = np.linspace(0.0, 1.0, 20001)
        dense = np.max(q(z0 + ts * (z1 - z0)).real)
        exact = segments_re_q_max(q, [z0], [z1])[0]
        assert exact >= dense - 1e-9
        assert exact <= dense + 1e-6

    # the batched max, deg q = 0 .. 4 (4 takes the per-segment root
    # fallback): long segments (interior maxima), short ones (the endpoint
    # shortcut) and real-axis segments of a q whose leading coefficient is
    # imaginary, so that the top real coefficient vanishes
    for deg in range(5):
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        q = Polynomial(tuple(coeffs))
        z0 = rng.normal(size=40) + 1j * rng.normal(size=40)
        z1 = z0 + np.where(np.arange(40) < 20, 1.0, 1e-2) * (
            rng.normal(size=40) + 1j * rng.normal(size=40))
        flat = Polynomial(tuple(coeffs[:-1]) + (1j * abs(coeffs[-1]),))
        x0 = rng.normal(size=10)
        x1 = x0 + rng.normal(size=10)
        for poly, a, b in ((q, z0, z1), (flat, x0 + 0j, x1 + 0j)):
            got = segments_re_q_max(poly, a, b)
            for i in range(len(a)):
                dense = np.max(poly(a[i] + ts * (b[i] - a[i])).real)
                assert dense - 1e-9 <= got[i] <= dense + 1e-6, (deg, i)
                # a row of a larger matrix product may round differently
                alone = segments_re_q_max(poly, a[i:i + 1], b[i:i + 1])[0]
                assert abs(got[i] - alone) <= 1e-14 * (1.0 + abs(alone))


def _ex2_integral(z0, z1):
    """mpmath oracle: the integral of ex2's p exp(q) over [z0, z1]."""
    a = 1.0 / mp.gamma(mp.mpf(4) / 3)
    b = 1.0 / mp.gamma(mp.mpf(2) / 3)
    g = lambda t: (a * t ** 3 + b * t) * mp.e ** (-t ** 3)
    return complex(mp.quad(g, [mp.mpc(z0), mp.mpc(z1)]))


def test_integral_parts_error_bound_honest(ex2):
    for (z0, z1) in [(0, 3 + 1j), (0, 7.5), (1 + 1j, 5 + 2j),
                     (0, 11 * cmath.exp(0.35j))]:
        got, err_log = integral_scaled_parts(ex2, complex(z0), complex(z1),
                                             1e-13)
        want = _ex2_integral(z0, z1)
        assert abs(got.to_complex() - want) <= max(math.exp(err_log), 1e-14)


def _ex1_integral(z):
    """Closed form of the integral of ex1's p exp(q) over [0, z]."""
    z = mp.mpc(z)
    return mp.erf(z) / 2 - z * mp.e ** (-z * z) / mp.sqrt(mp.pi)


def _ex2_integral_from_0(z):
    """Closed form of the integral of ex2's p exp(q) over [0, z]: the
    integral of t^k exp(-t^3) is z^(k+1)/(k+1) 1F1((k+1)/3; (k+4)/3; -z^3),
    an entire function of z with no branch to choose."""
    z = mp.mpc(z)
    third = mp.mpf(1) / 3
    return sum(c * z ** (k + 1) / (k + 1)
               * mp.hyp1f1((k + 1) * third, (k + 4) * third, -z ** 3)
               for k, c in ((3, 1 / mp.gamma(4 * third)),
                            (1, 1 / mp.gamma(2 * third))))


# rays through decay sectors (ex1 at 0 and pi, ex2 at 0 and 2.1), growth
# sectors (ex1 at pi/2, ex2 at pi/3 and pi) and the critical rays between
# them; from 0 to 7.5 and 11 ex2 swings 1,898 and 5,990 radians, past the
# 256-chunk cap
@pytest.mark.parametrize("name, thetas", [
    ("ex1", (0.0, 0.35, math.pi / 4, 1.2, math.pi / 2, 2.5, math.pi, -0.9)),
    ("ex2", (0.0, 0.35, math.pi / 6, math.pi / 3, 1.2, math.pi / 2, 2.1,
             math.pi, -1.0)),
], ids=["ex1", "ex2"])
def test_planned_chunks_within_bound_of_closed_forms(name, thetas, request):
    F = request.getfixturevalue(name)
    want_of = _ex1_integral if name == "ex1" else _ex2_integral_from_0
    for r in (3.0, 7.5, 11.0):
        for theta in thetas:
            z = r * cmath.exp(1j * theta)
            got, err_log = integral_scaled_parts(F, 0j, z, 1e-13)
            # compared in mpmath: the growth-sector values pass 1e500
            got = mp.exp(got.logmag) * mp.expj(got.phase)
            assert abs(got - want_of(z)) <= mp.exp(err_log), (name, r, theta)


def test_long_integral_in_at_most_two_array_passes(ex2, monkeypatch):
    # 0 to 7.5 swings 1,898 radians: its 256 planned chunks go through one
    # first-panel pass, and any refinement through one more
    panels = contour._panels
    calls = []

    def counted(*args):
        calls.append(1)
        return panels(*args)

    monkeypatch.setattr(contour, "_panels", counted)
    got, err_log = integral_scaled_parts(ex2, 0j, 7.5 + 0j, 1e-13)
    assert abs(got.to_complex() - _ex2_integral(0, 7.5)) <= math.exp(err_log)
    assert len(calls) <= 2


@pytest.mark.parametrize("chunked", [False, True])
def test_raw_batch_matches_list_batch(ex2, chunked, monkeypatch):
    # short steps, one of zero length; with chunked, also segments cut
    # into 51, 135, 256, 36 and 256 chunks (the third and last at the cap)
    segs = [(2 - 1j, 2.05 - 0.98j), (-1.5 + 0.5j, -1.45 + 0.5j), (4j, 4j),
            (0.3, 0.5 - 0.1j)]
    if chunked:
        segs += [(0.3, 2.9 - 2.2j), (1 + 1j, 5 + 2j),
                 (0, 11 * cmath.exp(0.35j)), (0, 3 + 1j), (0, 7.5)]
    z0 = [complex(a) for a, _ in segs]
    z1 = [complex(b) for _, b in segs]
    val, m, err_log, failures = integral_raw_batch(ex2, z0, z1, 1e-13)
    assert len(val) == len(m) == len(err_log) == len(segs)
    assert failures == {}
    # each entry within its bound of mpmath and of the same segment
    # integrated alone
    for i, (a, b) in enumerate(segs):
        got = complex(val[i] * np.exp(m[i]))
        bound = max(math.exp(err_log[i]), 1e-14)
        assert abs(got - _ex2_integral(a, b)) <= bound
        alone, _ = integral_scaled_parts(ex2, complex(a), complex(b), 1e-13)
        assert abs(got - alone.to_complex()) <= bound
    assert val[2] == 0 and err_log[2] == -math.inf

    # a failed quadrature (the last chunk but one) fails its own segment
    # only: the last but one, or the last, whose chunks end the batch
    quadrature = polyexp._quadrature

    def failing(F, a, d, mm, mag, tol):
        v, b, f = quadrature(F, a, d, mm, mag, tol)
        return v, b, {**f, len(a) - 2: ToleranceNotMet("planted")}

    monkeypatch.setattr(polyexp, "_quadrature", failing)
    _, _, _, failures = integral_raw_batch(ex2, z0, z1, 1e-13)
    assert sorted(failures) == [len(segs) - 2 + chunked]
    assert str(failures[len(segs) - 2 + chunked]) == "planted"


def test_chunked_segment_raises_chunk_failure(ex2, monkeypatch):
    # 11 e^{0.35i} swings far past _PANEL_SWING, so integral_scaled_parts
    # integrates it as one batch of chunks; a failure planted in one chunk
    # is raised
    quadrature = polyexp._quadrature
    calls = []

    def failing(F, a, d, mm, mag, tol):
        calls.append(len(a))
        v, b, f = quadrature(F, a, d, mm, mag, tol)
        return v, b, {**f, 3: ToleranceNotMet("planted chunk")}

    monkeypatch.setattr(polyexp, "_quadrature", failing)
    with pytest.raises(ToleranceNotMet, match="planted chunk"):
        integral_scaled_parts(ex2, 0j, 11 * cmath.exp(0.35j), 1e-13)
    assert calls and calls[0] > 3


def test_chunked_segment_data_computed_once(ex2, monkeypatch):
    # one _segment_data pass for the segment's swing and one for its
    # chunks; the batch core reuses the segment's own
    segment_data = polyexp._segment_data
    rows = []

    def counted(q, z0, delta):
        rows.append(len(z0))
        return segment_data(q, z0, delta)

    monkeypatch.setattr(polyexp, "_segment_data", counted)
    got, err_log = integral_scaled_parts(ex2, 0j, 7.5 + 0j, 1e-13)
    assert rows[0] == 1 and rows[1] > 1 and len(rows) == 2
    assert abs(got.to_complex() - _ex2_integral(0, 7.5)) <= max(
        math.exp(err_log), 1e-14)


def test_json_roundtrip(ex1):
    text = function_to_json(ex1)
    G = function_from_json(text)
    assert G.p == ex1.p and G.q == ex1.q and G.c == ex1.c
    assert function_to_json(G) == text


@pytest.mark.parametrize("call, message", [
    (lambda: Polynomial(()).leading, "no leading coefficient"),
    (lambda: function_from_json('{"p": [[1, 0]], "q": [[0, 0]]}'),
     "missing key 'c'"),
], ids=["zero polynomial leading", "spec without c"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
