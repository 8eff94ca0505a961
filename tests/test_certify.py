"""Roots certified without walking again: Kantorovich balls (polyexp and
canonical products), the power sums of the walk, and boxes of 2 to 6
a-points solved from them."""

import math

import mpmath as mp
import numpy as np
import pytest

from sectorroots import (Box, BoundaryTooClose, CanonicalProduct,
                         PolyExpFunction, Polynomial, find_a_points,
                         find_product_a_points, rootfinder, square_minus_one)
from sectorroots import contour
from sectorroots.contour import winding_count
from sectorroots.funcmodel import PathSample, PolyExpRootModel, build_model
from sectorroots.polyexp import ScaledComplex
from sectorroots.rootfinder import _SharedWalk
from sectorroots.valuedist import CanonicalProductModel

# smallest zero pair of example 1 (tests/test_rootfinder.py)
EX1_SMALLEST_ZERO = complex(0.3614406515173921, 0.8917305702920884)
# a box around three zeros of example 1, and one around four
EX1_THREE = Box(1.5, 1.4, 3.5, 3.3)
EX1_FOUR = Box(1.5, 1.4, 3.9, 3.8)


def _ex1_mp(z):
    """Example 1 in closed form: 1/2 + erf(z)/2 - z e^(-z^2)/sqrt(pi)."""
    return (mp.mpf(1) / 2 + mp.erf(z) / 2
            - z * mp.exp(-z * z) / mp.sqrt(mp.pi))


def _power(zs, box, k):
    c, rho = box.center, 0.5 * box.diameter
    return sum(((z - c) / rho) ** k for z in zs)


# -- Kantorovich balls ---------------------------------------------------

@pytest.mark.parametrize("case", ["z^2 - 1", "ex1"])
def test_ball_radius_holds_the_true_zero(case, ex1):
    F, z, f = {
        "z^2 - 1": (square_minus_one(), 1 + 1e-6 + 0j, lambda x: x * x - 1),
        "ex1": (ex1, EX1_SMALLEST_ZERO + 1e-7 * (1 + 1j), _ex1_mp)}[case]
    model = PolyExpRootModel(F, tol=1e-13)
    log_t_star, log_t_far = rootfinder._ball(model, model.diff_sample(z, 0j))
    with mp.workdps(30):
        zero = complex(mp.findroot(f, mp.mpc(z)))
    dist = abs(zero - z)
    assert 0.5e-7 < dist < 2e-6
    # the zero lies within t* of z; the ball is not loose either, since
    # Newton's step is within a relative h of t* and h is tiny here
    assert dist <= math.exp(log_t_star) <= 1.01 * dist
    # t** is far beyond the certificate disc
    assert math.exp(log_t_far) > 100 * rootfinder._CERT_RADIUS


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_curvature_bound_above_mpmath(name, request):
    F = request.getfixturevalue(name)
    model = PolyExpRootModel(F)
    g = [mp.mpc(c) for c in np.convolve(F.p.coeffs, F.q_prime.coeffs)]
    dp = F.p.derivative().coeffs
    for i, c in enumerate(dp):
        g[i] += mp.mpc(c)

    def second(x):
        # w'' = (p' + p q') e^q
        gx = sum(c * x ** k for k, c in enumerate(g))
        qx = sum(mp.mpc(c) * x ** k for k, c in enumerate(F.q.coeffs))
        return abs(gx * mp.exp(qx))

    rng = np.random.default_rng(22)
    with mp.workdps(30):
        for _ in range(12):
            c = complex(*rng.uniform(-6.0, 6.0, 2))
            r = 10.0 ** rng.uniform(-4.0, 0.5)
            # half the points on the rim, where the sup of |w''| lies
            t = rng.uniform(0.0, 2.0 * math.pi, 64)
            rad = r * np.where(np.arange(64) < 32, 1.0,
                               np.sqrt(rng.uniform(0.0, 1.0, 64)))
            pts = c + rad * np.exp(1j * t)
            worst = max(second(mp.mpc(complex(x))) for x in pts)
            bound = model.curvature_log(c, r)
            assert bound >= float(mp.log(worst)), (c, r)
            # and it is not vacuous: within a factor e^(2 r |q'|) or so
            assert bound <= float(mp.log(worst)) + 4.0 + 40.0 * r


def test_inflated_bound_fails_every_ball_and_walks(ex1, data1, monkeypatch):
    region = Box(-4, -4, 4, 4)

    def search():
        cert_walks = []
        walk = rootfinder.winding_count

        def counted(pathval, box):
            if box.width < 2 * rootfinder._DIAM_STOP:
                cert_walks.append(box)
            return walk(pathval, box)

        monkeypatch.setattr(rootfinder, "winding_count", counted)
        result = find_a_points(ex1, 0j, region, tol=1e-9, data=data1)
        monkeypatch.setattr(rootfinder, "winding_count", walk)
        return result, cert_walks

    base, base_walks = search()
    assert base_walks == []
    balls = []
    ball = rootfinder._ball
    curvature = PolyExpRootModel.curvature_log
    monkeypatch.setattr(PolyExpRootModel, "curvature_log",
                        lambda self, z, r: curvature(self, z, r)
                        + math.log(1e30))
    monkeypatch.setattr(rootfinder, "_ball",
                        lambda model, s: balls.append(ball(model, s))
                        or balls[-1])
    walked, walks = search()
    assert len(balls) >= len(walked.records) == len(base.records) == 10
    for b in balls:
        assert (b is None or not b[0] < rootfinder._LOG_SIDE
                or not rootfinder._LOG_RADIUS < b[1])
    assert len(walks) >= len(walked.records)
    assert walked.winding_total == base.winding_total
    for rec, want in zip(walked, base):
        assert abs(rec.location - want.location) <= 1e-12 * abs(want.location)
        assert rec.multiplicity == want.multiplicity == 1
        assert rec.box_certificate.contains(rec.location)
        assert rec.residual < 1e-9


# -- Kantorovich balls for canonical products --------------------------------

def _sinc_product(z):
    """prod (1 - z/n^2) = sin(pi sqrt z)/(pi sqrt z)."""
    return mp.sincpi(mp.sqrt(z))


def _gamma_product(z):
    """prod (1 - z/n^3) = 1/(Gamma(1 - x) Gamma(1 - wx) Gamma(1 - w^2 x)),
    x = z^(1/3), w = e^(2 pi i/3): the factors e^(y/n) of the three
    Weierstrass products cancel, since x + wx + w^2 x = 0."""
    x = mp.cbrt(z)
    w = mp.expjpi(mp.mpf(2) / 3)
    return mp.rgamma(1 - x) * mp.rgamma(1 - w * x) * mp.rgamma(1 - w * w * x)


# rho -> (closed form, the 1-points 0 and one further out)
_PRODUCTS = {
    0.5: (_sinc_product, (0j, 4.9191 + 4.206583j)),
    1.0 / 3.0: (_gamma_product, (0j, 10.144692 + 0j)),
}


def _product_discs(rho, model, rng):
    """(z, r) pairs: random points of the admitted disk, points on zeros,
    near 1-points and near the disk's edge; r in [1e-4, 0.3]."""
    _, ones = _PRODUCTS[rho]
    edge = model.tail.radius
    pts = [complex(*rng.uniform(-80.0, 80.0, 2)) for _ in range(4)]
    pts += [complex(model.a[n]) for n in (0, 2, 7)]
    pts += [w + complex(*rng.normal(0.0, 1e-3, 2)) for w in ones]
    pts += [(edge - 0.31) * complex(math.cos(t), math.sin(t))
            for t in (0.7, math.pi)]
    return [(z, 10.0 ** rng.uniform(-4.0, math.log10(0.3))) for z in pts]


@pytest.mark.parametrize("rho", _PRODUCTS, ids=["rho=1/2", "rho=1/3"])
def test_product_curvature_bound_above_mpmath(rho):
    f, _ = _PRODUCTS[rho]
    model = CanonicalProductModel(CanonicalProduct(rho, 64), 60.0)
    rng = np.random.default_rng(28)
    t = np.exp(2j * math.pi * np.arange(64) / 64)
    with mp.workdps(30):
        for z, r in _product_discs(rho, model, rng):
            worst = max(abs(mp.diff(f, mp.mpc(complex(x)), 2))
                        for x in z + r * t)
            bound = model.curvature_log(z, r)
            assert bound is not None, (z, r)
            assert bound >= float(mp.log(worst)), (z, r)
            # a bound shrunk by 1e30 fails at every disc
            assert bound - math.log(1e30) < float(mp.log(worst)), (z, r)


def test_product_curvature_bound_none_outside_its_assumptions():
    model = CanonicalProductModel(CanonicalProduct(0.5, 64), 60.0)
    edge = model.tail.radius
    # the disc leaves the disk the tail admits
    assert model.curvature_log(-(edge - 0.1), 0.2) is None
    assert model.curvature_log(-(edge - 0.3), 0.2) is not None
    # the disc about 1.5 reaches the zero at 4 beside the nearest one at 1
    assert model.curvature_log(1.5, 2.5) is None
    assert model.curvature_log(1.5, 2.49) is not None


# the benchmark's four product searches, its rho = 0.75 zero search, and
# the rho = 0.75 zeros along the zero ray (tests/test_valuedist.py), where
# |P'| falls to about 1e-8: there Newton stops at five points too far from
# a zero for the ball (residual below tol). Their Newton steps |w/w'|
# (6.1e-4 to 5.8) are longer than the certificate's half-side (3.2e-4; at
# most 1.7e-5 at a certified point), so none walks its certificate box,
# which could not wind once (5 walks in vain before)
_PRODUCT_SEARCHES = {
    "rho0.5-zeros": (0.5, 0.0, Box(-100.5, -100.5, 100.5, 100.5), 0),
    "rho0.5-ones": (0.5, 1.0, Box(-100.5, -100.5, 100.5, 100.5), 0),
    "rho0.33-ones": (1.0 / 3.0, 1.0, Box(-60.5, -60.5, 60.5, 60.5), 0),
    "rho0.75-ones": (0.75, 1.0, Box(-4.5, -4.5, 4.5, 4.5), 0),
    "rho0.75-zeros": (0.75, 0.0, Box(5.9, -0.4, 6.9, 0.4), 0),
    "zero-ray": (0.75, 0.0, Box(0.5, -0.4, 20.0, 0.4), 0),
}


def _product_search(name, monkeypatch):
    """The search's result, the certificate-sized boxes it walked, and the
    points whose Kantorovich ball proved their certificate box."""
    rho, a, region, _ = _PRODUCT_SEARCHES[name]
    cert_walks, proved = [], []
    walk, ball = rootfinder.winding_count, rootfinder._ball

    def counted(pathval, box):
        if box.width < 2 * rootfinder._DIAM_STOP:
            cert_walks.append(box)
        return walk(pathval, box)

    def noted(model, s):
        b = ball(model, s)
        if (b is not None and b[0] < rootfinder._LOG_SIDE
                and rootfinder._LOG_RADIUS < b[1]):
            proved.append(s.z)
        return b

    monkeypatch.setattr(rootfinder, "winding_count", counted)
    monkeypatch.setattr(rootfinder, "_ball", noted)
    result = find_product_a_points(CanonicalProduct(rho, 64), a, region)
    monkeypatch.setattr(rootfinder, "winding_count", walk)
    monkeypatch.setattr(rootfinder, "_ball", ball)
    return result, cert_walks, proved


@pytest.mark.parametrize("name", _PRODUCT_SEARCHES)
def test_product_balls_retire_every_certificate_walk(name, monkeypatch):
    base, base_walks, proved = _product_search(name, monkeypatch)
    assert len(base_walks) == _PRODUCT_SEARCHES[name][3]
    # every record's certificate box is proved by its ball
    assert {rec.location for rec in base} <= set(proved)
    assert base.winding_total == len(base) > 0
    monkeypatch.setattr(CanonicalProductModel, "curvature_log",
                        lambda self, z, r: None)
    walked, walks, none = _product_search(name, monkeypatch)
    assert none == [] and len(walks) >= len(base_walks) + len(walked)
    # the same records, winding total and certificate boxes, bit for bit
    assert walked == base


class _Planted(PolyExpRootModel):
    """Every carried value is |w| = goal/10 with the error bound given."""

    bound = 0.0

    def diff_near(self, held, z):
        return PathSample(complex(z), ScaledComplex(math.log(1e-10), 0.0),
                          math.log(self.bound))


@pytest.mark.parametrize("bound, proved", [(1e-9, False), (1e-10, True)])
def test_carried_value_ends_newton_only_with_its_bound(bound, proved, ex1):
    # goal 1e-9: a carried |w| of 1e-10 with bound 1e-9 proves nothing, so
    # Newton goes on from diff_sample's values to the root; with bound
    # 1e-10 it proves convergence at the seed, and the iteration ends there
    model = _Planted(ex1, tol=1e-13)
    model.bound = bound
    seed = 0.4 + 0.8j
    held = model.diff_sample(seed + 0.05, 0j)
    s = rootfinder._newton(model, 0j, seed, 1e-9, held=held)
    if proved:
        assert s.z == seed
    else:
        # the planted polishing value is no better, so the point is left
        # unpolished, within goal / |f'| of the root
        assert abs(s.z - EX1_SMALLEST_ZERO) < 1e-9
        assert s.w.abs_value() < 1e-9


# -- power sums and the moment path ------------------------------------------

@pytest.mark.parametrize("case", ["z^2 - 1", "three ex1 zeros",
                                  "four ex1 zeros"])
def test_power_sums_match_exact(case, ex1, data1, ex1_zeros):
    if case == "z^2 - 1":
        model, box, zs = (PolyExpRootModel(square_minus_one()),
                          Box(-1.5, -0.5, 1.6, 0.7), [1.0, -1.0])
    else:
        box = EX1_THREE if case.startswith("three") else EX1_FOUR
        zs = [r.location for r in ex1_zeros[0] if box.contains(r.location)]
        model = build_model(ex1, data1)
    w = winding_count(_SharedWalk(model, 0j), box)
    assert w.count == len(zs) == len(w.power_sums)
    # |u| <= 1 in the box, so |s_k| <= count; Simpson's rule on each edge
    # holds s_k to 1e-4 of that bound (at most 6.4e-6 here; one trapezoid
    # sum over the walk's samples, to 1e-2, with errors up to 5.3e-3)
    for k, s in enumerate(w.power_sums, 1):
        assert abs(s - _power(zs, box, k)) <= 1e-4 * w.count, k
    assert abs(w.root_sum - sum(zs)) <= 1e-4 * box.diameter
    # the seeds are the zeros to 1e-4 of the box (a few percent with one
    # trapezoid sum over the walk), and the roots that np.roots gives for
    # the same power sums
    seeds = rootfinder._seeds(box, w)
    if w.count > 1:
        e = [1.0]
        for k in range(1, w.count + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * w.power_sums[i - 1]
                         for i in range(1, k + 1)) / k)
        c, rho = box.center, 0.5 * box.diameter
        ref = c + rho * np.roots([(-1) ** k * ek for k, ek in enumerate(e)])
        assert max(min(abs(s - r) for s in seeds) for r in ref) <= 1e-9
    assert max(min(abs(s - z) for s in seeds) for z in zs) <= 1e-4 * box.width


class _Plan:
    """A path evaluator with every edge planned at n steps, whatever the
    model's swing bound asks."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n

    def start(self, z):
        return self.inner.start(z)

    def extend(self, prev, pts):
        return self.inner.extend(prev, pts)

    def min_samples(self, z0, z1):
        self.inner.min_samples(z0, z1)
        return self.n


def _planted(zs):
    """The monic polynomial with the zeros zs, as c + integral of p."""
    coeffs = np.poly(zs)[::-1]
    p = np.polynomial.polynomial.polyder(coeffs)
    return PolyExpFunction(Polynomial(tuple(complex(x) for x in p)),
                           Polynomial((0.0,)), complex(coeffs[0]))


def _edge_rule(box, first, z, walk, count, edges, simpson=True):
    """s_1 .. s_count by each edge's rule written out: Simpson's weights
    h/3 (1, 4, 2, ..., 2, 4, 1) on an edge that took the equal steps of
    its plan (when simpson), the trapezoid rule on every other edge."""
    c, rho = box.center, 0.5 * box.diameter
    u = (z - c) / rho
    L = np.concatenate(([0j], walk.real - first.w.logmag
                        + 1j * np.cumsum(walk.imag)))
    ends = [s for s, _ in edges[1:]] + [len(z) - 1]
    sums = []
    for k in range(1, count + 1):
        g = u ** (k - 1) * L
        oint = 0j
        for (s, steps), e in zip(edges, ends):
            if simpson and e - s == steps:
                w = np.ones(steps + 1)
                w[1:-1:2] = 4.0
                w[2:-1:2] = 2.0
                oint += (u[e] - u[s]) / (3 * steps) * np.dot(w, g[s:e + 1])
            else:
                oint += 0.5 * np.dot(g[s:e] + g[s + 1:e + 1],
                                     np.diff(u[s:e + 1]))
        sums.append(count * u[0] ** k - k * oint / (2j * math.pi))
    return np.array(sums)


def _walked(monkeypatch):
    """The arguments of every _power_sums call from now on."""
    seen = []
    power_sums = contour._power_sums

    def noted(*args):
        seen.append(args)
        return power_sums(*args)

    monkeypatch.setattr(contour, "_power_sums", noted)
    return seen


# a box and six zeros of planted polynomials inside it, none within 0.15
# of an edge or 0.3 of another
_PLANTED_BOX = Box(-1.0, -0.8, 1.2, 1.1)
_PLANTED = (0.1 + 0.2j, -0.45 + 0.5j, 0.62 - 0.3j, 0.3 + 0.7j,
            -0.5 - 0.35j, 0.85 + 0.45j)


@pytest.mark.parametrize("case", [f"{m} planted" for m in range(1, 7)]
                         + ["four ex1 zeros"])
def test_power_sums_converge_at_fourth_order(case, ex1, data1, ex1_zeros,
                                             monkeypatch):
    # doubling every edge's plan cuts the error of each s_k against the
    # closed-form zeros by about 16 (h^4) with Simpson's rule on each edge,
    # and by about 4 (h^2) with the trapezoid rule on the same samples, the
    # one sum over the walk used before: the integrand turns at each corner
    if case.startswith("four"):
        box, plans, F, data = EX1_FOUR, (64, 128), ex1, data1
        zs = [r.location for r in ex1_zeros[0] if box.contains(r.location)]
    else:
        box, plans, data = _PLANTED_BOX, (32, 64), None
        zs = _PLANTED[:int(case[0])]
        F = _planted(zs)
    seen = _walked(monkeypatch)
    errors = []
    for n in plans:
        path = _SharedWalk(build_model(F, data), 0j)
        w = winding_count(_Plan(path, n), box)
        assert w.count == len(zs) == len(w.power_sums)
        assert path.unplanned == 0
        exact = np.array([_power(zs, box, k) for k in range(1, w.count + 1)])
        # the walk's weights are the written-out Simpson weights
        assert np.abs(w.power_sums - _edge_rule(*seen[-1])).max() <= 1e-12
        errors.append((np.abs(w.power_sums - exact),
                       np.abs(_edge_rule(*seen[-1], simpson=False) - exact)))
    (simpson, trapezoid), (simpson2, trapezoid2) = errors
    assert np.all(simpson >= 10.0 * simpson2)
    assert np.all((3.0 * trapezoid2 < trapezoid)
                  & (trapezoid < 5.0 * trapezoid2))


def test_bisected_edge_keeps_the_trapezoid_rule(monkeypatch):
    # a zero 0.004 under the top edge: that edge bisects at a plan of 16
    # steps, and takes the trapezoid rule over its unequal steps, while
    # the other three take Simpson's rule
    zs = (0.1 + 0.2j, 0.3 + 1.096j)
    seen = _walked(monkeypatch)
    path = _SharedWalk(PolyExpRootModel(_planted(zs)), 0j)
    w = winding_count(_Plan(path, 16), _PLANTED_BOX)
    assert w.count == 2 and path.unplanned > 0
    box, first, z, walk, count, edges = seen[-1]
    ends = [s for s, _ in edges[1:]] + [len(z) - 1]
    assert [e - s > steps for (s, steps), e in zip(edges, ends)] == [
        False, False, True, False]
    assert np.abs(w.power_sums - _edge_rule(*seen[-1])).max() <= 1e-12


def test_three_point_box_resolved_without_walking(ex1, data1, ex1_zeros,
                                                  monkeypatch):
    zs = [r.location for r in ex1_zeros[0] if EX1_THREE.contains(r.location)]
    search = rootfinder._Search(build_model(ex1, data1), 0j, 1e-9)
    assert search.wind(EX1_THREE) == 3

    def no_walk(pathval, box):
        raise AssertionError(f"walked {box}")

    monkeypatch.setattr(rootfinder, "winding_count", no_walk)
    records = search.descend(EX1_THREE, 3, 1)
    assert len(records) == 3 and search.seeds == {}
    for rec in records:
        want = min(zs, key=lambda z: abs(z - rec.location))
        assert abs(rec.location - want) <= 1e-12 * abs(want)
        assert rec.multiplicity == 1 and not rec.cluster
        cert = rec.box_certificate
        assert cert.contains(rec.location)
        assert all(rootfinder._inside(EX1_THREE, c) for c in cert.corners())
    assert len({r.location for r in records}) == 3


def test_four_point_boxes_of_ex2_solved_at_the_first_try(ex2, data2,
                                                          monkeypatch):
    # the two boxes of four zeros in ex2's [-4, 4]^2 search: with one
    # trapezoid sum over the walk, a seed fell outside the first and two
    # seeds of the second converged to one zero, so _solve turned both
    # down and they were split
    outcomes = {}
    splits = []
    solve, split = rootfinder._Search._solve, rootfinder._Search._split

    def recorded(self, box, seeds):
        outcomes[box] = solve(self, box, seeds)
        return outcomes[box]

    def counted(self, box, count):
        splits.append(box)
        return split(self, box, count)

    monkeypatch.setattr(rootfinder._Search, "_solve", recorded)
    monkeypatch.setattr(rootfinder._Search, "_split", counted)
    result = find_a_points(ex2, 0j, Box(-4, -4, 4, 4), tol=1e-9, data=data2)
    assert result.winding_total == len(result) == 32
    for box in (Box(3, -2, 4, -1), Box(3, 1, 4, 2)):
        records = outcomes[box]
        assert records is not None and len(records) == 4
        assert box not in splits
        want = {r.location for r in result if box.contains(r.location)}
        assert {r.location for r in records} == want


@pytest.mark.parametrize("box, m", [(Box(0, -4, 4, 0), 5),
                                    (Box(4, -6, 6, -4), 6)])
def test_five_and_six_point_boxes_solved_without_a_split(box, m, ex1, data1,
                                                         monkeypatch):
    # boxes of ex1's [-8, 8]^2 zero search at depth 2 and 3, solved from
    # their seeds; every record is the zero that mpmath finds from it at
    # 40 digits, inside its certificate box and that of no other record
    search = rootfinder._Search(build_model(ex1, data1), 0j, 1e-9)
    assert search.wind(box) == m and len(search.seeds[box]) == m

    def no_split(self, box, count):
        raise AssertionError(f"split {box}")

    monkeypatch.setattr(rootfinder._Search, "_split", no_split)
    records = search.descend(box, m, 1)
    assert len(records) == m and search.seeds == {}
    with mp.workdps(40):
        zeros = [complex(mp.findroot(_ex1_mp, mp.mpc(rec.location)))
                 for rec in records]
    for rec, zero in zip(records, zeros):
        assert abs(rec.location - zero) <= 1e-12 * abs(zero)
        assert rec.multiplicity == 1 and not rec.cluster
        assert rec.residual < 1e-9
        assert [r.box_certificate.contains(zero) for r in records].count(
            True) == 1
        assert all(rootfinder._inside(box, c)
                   for c in rec.box_certificate.corners())


def test_search_region_box_is_split(ex1, data1, monkeypatch):
    # the same box as the search region (depth 0) is split: only the split
    # confirms its count
    search = rootfinder._Search(build_model(ex1, data1), 0j, 1e-9)
    assert search.wind(EX1_THREE) == 3
    splits = []
    split = rootfinder._Search._split

    def counted(self, box, count):
        splits.append(box)
        return split(self, box, count)

    monkeypatch.setattr(rootfinder._Search, "_split", counted)
    records = search.descend(EX1_THREE, 3, 0)
    assert splits[0] == EX1_THREE and len(records) == 3


@pytest.mark.parametrize("garbage", ["outside", "coincident"])
def test_planted_power_sums_fall_back_to_the_split(garbage, ex1, data1,
                                                   monkeypatch):
    region = Box(-8, -8, 8, 8)
    base = find_a_points(ex1, 0j, region, tol=1e-9, data=data1)

    def planted(box, first, zs, steps, count, edges):
        # every seed at u = 5, outside the box, or all at its centre
        u = 5.0 if garbage == "outside" else 0.0
        return tuple(count * u ** k + 0j for k in
                     range(1, min(count, contour._POWER_SUMS) + 1))

    monkeypatch.setattr(contour, "_power_sums", planted)
    solves = []
    solve = rootfinder._Search._solve

    def recorded(self, box, seeds):
        solves.append(solve(self, box, seeds))
        return solves[-1]

    monkeypatch.setattr(rootfinder._Search, "_solve", recorded)
    # Newton never starts from a seed outside its box
    starts = []
    converge = rootfinder._Search._converge

    def started(self, box, seed):
        starts.append(rootfinder._inside(box, seed))
        return converge(self, box, seed)

    monkeypatch.setattr(rootfinder._Search, "_converge", started)
    result = find_a_points(ex1, 0j, region, tol=1e-9, data=data1)
    assert solves and all(s is None for s in solves)
    assert starts and all(starts)
    assert result.winding_total == base.winding_total == len(result) == 40
    for rec, want in zip(result, base):
        assert abs(rec.location - want.location) <= 1e-12 * abs(want.location)
        assert rec.multiplicity == want.multiplicity == 1
        assert rec.residual < 1e-9


def test_triple_zero_undercount_still_raises():
    # z^3 on the box of the triple-zero defect winds 2; the split's child
    # sum of 3 exposes it, at depth 0 and (seeds or not) at depth 1. The
    # top edge passes 0.005 above the zero: at 0.01 the walk's plans,
    # rounded up to a power of two, count all 3
    F = PolyExpFunction(Polynomial((0.0, 0.0, 3.0)), Polynomial((0.0,)), 0.0)
    box = Box(-0.025, -0.6, 0.65, 0.005)
    with pytest.raises(BoundaryTooClose, match="child winding sum 3"):
        find_a_points(F, 0j, box, tol=1e-9)
    search = rootfinder._Search(PolyExpRootModel(F), 0j, 1e-9)
    assert search.wind(box) == 2 and len(search.seeds[box]) == 2
    with pytest.raises(BoundaryTooClose, match="child winding sum 3"):
        search.descend(box, 2, 1)


@pytest.mark.parametrize("c, location, cluster", [
    (0j, 2.5014188251601705e-13 + 1.182434114192071e-13j, True),
    (0.1 + 0.05j, 0.1000010490339564 + 0.05000026702352922j, False),
], ids=["z^2", "(z - c)^2"])
def test_double_zero_records_unchanged(c, location, cluster):
    # (z - c)^2: the two seeds converge to one point, which fails the
    # separation test before any certificate, so the box is split as
    # before and the record is the one the split gave
    F = PolyExpFunction(Polynomial((-2.0 * c, 2.0)), Polynomial((0.0,)),
                        c * c)
    res = find_a_points(F, 0j, Box(-0.7, -0.6, 0.65, 0.62), tol=1e-9)
    assert res.winding_total == 2 and len(res) == 1
    rec = res[0]
    assert rec.multiplicity == 2 and rec.cluster == cluster
    assert abs(rec.location - location) <= 1e-12
    assert rec.box_certificate.contains(rec.location)
