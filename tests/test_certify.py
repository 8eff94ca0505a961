"""Roots certified without walking again: Kantorovich balls, the power sums
of the walk, and boxes of 2 to 4 a-points solved from them."""

import math

import mpmath as mp
import numpy as np
import pytest

from sectorroots import (Box, BoundaryTooClose, PolyExpFunction, Polynomial,
                         find_a_points, rootfinder, square_minus_one)
from sectorroots import contour
from sectorroots.contour import winding_count
from sectorroots.funcmodel import PathSample, PolyExpRootModel, build_model
from sectorroots.polyexp import ScaledComplex
from sectorroots.rootfinder import _SharedWalk

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
    # |u| <= 1 in the box, so |s_k| <= count; the trapezoid sums over the
    # walk's samples hold s_k to 1e-2 of that bound
    for k, s in enumerate(w.power_sums, 1):
        assert abs(s - _power(zs, box, k)) <= 1e-2 * w.count, k
    assert abs(w.root_sum - sum(zs)) <= 1e-2 * box.diameter
    # the seeds are the zeros to a few percent of the box, and the roots
    # that np.roots gives for the same power sums
    seeds = rootfinder._seeds(box, w)
    if w.count > 1:
        e = [1.0]
        for k in range(1, w.count + 1):
            e.append(sum((-1) ** (i - 1) * e[k - i] * w.power_sums[i - 1]
                         for i in range(1, k + 1)) / k)
        c, rho = box.center, 0.5 * box.diameter
        ref = c + rho * np.roots([(-1) ** k * ek for k, ek in enumerate(e)])
        assert max(min(abs(s - r) for s in seeds) for r in ref) <= 1e-9
    assert max(min(abs(s - z) for s in seeds) for z in zs) <= 0.05 * box.width


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

    def planted(box, first, zs, steps, count):
        # every seed at u = 5, outside the box, or all at its centre
        u = 5.0 if garbage == "outside" else 0.0
        return tuple(count * u ** k + 0j for k in range(1, min(count, 4) + 1))

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
    # sum of 3 exposes it, at depth 0 and (seeds or not) at depth 1
    F = PolyExpFunction(Polynomial((0.0, 0.0, 3.0)), Polynomial((0.0,)), 0.0)
    box = Box(-0.025, -0.6, 0.65, 0.01)
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
