"""Feasibility engine: induced ray sets, cone verdicts, exhaustive sweep.

One configuration is checked as a one-row call of the array core that
enumerate_configs runs. The scalar ray, dedup, cone and hypothesis rules
that the array core replaced are kept below (_ref_*) as the oracle the core
must match bit for bit."""

import itertools
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorroots import (AccumulationConfig, CounterexampleFound, RaySet,
                         enumerate_configs, minimal_cone, rayconfig,
                         wrap_angle)
from sectorroots.asymptotics import accumulation_rays_analytic
from sectorroots.rayconfig import MAX_ARG_SAMPLES
from sectorroots.sectorgeom import angle_distance

PI = math.pi
TWO_PI = 2.0 * PI
TOL = 1e-12


def _cones(cfg):
    """Zero-ray and one-ray ConeRows of one configuration."""
    return rayconfig._config_cones(
        cfg.d, np.array([cfg.argA], dtype=np.float64),
        np.array([cfg.assignment]))


def _ray_sets(cfg):
    """(zero_rays, one_rays) of one configuration, as RaySets."""
    return tuple(c.ray_set(0) for c in _cones(cfg))


def _close_sets(got, want, tol=1e-9):
    assert len(got) == len(want)
    for t in want:
        assert min(angle_distance(t, g) for g in got) <= tol


def test_config_validates():
    with pytest.raises(ValueError):
        AccumulationConfig(0, 0.0, ())
    with pytest.raises(ValueError):
        AccumulationConfig(2, 0.0, (1,))
    with pytest.raises(ValueError):
        AccumulationConfig(2, 0.0, (1, 2))


def test_ray_pair_degree_two():
    # phi_0 = 0, so the pair is 0 -+ pi/4 wrapped into [0, 2pi)
    lo, hi = rayconfig._boundary_rays(2, np.array([PI]))[0, 0]
    assert lo == pytest.approx(7 * PI / 4, abs=1e-12)
    assert hi == pytest.approx(PI / 4, abs=1e-12)


def test_induced_sets_degree_two():
    zero, one = _ray_sets(AccumulationConfig(2, PI, (1, 0)))
    _close_sets(zero, (PI / 4, 7 * PI / 4))
    _close_sets(one, (3 * PI / 4, 5 * PI / 4))


def test_induced_sets_degree_three():
    zero, one = _ray_sets(AccumulationConfig(3, PI, (1, 0, 0)))
    _close_sets(zero, (PI / 6, 11 * PI / 6))
    _close_sets(one, (PI / 2, 5 * PI / 6, 7 * PI / 6, 3 * PI / 2))


def test_constant_assignment_leaves_one_side_empty():
    zero, one = _ray_sets(AccumulationConfig(3, 0.3, (1, 1, 1)))
    assert len(zero) == 6 and len(one) == 0
    zero, one = _ray_sets(AccumulationConfig(3, 0.3, (0, 0, 0)))
    assert len(zero) == 0 and len(one) == 6


@settings(max_examples=120, deadline=None)
@given(d=st.integers(1, 8), argA=st.floats(-3.0, 3.0),
       bits=st.integers(0, 255))
def test_union_covers_all_transition_rays(d, argA, bits):
    assignment = tuple((bits >> k) & 1 for k in range(d))
    zero, one = _ray_sets(AccumulationConfig(d, argA, assignment))
    merged = RaySet(list(zero) + list(one))
    assert len(merged) == 2 * d


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 6), argA=st.floats(-3.0, 3.0),
       theta=st.floats(-3.0, 3.0), bits=st.integers(0, 63))
def test_rotation_equivariance(d, argA, theta, bits):
    assignment = tuple((bits >> k) & 1 for k in range(d))
    base_z, base_o = _ray_sets(AccumulationConfig(d, argA, assignment))
    rot_z, rot_o = _ray_sets(
        AccumulationConfig(d, argA - d * theta, assignment))
    _close_sets(rot_z, [wrap_angle(t + theta) for t in base_z], 1e-8)
    _close_sets(rot_o, [wrap_angle(t + theta) for t in base_o], 1e-8)


def test_verdict_matches_erf_example():
    v = rayconfig._verdict_rows(*_cones(AccumulationConfig(2, PI, (1, 0))))
    assert v.zero_opening[0] == pytest.approx(PI / 2, abs=1e-9)
    assert v.one_opening[0] == pytest.approx(PI / 2, abs=1e-9)
    assert v.disjoint[0]
    # opening sits exactly on the strict pi/2 threshold: hypothesis missed
    assert not v.disjoint_cone[0]
    assert not v.halfplane[0]


def test_verdict_matches_cubic_example():
    v = rayconfig._verdict_rows(
        *_cones(AccumulationConfig(3, PI, (1, 0, 0))))
    assert v.zero_opening[0] == pytest.approx(PI / 3, abs=1e-9)
    assert v.one_opening[0] == pytest.approx(PI, abs=1e-9)
    assert v.disjoint[0]
    assert not v.disjoint_cone[0]
    assert not v.halfplane[0]


def test_config_agrees_with_asymptotic_rays(data1, data2):
    for data in (data1, data2):
        argA = wrap_angle(PI - data.d * data.rays[0])
        assignment = tuple(int(round(v.real)) for v in data.values)
        zero, one = _ray_sets(AccumulationConfig(data.d, argA, assignment))
        _close_sets(zero, accumulation_rays_analytic(data, 0.0))
        _close_sets(one, accumulation_rays_analytic(data, 1.0))


def test_enumeration_clean_to_degree_four():
    rep = enumerate_configs(4)
    assert rep.violations == ()
    assert rep.halfplane_met_degrees == (1,)
    # 16 argA samples times sum of 2^d for d = 1..4
    assert rep.configs_checked == 16 * 30
    d = rep.to_dict()
    assert d == {"dmax": 4, "configs_checked": 480, "violations": []}


def test_enumeration_validates():
    with pytest.raises(ValueError):
        enumerate_configs(0)
    with pytest.raises(ValueError):
        enumerate_configs(13)
    with pytest.raises(ValueError):
        enumerate_configs(4, arg_samples=0)


def test_config_rejects_non_finite_arg():
    # nan used to give RaySet([nan]) and a half-plane verdict at d = 3
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="argA must be finite"):
            AccumulationConfig(3, bad, (1, 0, 0))


# -- the scalar rules the array core replaced ----------------------------

def _ref_wrap(theta):
    t = math.fmod(float(theta), TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t = 0.0
    return t


def _ref_distance(a, b):
    d = abs(_ref_wrap(a) - _ref_wrap(b))
    return min(d, TWO_PI - d)


def _ref_ray_pair(d, arg_a, k):
    phi = ((2 * (k + 1) - 1) * PI - arg_a) / d
    half = 0.5 * PI / d
    return (_ref_wrap(phi - half), _ref_wrap(phi + half))


def _ref_rayset(angles):
    out = []
    for t in sorted(_ref_wrap(t) for t in angles):
        if not out or t - out[-1] > TOL:
            out.append(t)
    if len(out) > 1 and (out[0] + TWO_PI) - out[-1] <= TOL:
        out.pop()
    return tuple(out)


def _ref_cone(angs):
    """(bisector, half_opening, full_plane) of the minimal cone, or None."""
    m = len(angs)
    if m == 0:
        return None
    if m == 1:
        return (_ref_wrap(angs[0]), 0.0, False)
    best_gap = -1.0
    best_i = 0
    for i in range(m):
        nxt = angs[(i + 1) % m] + (TWO_PI if i == m - 1 else 0.0)
        gap = nxt - angs[i]
        if gap > best_gap:
            best_gap = gap
            best_i = i
    if best_gap <= TOL:
        return (_ref_wrap(angs[0]), PI, True)
    start = angs[(best_i + 1) % m]
    half = 0.5 * (TWO_PI - best_gap)
    return (_ref_wrap(start + half), min(max(half, 0.0), PI), False)


def _ref_disjoint(c0, c1):
    if c0 is not None and c1 is not None:
        return _ref_distance(c0[0], c1[0]) > c0[1] + c1[1] + TOL
    other = c0 if c1 is None else c1
    if other is None:
        return True
    return other[1] < PI - TOL


def _ref_halfplane(c0, c1):
    if c1 is not None and c1[1] > 0.5 * PI + TOL:
        return False
    if c1 is None:
        return c0 is None or c0[1] < 0.5 * PI - TOL
    if c0 is None:
        return True
    slack = 0.5 * PI - c1[1]
    reach = min(PI, _ref_distance(c0[0], c1[0]) + slack)
    return reach > 0.5 * PI + c0[1] + TOL


RefVerdict = namedtuple("RefVerdict", "zero_rays one_rays zero_cone one_cone "
                        "th0 th1 disjoint thm1 thm3")


def _ref_assess(d, arg_a, assignment, shrink=1.0):
    """The scalar verdict; shrink scales both half-openings (a planted
    fault when it is not 1)."""
    zero, one = [], []
    for k, v in enumerate(assignment):
        (zero if v == 1 else one).extend(_ref_ray_pair(d, arg_a, k))
    zero, one = _ref_rayset(zero), _ref_rayset(one)
    c0, c1 = _ref_cone(zero), _ref_cone(one)
    if shrink != 1.0:
        c0 = c0 and (c0[0], shrink * c0[1], c0[2])
        c1 = c1 and (c1[0], shrink * c1[1], c1[2])
    th0 = 2.0 * c0[1] if c0 is not None else 0.0
    th1 = 2.0 * c1[1] if c1 is not None else 0.0
    disjoint = _ref_disjoint(c0, c1)
    thm1 = (disjoint and min(th0, th1) < 0.5 * PI - TOL
            and max(th0, th1) < PI - TOL)
    thm3 = th0 < PI / 3.0 - TOL and _ref_halfplane(c0, c1)
    return RefVerdict(zero, one, c0, c1, th0, th1, disjoint, thm1, thm3)


def _ref_violations(dmax, arg_samples=16, shrink=1.0):
    out = []
    for d in range(1, dmax + 1):
        for assignment in itertools.product((0, 1), repeat=d):
            for j in range(arg_samples):
                arg_a = TWO_PI * j / arg_samples
                cfg = AccumulationConfig(d, arg_a, assignment)
                v = _ref_assess(d, arg_a, assignment, shrink)
                mixed = len(set(assignment)) == 2
                if v.thm1 and mixed:
                    out.append(f"disjoint-cone hypothesis met: {cfg}")
                if (mixed and d % 2 == 1 and v.th0 < PI - 1e-9
                        and v.th1 < PI - 1e-9):
                    out.append(f"odd-degree parity violated: {cfg}")
                if v.thm3 and d >= 3:
                    out.append(
                        f"half-plane hypothesis met at d = {d}: {cfg}")
    return out


def _cone_tuple(sector):
    if sector is None:
        return None
    return (sector.bisector, sector.half_opening, sector.full_plane)


# rays in chains of 0.45e-12 steps around a few bases, the seam among them:
# a chain keeps every ray more than 1e-12 past the last kept one
_chained = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, PI, TWO_PI, -TWO_PI, 3.7, 1e6]),
              st.integers(-6, 6)),
    min_size=1, max_size=12).map(
        lambda parts: [b + k * 0.45e-12 for b, k in parts])


@settings(max_examples=200, deadline=None)
@given(raw=_chained)
def test_rayset_and_cone_match_scalar_rules(raw):
    rays = RaySet(raw)
    assert rays.angles == _ref_rayset(raw)
    assert _cone_tuple(minimal_cone(rays)) == _ref_cone(rays.angles)


def test_array_core_matches_scalar_rules_on_every_degree_eight_row():
    rows = 0
    for d in range(1, 9):
        cfgs = [(a, TWO_PI * j / 16)
                for a in itertools.product((0, 1), repeat=d)
                for j in range(16)]
        values = np.array([a for a, _ in cfgs])
        arg_a = np.array([t for _, t in cfgs])
        zero, one = rayconfig._config_cones(d, arg_a, values)
        v = rayconfig._verdict_rows(zero, one)
        for r, (a, t) in enumerate(cfgs):
            ref = _ref_assess(d, t, a)
            assert zero.ray_set(r).angles == ref.zero_rays
            assert one.ray_set(r).angles == ref.one_rays
            assert _cone_tuple(zero.sector(r)) == ref.zero_cone
            assert _cone_tuple(one.sector(r)) == ref.one_cone
            assert v.zero_opening[r] == ref.th0
            assert v.one_opening[r] == ref.th1
            assert v.disjoint[r] == ref.disjoint
            assert v.disjoint_cone[r] == ref.thm1
            assert v.halfplane[r] == ref.thm3
            rows += 1
    assert rows == 8160


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 12),
       argA=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e9, 1e9),
                      st.floats(-1e300, 1e300)),
       bits=st.integers(0, 4095))
def test_assess_matches_scalar_rules(d, argA, bits):
    assignment = tuple((bits >> k) & 1 for k in range(d))
    zero, one = _cones(AccumulationConfig(d, argA, assignment))
    v = rayconfig._verdict_rows(zero, one)
    ref = _ref_assess(d, argA, assignment)
    assert zero.ray_set(0).angles == ref.zero_rays
    assert one.ray_set(0).angles == ref.one_rays
    assert _cone_tuple(zero.sector(0)) == ref.zero_cone
    assert _cone_tuple(one.sector(0)) == ref.one_cone
    assert v.zero_opening[0] == ref.th0
    assert v.one_opening[0] == ref.th1
    assert v.disjoint[0] == ref.disjoint
    assert v.disjoint_cone[0] == ref.thm1
    assert v.halfplane[0] == ref.thm3
    rays = rayconfig._boundary_rays(d, np.array([argA], dtype=np.float64))
    for k in range(d):
        assert tuple(rays[0, k].tolist()) == _ref_ray_pair(d, argA, k)


@pytest.mark.parametrize("arg_samples,pass_rows",
                         [(16, None), (1, None), (1, 1)])
def test_planted_fault_reports_first_three_in_sweep_order(
        monkeypatch, arg_samples, pass_rows):
    real = rayconfig.cone_rows

    def halved(angles):
        cones = real(angles)
        return cones._replace(half_opening=0.5 * cones.half_opening)

    monkeypatch.setattr(rayconfig, "cone_rows", halved)
    if pass_rows is not None:
        monkeypatch.setattr(rayconfig, "_PASS_ROWS", pass_rows)
    want = _ref_violations(4, arg_samples, shrink=0.5)
    assert len(want) > 3
    with pytest.raises(CounterexampleFound) as exc:
        enumerate_configs(4, arg_samples)
    assert str(exc.value) == "; ".join(want[:3])


def test_enumeration_clean_to_degree_twelve():
    for dmax in range(1, 13):
        rep = enumerate_configs(dmax)
        assert rep.configs_checked == 16 * (2 ** (dmax + 1) - 2)
        assert rep.halfplane_met_degrees == (1,)
        assert rep.violations == ()


def test_enumeration_passes_are_bounded(monkeypatch):
    want = enumerate_configs(6, arg_samples=3)
    seen = []
    real = rayconfig._config_cones

    def counted(d, arg_a, values):
        seen.append(len(arg_a))
        return real(d, arg_a, values)

    monkeypatch.setattr(rayconfig, "_PASS_ROWS", 7)
    monkeypatch.setattr(rayconfig, "_config_cones", counted)
    assert enumerate_configs(6, arg_samples=3) == want
    assert max(seen) == 7
    assert sum(seen) == want.configs_checked == 3 * 126


def test_enumeration_arg_samples_is_a_bounded_integer():
    for bad in (True, False, 2.0, 0, MAX_ARG_SAMPLES + 1):
        with pytest.raises(ValueError, match="arg_samples"):
            enumerate_configs(2, arg_samples=bad)
    with pytest.raises(ValueError, match="dmax"):
        enumerate_configs(True)
    assert enumerate_configs(2, arg_samples=np.int64(3)).configs_checked == 18
    rep = enumerate_configs(1, arg_samples=MAX_ARG_SAMPLES)
    assert rep.configs_checked == 2 * MAX_ARG_SAMPLES
