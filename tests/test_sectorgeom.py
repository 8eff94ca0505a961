"""sectorgeom: angles, sectors, ray sets, cones, membership reports."""

import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorroots import (EmptyRaySet, RaySet, Sector, angle_distance,
                         minimal_cone, sector_report, separated, wrap_angle)
from sectorroots.cli import canonical_json

angles = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
TWO_PI = 2.0 * math.pi


@given(angles)
@settings(max_examples=200, deadline=None)
def test_wrap_angle_range_and_congruence(t):
    w = wrap_angle(t)
    assert 0.0 <= w < TWO_PI
    assert math.isclose(math.cos(w), math.cos(t), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(t), abs_tol=1e-9)


@given(angles, angles)
@settings(max_examples=200, deadline=None)
def test_angle_distance_symmetric_bounded(a, b):
    d = angle_distance(a, b)
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(angle_distance(b, a), abs=1e-12)
    assert angle_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_sector_membership_closed_boundary():
    s = Sector(0.0, math.pi / 4)
    assert s.contains(0.0 + 0.0j)  # vertex belongs to every sector
    assert s.contains(cmath.rect(2.0, math.pi / 4))
    assert s.contains(cmath.rect(2.0, -math.pi / 4))
    assert not s.contains(cmath.rect(2.0, math.pi / 4 + 1e-6))
    assert s.contains(cmath.rect(5.0, 0.1))


def test_sector_opening_and_rotation():
    s = Sector(1.0, 0.5)
    assert 2 * s.half_opening == pytest.approx(1.0)
    r = Sector(s.bisector + 2.0, s.half_opening)
    assert r.bisector == pytest.approx(3.0)
    assert r.contains(cmath.rect(1.0, 3.0))


def test_sector_full_plane():
    s = Sector(0.0, math.pi, full_plane=True)
    assert s.contains(cmath.rect(1.0, 2.5))
    assert s.contains(cmath.rect(1.0, -2.5))


def test_sector_json_roundtrip():
    # the CLI writes a sector as to_dict() through canonical_json
    s = Sector(2.25, 0.75)
    obj = json.loads(canonical_json(s.to_dict()))
    t = Sector(obj["bisector"], obj["half_opening"])
    assert t.bisector == pytest.approx(s.bisector)
    assert t.half_opening == pytest.approx(s.half_opening)


def test_rayset_sorted_dedup():
    rs = RaySet([3.0, 0.1, 3.0 + 1e-15, 0.1, TWO_PI - 1e-15])
    # the near-2pi entry folds onto 0... which dedups against nothing here
    assert list(rs) == sorted(rs)
    assert len(rs) == 3


def test_rayset_seam_dedup():
    rs = RaySet([0.0, TWO_PI - 1e-14])
    assert len(rs) == 1


@given(st.lists(st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
                min_size=1, max_size=8), angles)
@settings(max_examples=120, deadline=None)
def test_minimal_cone_covers_and_rotates(raw, t):
    rs = RaySet(raw)
    cone = minimal_cone(rs)
    for a in rs:
        assert angle_distance(a, cone.bisector) <= cone.half_opening + 1e-12
    spun = minimal_cone(RaySet(a + t for a in rs))
    assert spun.half_opening == pytest.approx(cone.half_opening, abs=1e-9)


def test_minimal_cone_examples():
    cone = minimal_cone(RaySet([3 * math.pi / 4, 5 * math.pi / 4]))
    assert cone.bisector == pytest.approx(math.pi)
    assert cone.half_opening == pytest.approx(math.pi / 4)
    one = minimal_cone(RaySet([math.pi / 2, 5 * math.pi / 6,
                               7 * math.pi / 6, 3 * math.pi / 2]))
    assert one.bisector == pytest.approx(math.pi)
    assert one.half_opening == pytest.approx(math.pi / 2)


def test_minimal_cone_single_ray_and_empty():
    cone = minimal_cone(RaySet([1.2]))
    assert cone.half_opening == 0.0
    assert cone.bisector == pytest.approx(1.2)
    with pytest.raises(EmptyRaySet):
        minimal_cone(RaySet([]))


def test_separated():
    assert separated(Sector(0.0, 0.3), Sector(math.pi, 0.3))
    assert not separated(Sector(0.0, 1.0), Sector(1.5, 1.0))
    # touching boundaries are not separated (closed sectors share a ray)
    assert not separated(Sector(0.0, 0.5), Sector(1.0, 0.5))


def test_sector_report_partition():
    pts = [0.5 + 0.0j, 4.0 + 0.2j, -3.0 + 3.0j, 5.0 * cmath.exp(0.1j)]
    s = Sector(0.0, 0.3)
    rep = sector_report(pts, s, r0=1.0)
    assert len(rep.small) + len(rep.inside) + len(rep.outside) == len(pts)
    assert rep.small == (0.5 + 0.0j,)
    assert rep.holds is (len(rep.outside) == 0)
    assert not rep.holds  # -3 + 3j lies far outside the cone


def test_sector_report_holds_and_json():
    pts = [4.0 + 0.2j, 5.0 * cmath.exp(0.1j), 0.2j]
    rep = sector_report(pts, Sector(0.0, 0.3), r0=1.0)
    assert rep.holds
    blob = json.loads(canonical_json(rep.to_dict()))
    assert blob["holds"] is True


def test_sector_report_requires_positive_radius():
    with pytest.raises(ValueError):
        sector_report([], Sector(0.0, 0.3), r0=0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: Sector(0.0, -0.1), "outside \\[0, pi\\]"),
    (lambda: Sector(0.0, 3.2), "outside \\[0, pi\\]"),
    (lambda: RaySet([0.5, math.nan]), "must be finite"),
    (lambda: RaySet([math.inf]), "must be finite"),
], ids=["half-opening below 0", "half-opening above pi", "nan angle",
        "infinite angle"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
