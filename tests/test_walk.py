"""The boundary walk: planned samples summed as arrays, pinned against the
scalar walk they replace."""

import cmath
import math

import numpy as np
import pytest

from sectorroots import (Box, BoundaryTooClose, ToleranceNotMet,
                         find_a_points, find_product_a_points, rootfinder,
                         square_minus_one)
from sectorroots import funcmodel
from sectorroots.contour import edge_points, winding_count
from sectorroots.funcmodel import (PolyExpRootModel, _add_increment,
                                   _block_samples, _clears_headroom)
from sectorroots.polyexp import ScaledComplex
from sectorroots.valuedist import CanonicalProduct, CanonicalProductModel


class _Walk:
    """Path evaluator proxy that counts bisection samples and notes the
    planned step each extend call takes: the index of its point in the
    edge's plan, counting the edge's first corner as 0, or None for a
    start or a bisection."""

    def __init__(self, inner):
        self.inner = inner
        self.plan = {}
        self.at = None
        self.bisections = 0

    def start(self, z):
        self.at = None
        return self.inner.start(z)

    def extend(self, prev, z):
        self.at = self.plan.get(z)
        self.bisections += self.at is None
        return self.inner.extend(prev, z)

    def min_samples(self, z0, z1):
        n = self.inner.min_samples(z0, z1)
        self.plan = {z: j for j, z in enumerate(edge_points(z0, z1, n), 1)}
        return n


def _count_anchors(monkeypatch, record, at=lambda: None):
    """Count near_f and anchored_f calls made inside winding walks, and
    note at() for each."""
    near = PolyExpRootModel.near_f
    anchored = PolyExpRootModel.anchored_f

    def counted(name, fn):
        def wrapper(self, z):
            if record["walks"]:
                record[name] += 1
                record["where"].append(at())
            return fn(self, z)
        return wrapper

    monkeypatch.setattr(PolyExpRootModel, "near_f", counted("near", near))
    monkeypatch.setattr(PolyExpRootModel, "anchored_f",
                        counted("anchored", anchored))


# (function, target, box, count, raw winding, bisection samples, near_f
# calls, anchored_f calls), measured with the scalar walk on a fresh model
PINNED = [
    ("ex1", 0, (-8, -8, 8, 8), 40, 40.00000000000006, 4, 12, 12),
    ("ex1", 0, (4, -8, 8, -4), 14, 14.000000000000007, 2, 3, 3),
    ("ex1", 1, (-8, -8, 8, 8), 40, 39.99999999999987, 4, 12, 12),
    ("ex1", 1, (-2, -2, 2, 2), 4, 3.9999999999999996, 0, 1, 1),
    ("ex2", 0, (2.5, -1.75, 2.75, -1.5), 1, 1.0000000000000004, 3, 1, 1),
    ("ex2", 0, (0, -4, 4, 0), 16, 16.00000000000002, 0, 7, 7),
    ("ex2", 1, (-5.619675, -3.2116875, -5.4295124999999995, -3.0258), 3,
     2.9999999999999987, 3, 2, 1),
    ("ex2", 1, (-3, -3, 3, 3), 23, 23.000000000000014, 0, 10, 10),
]


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-a{c[1]}-{c[2]}")
def test_pinned_windings(case, request, monkeypatch):
    name, a, box, count, raw, bisections, near, anchored = case
    F = request.getfixturevalue(name)
    data = request.getfixturevalue("data" + name[-1])
    model = PolyExpRootModel(F, tol=1e-13, data=data)
    walk = _Walk(rootfinder._SharedWalk(model, a))
    record = {"walks": 1, "near": 0, "anchored": 0, "where": []}
    _count_anchors(monkeypatch, record, lambda: walk.at)
    result = winding_count(walk, Box(*box))
    assert result.count == count
    assert abs(result.raw.real - raw) <= 1e-12
    assert walk.bisections == bisections
    assert (record["near"], record["anchored"]) == (near, anchored)
    # every walk starts from an anchor; a re-anchor at a planned step other
    # than the first of its block restarts a block's sums midway
    starts = [j for j in record["where"] if j is None]
    mid_block = [j for j in record["where"]
                 if j is not None and (j - 1) % funcmodel._PLAN_BLOCK]
    assert len(starts) >= 1
    if near > 2:
        assert mid_block


# walk starts and re-anchors of a whole search; the search's shared walk
# serves every corner and edge an earlier walk evaluated (314, 48 and 365,
# 77 without it). Newton starts from the walk's root estimate, so the
# search walks fewer and other boxes than from box centres (95, 28 and
# 147, 59 then). Boxes of 2 to 4 a-points are solved from their seeds
# without a split, and Kantorovich balls replace the certificate walks, so
# the search walks 106 boxes instead of 338 (93, 28 and 147, 60 before).
# Integrals from 0 cut into chunks of swing at most 4 carry tighter error
# bounds, so carried samples clear the headroom rule a little longer (50,
# 28 and 112, 59 with chunks of about 80 radians)
@pytest.mark.parametrize("name, box, near, anchored", [
    ("ex1", (-8, -8, 8, 8), 49, 27),
    ("ex2", (-4, -4, 4, 4), 111, 59),
], ids=["ex1", "ex2"])
def test_search_anchor_calls_pinned(name, box, near, anchored, request,
                                    monkeypatch):
    F = request.getfixturevalue(name)
    data = request.getfixturevalue("data" + name[-1])
    record = {"walks": 0, "near": 0, "anchored": 0, "where": []}
    _count_anchors(monkeypatch, record)
    walk = rootfinder.winding_count

    def counted_walk(pathval, b):
        record["walks"] += 1
        try:
            return walk(pathval, b)
        finally:
            record["walks"] -= 1

    monkeypatch.setattr(rootfinder, "winding_count", counted_walk)
    result = find_a_points(F, 0j, Box(*box), tol=1e-9, data=data)
    assert result.total_multiplicity == result.winding_total
    assert (record["near"], record["anchored"]) == (near, anchored)


def test_shared_walk_counts_match_fresh_walks(ex2, data2, monkeypatch):
    # the 1-points on [-6, 6]^2 keep the recheck over a few hundred walks
    # now that boxes of 2 to 4 a-points are solved without a split and
    # balls replace certificate walks (78 walks on [-4, 4]^2, 225 before)
    wound = []
    walk = rootfinder.winding_count

    def recorded(pathval, box):
        result = walk(pathval, box)
        wound.append((box, result.count))
        return result

    monkeypatch.setattr(rootfinder, "winding_count", recorded)
    result = find_a_points(ex2, 1 + 0j, Box(-6, -6, 6, 6), tol=1e-9,
                           data=data2)
    assert result.total_multiplicity == result.winding_total == 177
    assert len(wound) > 200
    model = funcmodel.build_model(ex2, data2)
    for box, count in wound:
        assert walk(rootfinder._SharedWalk(model, 1 + 0j), box).count == count


@pytest.mark.parametrize("box, stored", [
    (Box(1, -0.5, 2, 0.5), 3),     # the last edge runs through the zero at 1
    (Box(0.25, -0.5, 1, 0.5), 1),  # the second edge does
    (Box(1, 0, 2, 1), 0),          # the walk starts on it
])
def test_walk_raising_mid_edge_stores_no_edge(box, stored):
    path = rootfinder._SharedWalk(PolyExpRootModel(square_minus_one()), 0j)
    with pytest.raises(BoundaryTooClose):
        winding_count(path, box)
    # only the edges walked to their end before the zero are stored
    assert len(path.edges) == stored
    for z0, z1 in path.edges:
        assert not (min(z0.real, z1.real) <= 1.0 <= max(z0.real, z1.real)
                    and min(z0.imag, z1.imag) <= 0.0
                    <= max(z0.imag, z1.imag))


class _NotedModel:
    """Model proxy that notes every walk sample it returns."""

    def __init__(self, model):
        self.model = model
        self.samples = []

    def start(self, a, z):
        self.samples.append(self.model.start(a, z))
        return self.samples[-1]

    def step(self, a, prev, z):
        self.samples.append(self.model.step(a, prev, z))
        return self.samples[-1]

    def edge(self, a, prev, pts):
        for s in self.model.edge(a, prev, pts):
            self.samples.append(s)
            yield s

    def min_samples(self, z0, z1):
        return self.model.min_samples(z0, z1)


class _Noted:
    """Path evaluator proxy that notes every sample it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.samples = []

    def start(self, z):
        self.samples.append(self.inner.start(z))
        return self.samples[-1]

    def extend(self, prev, z):
        self.samples.append(self.inner.extend(prev, z))
        return self.samples[-1]

    def min_samples(self, z0, z1):
        return self.inner.min_samples(z0, z1)


def test_served_edge_is_popped(ex1, data1):
    model = funcmodel.build_model(ex1, data1)
    path = rootfinder._SharedWalk(model, 0j)
    left, right = Box(-2, -2, 2, 2).split()[:2]
    spoke = (-2j, 0j)
    fresh = [winding_count(rootfinder._SharedWalk(model, 0j), b).count
             for b in (left, right)]
    assert sum(fresh) > 0
    assert winding_count(path, left).count == fresh[0]
    n, samples = path.edges[spoke]
    assert samples.shape == (3, n - 1)
    assert set(path.corners) == set(left.corners())

    path.model = inner = _NotedModel(path.model)
    outer = _Noted(path)
    assert winding_count(outer, right).count == fresh[1]
    # the right box walks the spoke 0 -> -2i last, from the stored samples
    assert spoke not in path.edges
    plan = edge_points(0j, -2j, n)
    on_spoke = [s for s in outer.samples if s.z in plan[:-1]]
    assert [s.z for s in on_spoke] == plan[:-1]
    assert [s.w.logmag for s in on_spoke] == samples[0, ::-1].tolist()
    assert [s.w.phase for s in on_spoke] == samples[1, ::-1].tolist()
    assert [s.err_log for s in on_spoke] == samples[2, ::-1].tolist()
    # the model took none of the spoke's points, nor the corners 0 and -2i
    # (the start) that the left box evaluated
    assert not (set(plan) | {0j}) & {s.z for s in inner.samples}
    assert set(path.corners) == set(left.corners()) | set(right.corners())


def _sequential(w, err, val, m, inc_err):
    """The scalar walk: _add_increment applied increment by increment."""
    out = []
    for v, mk, ek in zip(val.tolist(), m.tolist(), inc_err.tolist()):
        inc = ScaledComplex.from_complex(v).shift(mk)
        w, err = _add_increment(w, err, inc, ek)
        out.append((w, err))
    return out


def test_block_samples_match_sequential_adds():
    rng = np.random.default_rng(11)
    # increment scales rise through 1,460 in log and fall back, so one
    # reference exponent cannot hold the block
    m = np.concatenate([np.linspace(-700.0, 760.0, 300),
                        np.linspace(755.0, 600.0, 40)])
    val = np.exp(1j * rng.uniform(-math.pi, math.pi, len(m)))
    inc_err = m + math.log(1e-14)
    w0, err0 = ScaledComplex(-705.0, 0.4), -705.0 + math.log(1e-13)
    # increment 150 cancels the sum before it, so sample 150 fails the
    # headroom rule mid-block and the samples after it recover
    before = _sequential(w0, err0, val[:150], m[:150], inc_err[:150])[-1][0]
    m[150] = before.logmag
    val[150] = -cmath.rect(1.0, before.phase)
    want = _sequential(w0, err0, val, m, inc_err)

    got = []
    w, err, calls = w0, err0, 0
    while len(got) < len(m):
        i = len(got)
        logmag, phase, errs, ok = _block_samples(w, err, val[i:], m[i:],
                                                 inc_err[i:])
        calls += 1
        assert 1 <= len(logmag) <= len(m) - i
        got += zip(logmag, phase, errs, ok)
        w, err = ScaledComplex(logmag[-1], phase[-1]), errs[-1]
    # the rise is cut into windows of at most _SPAN_LOG
    assert calls >= 1460 / funcmodel._SPAN_LOG

    fails = [j for j, (ws, e) in enumerate(want)
             if not _clears_headroom(ws.logmag, e)]
    assert fails == [150]
    # the two summation orders agree to a few ulps of the scaled form;
    # an ulp of logmag is itself a relative 1e-13 of |w| at logmag 600
    ulps = 64 * np.finfo(float).eps
    for (ws, e), (logmag, phase, err_log, ok) in zip(want, got):
        assert ok == _clears_headroom(ws.logmag, e)
        assert abs(err_log - e) <= ulps * max(1.0, abs(e))
        if ok:
            assert abs(logmag - ws.logmag) <= ulps * max(1.0, abs(logmag))
            assert abs(cmath.phase(cmath.rect(1.0, phase - ws.phase))) <= ulps


def test_planned_sample_on_a_point_raises():
    # f = z^2 - 1 on the edge [0.5, 1.5]: the planned point 1 is its zero
    path = rootfinder._SharedWalk(PolyExpRootModel(square_minus_one()), 0j)
    z0, z1 = 0.5 + 0j, 1.5 + 0j
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1))
    at = pts.index(1.0)
    for z in pts[:at]:
        prev = path.extend(prev, z)
    with pytest.raises(BoundaryTooClose):
        path.extend(prev, pts[at])


def test_planned_product_sample_on_a_point_raises():
    # the rho = 1/2 product on the edge [2, 6]: the planned point 4 is a zero
    model = CanonicalProductModel(CanonicalProduct(0.5, 64), 6.0)
    path = rootfinder._SharedWalk(model, 0j)
    z0, z1 = 2.0 + 0j, 6.0 + 0j
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1))
    at = pts.index(4.0)
    for z in pts[:at]:
        prev = path.extend(prev, z)
    with pytest.raises(BoundaryTooClose, match="headroom rule"):
        path.extend(prev, pts[at])


def test_product_edge_through_a_point_between_samples():
    # the rho = 1/2 product is real on y = 0, so its phase jumps by pi
    # across the zero at 4 however close the bisection gets; every sample
    # near 4 clears the headroom rule, and the walk stops at the bisection
    # limit (or on a sample that lands on the zero)
    P = CanonicalProduct(0.5, 64)
    box = Box(2.1, 0.0, 6.3, 1.0)
    path = rootfinder._SharedWalk(CanonicalProductModel(P, 8.0), 0j)
    assert 4.0 not in edge_points(box.x0 + 0j, box.x1 + 0j,
                                  path.min_samples(box.x0, box.x1))
    with pytest.raises((ToleranceNotMet, BoundaryTooClose)):
        winding_count(path, box)
    # the region search grows the box off the zero and finds it
    res = find_product_a_points(P, 0j, box)
    assert res.winding_total == len(res) == 1
    assert abs(res[0].location - 4.0) < 1e-9


@pytest.mark.parametrize("rho, a, box", [
    (0.5, 1.0, (-30.5, -30.5, 30.5, 30.5)),
    (1.0 / 3.0, 0.0, (-20.5, -3.5, 40.5, 3.5)),
])
def test_planned_product_samples_match_pointwise(rho, a, box):
    model = CanonicalProductModel(CanonicalProduct(rho, 64), 45.0)
    path = rootfinder._SharedWalk(model, a)
    corners = Box(*box).corners()
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        pts = edge_points(z0, z1, path.min_samples(z0, z1))
        prev = None
        for z in pts:
            planned = path.extend(prev, z)
            alone = model.start(a, z)
            assert planned.z == z
            assert abs(planned.w.logmag - alone.w.logmag) <= 1e-12
            assert abs(cmath.phase(cmath.rect(
                1.0, planned.w.phase - alone.w.phase))) <= 1e-12
            assert abs(planned.err_log - alone.err_log) <= 1e-12
            prev = planned
    # values at points the tail does not admit are NaN, and the walk
    # raises there through the pointwise evaluation
    far = model.values(np.array([0j, 10.0 * model.tail.radius + 0j]))
    assert not math.isnan(far[0].real) and math.isnan(far[1].real)
