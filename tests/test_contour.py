"""contour: adaptive segment quadrature, boxes, winding counts."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sectorroots import Box, BoundaryTooClose, ToleranceNotMet, example2
from sectorroots import contour, funcmodel
from sectorroots.contour import (_PASS_ROWS, PathSample, edge_points,
                                 integrate_segment_err, integrate_segments,
                                 winding_count)
from sectorroots import exp_function, square_minus_one
from sectorroots.funcmodel import PolyExpRootModel
from sectorroots.rootfinder import _SharedWalk
from sectorroots.valuedist import CanonicalProduct, CanonicalProductModel


# -- boxes --------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: Box(0, 0, 0, 1), "positive width and height"),
    (lambda: Box(0, 1, 1, 1), "positive width and height"),
    (lambda: Box(0, 0, 1, 1).split(1 + 0.5j), "crosshair outside"),
    (lambda: Box(0, 0, 1, 1).split(0.5 - 1j), "crosshair outside"),
], ids=["zero width", "zero height", "crosshair on an edge",
        "crosshair outside"])
def test_box_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- quadrature ---------------------------------------------------------------

def test_quadrature_polynomial_exact():
    val, err = integrate_segment_err(lambda z: 3.0 * z * z, 0j, 2.0 + 1.0j)
    want = (2.0 + 1.0j) ** 3
    assert abs(val - want) < 1e-13
    assert abs(val - want) <= err + 1e-15


def test_quadrature_oscillatory():
    w = 80.0
    val, err = integrate_segment_err(lambda z: np.exp(1j * w * z), 0j,
                                     1.0 + 0j, tol=1e-13)
    want = (cmath.exp(1j * w) - 1.0) / (1j * w)
    assert abs(val - want) < 1e-13
    assert abs(val - want) <= err + 1e-16


def test_quadrature_error_bound_covers_truth():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.normal(size=5) + 1j * rng.normal(size=5)

        def g(z, c=c):
            return (c[0] + c[1] * z + c[2] * z ** 2
                    + c[3] * np.sin(3.0 * z) + c[4] * np.exp(-z * z))

        z0 = complex(*rng.normal(size=2))
        z1 = complex(*rng.normal(size=2))
        val, err = integrate_segment_err(g, z0, z1, tol=1e-10)
        ref, _ = integrate_segment_err(g, z0, z1, tol=1e-14)
        mid, _ = integrate_segment_err(g, z0, 0.5 * (z0 + z1), tol=1e-14)
        ref2, _ = integrate_segment_err(g, 0.5 * (z0 + z1), z1, tol=1e-14)
        assert abs(val - (mid + ref2)) <= err + 1e-13
        assert abs(val - ref) <= err + 1e-13


def test_quadrature_noise_floor_stops():
    # a function with built-in relative noise far above one ulp still
    # integrates once the declared noise floor matches it
    rng = np.random.default_rng(7)

    def noisy(z):
        base = np.exp(1j * 5.0 * z)
        return base * (1.0 + 3e-9 * rng.standard_normal(len(z)))

    with pytest.raises(ToleranceNotMet):
        integrate_segment_err(noisy, 0j, 1.0 + 0j, tol=1e-13)
    val, err = integrate_segment_err(noisy, 0j, 1.0 + 0j, tol=1e-13,
                                     noise=1e-8)
    want = (cmath.exp(5j) - 1.0) / 5j
    assert abs(val - want) <= max(err, 1e-7)


def test_zero_length_segment():
    val, err = integrate_segment_err(lambda z: z, 1.0 + 1.0j, 1.0 + 1.0j)
    assert val == 0j and err == 0.0


def _cubic_exp(z):
    return (z ** 3 + z) * np.exp(-z ** 3)


# panels the one-segment scheme spends on each segment, at tol 1e-13 (the
# counts of the scalar scheme this engine replaced)
_PINNED_PANELS = [((0j, 3 + 2j), 47), ((0j, 2.5 + 0j), 15),
                  ((1 + 1j, 1.05 + 1j), 1),
                  ((0j, 2 * cmath.exp(0.35j)), 13), ((-1 - 1j, 1 + 1j), 17),
                  ((0.5j, 2.5 - 1j), 21)]


def _panels_spent(f, z0, z1) -> int:
    spent = 0

    def g(z):
        nonlocal spent
        spent += len(z) // 15
        return f(z)

    integrate_segment_err(g, z0, z1, tol=1e-13)
    return spent


def test_panel_counts_pinned_alone_and_batched():
    for (z0, z1), panels in _PINNED_PANELS:
        assert _panels_spent(_cubic_exp, z0, z1) == panels
    assert _panels_spent(lambda z: np.exp(80j * z), 0j, 1.0 + 0j) == 63

    # the same segments in one batch, and four copies of them (20 to
    # refine): each gets its own worst-first schedule, so its panel count
    # and value are those it gets alone
    for copies in (1, 4):
        z0 = np.array([a for (a, _), _ in _PINNED_PANELS] * copies,
                      dtype=complex)
        z1 = np.array([b for (_, b), _ in _PINNED_PANELS] * copies,
                      dtype=complex)
        rows = np.zeros(len(z0), dtype=int)

        def g(z, seg):
            np.add.at(rows, np.arange(len(z0))[seg], 1)
            return _cubic_exp(z)

        vals, bounds, failures = integrate_segments(
            g, z0, z1 - z0, 1e-13, np.full(len(z0), 5e-15))
        assert not failures
        assert rows.tolist() == [panels for _, panels in _PINNED_PANELS
                                 ] * copies
        for i in range(len(z0)):
            alone, _ = integrate_segment_err(_cubic_exp, z0[i], z1[i],
                                             tol=1e-13)
            assert abs(vals[i] - alone) <= bounds[i]


def test_refinement_in_groups_matches_segments_alone():
    # 104 copies of the pinned segments: 520 of the 624 need refinement,
    # more than the _PASS_ROWS refined at a time, and two of them fail
    assert 520 > _PASS_ROWS
    segs = [seg for seg, _ in _PINNED_PANELS] * 104
    fail_at = (7, 600)
    z0 = np.array([a for a, _ in segs], dtype=complex)
    delta = np.array([b for _, b in segs], dtype=complex) - z0
    rows = np.zeros(len(z0), dtype=int)

    def noisy(z):
        return _cubic_exp(z) * (1.0 + 1e-6 * np.sin(1e6 * z.real))

    def g(z, seg):
        idx = np.arange(len(z0))[seg]
        np.add.at(rows, idx, 1)
        out = _cubic_exp(z)
        bad = np.isin(idx, fail_at)
        out[bad] = noisy(z[bad])
        return out

    vals, bounds, failures = integrate_segments(
        g, z0, delta, 1e-13, np.full(len(z0), 5e-15))
    assert sorted(failures) == list(fail_at)
    for i, ((a, b), panels) in enumerate(_PINNED_PANELS * 104):
        if i in fail_at:
            with pytest.raises(ToleranceNotMet) as info:
                integrate_segment_err(noisy, a, b, tol=1e-13)
            assert str(failures[i]) == str(info.value)
            continue
        spent = [0]

        def alone_g(z):
            spent[0] += len(z) // 15
            return _cubic_exp(z)

        val, bound = integrate_segment_err(alone_g, a, b, tol=1e-13)
        assert rows[i] == spent[0] == panels
        assert abs(vals[i] - val) <= 1e-15 * abs(val)
        # a bound is |Kronrod - Gauss| summed, a difference of nearly equal
        # sums that a one-row and a many-row matrix product round apart
        assert abs(bounds[i] - bound) <= 0.01 * bound


def _tied(z):
    # on [0, 1]: a panel wider than 0.4 or centred right of 1/2 is one fixed
    # row of values (1 on the Kronrod-only nodes, 0 on the Gauss nodes),
    # any other panel is 0. The first panel's two children tie exactly; at
    # tol 0.3 splitting the left one (the smaller heap counter) converges
    # after 5 panels, where splitting the right one first would take 7
    s = z.real
    wide = (s[:, 7] > 0.5) | (s[:, 14] - s[:, 0] > 0.4)
    return wide[:, None] * (np.arange(15) % 2 == 0).astype(complex)


@pytest.mark.parametrize("case", ["depth", "panels", "tie"])
def test_refinement_depth_budget_and_ties(monkeypatch, case):
    if case == "tie":
        segs, f, tol, want = [(0j, 1 + 0j)] * 20, _tied, 0.3, [5] * 20
    else:
        segs = [seg for seg, _ in _PINNED_PANELS] * 4
        f, tol = _cubic_exp, 1e-13
        want = [panels for _, panels in _PINNED_PANELS] * 4
    max_depth = 4 if case == "depth" else 50
    if case == "panels":
        monkeypatch.setattr(contour, "_MAX_PANELS", 16)
    z0 = np.array([a for a, _ in segs], dtype=complex)
    delta = np.array([b for _, b in segs], dtype=complex) - z0
    rows = np.zeros(len(z0), dtype=int)

    def g(z, seg):
        np.add.at(rows, np.arange(len(z0))[seg], 1)
        return f(z)

    _, _, failures = integrate_segments(
        g, z0, delta, tol, np.full(len(z0), 5e-15), max_depth)
    rows = rows.tolist()
    failures = {i: str(exc) for i, exc in failures.items()}
    if case == "depth":
        # only the 47-panel segment needs a fifth level
        assert list(failures) == [0, 6, 12, 18]
        assert all("depth 4 reached" in msg for msg in failures.values())
    elif case == "panels":
        # a segment holding 15 panels still splits, so 17 fit the budget
        assert list(failures) == [i for i in range(24) if want[i] > 17]
        assert all(msg.startswith("segment quadrature: 16 panels exhausted")
                   for msg in failures.values())
        assert rows == [17 if i in failures else n for i, n in enumerate(want)]
    else:
        assert not failures and rows == want


def test_batched_failure_stays_with_its_segment():
    # a noisy integrand that only the middle segment samples: it alone
    # runs out of depth, and its neighbours still converge
    rng = np.random.default_rng(5)

    def g(z, seg):
        out = np.exp(1j * z)
        noisy = z.real > 10.0
        out[noisy] *= 1.0 + 1e-6 * rng.standard_normal(noisy.sum())
        return out

    z0 = np.array([0j, 11.0 + 0j, 2.0 + 0j])
    vals, bounds, failures = integrate_segments(
        g, z0, np.ones(3, dtype=complex), 1e-13, np.full(3, 5e-15))
    assert list(failures) == [1]
    assert isinstance(failures[1], ToleranceNotMet)
    for i in (0, 2):
        want = (cmath.exp(1j * (z0[i] + 1.0)) - cmath.exp(1j * z0[i])) / 1j
        assert abs(vals[i] - want) <= bounds[i] + 1e-15


# -- Box ----------------------------------------------------------------------

def test_box_geometry():
    b = Box(-1.0, -2.0, 3.0, 4.0)
    assert b.width == 4.0 and b.height == 6.0
    assert b.center == 1.0 + 1.0j
    assert b.diameter == pytest.approx(math.hypot(4.0, 6.0))
    assert b.contains(0.0 + 0.0j)
    assert not b.contains(5.0 + 0.0j)
    corners = b.corners()
    assert len(corners) == 4
    assert corners[0] == complex(-1.0, -2.0)


def test_box_split_covers():
    b = Box(0.0, 0.0, 2.0, 2.0)
    children = b.split()
    assert len(children) == 4
    assert sum(ch.width * ch.height for ch in children) == pytest.approx(4.0)
    for ch in children:
        assert b.contains(ch.center)


def test_box_expanded_is_fractional():
    # grows each side by frac * edge length, not by an absolute margin
    b = Box(0.0, 0.0, 2.0, 2.0).expanded(0.5)
    assert b.x0 == pytest.approx(-1.0)
    assert b.y0 == pytest.approx(-1.0)
    assert b.x1 == pytest.approx(3.0)
    assert b.y1 == pytest.approx(3.0)
    tiny = Box(-4.0, -4.0, 4.0, 4.0).expanded(0.003)
    assert tiny.x1 == pytest.approx(4.024)


# -- winding ------------------------------------------------------------------

def _winding_number(F, a, box, tol=1e-10):
    """Winding number of f - a on the boundary of box, walked by the
    search's path evaluator."""
    return winding_count(_SharedWalk(PolyExpRootModel(F, tol=tol), a), box)


def test_winding_simple_zero():
    F = square_minus_one()
    w = _winding_number(F, 0j, Box(0.5, -0.5, 1.5, 0.5))
    assert w.count == 1
    w = _winding_number(F, 0j, Box(-1.5, -0.5, 1.5, 0.5))
    assert w.count == 2
    w = _winding_number(F, 0j, Box(2.0, 2.0, 3.0, 3.0))
    assert w.count == 0


def test_winding_against_target():
    # 1-points of z^2 - 1 sit at +-sqrt(2)
    F = square_minus_one()
    w = _winding_number(F, 1.0 + 0j, Box(1.0, -0.5, 2.0, 0.5))
    assert w.count == 1


def test_winding_exp_periodic():
    # e^z = 1 at 2 pi i k: 0, 2 pi i and 4 pi i inside this box
    F = exp_function()
    w = _winding_number(F, 1.0 + 0j, Box(-1.0, -1.0, 1.0, 13.0))
    assert w.count == 3
    assert abs(w.root_sum - 6j * math.pi) <= 1e-2 * 2.0


def test_winding_count_roundoff_field():
    F = square_minus_one()
    model = PolyExpRootModel(F)
    box = Box(0.5, -0.5, 1.5, 0.5)
    res = winding_count(_SharedWalk(model, 0j), box)
    assert res.count == 1
    assert abs(res.raw - res.count) <= res.roundoff + 0.2


@pytest.mark.parametrize("box, count, zeros_sum", [
    (Box(0.95, -0.04, 1.07, 0.05), 1, 1.0),  # around the zero at 1
    (Box(0.4, -0.3, 1.3, 0.6), 1, 1.0),      # the zero far off centre
    (Box(-1.5, -0.5, 1.6, 0.7), 2, 0.0),     # around both zeros
    (Box(2.0, 2.0, 3.0, 3.0), 0, 0.0),       # around neither
])
def test_root_sum_square_minus_one(box, count, zeros_sum):
    w = _winding_number(square_minus_one(), 0j, box)
    assert w.count == count
    assert abs(w.root_sum - zeros_sum) <= 1e-2 * box.width


@pytest.mark.parametrize("box", [
    Box(1, -0.5, 2, 0.5),     # left edge through the zero at 1
    Box(0.25, -0.5, 1, 0.5),  # right edge through it
    Box(1, 0, 2, 1),          # first corner on it
])
@pytest.mark.parametrize("primed", [False, True])
def test_walk_through_a_point_raises(box, primed):
    model = PolyExpRootModel(square_minus_one())
    if primed:
        # anchors around the zero, close enough to be used for any start
        # or re-anchor near it
        for z in (1.001, 1 + 1e-3j, 0.999, 1 - 1e-3j, 1.25 + 0.25j,
                  0.75 - 0.25j, 1.5, 1 + 0.5j):
            model.anchored_f(z)
        assert len(model._anchors) == 8
        assert model.near_f(1 + 0j) is not None
    with pytest.raises(BoundaryTooClose):
        winding_count(_SharedWalk(model, 0j), box)


class _Recorder:
    """Path evaluator proxy that records the points of every extend call
    per edge."""

    def __init__(self, inner):
        self.inner = inner
        self.edges = []

    def start(self, z):
        return self.inner.start(z)

    def extend(self, prev, pts):
        self.edges[-1][1].append(list(pts))
        return self.inner.extend(prev, pts)

    def min_samples(self, z0, z1):
        n = self.inner.min_samples(z0, z1)
        self.edges.append(((z0, z1, n), []))
        return n


def test_edges_end_on_their_corners_bit_for_bit():
    box = Box(-0.3, 0.1, 0.9, 0.8)
    corners = box.corners()
    # z_from + (z_to - z_from) * 1.0 misses the corner here on edges 0, 2
    assert [i for i in range(3) if corners[i] + (corners[i + 1] - corners[i])
            * 1.0 != corners[i + 1]] == [0, 2]
    rec = _Recorder(_SharedWalk(PolyExpRootModel(square_minus_one()), 0j))
    assert winding_count(rec, box).count == 0
    assert len(rec.edges) == 4
    for i, ((z0, z1, n), targets) in enumerate(rec.edges):
        assert (z0, z1) == (corners[i], corners[(i + 1) % 4])
        pts = edge_points(z0, z1, n)
        assert pts[-1] == z1
        # no phase bisection on this box: one extend call takes exactly
        # the plan; the last edge closes on the starting sample instead of
        # extending to it
        assert targets == [list(pts if i < 3 else pts[:-1])]
    for i in range(3):
        last = rec.edges[i][1][-1][-1]
        assert (last.real, last.imag) == (corners[i + 1].real,
                                          corners[i + 1].imag)


def _bits(points):
    return [(z.real.hex(), z.imag.hex()) for z in points]


_PLAN_MODELS = (PolyExpRootModel(example2()),
                CanonicalProductModel(CanonicalProduct(0.5, 64), 60.0))


@given(x0=st.floats(-40.0, 40.0), y0=st.floats(-40.0, 40.0),
       x1=st.floats(-40.0, 40.0), y1=st.floats(-40.0, 40.0),
       n=st.integers(0, 600))
# the box of test_edges_end_on_their_corners_bit_for_bit
@example(x0=-0.3, y0=0.1, x1=0.9, y1=0.8, n=9)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_edge_plans_are_canonical(x0, y0, x1, y1, n):
    # down to sides far below the search's isolation certificate boxes
    # (side about 6e-4)
    assume(x1 - x0 > 1e-8 and y1 - y0 > 1e-8)
    box = Box(x0, y0, x1, y1)
    corners = box.corners()
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        # the walk back visits exactly the points of the walk out, reversed
        assert _bits(edge_points(z1, z0, n)) == _bits(
            [*edge_points(z0, z1, n)[-2::-1], z0])
        assert _bits(edge_points(z0, z1, n)) == _bits(
            [*edge_points(z1, z0, n)[-2::-1], z1])
        for model in _PLAN_MODELS:
            assert model.min_samples(z0, z1) == model.min_samples(z1, z0)


def test_planned_increment_failure_raises_at_its_position(monkeypatch):
    real = funcmodel.integral_raw_batch

    def failing_fourth(F, z0, z1, tol):
        val, m, err_log, failures = real(F, z0, z1, tol)
        return val, m, err_log, {**failures,
                                 3: ToleranceNotMet("planted failure")}

    monkeypatch.setattr(funcmodel, "integral_raw_batch", failing_fourth)
    model = PolyExpRootModel(exp_function())
    path = _SharedWalk(model, 1.0 + 0j)
    z0, z1 = -1.0 - 1.0j, 1.0 - 1.0j
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1))
    assert len(pts) > 4
    # the whole edge is planned by the first pull; the failure waits for
    # the pull that reaches it
    unplanned = _SharedWalk(model, 1.0 + 0j)
    alone = unplanned.start(z0)
    got = []
    with pytest.raises(ToleranceNotMet, match="planted failure"):
        for z, v in path.extend(prev, pts):
            for i in range(len(z)):
                s = PathSample.of_run(z, v, i)
                alone = PathSample.of_run(
                    *next(unplanned.extend(alone, [s.z])), 0)
                assert abs(s.w.to_complex() - alone.w.to_complex()) <= 1e-14
                got.append(s.z)
    assert got == pts[:3].tolist()


def test_edge_integrates_its_blocks_lazily(monkeypatch):
    # an edge of more than one block of planned steps, with a failure
    # planted in its first block: the walk raises there, and no block after
    # it is ever integrated
    real = funcmodel.integral_raw_batch
    calls = []

    def failing_fourth(F, z0, z1, tol):
        calls.append(len(z1))
        val, m, err_log, failures = real(F, z0, z1, tol)
        return val, m, err_log, {**failures,
                                 3: ToleranceNotMet("planted failure")}

    monkeypatch.setattr(funcmodel, "integral_raw_batch", failing_fourth)
    path = _SharedWalk(PolyExpRootModel(exp_function()), 1.0 + 0j)
    z0, z1 = -150.0 - 1.0j, 150.0 - 1.0j
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1))
    assert len(pts) > funcmodel._PLAN_BLOCK
    runs = path.extend(prev, pts)
    assert calls == []
    got = []
    with pytest.raises(ToleranceNotMet, match="planted failure"):
        for z, _ in runs:
            got.extend(z)
    assert got == pts[:3].tolist()
    assert calls == [funcmodel._PLAN_BLOCK]
