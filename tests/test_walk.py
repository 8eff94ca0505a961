"""The boundary walk: planned samples summed as arrays, pinned against the
scalar walk they replace."""

import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest

from sectorroots import (Box, BoundaryTooClose, TailTooLarge,
                         ToleranceNotMet, find_a_points,
                         find_product_a_points, rootfinder, square_minus_one)
from sectorroots import funcmodel
from sectorroots.contour import (PathSample, dyadic_steps, edge_points,
                                 winding_count)
from sectorroots.funcmodel import (PolyExpRootModel, _add_increment,
                                   _block_samples, _clears_headroom)
from sectorroots import contour
from sectorroots.polyexp import ScaledComplex, _wrap_phase
from sectorroots.valuedist import CanonicalProduct, CanonicalProductModel


class _Walk:
    """Path evaluator proxy that counts extend calls and bisection samples,
    and notes the planned point each pull of a run reaches: the index in
    the edge's plan of the run's first sample, counting the edge's first
    corner as 0, or None for a start or a bisection."""

    def __init__(self, inner):
        self.inner = inner
        self.planned = False
        self.at = None
        self.extends = 0
        self.bisections = 0

    def start(self, z):
        self.at = None
        return self.inner.start(z)

    def extend(self, prev, pts):
        self.extends += 1
        # the first extend after min_samples walks the planned edge
        planned, self.planned = self.planned, False
        if not planned:
            self.bisections += len(pts)
        return self._noted(self.inner.extend(prev, pts), 1 if planned else None)

    def _noted(self, runs, j):
        while True:
            self.at = j
            try:
                z, v = next(runs)
            except StopIteration:
                return
            yield z, v
            if j is not None:
                j += len(z)

    def min_samples(self, z0, z1):
        self.planned = True
        return self.inner.min_samples(z0, z1)


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
# calls, anchored_f calls), measured with the scalar walk on a fresh model.
# The raw windings are those of the evenly spaced plans; the dyadic plans
# (contour.edge_points) keep them within 1e-12 and move the other counts:
# bisections 4, 2, 4 and 3 on the first, second, third and seventh box
# (now 2, 1, 2 and 2), and near_f/anchored_f 12/12 on the first and third
# (now 13/13)
PINNED = [
    ("ex1", 0, (-8, -8, 8, 8), 40, 40.00000000000006, 2, 13, 13),
    ("ex1", 0, (4, -8, 8, -4), 14, 14.000000000000007, 1, 3, 3),
    ("ex1", 1, (-8, -8, 8, 8), 40, 39.99999999999987, 2, 13, 13),
    ("ex1", 1, (-2, -2, 2, 2), 4, 3.9999999999999996, 0, 1, 1),
    ("ex2", 0, (2.5, -1.75, 2.75, -1.5), 1, 1.0000000000000004, 3, 1, 1),
    ("ex2", 0, (0, -4, 4, 0), 16, 16.00000000000002, 0, 7, 7),
    ("ex2", 1, (-5.619675, -3.2116875, -5.4295124999999995, -3.0258), 3,
     2.9999999999999987, 2, 2, 1),
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
    assert walk.bisections == walk.inner.unplanned == bisections
    # one extend call per edge, and one per bisection midpoint
    assert walk.extends == 4 + bisections
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
# 28 and 112, 59 with chunks of about 80 radians). The search's planned
# samples taken by the model, served from its store and off the plan
# (bisection midpoints) are those of the walk of single samples the runs
# replaced. Dyadic plans serve every half-edge of a centre split from its
# parent's samples, so the model takes 76 and 68 percent of the planned
# samples it took when only a whole edge walked twice was served ((9103,
# 2605, 14) and (16543, 5049, 0)), though each plan is rounded up to a
# power of two, and the walks re-anchor less (49, 27 and 111, 59).
# Power sums by Simpson's rule on each edge give seeds close enough that
# boxes of up to six a-points are solved without a split, so the searches
# walk fewer boxes ((6878, 10613, 8) and (11218, 20337, 0) with one
# trapezoid sum over the walk and boxes of up to four; 30, 23 and 50, 41).
@pytest.mark.parametrize("name, box, near, anchored, walked", [
    ("ex1", (-8, -8, 8, 8), 30, 23, (5354, 8441, 8)),
    ("ex2", (-4, -4, 4, 4), 40, 40, (7344, 11963, 0)),
], ids=["ex1", "ex2"])
def test_search_anchor_calls_pinned(name, box, near, anchored, walked,
                                    request, monkeypatch):
    F = request.getfixturevalue(name)
    data = request.getfixturevalue("data" + name[-1])
    record = {"walks": 0, "near": 0, "anchored": 0, "where": []}
    _count_anchors(monkeypatch, record)
    walk = rootfinder.winding_count
    paths = set()

    def counted_walk(pathval, b):
        paths.add(pathval)
        record["walks"] += 1
        try:
            return walk(pathval, b)
        finally:
            record["walks"] -= 1

    monkeypatch.setattr(rootfinder, "winding_count", counted_walk)
    result = find_a_points(F, 0j, Box(*box), tol=1e-9, data=data)
    assert result.total_multiplicity == result.winding_total
    assert (record["near"], record["anchored"]) == (near, anchored)
    (path,) = paths
    assert (path.walked, path.served, path.unplanned) == walked


# (a-point search, winding count of its region): the 1-points on
# [-6, 6]^2 keep the recheck over a few hundred walks now that boxes of 2
# to 6 a-points are solved without a split and balls replace certificate
# walks (78 walks on [-4, 4]^2, 225 before); ex1's zeros and a product
# search add walks whose half-edges are served at their parent's density
# and walks that refine it
_REFEREED = {
    "ex2-ones": (lambda F, data: find_a_points(
        F, 1 + 0j, Box(-6, -6, 6, 6), tol=1e-9, data=data), 177),
    "ex1-zeros": (lambda F, data: find_a_points(
        F, 0j, Box(-8, -8, 8, 8), tol=1e-9, data=data), 40),
    "product": (lambda F, data: find_product_a_points(
        CanonicalProduct(0.5, 64), 0j, Box(-100.5, -100.5, 100.5, 100.5)),
        10),
}


@pytest.mark.parametrize("name", _REFEREED)
def test_shared_walk_counts_match_fresh_walks(name, request, monkeypatch):
    # every box's count from the shared store equals the count of a walk
    # that shares nothing: the referee for served samples
    search, total = _REFEREED[name]
    F = data = None
    if name != "product":
        F = request.getfixturevalue(name[:3])
        data = request.getfixturevalue("data" + name[2])
    wound = []
    walk = rootfinder.winding_count

    def recorded(pathval, box):
        result = walk(pathval, box)
        wound.append((pathval, box, result.count))
        return result

    monkeypatch.setattr(rootfinder, "winding_count", recorded)
    result = search(F, data)
    assert result.total_multiplicity == result.winding_total == total
    (path,) = {p for p, _, _ in wound}
    assert path.served > path.walked / 2
    if name == "ex2-ones":
        # 237 walks when boxes of up to four a-points were solved from
        # one trapezoid sum over the walk
        assert len(wound) == 161
    for _, box, count in wound:
        fresh = rootfinder._SharedWalk(path.model, path.a)
        assert walk(fresh, box).count == count, box


class _OneAtATime:
    """The walk protocol of single samples, extend(prev, z), over the runs
    of a path evaluator: the first planned point of an edge opens the
    edge's runs, and each planned point takes the next sample, pulling the
    next run only when the one before is used up; any other point is
    extend(prev, [z]) alone."""

    def __init__(self, inner):
        self.inner = inner
        self.first = None
        self.plan = []
        self.k = 0
        self.runs = None
        self.held = []

    def start(self, z):
        self.first = z
        return self.inner.start(z)

    def min_samples(self, z0, z1):
        n = self.inner.min_samples(z0, z1)
        self.plan = edge_points(z0, z1, n)
        self.k = 0
        return n

    def extend(self, prev, z):
        if self.k < len(self.plan) and z == self.plan[self.k]:
            if self.k == 0:
                # the closing edge stops short of the walk's start
                last = self.plan[-1] == self.first
                self.runs = self.inner.extend(
                    prev, self.plan[:-1] if last else self.plan)
                self.held = []
            self.k += 1
            if not self.held:
                zs, v = next(self.runs)
                self.held = [PathSample.of_run(zs, v, i)
                             for i in reversed(range(len(zs)))]
            return self.held.pop()
        return PathSample.of_run(*next(self.inner.extend(prev, [z])), 0)


def _single_refine(pathval, s0, s1, depth, zs, steps):
    """The phase step from s0 to s1 of the walk of single samples: the
    accepted change, bisecting by extend(prev, z) until every step moves
    the argument by less than pi/2."""
    dphi = _wrap_phase(s1.w.phase - s0.w.phase)
    if abs(dphi) < contour._PHASE_STEP:
        zs.append(s1.z)
        steps.append(complex(s1.w.logmag, dphi))
        return dphi
    if depth >= contour._MAX_BISECT:
        raise ToleranceNotMet("phase step would not settle under bisection")
    sm = pathval.extend(s0, 0.5 * (s0.z + s1.z))
    d1 = _single_refine(pathval, s0, sm, depth + 1, zs, steps)
    return d1 + _single_refine(pathval, sm, s1, depth + 1, zs, steps)


def _single_winding(pathval, box):
    """The winding walk of single samples that the runs replaced: every
    planned point and bisection midpoint by its own extend call, and the
    phase steps summed one at a time. Returns (count, raw, power sums,
    root sum)."""
    corners = box.corners()
    first = pathval.start(corners[0])
    total = 0.0
    zs, steps, edges = [], [], []
    prev = first
    for i in range(4):
        z_from, z_to = corners[i], corners[(i + 1) % 4]
        targets = list(edge_points(z_from, z_to,
                                   pathval.min_samples(z_from, z_to)))
        edges.append((len(zs), len(targets)))
        if i == 3:
            targets[-1] = None
        for z in targets:
            s = first if z is None else pathval.extend(prev, z)
            total += _single_refine(pathval, prev, s, 0, zs, steps)
            prev = s
    raw = total / (2.0 * math.pi)
    count = int(round(raw))
    if abs(raw - count) > 0.25 or count < 0:
        raise ToleranceNotMet("winding phase defect too large")
    sums = (contour._power_sums(box, first, np.array([first.z] + zs),
                                np.array(steps), count, edges)
            if count else ())
    root_sum = (count * box.center + 0.5 * box.diameter * sums[0]
                if sums else 0j)
    return count, raw, sums, root_sum


def _random_boxes(name, roots, n, seed):
    """n boxes in the ex1 (|x|, |y| <= 8) or ex2 (<= 4) search regions,
    every third one small with an edge that passes within 1e-4 .. 3e-3 of
    one of the a-points roots, so that its walk bisects there."""
    rng = random.Random(seed)
    half = 8.0 if name == "ex1" else 4.0
    roots = [z for z in roots if max(abs(z.real), abs(z.imag)) < half - 1]
    boxes = []
    for j in range(n):
        if j % 3 == 0:
            z = rng.choice(roots)
            side = rng.uniform(0.05, 0.2)
            x0 = z.real - rng.uniform(1e-4, 3e-3) * rng.choice((-1, 1))
            y0 = z.imag - rng.uniform(0.2, 0.8) * side
            boxes.append((x0, y0, x0 + side, y0 + side))
        else:
            side = rng.uniform(0.5, half)
            x0 = rng.uniform(-half, half - side)
            y0 = rng.uniform(-half, half - side)
            boxes.append((x0, y0, x0 + side,
                          y0 + rng.uniform(0.5, 1.5) * side))
    return boxes


_PRODUCT_WALKS = [
    (0.5, 0, (2.1, 0.0, 6.3, 1.0)),       # through the zero at 4: raises
    (0.5, 0, (3.95, -0.002, 4.25, 0.2)),  # around it: the bottom edge
    (0.5, 0, (8.9, -0.3, 9.3, 0.001)),    # a plan point 0.001 above 9
    (0.5, 0, (8.8, -0.3, 9.3, 0.008)),    # the top edge bisects once
    (0.5, 0, (0.5, -0.0015, 9.5, 0.5)),   # one edge bisects at 1, 4, 9
    (0.5, 1, (-30.5, -30.5, 30.5, 30.5)),
    (1.0 / 3.0, 1, (-20.5, -3.5, 40.5, 3.5)),
    (0.75, 1, (-4.5, -4.5, 4.5, 4.5)),
    (0.75, 0, (5.9, -0.4, 6.9, 0.4)),
]


@pytest.mark.parametrize("case", ["pinned", "ex1", "ex2", "products",
                                  "ex1-shallow", "ex2-shallow",
                                  "products-shallow"])
def test_walk_matches_the_walk_of_single_samples(case, request,
                                                 monkeypatch):
    # the runs give the same count, power sums and root sum bit for bit,
    # the raw winding to 1e-12 (the steps are summed in another order),
    # the same anchor calls in the same order, and the same store, as the
    # walk of single samples over the same evaluator; each walk calls
    # extend once per edge and once per bisection midpoint. Shallow cases
    # allow one level of bisection, so that walks also raise in one
    group, _, shallow = case.partition("-")
    calls = []
    walks = []
    mid_block = 0

    def noted(name, fn):
        def wrapper(self, z):
            nonlocal mid_block
            calls.append((name, z))
            at = getattr(walks[-1], "at", None)
            mid_block += at is not None and (at - 1) % funcmodel._PLAN_BLOCK
            return fn(self, z)
        return wrapper

    if group == "products":
        cases = [(lambda rho=rho: CanonicalProductModel(
            CanonicalProduct(rho, 64), 45.0), a, box)
            for rho, a, box in _PRODUCT_WALKS]
    else:
        if group == "pinned":
            named = [(c[0], c[1], c[2]) for c in PINNED]
        else:
            roots = [r.location for r in
                     request.getfixturevalue(group + "_zeros")[0]]
            named = [(group, 0j, box) for box in
                     _random_boxes(group, roots, 25, 2024 + len(group))]
        cases = []
        for name, a, box in named:
            F = request.getfixturevalue(name)
            data = request.getfixturevalue("data" + name[-1])
            cases.append((lambda F=F, data=data: PolyExpRootModel(
                F, tol=1e-13, data=data), a, box))
    for name in ("near_f", "anchored_f"):
        monkeypatch.setattr(PolyExpRootModel, name,
                            noted(name, getattr(PolyExpRootModel, name)))
    if shallow:
        monkeypatch.setattr(contour, "_MAX_BISECT", 1)
    bisected = raised = 0
    for make, a, box in cases:
        outcomes = []
        for runs in (True, False):
            del calls[:]
            path = rootfinder._SharedWalk(make(), a)
            walk = _Walk(path) if runs else _OneAtATime(path)
            walks.append(walk)
            try:
                if runs:
                    res = winding_count(walk, Box(*box))
                    got = (res.count, res.raw.real, res.power_sums,
                           res.root_sum)
                    assert walk.extends == 4 + walk.bisections
                else:
                    got = _single_winding(walk, Box(*box))
            except (BoundaryTooClose, ToleranceNotMet, TailTooLarge) as exc:
                got = type(exc)
            memo = {k: (pos.tolist(), v.tolist())
                    for k, (pos, v) in path.lines.items()}
            outcomes.append((got, list(calls), path.unplanned, memo))
        (new, new_calls, cut, memo), (old, old_calls, *rest) = outcomes
        assert new_calls == old_calls, box
        assert [cut, memo] == rest, box
        if isinstance(new, type):
            assert new is old, box
            raised += 1
            continue
        assert new[0] == old[0] and new[2:] == old[2:], box
        assert abs(new[1] - old[1]) <= 1e-12, box
        bisected += cut > 0
    # the cases reach the paths they are here for: bisections, re-anchors
    # in the middle of a block, walks that raise
    assert bisected >= 1
    if group != "products" and not shallow:
        assert mid_block >= 1
    if group == "products" or shallow:
        assert raised >= 1


@pytest.mark.parametrize("box, stored", [
    (Box(1, -0.5, 2, 0.5), 3),     # the last edge runs through the zero at 1
    (Box(0.25, -0.5, 1, 0.5), 1),  # the second edge does
    (Box(1, 0, 2, 1), 0),          # the walk starts on it
])
def test_walk_raising_mid_edge_stores_no_edge(box, stored):
    path = rootfinder._SharedWalk(PolyExpRootModel(square_minus_one()), 0j)
    with pytest.raises(BoundaryTooClose):
        winding_count(path, box)
    # the edges walked to their end before the zero are stored whole; the
    # edge through it keeps the samples pulled before the zero, and no
    # sample is stored at the zero
    corners = box.corners()
    whole = []
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        plan = edge_points(z0, z1, path.model.min_samples(z0, z1))
        if all(path.sample(z) is not None for z in plan):
            whole.append(i)
    assert whole == list(range(stored))
    assert path.sample(1 + 0j) is None
    # the store holds the walk's start, when it had one, and every sample
    # the model took for a planned point
    held = sum(len(pos) for pos, _ in path.lines.values())
    assert held == path.walked + (stored > 0)


def _noted(runs, samples):
    """The runs, noting each of their samples in samples."""
    for z, v in runs:
        samples += [PathSample.of_run(z, v, i) for i in range(len(z))]
        yield z, v


class _NotedModel:
    """Model proxy that notes every walk sample it returns."""

    def __init__(self, model):
        self.model = model
        self.samples = []

    def start(self, a, z):
        self.samples.append(self.model.start(a, z))
        return self.samples[-1]

    def edge(self, a, prev, pts):
        return _noted(self.model.edge(a, prev, pts), self.samples)

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

    def extend(self, prev, pts):
        return _noted(self.inner.extend(prev, pts), self.samples)

    def min_samples(self, z0, z1):
        return self.inner.min_samples(z0, z1)


def _line_samples(path, z0, z1, n):
    """The (3, k) samples that path stores at the plan of n steps z0 -> z1
    (its points after z0), in walk order."""
    plan = edge_points(z0, z1, n)
    key = rootfinder._line(z0, z1)
    t = plan.real if key[0] == 0 else plan.imag
    pos, vals = path.lines[key]
    i = np.searchsorted(pos, t)
    assert (pos[i] == t).all()
    return vals[:, i]


def test_centre_split_half_edges_are_served(ex1, data1):
    # the parent's edges take 128 steps (106 asked), and each child asks
    # 63 for its half-edges, planned with 64: the parent's density suffices
    model = funcmodel.build_model(ex1, data1)
    path = rootfinder._SharedWalk(model, 0j)
    parent = Box(-4, -4, 4, 4)
    assert winding_count(path, parent).count == winding_count(
        rootfinder._SharedWalk(model, 0j), parent).count
    corners = parent.corners()
    steps = [dyadic_steps(model.min_samples(corners[i], corners[(i + 1) % 4]))
             for i in range(4)]
    assert steps == [128] * 4
    before = {key: (pos.copy(), vals.copy())
              for key, (pos, vals) in path.lines.items()}

    path.model = inner = _NotedModel(model)
    outer = _Noted(path)
    children = parent.split()
    for child in children:
        fresh = rootfinder._SharedWalk(model, 0j)
        assert winding_count(outer, child).count == winding_count(
            fresh, child).count
    taken = {s.z for s in inner.samples}
    got = {s.z: s for s in outer.samples}
    halves = 0
    for child in children:
        c = child.corners()
        for j in range(4):
            z0, z1 = c[j], c[(j + 1) % 4]
            key = rootfinder._line(z0, z1)
            if not any(key == rootfinder._line(corners[i], corners[i - 1])
                       for i in range(4)):
                continue
            # an outer half-edge: planned at the parent's density, and
            # every point the parent's sample, bit for bit (the walk that
            # closes on its start takes all but the last)
            assert dyadic_steps(model.min_samples(z0, z1)) == 64
            plan = edge_points(z0, z1, 64)[:-1 if j == 3 else None]
            assert not set(plan.tolist()) & taken
            pos, vals = before[key]
            at = np.searchsorted(pos, plan.real if key[0] == 0 else plan.imag)
            assert [got[z].w.logmag for z in plan] == vals[0, at].tolist()
            assert [got[z].w.phase for z in plan] == vals[1, at].tolist()
            assert [got[z].err_log for z in plan] == vals[2, at].tolist()
            halves += 1
    assert halves == 8
    # the crosshair's spokes are walked by two children each, the second
    # time from the store: the model takes each of their points once
    times = Counter(s.z for s in inner.samples)
    centre = parent.center
    for end in (-4j, 4 + 0j, 4j, -4 + 0j):
        plan = edge_points(centre, end, model.min_samples(centre, end))
        assert [times[z] for z in plan[:-1].tolist()] == [1] * (len(plan) - 1)
        assert times[end] == 0


def test_half_edge_finer_than_its_parent_takes_one_chord_per_midpoint(
        ex1, data1, monkeypatch):
    # the parent's edge takes 32 steps (25 asked) and the half-edge 32 too
    # (22 asked): its 16 even points are the parent's, and each odd one
    # takes one chord
    model = funcmodel.build_model(ex1, data1)
    path = rootfinder._SharedWalk(model, 0j)
    z0, z1, mid = -1 - 1j, 1 - 1j, -1j
    assert Box(-1, -1, 1, 1).center.real == mid.real
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1))
    assert len(pts) == 32
    for _ in path.extend(prev, pts):
        pass
    v_parent = _line_samples(path, z0, z1, 32)

    chords = []
    real = funcmodel.integral_raw_batch

    def counted(F, a, b, tol):
        chords.append(len(b))
        return real(F, a, b, tol)

    monkeypatch.setattr(funcmodel, "integral_raw_batch", counted)
    n = path.min_samples(z0, mid)
    assert n == model.min_samples(z0, mid) and dyadic_steps(n) == 32
    plan = edge_points(z0, mid, n)
    runs = list(path.extend(prev, plan))
    z = np.concatenate([r[0] for r in runs])
    v = np.concatenate([r[1] for r in runs], axis=1)
    assert z.tolist() == plan.tolist()
    assert sum(chords) == 16 and path.walked == 32 + 16
    # the even points are served bit for bit, the odd ones are new and
    # agree with a fresh walk of the half-edge
    assert v[:, 1::2].tolist() == v_parent[:, :16].tolist()
    fresh = rootfinder._SharedWalk(model, 0j)
    alone = np.concatenate([r[1] for r in fresh.extend(
        fresh.start(z0), edge_points(z0, mid, 32))], axis=1)
    assert np.abs(v[0, ::2] - alone[0, ::2]).max() < 1e-12
    assert np.abs(np.angle(np.exp(1j * (v[1] - alone[1])))).max() < 1e-12
    # the store now holds the half-edge at the finer density
    assert _line_samples(path, z0, mid, 32).tolist() == v.tolist()


def test_jittered_crosshair_takes_fresh_plans(ex1, data1):
    model = funcmodel.build_model(ex1, data1)
    path = rootfinder._SharedWalk(model, 0j)
    parent = Box(-4, -4, 4, 4)
    winding_count(path, parent)
    dx, dy = rootfinder._JITTER[1]
    cross = complex(dx * parent.width, dy * parent.height)
    path.model = inner = _NotedModel(model)
    for child in parent.split(cross):
        fresh = rootfinder._SharedWalk(model, 0j)
        assert winding_count(path, child).count == winding_count(
            fresh, child).count
        # the parts of the parent's edges are off the parent's grid: the
        # model takes every point of their plans
        c = child.corners()
        taken = {s.z for s in inner.samples}
        for j in range(4):
            z0, z1 = c[j], c[(j + 1) % 4]
            if not (z0.real == z1.real and abs(z0.real) == 4
                    or z0.imag == z1.imag and abs(z0.imag) == 4):
                continue
            plan = edge_points(z0, z1, model.min_samples(z0, z1))
            assert set(plan[:-1].tolist()) <= taken


@pytest.mark.parametrize("box", [Box(-4, -4, 4, 4), Box(-0.3, 0.1, 0.9, 0.8),
                                 Box(-8.000123, -7.99991, 8.000077, 8.00021)])
@pytest.mark.parametrize("k", [2, 5, 9])
def test_dyadic_plans_nest(box, k):
    corners = box.corners()
    centre = box.center
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        out = edge_points(z0, z1, 2 ** k)
        back = edge_points(z1, z0, 2 ** k)
        # both directions visit the same points
        assert out[:-1].tolist() == back[-2::-1].tolist()
        assert out[-1] == z1 and back[-1] == z0
        # the first half is the plan to the centre's coordinate
        half = (complex(centre.real, z0.imag) if z0.imag == z1.imag
                else complex(z0.real, centre.imag))
        assert out[:2 ** (k - 1)].tolist() == edge_points(
            z0, half, 2 ** (k - 1)).tolist()


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
        v = _block_samples(w, err, val[i:], m[i:], inc_err[i:])
        calls += 1
        assert v.shape[0] == 3 and 1 <= v.shape[1] <= len(m) - i
        got += zip(*v.tolist(), _clears_headroom(v[0], v[2]).tolist())
        w, err = ScaledComplex(got[-1][0], got[-1][1]), got[-1][2]
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
    pts = edge_points(z0, z1, path.min_samples(z0, z1)).tolist()
    at = pts.index(1.0)
    got = []
    with pytest.raises(BoundaryTooClose):
        for z, _ in path.extend(prev, pts):
            got.extend(z)
    # the runs stop short of the zero, and the pull that reaches it raises
    assert got == pts[:at]


def test_planned_product_sample_on_a_point_raises():
    # the rho = 1/2 product on the edge [2, 6]: the planned point 4 is a zero
    model = CanonicalProductModel(CanonicalProduct(0.5, 64), 6.0)
    path = rootfinder._SharedWalk(model, 0j)
    z0, z1 = 2.0 + 0j, 6.0 + 0j
    prev = path.start(z0)
    pts = edge_points(z0, z1, path.min_samples(z0, z1)).tolist()
    at = pts.index(4.0)
    got = []
    with pytest.raises(BoundaryTooClose, match="headroom rule"):
        for z, _ in path.extend(prev, pts):
            got.extend(z)
    assert got == pts[:at]


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
        pts = edge_points(z0, z1, path.min_samples(z0, z1)).tolist()
        planned = []
        for z, v in path.extend(None, pts):
            planned += [PathSample.of_run(z, v, j) for j in range(len(z))]
        assert [s.z for s in planned] == pts
        for s in planned:
            alone = model.start(a, s.z)
            assert abs(s.w.logmag - alone.w.logmag) <= 1e-12
            assert abs(cmath.phase(cmath.rect(
                1.0, s.w.phase - alone.w.phase))) <= 1e-12
            assert abs(s.err_log - alone.err_log) <= 1e-12
    # values at points the tail does not admit are NaN; the walk raises
    # there (test_product_walk_raises_where_the_tail_does_not_admit)
    far = model.values(np.array([0j, 10.0 * model.tail.radius + 0j]))
    assert not math.isnan(far[0].real) and math.isnan(far[1].real)


def test_product_walk_raises_where_the_tail_does_not_admit():
    model = CanonicalProductModel(CanonicalProduct(0.5, 64), 6.0)
    far = 1.5 * model.tail.radius * cmath.exp(0.3j)
    with pytest.raises(TailTooLarge, match="n_terms"):
        model.start(0j, far)
    # the edge's run holds the points before far, and the pull after it
    # raises at far itself
    runs = model.edge(0j, None, [1j, far, 2j])
    assert next(runs)[0].tolist() == [1j]
    with pytest.raises(TailTooLarge, match="n_terms"):
        next(runs)
    # an unplanned point of the shared walk (a bisection midpoint) too
    path = rootfinder._SharedWalk(model, 0j)
    prev = path.start(1j)
    with pytest.raises(TailTooLarge):
        next(path.extend(prev, [far]))
