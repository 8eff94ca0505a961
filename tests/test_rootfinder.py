"""rootfinder: winding subdivision, isolation, refinement, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sectorroots import (Box, CanonicalProduct, PolyExpFunction, Polynomial,
                         eval_f, example, exp_function, find_a_points,
                         find_product_a_points, rootfinder, square_minus_one)
from sectorroots.contour import winding_count
from sectorroots.funcmodel import PolyExpRootModel, build_model
from sectorroots.rootfinder import (RootRecord, _SharedWalk, _newton,
                                    roots_to_csv, sort_records)

# smallest zero pair of example 1, root of (2/sqrt(pi)) int t^2 e^{-t^2} = -1/2
# refined with 50-digit mpmath Newton; frozen here as an independent oracle
EX1_SMALLEST_ZERO = complex(0.3614406515173921, 0.8917305702920884)


def square() -> PolyExpFunction:
    return PolyExpFunction(Polynomial((0.0, 2.0)), Polynomial((0.0,)), 0.0)


def test_square_minus_one_roots():
    res = find_a_points(square_minus_one(), 0j, Box(-2, -1, 2, 1), tol=1e-12)
    assert res.winding_total == 2
    assert len(res) == 2
    locs = sorted(r.location.real for r in res)
    assert locs[0] == pytest.approx(-1.0, abs=1e-12)
    assert locs[1] == pytest.approx(1.0, abs=1e-12)
    assert all(r.residual < 1e-12 for r in res)
    assert all(r.multiplicity == 1 for r in res)


def test_double_zero_reported_with_multiplicity():
    res = find_a_points(square(), 0j, Box(-0.7, -0.6, 0.65, 0.62), tol=1e-9)
    assert res.winding_total == 2
    assert res.total_multiplicity == 2
    assert all(abs(r.location) < 1e-3 for r in res)


def test_shifted_double_zero_reported_with_multiplicity():
    # (z - c)^2 = c^2 + integral of 2(t - c) dt, with the double zero off
    # every cut through the box centre
    c = 0.1 + 0.05j
    F = PolyExpFunction(Polynomial((-2.0 * c, 2.0)), Polynomial((0.0,)),
                        c * c)
    res = find_a_points(F, 0j, Box(-0.7, -0.6, 0.65, 0.62), tol=1e-9)
    assert res.winding_total == res.total_multiplicity == 2
    assert all(abs(r.location - c) < 1e-3 for r in res)


def test_exp_one_points_periodic():
    res = find_a_points(exp_function(), 1.0 + 0j, Box(-1, -7, 1, 7),
                        tol=1e-10)
    assert res.winding_total == 3
    want = [0.0, -2.0 * math.pi, 2.0 * math.pi]
    got = sorted(r.location.imag for r in res)
    assert got == pytest.approx(sorted(want), abs=1e-10)
    assert all(abs(r.location.real) < 1e-10 for r in res)


def test_exp_has_no_zeros():
    res = find_a_points(exp_function(), 0j, Box(-3, -3, 3, 3), tol=1e-10)
    assert len(res) == 0
    assert res.winding_total == 0


def test_empty_far_region():
    res = find_a_points(square_minus_one(), 0j, Box(5, 5, 6, 6), tol=1e-10)
    assert len(res) == 0


def test_boundary_through_root_recovers():
    # +-1 sit exactly on the initial boundary; the region must grow
    res = find_a_points(square_minus_one(), 0j, Box(-1, -0.5, 1, 0.5),
                        tol=1e-10)
    assert res.total_multiplicity == 2
    assert res.searched.width > res.region.width


def test_target_offset():
    # 1-points of z^2 - 1 are +-sqrt(2)
    res = find_a_points(square_minus_one(), 1.0 + 0j, Box(-2, -1, 2, 1),
                        tol=1e-12)
    got = sorted(r.location.real for r in res)
    rt2 = math.sqrt(2.0)
    assert got == pytest.approx([-rt2, rt2], abs=1e-12)


def test_csv_schema():
    res = find_a_points(square_minus_one(), 0j, Box(-2, -1, 2, 1), tol=1e-12)
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "re,im,target_re,target_im,residual,multiplicity"
    assert len(lines) == 3
    assert roots_to_csv(res.records) == text


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        find_a_points(square_minus_one(), 0j, Box(-2, -1, 2, 1), tol=tol)


@pytest.mark.parametrize("family", ["polyexp", "product"])
@pytest.mark.parametrize("target", [math.inf, math.nan,
                                    complex(0.0, -math.inf)])
def test_nonfinite_target_rejected(monkeypatch, family, target):
    def walked(*args, **kwargs):
        raise AssertionError("a non-finite target reached a walk")

    monkeypatch.setattr(rootfinder, "winding_count", walked)
    region = Box(-2, -2, 2, 2)
    with pytest.raises(ValueError, match="target must be finite"):
        if family == "polyexp":
            find_a_points(example(2), target, region)
        else:
            find_product_a_points(CanonicalProduct(0.5, 64), target, region)


def test_determinism_between_runs():
    region = Box(-1, -7, 1, 7)
    runs = [find_a_points(exp_function(), 1.0 + 0j, region, tol=1e-10)
            for _ in range(2)]
    assert runs[0].to_csv() == runs[1].to_csv()


def test_threaded_search_returns():
    # the search once ran on a worker pool that could deadlock; it now runs
    # in the calling thread. A subprocess under a hard timeout still turns
    # any hang into a fail, and its output must match the in-process run
    code = ("from sectorroots import Box, example, find_a_points\n"
            "print(find_a_points(example(1), 0j, Box(-4, -4, 4, 4))"
            ".to_csv(), end='')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    alone = find_a_points(example(1), 0j, Box(-4, -4, 4, 4))
    assert len(alone.records) == 10
    assert proc.stdout == alone.to_csv()


def test_example1_smallest_zero_oracle(ex1_zeros):
    result, _ = ex1_zeros
    closest = min(result, key=lambda r: abs(r.location - EX1_SMALLEST_ZERO))
    assert abs(closest.location - EX1_SMALLEST_ZERO) < 1e-9
    # and its conjugate partner
    conj = min(result,
               key=lambda r: abs(r.location - EX1_SMALLEST_ZERO.conjugate()))
    assert abs(conj.location - EX1_SMALLEST_ZERO.conjugate()) < 1e-9


def test_example1_records_verify_pointwise(ex1, ex1_zeros):
    result, _ = ex1_zeros
    for rec in list(result)[:6]:
        assert abs(eval_f(ex1, rec.location)) < 1e-9


@pytest.mark.parametrize("case", ["ex1 zeros", "ex2 ones"])
def test_residuals_are_from_zero(case, ex1, data1, ex2, data2):
    F, data, a, r = {"ex1 zeros": (ex1, data1, 0j, 4.0),
                     "ex2 ones": (ex2, data2, 1.0 + 0j, 3.0)}[case]
    result = find_a_points(F, a, Box(-r, -r, r, r), tol=1e-9, data=data)
    assert len(result) > 0
    referee = build_model(F, data)
    for rec in result:
        assert rec.residual == referee.diff_scaled(rec.location, a).abs_value()
        assert rec.residual < 1e-9


class _FromZero(PolyExpRootModel):
    """Every Newton iterate evaluated from 0: the iteration as it was
    before values were carried between iterates."""

    def diff_near(self, held, z):
        return None


@pytest.mark.parametrize("case", ["simple root", "double root"])
def test_newton_integrates_from_zero_twice(monkeypatch, ex1, case):
    # the double root converges linearly, over many carried steps; a
    # carried value ends the iteration only when |w| plus its bound is at
    # most the goal (tests/test_certify.py plants values to check that)
    F, seed, steps_from_zero = {
        "simple root": (ex1, 0.4 + 0.8j, 6),
        "double root": (square(), 0.5 + 0.3j, 17)}[case]
    calls = []
    anchored = PolyExpRootModel.anchored_f

    def counted(self, z):
        calls.append(z)
        return anchored(self, z)

    monkeypatch.setattr(PolyExpRootModel, "anchored_f", counted)

    def run(cls, held=None):
        calls.clear()
        s = _newton(cls(F, tol=1e-13), 0j, seed, 1e-9, held=held)
        return s.z, s.w.abs_value(), len(calls)

    z, res, n = run(PolyExpRootModel)
    z_ref, _, n_ref = run(_FromZero)
    # the first iterate and the reported residual; the iterates between,
    # the convergence test and the polishing step carry their values
    assert n == 2
    assert n_ref == steps_from_zero
    assert res == PolyExpRootModel(F, tol=1e-13).diff_scaled(z, 0j).abs_value()
    # a held sample near the seed (a box corner in the search) carries the
    # first iterate too, which leaves the reported residual
    corner = PolyExpRootModel(F, tol=1e-13).diff_sample(seed + 0.05 - 0.05j,
                                                         0j)
    z_held, res_held, n_held = run(PolyExpRootModel, corner)
    assert n_held == 1
    assert res_held == PolyExpRootModel(F, tol=1e-13).diff_scaled(
        z_held, 0j).abs_value()
    if case == "simple root":
        for got in (z, z_held):
            assert abs(got - z_ref) <= 1e-12 * abs(got)
            assert abs(got - EX1_SMALLEST_ZERO) < 1e-12
        assert max(res, res_held) < 1e-15
    else:
        for got, r in ((z, res), (z_held, res_held)):
            assert abs(got) < 1e-4 and r < 1e-9


def test_sorted_by_modulus(ex1_zeros):
    # the sort_records contract: neighbours ascend in |z|, or their moduli
    # tie to a relative 1e-12 and they ascend in arg in [0, 2 pi)
    result, _ = ex1_zeros
    for p, q in zip(result, result[1:]):
        r0, r1 = abs(p.location), abs(q.location)
        if abs(r1 - r0) <= 1e-12 * max(r0, r1):
            arg0, arg1 = (math.atan2(z.imag, z.real) % (2 * math.pi)
                          for z in (p.location, q.location))
            assert arg0 <= arg1
        else:
            assert r0 < r1


def test_sort_records_conjugate_pair_order_is_stable():
    # |3 + 4i| = 5 exactly; raising either imaginary part by one ulp moves
    # that member's modulus up by one ulp
    box = Box(-6, -6, 6, 6)
    bumped = math.nextafter(4.0, 5.0)
    for upper, lower in ((4.0, bumped), (bumped, 4.0)):
        pair = [RootRecord(complex(3.0, -lower), 0j, 0.0, 1, box),
                RootRecord(complex(3.0, upper), 0j, 0.0, 1, box)]
        assert abs(pair[0].location) != abs(pair[1].location)
        for records in (pair, pair[::-1]):
            listed = [r.location.imag > 0 for r in sort_records(records)]
            assert listed == [True, False]
    # moduli 1e-9 apart are not tied
    far = [RootRecord(complex(3.0, 4.0 + 1e-9), 0j, 0.0, 1, box),
           RootRecord(complex(3.0, -4.0), 0j, 0.0, 1, box)]
    assert [r.location.imag < 0 for r in sort_records(far)] == [True, False]


# -- Newton starts from the walk's root estimate --------------------------

@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_walk_root_estimate_near_located_roots(name, request):
    # a box around each located zero, off centre and smaller than the gap
    # to its nearest neighbour, estimates that zero to 1e-2 of its side
    F = request.getfixturevalue(name)
    data = request.getfixturevalue("data" + name[-1])
    result, _ = request.getfixturevalue(name + "_zeros")
    zs = [r.location for r in result]
    model = build_model(F, data)
    for z in zs:
        side = min(0.1, 0.4 * min(abs(z - y) for y in zs if y != z))
        c = z + complex(0.3, -0.2) * side
        box = Box(c.real - side / 2, c.imag - side / 2,
                  c.real + side / 2, c.imag + side / 2)
        w = winding_count(_SharedWalk(model, 0j), box)
        assert w.count == 1
        assert abs(w.root_sum - z) <= 1e-2 * side


def test_isolate_starts_from_estimate_inside_box(monkeypatch):
    # the estimate is now the box's one seed, the root of the monic
    # polynomial with the walk's power sum s_1, which is the walk's
    # root_sum; Newton also takes the box corner nearest it as its held
    # sample
    search = rootfinder._Search(PolyExpRootModel(square_minus_one()), 0j,
                                1e-12)
    box = Box(0.5, -0.5, 1.5, 0.5)
    assert search.wind(box) == 1
    starts = []
    newton = rootfinder._newton

    def recorded(model, a, z0, tol, maxit=50, held=None):
        starts.append((z0, held.z))
        return newton(model, a, z0, tol, maxit, held)

    monkeypatch.setattr(rootfinder, "_newton", recorded)
    seeds = search.seeds[box]
    assert len(seeds) == 1
    guess = seeds[0]
    assert guess != box.center and abs(guess - 1) < 1e-2
    assert abs(search._isolate(box, seeds).location - 1) < 1e-12
    nearest = min(box.corners(), key=lambda c: abs(c - guess))
    assert starts == [(guess, nearest)]
    # an estimate outside the box gives way to the centre
    assert abs(search._isolate(box, [1.7 + 0j]).location - 1) < 1e-12
    assert starts[1][0] == box.center


def test_search_keeps_no_estimate_after_descent():
    search = rootfinder._Search(PolyExpRootModel(square_minus_one()), 0j,
                                1e-12)
    box = Box(-2, -1, 2, 1)
    records = search.descend(box, search.wind(box), 0)
    assert sorted(r.location.real for r in records) == pytest.approx([-1, 1])
    assert search.seeds == {}


# derivative evaluations of whole searches: one per Newton iteration and
# polishing step, and one per Kantorovich ball (40 and 32). They were 122
# and 100 when boxes of 2 to 4 a-points were split until every root was
# isolated, without balls; Newton from the seeds of those larger boxes
# takes more iterations than from the estimates of isolated boxes (802 and
# 582 when every run started from its box centre)
@pytest.mark.parametrize("name, half, iterations", [
    ("ex1", 8, 208),
    ("ex2", 4, 181),
], ids=["ex1", "ex2"])
def test_search_newton_iterations_pinned(name, half, iterations, request,
                                         monkeypatch):
    F = request.getfixturevalue(name)
    data = request.getfixturevalue("data" + name[-1])
    calls = []
    derivative = PolyExpRootModel.derivative_scaled

    def counted(self, z):
        calls.append(z)
        return derivative(self, z)

    monkeypatch.setattr(PolyExpRootModel, "derivative_scaled", counted)
    result = find_a_points(F, 0j, Box(-half, -half, half, half), tol=1e-9,
                           data=data)
    assert result.total_multiplicity == result.winding_total
    assert len(calls) == iterations
