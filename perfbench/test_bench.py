"""Tests of the benchmark itself: the tracer's counts repeat, the checker
rejects corrupted results, the speed probe cleans up after itself, and
BENCHMARK.json matches what run.py prints.

    python3 -m pytest -q perfbench/test_bench.py
"""

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _small_ops(ctx):
    """A few seconds of work that crosses every traced layer."""
    sr = ctx.sr
    F, data = ctx.functions["ex1"], ctx.data["ex1"]
    P = sr.valuedist.CanonicalProduct(1.0 / 3.0, 64)
    return [
        lambda: sr.rootfinder.find_a_points(F, 0j, sr.Box(-3, -3, 3, 3),
                                            tol=1e-9, data=data),
        lambda: sr.valuedist.find_product_a_points(
            P, 1.0, sr.Box(-60.5, -60.5, 60.5, 60.5)),
        lambda: sr.valuedist.jensen_defect(F, ctx.refs["ex1-zeros"], 4.0,
                                           256, data=data),
        lambda: W.run_cli(sr, ["kernel-check", "--json"]),
    ]


@pytest.fixture(scope="module")
def ctx():
    return W.setup("circle-scan")


def test_traced_counts_repeat(ctx):
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for call in _small_ops(ctx):
                call()
        finally:
            tracer.uninstall()
        values = tracer.metrics(0.0)
        counts = {name: values[name] for name, unit in tracing.PER_LAYER
                  if unit == "count"}
        runs.append((tracer.snapshot(), counts))
    assert runs[0] == runs[1]
    snap = runs[0][0]
    for key in ("windings", "gk_panels", "segment_calls", "path_samples",
                "roots", "newton_evals", "circle_evals",
                "product_value_calls"):
        assert snap[key] > 0, key


def test_uninstall_restores_library(ctx):
    from sectorroots import contour, funcmodel, rootfinder

    before = (contour.integrate_segment_err, rootfinder.winding_count,
              funcmodel.PolyExpRootModel.__dict__["anchored_f"])
    tracer = tracing.Tracer()
    tracer.install()
    assert contour.integrate_segment_err is not before[0]
    tracer.uninstall()
    after = (contour.integrate_segment_err, rootfinder.winding_count,
             funcmodel.PolyExpRootModel.__dict__["anchored_f"])
    assert after == before


@pytest.fixture(scope="module")
def product_result(ctx):
    sr = ctx.sr
    P = sr.valuedist.CanonicalProduct(1.0 / 3.0, 64)
    box = sr.Box(*W.SEARCHES["rho0.33-ones"][2])
    return sr.valuedist.find_product_a_points(P, 1.0, box)


def test_checker_accepts_true_result(product_result):
    W.check_search(product_result, W.load_refs("rho0.33-ones"))


@pytest.mark.parametrize("corrupt", ["drop", "multiplicity", "residual",
                                     "location"])
def test_checker_rejects_corruption(product_result, corrupt):
    records = list(product_result.records)
    first = records[0]
    if corrupt == "drop":
        records = records[1:]
    elif corrupt == "multiplicity":
        records[0] = dataclasses.replace(first, multiplicity=2)
    elif corrupt == "residual":
        records[0] = dataclasses.replace(first, residual=2 * W.RESIDUAL_MAX)
    else:
        records[0] = dataclasses.replace(first,
                                         location=first.location + 1e-6)
    bad = dataclasses.replace(product_result, records=records)
    with pytest.raises(W.CheckFailed):
        W.check_search(bad, W.load_refs("rho0.33-ones"))


def test_seed_zero_is_the_named_workload():
    for name, (_, _, box) in W.SEARCHES.items():
        assert W.seeded_box(0, name) == box
        cover = W.cover_box(name)
        for seed in range(1, 20):
            x0, y0, x1, y1 = W.seeded_box(seed, name)
            # the search may grow the box by 5 x 0.3 % of its side
            grow = 0.015 * (x1 - x0)
            assert cover[0] < x0 - grow and x1 + grow < cover[2]
            assert cover[1] < y0 - grow and y1 + grow < cover[3]


def test_speed_probe_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while time.perf_counter() - t0 < 0.35:
            sum(range(1000))
    wall = time.perf_counter() - t0
    assert len(probe.samples) >= 2
    assert 0.0 < probe.probe_s < wall
    assert probe.scaled(wall) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        run.per_layer_metrics()
    for w in doc["workloads"]:
        assert w["name"] in W.WORKLOADS
