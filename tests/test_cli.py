"""CLI exit codes, JSON stability, and artifact layout.

Everything runs in-process through main(argv); subprocess spawning is
left to the acceptance suite.
"""

import csv
import json
import math
import os

import pytest

import sectorroots
from sectorroots import PolyExpFunction, Polynomial, function_to_json
from sectorroots.cli import (_parse_complex, _parse_region, canonical_json,
                             main)

PI = math.pi


def _spec(path, F: PolyExpFunction) -> str:
    path.write_text(function_to_json(F) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def square_spec(tmp_path):
    return _spec(tmp_path / "square.json",
                 PolyExpFunction(Polynomial((0.0, 2.0)),
                                 Polynomial((0.0,)), -1.0))


@pytest.fixture
def exp_spec(tmp_path):
    return _spec(tmp_path / "exp.json",
                 PolyExpFunction(Polynomial((1.0,)),
                                 Polynomial((0.0, 1.0)), 1.0))


@pytest.fixture
def const_spec(tmp_path):
    return _spec(tmp_path / "const.json",
                 PolyExpFunction(Polynomial(()),
                                 Polynomial((0.0, 1.0)), 0.5))


@pytest.fixture
def slow_spec(tmp_path):
    # f = 1/2 + integral of exp(-0.005 t^2): its limits along the critical
    # rays miss 1e-10 by r = 50, so asymptotic_values raises
    # ToleranceNotMet
    return _spec(tmp_path / "slow.json",
                 PolyExpFunction(Polynomial((1.0,)),
                                 Polynomial((0.0, 0.0, -0.005)), 0.5))


def test_parse_helpers():
    assert _parse_complex("1.5") == 1.5 + 0j
    assert _parse_complex("1,-2") == 1 - 2j
    with pytest.raises(ValueError):
        _parse_complex("1,2,3")
    assert _parse_region("-1,-2,3,4").x0 == -1.0
    with pytest.raises(ValueError):
        _parse_region("1,2,3")


def test_rays_human_and_json(capsys):
    assert main(["rays", "--example", "1"]) == 0
    text = capsys.readouterr().out
    assert "d = 2" in text
    assert main(["rays", "--example", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2
    assert payload["rays"][0] == pytest.approx(0.0, abs=1e-9)
    assert payload["rays"][1] == pytest.approx(PI, abs=1e-9)
    assert payload["values"][0] == pytest.approx([1.0, 0.0], abs=1e-8)


def test_rays_constant_function_errors(const_spec, capsys):
    assert main(["rays", "--spec", const_spec]) == 2
    assert "no critical rays" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "--example", "1", "--target", "0", "--tol", "0"],
    ["roots", "--example", "1", "--target", "0", "--tol", "nan"],
    ["verify", "--example", "1", "--tol", "0"],
    ["verify", "--example", "1", "--tol", "nan"],
    ["rays", "--example", "1", "--tol", "0"],
    ["rays", "--example", "1", "--tol", "-1"],
    ["rays", "--example", "1", "--tol", "nan"],
])
def test_nonpositive_tolerance_errors(argv, capsys):
    assert main(argv) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


def test_missing_function_source_errors(capsys):
    assert main(["order", "--rgrid", "4,6,9,13"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_region_errors(square_spec, capsys):
    code = main(["roots", "--spec", square_spec, "--target", "0",
                 "--region", "1,2,3", "--sector", "0,3.14159"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["order", "--example", "2", "--rgrid", ""],
     "could not convert string to float"),
    (["roots", "--example", "1", "--target", "0", "--sector", "1,2,3"],
     "expected BISECTOR,HALF_OPENING"),
], ids=["empty radius grid", "three-part sector"])
def test_malformed_argument_exits_two(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_roots_square(square_spec, tmp_path, capsys):
    out = str(tmp_path / "art")
    code = main(["roots", "--spec", square_spec, "--target", "0",
                 "--region=-2,-2,2,2",
                 "--sector", f"0,{PI:.15f}", "--out", out, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winding"] == 2
    locs = sorted(rec["location"][0] for rec in payload["records"])
    assert locs == pytest.approx([-1.0, 1.0], abs=1e-9)
    with open(os.path.join(out, "roots.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["multiplicity"] for r in rows} == {"1"}


def test_roots_sector_violation_exits_one(square_spec):
    # r0 below the root moduli so the sector check actually applies
    code = main(["roots", "--spec", square_spec, "--target", "0",
                 "--region=-2,-2,2,2", "--sector", "0,0.5", "--r0", "0.5"])
    assert code == 1


def test_search_runs_when_the_limits_miss_tolerance(slow_spec, capsys):
    # roots and counting search without the limits, as the library does
    code = main(["roots", "--spec", slow_spec, "--target", "0",
                 "--region=-2,-2,2,2", "--sector", "0,1", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winding"] == len(payload["records"]) == 1
    assert main(["counting", "--spec", slow_spec, "--rgrid", "2,3"]) == 0
    capsys.readouterr()
    # only the default sector needs them
    code = main(["roots", "--spec", slow_spec, "--target", "0",
                 "--region=-2,-2,2,2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "asymptotic limits are unavailable" in err
    assert "deg q = 0" not in err


def test_enumerate_json_round_trip(capsys, tmp_path):
    out = str(tmp_path / "enum")
    assert main(["enumerate", "--dmax", "3", "--json", "--out", out]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert canonical_json(payload) == text
    assert payload["violations"] == []
    with open(os.path.join(out, "enumerate.json")) as fh:
        assert fh.read() == text


@pytest.mark.parametrize("argv", [
    ["roots", "--example", "1", "--target", "0", "--region", "0,0,1e300,1"],
    ["roots", "--example", "2", "--target", "0", "--region", "0,0,1e120,1"],
], ids=["ex1 1e300", "ex2 1e120"])
def test_huge_region_exits_two(argv, capsys):
    # the phase swing bound of so long an edge is infinite: its plan is
    # capped before it becomes an int, and the walk ends in a typed error
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_kernel_check(capsys):
    assert main(["kernel-check"]) == 0
    assert "max |residue - quadrature|" in capsys.readouterr().out


def test_order_exp(exp_spec, tmp_path):
    out = str(tmp_path / "ord")
    code = main(["order", "--spec", exp_spec,
                 "--rgrid", "4,6,9,13.5,20", "--out", out])
    assert code == 0
    with open(os.path.join(out, "order.json")) as fh:
        payload = json.load(fh)
    assert payload["order"] == pytest.approx(1.0, abs=1e-3)


def test_counting_square(square_spec, tmp_path, capsys):
    out = str(tmp_path / "cnt")
    code = main(["counting", "--spec", square_spec, "--target", "0",
                 "--rgrid", "2,3", "--out", out])
    assert code == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("# r")
    with open(os.path.join(out, "counting.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["2", "2"]
    assert float(rows[0]["N"]) == pytest.approx(2.0 * math.log(2.0),
                                                abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["counting", "--rgrid", "2,3", "--tol", "-1"],
    ["roots", "--target", "0", "--region=-2,-2,2,2", "--sector", "0,3",
     "--tol", "0"],
])
def test_bad_tolerance_errors(square_spec, capsys, argv):
    assert main(argv + ["--spec", square_spec]) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["roots", "--example", "1", "--target", "nan"], "target must be finite"),
    (["roots", "--example", "2", "--target", "inf"], "target must be finite"),
    (["product", "--rho", "0.5", "--nterms", "64", "--eval=nan"],
     "evaluation point must be finite"),
    (["product", "--rho", "0.5", "--eval=nan"], "radius must be finite"),
    (["product", "--rho", "0.5", "--nterms", "0", "--eval=-1"],
     "n_terms must be positive"),
])
def test_nonfinite_input_and_zero_terms_errors(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_product_auto_terms(capsys):
    code = main(["product", "--rho", "0.3333333333333333",
                 "--eval=-0.5", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["one_point_rays"] == pytest.approx([0.0], abs=1e-9)
    assert payload["n_terms"] >= 64


def test_canonical_json_stable():
    blob = {"b": [1.5, -0.25], "a": {"z": 1e-300}}
    once = canonical_json(blob)
    assert canonical_json(json.loads(once)) == once
    assert once.endswith("\n")


# the package's public names: what the CLI, the demos and the benchmark use
_PUBLIC = [
    "AccumulationConfig", "AsymptoticData", "BoundViolated",
    "BoundaryTooClose", "Box", "CanonicalProduct", "CounterexampleFound",
    "CountingTable", "DegreeZero", "DerivativeVanishes", "EmptyRaySet",
    "EnumerationReport", "KernelBoundsReport", "KernelParams",
    "NoConvergence", "NonPositiveLogM", "OverflowRegion",
    "PolyExpFunction", "Polynomial", "RaySet", "RootRecord", "ScaledComplex",
    "SearchResult", "Sector", "SectorReport", "SectorRootsError",
    "TailTooLarge", "ToleranceNotMet", "WindingResult",
    "accumulation_rays_analytic", "angle_distance", "asymptotic_values",
    "canonical_one_point_rays", "canonical_product_eval", "circle_log_mean",
    "counting_functions", "critical_rays", "enumerate_configs", "eval_f",
    "example", "example1", "example2", "example_region", "exp_function",
    "find_a_points", "find_product_a_points", "function_from_json",
    "function_to_json", "jensen_defect", "kernel_K", "kernel_bounds_check",
    "kernel_grid_report", "kernel_integral_quadrature",
    "kernel_integral_residue", "kernel_report", "load_function",
    "log_max_modulus", "minimal_cone", "order_estimate", "roots_to_csv",
    "sector_report", "separated", "square_minus_one", "wrap_angle",
]
# wrappers that only their own tests called, by module or class; the
# tests keep gamma_quadrature as their QUADPACK oracle, and the sector
# form, with the NearCriticalZero it raises, as their check of the limits
# (conftest.py)
_DELETED = {
    "asymptotics": ("asymptotic_approx", "sector_remainder"),
    "catalog": ("gamma_quadrature",),
    "errors": ("NearCriticalZero",),
    "polyexp": ("eval_f_scaled", "save_function"),
    "rayconfig": ("FeasibilityVerdict", "assess", "config_rays",
                  "_one_config"),
    "rootfinder": ("newton_refine",),
    "AccumulationConfig": ("ray_pair",),
    "Sector": ("contains_angle", "rotated"),
    "RaySet": ("rotated",),
}


def test_public_api_is_pinned():
    assert sorted(sectorroots.__all__) == _PUBLIC
    for name in _PUBLIC:
        assert getattr(sectorroots, name) is not None
    for owner, names in _DELETED.items():
        for name in names:
            assert not hasattr(sectorroots, name)
            assert not hasattr(getattr(sectorroots, owner), name)
