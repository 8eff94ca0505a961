"""Command-line surface over the library.

Subcommands mirror the module operations: rays, roots, verify, enumerate,
kernel-check, order, counting, product. Machine-readable reports go to
--out DIR (JSON, CSV); stdout stays a human table in whitespace-separated
columns so it can be piped straight into gnuplot. Exit codes: 0 when the
requested hypothesis holds, 1 when it is violated, 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .asymptotics import accumulation_rays_analytic, asymptotic_values
from .catalog import example, example_region
from .contour import Box
from .errors import (BoundViolated, CounterexampleFound, DegreeZero,
                     SectorRootsError, ToleranceNotMet)
from .kernels import KernelParams, kernel_bounds_check, kernel_grid_report
from .polyexp import PolyExpFunction, _pair, load_function
from .rayconfig import enumerate_configs
from .rootfinder import find_a_points
from .sectorgeom import RaySet, Sector, minimal_cone, sector_report
from .valuedist import (CanonicalProduct, canonical_one_point_rays,
                        canonical_product_eval, core_terms,
                        counting_functions, log_max_modulus, order_estimate)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def _parse_region(text: str) -> Box:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected X0,Y0,X1,Y1, got {text!r}")
    return Box(*parts)


def _parse_rgrid(text: str) -> tuple:
    grid = tuple(float(t) for t in text.split(","))
    if not grid:
        raise ValueError("empty radius grid")
    return grid


def _parse_sector(text: str) -> Sector:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected BISECTOR,HALF_OPENING, got {text!r}")
    return Sector(parts[0], parts[1])


def _load_function(args) -> PolyExpFunction:
    if getattr(args, "example", None) is not None:
        return example(args.example)
    if getattr(args, "spec", None):
        return load_function(args.spec)
    raise ValueError("pass --spec PATH or --example {1,2}")


def canonical_json(obj) -> str:
    """Stable serialization: reload + re-serialize is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, name: str, payload: dict, csv_text: str | None = None,
          csv_name: str | None = None) -> None:
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, name + ".json"), "w",
                  encoding="ascii") as fh:
            fh.write(canonical_json(payload))
        if csv_text is not None:
            with open(os.path.join(args.out, (csv_name or name) + ".csv"),
                      "w", encoding="ascii") as fh:
                fh.write(csv_text)
    if getattr(args, "json", False):
        sys.stdout.write(canonical_json(payload))


def _limits(args, F: PolyExpFunction):
    """F's asymptotic data at min(--tol, 1e-9), or None, as in
    build_model: when F has no critical rays (deg q = 0) or its limits
    miss that tolerance. The search runs either way."""
    try:
        return asymptotic_values(F, tol=min(args.tol, 1e-9))
    except (DegreeZero, ToleranceNotMet):
        return None


def _default_sector(data, target: complex, margin: float = 0.05) -> Sector:
    if data is None:
        raise ValueError("the asymptotic limits are unavailable (no "
                         "critical rays, or they miss the tolerance); "
                         "pass --sector B,H")
    rays = RaySet(accumulation_rays_analytic(data, target,
                                             tol=10.0 * data.value_tol))
    cone = minimal_cone(rays)
    return Sector(cone.bisector,
                  min(math.pi, cone.half_opening + margin),
                  full_plane=cone.full_plane)


def cmd_rays(args) -> int:
    F = _load_function(args)
    if F.p.is_zero:
        print("error: constant function has no critical rays",
              file=sys.stderr)
        return 2
    data = asymptotic_values(F, tol=args.tol)
    payload = {"d": data.d, "argA": math.atan2(data.A.imag, data.A.real),
               "rays": list(data.rays),
               "values": [_pair(v) for v in data.values],
               "value_tol": data.value_tol}
    if not args.json:
        print(f"d = {data.d}   arg A = {payload['argA']:.12g}")
        for k in range(data.d):
            v = data.values[k]
            print(f"ray {k}: phi = {data.rays[k]:.15g}   "
                  f"value = {v.real:.15g} {v.imag:+.15g}j   "
                  f"(tol {data.value_tol:.1e})")
    _emit(args, "rays", payload)
    return 0


def _roots_run(args, F: PolyExpFunction, target: complex, region: Box,
               sector: Sector | None):
    data = _limits(args, F)
    if sector is None:
        sector = _default_sector(data, target)
    result = find_a_points(F, target, region, tol=args.tol, data=data)
    report = sector_report([r.location for r in result], sector, args.r0)
    return result, report


def _print_roots(result, report) -> None:
    print(f"# {len(result)} points, total multiplicity "
          f"{result.total_multiplicity}, boundary winding "
          f"{result.winding_total}")
    print("# re im residual multiplicity")
    for r in result:
        print(f"{r.location.real:.17g} {r.location.imag:.17g} "
              f"{r.residual:.3e} {r.multiplicity}")
    s = report.sector
    verdict = "holds" if report.holds else "VIOLATED"
    print(f"# sector bisector={s.bisector:.12g} half_opening="
          f"{s.half_opening:.12g} r0={report.r0:g}: {verdict} "
          f"({len(report.inside)} inside, {len(report.outside)} outside, "
          f"{len(report.small)} below r0)")


def _roots_payload(args, target, region, result, report) -> dict:
    return {"target": _pair(target),
            "region": [region.x0, region.y0, region.x1, region.y1],
            "winding": result.winding_total,
            "records": [{"location": _pair(r.location),
                         "residual": r.residual,
                         "multiplicity": r.multiplicity}
                        for r in result],
            "sector_report": report.to_dict()}


def cmd_roots(args) -> int:
    F = _load_function(args)
    target = _parse_complex(args.target)
    if args.region is not None:
        region = _parse_region(args.region)
    elif getattr(args, "example", None) is not None:
        region = example_region(args.example)
    else:
        raise ValueError("pass --region X0,Y0,X1,Y1")
    sector = _parse_sector(args.sector) if args.sector else None
    result, report = _roots_run(args, F, target, region, sector)
    if not args.json:
        _print_roots(result, report)
    _emit(args, "roots", _roots_payload(args, target, region, result, report),
          csv_text=result.to_csv(), csv_name="roots")
    return 0 if report.holds else 1


def cmd_verify(args) -> int:
    F = example(args.example)
    region = example_region(args.example)
    ok = True
    payload = {"example": args.example, "checks": []}
    for target in (0.0 + 0.0j, 1.0 + 0.0j):
        result, report = _roots_run(args, F, target, region, None)
        worst = max((r.residual for r in result), default=0.0)
        good = (report.holds and worst < 1e-9
                and result.total_multiplicity == result.winding_total)
        ok = ok and good
        name = "zeros" if target == 0 else "1-points"
        print(f"{'PASS' if good else 'FAIL'} {name}: {len(result)} found, "
              f"multiplicity {result.total_multiplicity} = winding "
              f"{result.winding_total}, max residual {worst:.2e}, sector "
              f"{'holds' if report.holds else 'violated'}")
        payload["checks"].append(
            {"target": _pair(target), "count": len(result),
             "winding": result.winding_total, "max_residual": worst,
             "sector_holds": report.holds, "passed": good})
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = f"example{args.example}_{name.replace('-', '')}"
            result.to_csv(os.path.join(args.out, stem + ".csv"))
    _emit(args, f"verify_example{args.example}", payload)
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    report = enumerate_configs(args.dmax, args.arg_samples)
    if not args.json:
        print(f"checked {report.configs_checked} configurations up to "
              f"degree {report.dmax} ({report.arg_samples} argA samples): "
              f"{len(report.violations)} violations")
        print(f"half-plane hypothesis met only at degrees "
              f"{list(report.halfplane_met_degrees)}")
    _emit(args, "enumerate", report.to_dict())
    return 0


def cmd_kernel_check(args) -> int:
    rows = kernel_grid_report(tol=args.tol)
    grid = np.linspace(0.0, 12.0, 1201)
    for row in rows:
        kernel_bounds_check(KernelParams(row["eps"], row["delta"]), grid)
    max_diff = max(row["abs_diff"] for row in rows)
    if not args.json:
        print("# eps delta residue quadrature abs_diff")
        for row in rows:
            print(f"{row['eps']:g} {row['delta']:g} {row['residue']:.15g} "
                  f"{row['quadrature']:.15g} {row['abs_diff']:.3e}")
        print(f"# max |residue - quadrature| = {max_diff:.3e}; "
              f"bounds hold on [0, 12]")
    _emit(args, "kernel_check", {"rows": rows, "max_abs_diff": max_diff})
    return 0 if max_diff < 1e-6 else 1


def cmd_order(args) -> int:
    F = _load_function(args)
    rgrid = _parse_rgrid(args.rgrid)
    est = order_estimate(F, rgrid)
    if not args.json:
        print(f"order estimate over r in {list(rgrid)}: {est:.6f}")
    _emit(args, "order", {"rgrid": list(rgrid), "order": est})
    return 0


def cmd_counting(args) -> int:
    F = _load_function(args)
    rgrid = _parse_rgrid(args.rgrid)
    target = _parse_complex(args.target)
    rmax = max(rgrid)
    region = Box(-rmax, -rmax, rmax, rmax)
    data = _limits(args, F)
    result = find_a_points(F, target, region, tol=args.tol, data=data)
    table = counting_functions(
        result, lambda r: log_max_modulus(F, r, data=data), rgrid)
    if not args.json:
        print("# r n N logM slack")
        for row in table.rows():
            print("%.17g %d %.17g %.17g %.17g" % row)
    payload = {"target": _pair(target), "radii": list(table.radii),
               "n": list(table.n), "N": list(table.N),
               "logM": list(table.logM), "slack": list(table.slack)}
    _emit(args, "counting", payload, csv_text=table.to_csv(),
          csv_name="counting")
    return 0


def cmd_product(args) -> int:
    z = _parse_complex(args.eval)
    nterms = (core_terms(args.rho, abs(z)) if args.nterms is None
              else args.nterms)
    P = CanonicalProduct(args.rho, nterms)
    value = canonical_product_eval(P, z)
    rays = canonical_one_point_rays(args.rho)
    if not args.json:
        print(f"P({z.real:g}{z.imag:+g}j) = {value.real:.15g} "
              f"{value.imag:+.15g}j   (rho={args.rho:g}, "
              f"{nterms} factors)")
        print(f"one-point accumulation rays: "
              f"{[f'{a:.12g}' for a in rays]}")
    _emit(args, "product", {"rho": args.rho, "n_terms": nterms,
                            "point": _pair(z), "value": _pair(value),
                            "one_point_rays": list(rays)})
    return 0


def _add_function_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--spec", help="path to a function spec JSON")
    g.add_argument("--example", type=int, choices=(1, 2),
                   help="built-in example function")


def _add_common(p: argparse.ArgumentParser, tol: float = 1e-9) -> None:
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--out", help="directory for JSON/CSV reports")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sectorroots",
        description="Value distribution of entire functions with "
                    "polynomial-times-exponential derivative.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="critical rays and asymptotic values")
    _add_function_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("roots", help="locate a-points and test a sector")
    _add_function_flags(p)
    p.add_argument("--target", required=True, help="target value RE[,IM]")
    p.add_argument("--region", help="search box X0,Y0,X1,Y1")
    p.add_argument("--r0", type=float, default=3.0,
                   help="modulus below which points are exempt")
    p.add_argument("--sector", help="override sector BISECTOR,HALF_OPENING")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="end-to-end check of an example")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--r0", type=float, default=3.0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate",
                       help="sweep accumulation-ray configurations")
    p.add_argument("--dmax", type=int, default=8)
    p.add_argument("--arg-samples", type=int, default=16)
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("kernel-check",
                       help="kernel residue identity vs quadrature")
    _add_common(p)
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("order", help="growth order from a radius grid")
    _add_function_flags(p)
    p.add_argument("--rgrid", required=True, help="radii R1,R2,...")
    _add_common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("counting",
                       help="counting functions against log max modulus")
    _add_function_flags(p)
    p.add_argument("--rgrid", required=True, help="radii R1,R2,...")
    p.add_argument("--target", default="0", help="target value RE[,IM]")
    _add_common(p)
    p.set_defaults(func=cmd_counting)

    p = sub.add_parser("product", help="evaluate a canonical product")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--nterms", type=int, default=None,
                   help="factor count; sized from |z| if omitted")
    p.add_argument("--eval", required=True, help="evaluation point RE[,IM]")
    _add_common(p)
    p.set_defaults(func=cmd_product)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CounterexampleFound, BoundViolated) as exc:
        print(f"violated: {exc}", file=sys.stderr)
        return 1
    except (SectorRootsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
