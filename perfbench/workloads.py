"""The benchmark's workloads: their operations, seeded inputs and checks.

Every operation is a public library call (or an in-process CLI call through
``sectorroots.cli.main``) followed by a check of its result against the
reference data in ``refdata/``. Library functions are always looked up on
their module at call time, so that the wrappers installed by ``tracing.py``
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFDIR = Path(__file__).resolve().parent / "refdata"

# A seeded variant moves the edges of each box outward or inward by up to
# this share of its side, symmetrically about its centre, and scales each
# radius by up to this share. Seed 0 is the named workload with no offset.
# Every sample point moves, but the centre, and with it the first crosshair,
# stays put: translating the boxes instead changed the subdivision tree
# itself and so the work of a search by 10 % from seed to seed.
OFFSET = 0.0001
# Reference lists are computed on the box grown by this share of its side on
# every edge. That covers the seed offset plus the 5 x 0.3 % growth a search
# applies when its boundary passes too close to a root.
COVER = 0.03

# a-point searches: name -> (function, target, box x0, y0, x1, y1).
# Functions are "ex1"/"ex2" (the two worked examples, deg q = 2 and 3) or
# "rho=<r>" (the canonical product with zeros n^(1/r)).
SEARCHES = {
    "ex1-zeros": ("ex1", 0.0, (-8.0, -8.0, 8.0, 8.0)),
    "ex2-zeros": ("ex2", 0.0, (-4.0, -4.0, 4.0, 4.0)),
    "rho0.5-zeros": ("rho=0.5", 0.0, (-100.5, -100.5, 100.5, 100.5)),
    "rho0.5-ones": ("rho=0.5", 1.0, (-100.5, -100.5, 100.5, 100.5)),
    "rho0.33-ones": ("rho=1/3", 1.0, (-60.5, -60.5, 60.5, 60.5)),
    "rho0.75-ones": ("rho=0.75", 1.0, (-4.5, -4.5, 4.5, 4.5)),
    # known defect: |P| near the zero at 4^(4/3) = 6.35 is about 4e-7, and
    # _ProductPath's absolute 1e-9 proximity floor makes the split fail
    "rho0.75-zeros": ("rho=0.75", 0.0, (5.9, -0.4, 6.9, 0.4)),
}

RHO = {"rho=0.5": 0.5, "rho=1/3": 1.0 / 3.0, "rho=0.75": 0.75}

JENSEN_R = 6.0
JENSEN_SAMPLES = 4096
# criterion 7's grid: geomspace(3, 11, 5)
ORDER_RADII = tuple(3.0 * (11.0 / 3.0) ** (k / 4.0) for k in range(5))
PRODUCT_EVAL_X = 1.0

RESIDUAL_MAX = 1e-9
JENSEN_MAX = 1e-9
ORDER_BAND = (3.0, 0.15)
PRODUCT_EVAL_MAX = 1e-6
ENUMERATE_CONFIGS = 8160

# name -> (examples set up, operations); each operation is (name, group).
# A group is the per-operation timing the operation counts towards.
WORKLOADS = {
    "search": (("ex1", "ex2"), (("ex1-zeros", "search_deg2_s"),
                                ("ex2-zeros", "search_deg3_s"))),
    "circle-scan": (("ex1", "ex2"), (("ex1-jensen", "jensen_s"),
                                     ("ex2-order", "order_s"))),
    "products": ((), (("product-eval", "product_eval_s"),
                      ("rho0.5-zeros", "product_search_s"),
                      ("rho0.5-ones", "product_search_s"),
                      ("rho0.33-ones", "product_search_s"),
                      ("rho0.75-ones", "product_search_s"),
                      ("enumerate", "sweep_s"),
                      ("kernel-check", "sweep_s"))),
    # not a timed workload: its one operation fails today and is kept so
    # that the defect stays visible until it is fixed
    "known-defects": ((), (("rho0.75-zeros", "product_search_s"),)),
}
GROUPS = ("search_deg2_s", "search_deg3_s", "jensen_s", "order_s",
          "product_eval_s", "product_search_s", "sweep_s")

# reference lists each operation reads
REFS_FOR = {"ex1-jensen": "ex1-zeros"}

Ref = namedtuple("Ref", "location multiplicity")


class CheckFailed(Exception):
    """A result disagrees with the reference data."""


@dataclass
class Context:
    """What set-up builds: the library, the example functions with their
    asymptotic data, and the reference lists."""

    sr: object
    functions: dict
    data: dict
    refs: dict


@dataclass
class Op:
    name: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], None]


def setup(workload: str) -> Context:
    """Import the library, build the examples and load the reference data.

    This is everything setup_s measures.
    """
    import sectorroots as sr
    from sectorroots import asymptotics, catalog, cli  # noqa: F401

    examples, ops = WORKLOADS[workload]
    functions = {}
    data = {}
    for key in examples:
        F = catalog.example(int(key[2:]))
        functions[key] = F
        data[key] = asymptotics.asymptotic_values(F, tol=1e-9)
    refs = {}
    for name, _ in ops:
        ref_name = REFS_FOR.get(name, name)
        if ref_name in SEARCHES:
            refs[ref_name] = load_refs(ref_name)
    return Context(sr, functions, data, refs)


def load_refs(name: str) -> list[Ref]:
    doc = json.loads((REFDIR / f"{name}.json").read_text())
    return [Ref(complex(re, im), int(m)) for re, im, m in doc["roots"]]


def offsets(seed: int, name: str, k: int) -> list[float]:
    """k numbers in [-1, 1] for one operation; all zero for seed 0."""
    if seed == 0:
        return [0.0] * k
    rng = random.Random(f"{seed}:{name}")
    return [rng.uniform(-1.0, 1.0) for _ in range(k)]


def seeded_box(seed: int, name: str) -> tuple:
    x0, y0, x1, y1 = SEARCHES[name][2]
    ux, uy = offsets(seed, name, 2)
    dx = OFFSET * (x1 - x0) * ux
    dy = OFFSET * (y1 - y0) * uy
    return (x0 - dx, y0 - dy, x1 + dx, y1 + dy)


def seeded_scale(seed: int, name: str) -> float:
    return 1.0 + OFFSET * offsets(seed, name, 1)[0]


def cover_box(name: str) -> tuple:
    x0, y0, x1, y1 = SEARCHES[name][2]
    dx = COVER * (x1 - x0)
    dy = COVER * (y1 - y0)
    return (x0 - dx, y0 - dy, x1 + dx, y1 + dy)


def build_ops(ctx: Context, workload: str, seed: int) -> list[Op]:
    return [_make_op(ctx, name, group, seed)
            for name, group in WORKLOADS[workload][1]]


def _make_op(ctx: Context, name: str, group: str, seed: int) -> Op:
    sr = ctx.sr
    if name in SEARCHES:
        return _search_op(ctx, name, group, seed)
    if name == "ex1-jensen":
        r = JENSEN_R * seeded_scale(seed, name)
        roots = ctx.refs["ex1-zeros"]
        F, data = ctx.functions["ex1"], ctx.data["ex1"]

        def call():
            return sr.valuedist.jensen_defect(F, roots, r, JENSEN_SAMPLES,
                                              data=data)

        def check(defect):
            if not defect <= JENSEN_MAX:
                raise CheckFailed(f"Jensen defect {defect:.3e} at r = {r}")
        return Op(name, group, call, check)
    if name == "ex2-order":
        scale = seeded_scale(seed, name)
        radii = tuple(scale * r for r in ORDER_RADII)
        F, data = ctx.functions["ex2"], ctx.data["ex2"]

        def call():
            return sr.valuedist.order_estimate(F, radii, data=data)

        def check(est):
            centre, half = ORDER_BAND
            if not abs(est - centre) <= half:
                raise CheckFailed(f"order estimate {est:.4f} outside "
                                  f"{centre} +- {half}")
        return Op(name, group, call, check)
    if name == "product-eval":
        x = PRODUCT_EVAL_X * seeded_scale(seed, name)
        argv = ["product", "--rho", "0.5", f"--eval={-x!r}", "--json"]

        def check(out):
            rc, doc = out
            value = complex(*doc["value"])
            exact = math.sinh(math.pi * math.sqrt(x)) / (math.pi * math.sqrt(x))
            if rc != 0 or not abs(value - exact) < PRODUCT_EVAL_MAX:
                raise CheckFailed(f"product at -{x}: {value} vs sinh form "
                                  f"{exact} (exit {rc})")
        return Op(name, group, lambda: run_cli(sr, argv), check)
    if name == "enumerate":
        def check(out):
            rc, doc = out
            if (rc != 0 or doc["configs_checked"] != ENUMERATE_CONFIGS
                    or doc["violations"]):
                raise CheckFailed(f"enumerate: exit {rc}, {doc}")
        return Op(name, group,
                  lambda: run_cli(sr, ["enumerate", "--dmax", "8", "--json"]),
                  check)
    if name == "kernel-check":
        def check(out):
            rc, doc = out
            if rc != 0 or not doc["max_abs_diff"] < 1e-6:
                raise CheckFailed(f"kernel-check: exit {rc}, max diff "
                                  f"{doc['max_abs_diff']}")
        return Op(name, group,
                  lambda: run_cli(sr, ["kernel-check", "--json"]), check)
    raise KeyError(name)


def run_cli(sr, argv: list[str]):
    """sectorroots.cli.main in-process; returns (exit code, JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sr.cli.main(argv)
    return rc, json.loads(buf.getvalue())


def _search_op(ctx: Context, name: str, group: str, seed: int) -> Op:
    sr = ctx.sr
    fname, target, _ = SEARCHES[name]
    box = sr.Box(*seeded_box(seed, name))
    a = complex(target)
    refs = ctx.refs[name]
    if fname in ctx.functions:
        F, data = ctx.functions[fname], ctx.data[fname]

        def call():
            return sr.rootfinder.find_a_points(F, a, box, tol=1e-9,
                                               data=data)
    else:
        rho = RHO[fname]

        def call():
            P = sr.valuedist.CanonicalProduct(rho, 64)
            return sr.valuedist.find_product_a_points(P, a, box)

    return Op(name, group, call, lambda result: check_search(result, refs))


def check_search(result, refs: list[Ref]) -> None:
    """Compare a SearchResult with the reference a-points it should find.

    The expected points are the reference points strictly inside the box
    the search actually walked (result.searched). Raises CheckFailed on a
    wrong count, an unmatched location, a wrong multiplicity, a
    multiplicity sum that differs from the winding total, or a residual of
    RESIDUAL_MAX or more.
    """
    s = result.searched
    expected = [r for r in refs
                if s.x0 < r.location.real < s.x1
                and s.y0 < r.location.imag < s.y1]
    records = list(result)
    if len(records) != len(expected):
        raise CheckFailed(f"{len(records)} points found, {len(expected)} "
                          f"expected in {s}")
    if result.total_multiplicity != result.winding_total:
        raise CheckFailed(f"multiplicity sum {result.total_multiplicity} != "
                          f"winding {result.winding_total}")
    worst = max((rec.residual for rec in records), default=0.0)
    if not worst < RESIDUAL_MAX:
        raise CheckFailed(f"max residual {worst:.3e}")
    unused = list(expected)
    for rec in records:
        z = rec.location
        best = min(unused, key=lambda r: abs(r.location - z))
        if abs(best.location - z) > 1e-8 * (1.0 + abs(z)):
            raise CheckFailed(f"point {z} has no reference within 1e-8; "
                              f"nearest {best.location}")
        if rec.multiplicity != best.multiplicity:
            raise CheckFailed(f"multiplicity {rec.multiplicity} at {z}, "
                              f"reference {best.multiplicity}")
        unused.remove(best)
