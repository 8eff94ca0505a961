"""catalog: the examples' Gamma coefficients, and an import without scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from conftest import gamma_quadrature

from sectorroots import example, example1, example2, example_region


def _gamma40(num: int, den: int) -> mp.mpf:
    with mp.workdps(40):
        return mp.gamma(mp.mpf(num) / den)


def test_import_and_examples_without_scipy():
    # scipy is needed only by the tests' gamma_quadrature; a fresh
    # interpreter that loads the package and the CLI, builds both examples
    # with their asymptotic values and evaluates a product and a kernel
    # never loads it. A subprocess under a hard timeout keeps the check
    # independent of what this test session has already imported
    code = ("import sys\n"
            "import sectorroots, sectorroots.cli\n"
            "from sectorroots import (CanonicalProduct, KernelParams,\n"
            "    asymptotic_values, canonical_product_eval, example,\n"
            "    kernel_K)\n"
            "for k in (1, 2):\n"
            "    asymptotic_values(example(k), tol=1e-9)\n"
            "canonical_product_eval(CanonicalProduct(0.75, 64), -1.0)\n"
            "kernel_K(1.5, KernelParams(0.5, 0.5))\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_example1_coefficient_is_two_over_sqrt_pi():
    coeff = example1().p.coeffs[2]
    assert coeff == 2.0 / math.sqrt(math.pi)
    with mp.workdps(40):
        assert coeff == float(2 / mp.sqrt(mp.pi))


def test_example2_coefficients_mpmath_oracle():
    # math.gamma(4/3) is about 3 ulps off, so the bound is a few ulps
    p = example2().p.coeffs
    for got, (num, den) in ((p[3], (4, 3)), (p[1], (2, 3))):
        want = 1 / _gamma40(num, den)
        assert abs(got.real - want) <= 2e-15 * want, (num, den)


@pytest.mark.parametrize("num,den", [(1, 2), (4, 3), (2, 3)])
def test_gamma_quadrature_checks_the_coefficients(num, den):
    # QUADPACK is the independent check of math.gamma, not the source
    s = num / den
    got = gamma_quadrature(s)
    assert abs(got - _gamma40(num, den)) <= 1e-14 * got
    assert abs(got - math.gamma(s)) <= 1e-14 * got


@pytest.mark.parametrize("call", [lambda: example(3),
                                  lambda: example_region(0)],
                         ids=["example 3", "region 0"])
def test_input_checks_raise(call):
    with pytest.raises(ValueError, match="example index must be 1 or 2"):
        call()
