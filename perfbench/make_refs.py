"""Build the reference a-point lists in refdata/ and verify each one with an
oracle that shares no code with the library.

    python3 perfbench/make_refs.py [NAME ...]

For every search operation in workloads.SEARCHES the library searches the
covering box (the operation's box grown by workloads.COVER of its side,
which contains every seeded variant). The list is kept only if the oracle
agrees:

* example 1: mpmath at 30 digits on 1/2 + erf(z)/2 - z exp(-z^2)/sqrt(pi);
* example 2: mpmath quadrature of (a t^3 + b t) exp(-t^3) from 0 for each
  point; the boundary count uses its incomplete-gamma closed form;
* rho = 0.5: sin(pi sqrt z) / (pi sqrt z);
* rho = 1/3: 1 / (Gamma(1 - x) Gamma(1 - w x) Gamma(1 - w^2 x)), x^3 = z,
  w = exp(2 pi i / 3);
* rho = 0.75: no closed form; a direct product of 2^18 factors with a
  Hurwitz-zeta tail, in numpy and mpmath.

Each oracle checks every point (Newton from the library's point converges
to within 1e-9 relative, or for rho = 0.75 the residual is below 1e-9), and
counts the a-points in the covering box on its own by tracking the
argument of f - a around the boundary. The count must equal the list's
multiplicity sum. The zeros of a canonical product are also checked
against their exact values n^(1/rho).

The known-defect operation (rho = 0.75 zeros near 6.35) cannot be searched
by the library; its list is the exact zero set.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


# -- oracles ---------------------------------------------------------------

class Closed:
    """f from a closed form, evaluated at dps digits along the walk."""

    def __init__(self, f, dps):
        self.f = f
        self.dps = dps


def ex1_f(z):
    return (mp.mpf(1) / 2 + mp.erf(z) / 2
            - z * mp.exp(-z * z) / mp.sqrt(mp.pi))


def ex1_fp(z):
    return 2 * z * z * mp.exp(-z * z) / mp.sqrt(mp.pi)


def _ex2_coeffs():
    return 1 / mp.gamma(mp.mpf(4) / 3), 1 / mp.gamma(mp.mpf(2) / 3)


def ex2_g(t):
    a, b = _ex2_coeffs()
    return (a * t ** 3 + b * t) * mp.exp(-t ** 3)


def ex2_quad(z):
    """f(z) = 1/3 + int_0^z (a t^3 + b t) exp(-t^3) dt by mpmath.quad."""
    return mp.mpf(1) / 3 + mp.quad(ex2_g, [z * k / 8 for k in range(9)])


def ex2_closed(z):
    """The same f through int_0^z t^k exp(-t^3) dt
    = z^(k+1) x^(-s) gamma(s, x) / 3 with x = z^3, s = (k+1)/3.

    The boundary walk uses this form: where f sits 60 orders below the
    terms that cancel in it, quadrature from 0 cannot resolve it, while
    mpmath's incomplete gamma works to full precision."""
    if z == 0:
        return mp.mpf(1) / 3
    a, b = _ex2_coeffs()
    x = z ** 3

    def part(k):
        s = mp.mpf(k + 1) / 3
        return z ** (k + 1) * x ** (-s) * mp.gammainc(s, 0, x) / 3
    return mp.mpf(1) / 3 + a * part(3) + b * part(1)


def rho_half(z):
    if z == 0:
        return mp.mpc(1)
    s = mp.sqrt(z)
    return mp.sin(mp.pi * s) / (mp.pi * s)


def rho_third(z):
    x = mp.cbrt(z) if z != 0 else mp.mpc(0)
    w = mp.exp(2j * mp.pi / 3)
    return mp.rgamma(1 - x) * mp.rgamma(1 - w * x) * mp.rgamma(1 - w * w * x)


class DirectProduct:
    """prod_{n <= N} (1 - z/a_n) times exp(-sum_j z^j zeta(j s, N+1) / j)."""

    def __init__(self, rho, n=1 << 18, terms=6):
        self.s = 1.0 / rho
        self.a = np.arange(1, n + 1, dtype=np.float64) ** self.s
        self.zeta = [float(mp.zeta(j * self.s, n + 1)) for j in
                     range(1, terms + 1)]

    def __call__(self, z):
        z = complex(z)
        logp = complex(np.sum(np.log(1.0 - z / self.a)))
        logp -= sum(z ** j * c / j for j, c in enumerate(self.zeta, 1))
        return mp.mpc(np.exp(logp))


def count_by_phase(oracle, target, box, h_max):
    """Winding number of f - target around the box, by tracking arg(f - a)
    with steps that each move it by less than 0.5 rad (checked at the step's
    midpoint too)."""
    x0, y0, x1, y1 = box
    corners = [mp.mpc(x0, y0), mp.mpc(x1, y0), mp.mpc(x1, y1), mp.mpc(x0, y1)]
    a = mp.mpc(target)
    total = mp.mpf(0)
    z = corners[0]
    fz = oracle.f(z)
    for i in range(4):
        za, zb = corners[i], corners[(i + 1) % 4]
        length = abs(zb - za)
        unit = (zb - za) / length
        t = mp.mpf(0)
        h = mp.mpf(h_max)
        while t < length:
            h = min(h, length - t)
            zm = za + (t + h / 2) * unit
            z1 = zb if t + h >= length else za + (t + h) * unit
            fm = oracle.f(zm)
            f1 = oracle.f(z1)
            d1 = mp.arg((fm - a) / (fz - a))
            d2 = mp.arg((f1 - a) / (fm - a))
            if abs(d1) < 0.5 and abs(d2) < 0.5:
                total += d1 + d2
                t += h
                z, fz = z1, f1
                h = min(mp.mpf(h_max), h * 1.5)
            else:
                h /= 2
                if h < 1e-12:
                    raise RuntimeError(f"phase walk stalled near {zm}")
    raw = total / (2 * mp.pi)
    count = int(mp.nint(raw))
    if abs(raw - count) > 1e-6:
        raise RuntimeError(f"winding {raw} is not an integer")
    return count


def newton(f, fp, z, target, iters=12):
    for _ in range(iters):
        z = z - (f(z) - target) / fp(z)
    return z


# -- reference builds --------------------------------------------------------

def library_search(name, box):
    import sectorroots as sr
    from sectorroots import catalog, valuedist

    fname, target, _ = W.SEARCHES[name]
    if fname in ("ex1", "ex2"):
        F = catalog.example(int(fname[2:]))
        return sr.find_a_points(F, target, sr.Box(*box), tol=1e-9)
    P = valuedist.CanonicalProduct(W.RHO[fname], 64)
    return valuedist.find_product_a_points(P, target, sr.Box(*box))


def oracle_for(fname):
    """(closed form for the boundary walk, f, f' or None, walk step cap)."""
    if fname == "ex1":
        return Closed(ex1_f, 60), ex1_f, ex1_fp, 0.1
    if fname == "ex2":
        return Closed(ex2_closed, 120), ex2_quad, ex2_g, 0.05
    if fname == "rho=0.5":
        return Closed(rho_half, 30), rho_half, None, 1.0
    if fname == "rho=1/3":
        return Closed(rho_third, 30), rho_third, None, 1.0
    prod = DirectProduct(W.RHO[fname])
    return Closed(prod, 15), prod, None, 0.05


def build(name):
    fname, target, _ = W.SEARCHES[name]
    cover = W.cover_box(name)
    rho = W.RHO.get(fname)
    t0 = time.perf_counter()
    if name == "rho0.75-zeros":
        # the library cannot search this box (see workloads.SEARCHES); the
        # zeros of the product are exactly n^(1/rho)
        roots = [(n ** (1.0 / rho), 0.0, 1) for n in range(1, 64)
                 if cover[0] < n ** (1.0 / rho) < cover[2]]
        doc = {"name": name, "cover": cover, "roots": roots,
               "oracle": "exact zeros n^(1/rho)"}
        return doc
    result = library_search(name, cover)
    pts = [(rec.location, rec.multiplicity) for rec in result]
    walker, f, fp, h_max = oracle_for(fname)
    mp.mp.dps = 30
    worst_move = 0.0
    worst_res = 0.0
    for z, m in pts:
        if m != 1:
            raise RuntimeError(f"{name}: multiplicity {m} at {z}")
        if fname == "rho=0.75":
            res = abs(complex(f(z)) - target)
            worst_res = max(worst_res, res)
            if not res < W.RESIDUAL_MAX:
                raise RuntimeError(f"{name}: residual {res:.3e} at {z}")
            continue
        zs = newton(f, fp or (lambda w: mp.diff(f, w)), mp.mpc(z), target)
        move = abs(complex(zs) - z) / (1.0 + abs(z))
        res = abs(complex(f(zs) - target))
        worst_move = max(worst_move, move)
        if not (move < 1e-9 and res < 1e-20):
            raise RuntimeError(f"{name}: Newton moved {z} by {move:.3e} "
                               f"(residual {res:.3e})")
    for i, (z, _) in enumerate(pts):
        for w, _ in pts[i + 1:]:
            if abs(z - w) < 1e-6:
                raise RuntimeError(f"{name}: duplicate points {z}, {w}")
    if rho is not None and target == 0.0:
        exact = sorted(n ** (1.0 / rho) for n in range(1, 1000)
                       if cover[0] < n ** (1.0 / rho) < cover[2])
        got = sorted(z.real for z, _ in pts)
        if len(got) != len(exact) or any(
                abs(g - e) > 1e-9 * e for g, e in zip(got, exact)):
            raise RuntimeError(f"{name}: zeros {got} != exact {exact}")
    mp.mp.dps = walker.dps
    count = count_by_phase(walker, target, cover, h_max)
    mp.mp.dps = 15
    total = sum(m for _, m in pts)
    if count != total or count != result.winding_total:
        raise RuntimeError(f"{name}: oracle count {count}, list {total}, "
                           f"library winding {result.winding_total}")
    if result.searched != result.region:
        raise RuntimeError(f"{name}: covering box had to grow; pick another")
    roots = [(z.real, z.imag, m) for z, m in
             sorted(pts, key=lambda p: (abs(p[0]), math.atan2(p[0].imag,
                                                                p[0].real)))]
    return {"name": name, "cover": cover, "roots": roots,
            "oracle": {"count": count, "max_newton_move": worst_move,
                       "max_residual": worst_res,
                       "seconds": round(time.perf_counter() - t0, 1)}}


def main(argv):
    names = argv or list(W.SEARCHES)
    W.REFDIR.mkdir(exist_ok=True)
    for name in names:
        doc = build(name)
        path = W.REFDIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: {len(doc['roots'])} points, oracle {doc['oracle']}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
