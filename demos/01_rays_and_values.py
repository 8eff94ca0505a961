"""Critical rays and asymptotic values of the two built-in functions.

Both built-ins have the form f(z) = c + integral of p(t) exp(q(t)) from
0 to z. Along d = deg q equally spaced rays, exp(q) decays maximally and
f tends to a finite limit; this script prints those rays and limits, then
cross-checks the degree-2 function against its closed form

    f(z) = 1/2 + erf(z)/2 - z exp(-z^2) / sqrt(pi)

on the real axis, where math.erf applies.
"""

import math

from sectorroots import asymptotic_values, eval_f, example

for which in (1, 2):
    F = example(which)
    data = asymptotic_values(F, tol=1e-9)
    print(f"example {which}: deg q = {data.d}, arg A = "
          f"{math.atan2(data.A.imag, data.A.real):.6f}")
    for ray, value in zip(data.rays, data.values):
        print(f"  ray {ray:8.6f} rad -> limit {value.real:+.9f} "
              f"{value.imag:+.9f}i  (certified to {data.value_tol:.1e})")
    print()

print("closed-form cross-check for example 1 on the real axis:")
F1 = example(1)
for x in (0.25, 0.5, 1.0, 2.0, 4.0):
    got = eval_f(F1, complex(x))
    want = (0.5 + 0.5 * math.erf(x)
            - x * math.exp(-x * x) / math.sqrt(math.pi))
    print(f"  f({x:4.2f}) = {got.real:.15f}   closed form {want:.15f}   "
          f"diff {abs(got - want):.2e}")
