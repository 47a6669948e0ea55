"""Singular fiber inventory of 3y^2 + x^3 + (3x + 4t^l)^2 = 0 as l varies.

The fiber at t = 0 grows linearly in l, the fiber at infinity alternates
between IV* and IV with l mod 3, and the places over t^l = 1 stay nodal.
The Euler number identity 12 epsilon = sum of epsilon_s degrees makes
epsilon integral, which is rechecked here for every admissible l up to 35.
"""
import math

from reglab.weierstrass import euler_epsilon, example_family, fiber_list, hodge_and_dims

for l in [l for l in range(1, 36) if math.gcd(l, 6) == 1]:
    W = example_family(l)
    fibers = fiber_list(W)
    eps, a, dh10, dh01 = euler_epsilon(fibers)
    tags = ", ".join(
        f"{f.type}@{'inf' if f.place.is_infinity else f.place.polynomial}"
        for f in fibers)
    dims = hodge_and_dims(l)
    assert eps == (l - 1) // 3 + 1
    assert dims["h20"] == eps - 1
    print(f"l={l:>2}  eps={eps:>2}  a={a}  h20={dims['h20']:>2}  "
          f"h11={dims['h11']:>3}  h={dims['h']:>2}  [{tags}]")
