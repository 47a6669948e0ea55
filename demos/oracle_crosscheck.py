# Two independent routes to the same period magnitudes.
#
# Route 1 expands the periods in a q-series with exact rational coefficients
# and sums it at c = exp(-2 pi / sqrt 3).  Route 2 never sees a q-series: it
# finds the three real roots of x^3 + 9x^2 + 24 t^l x + 16 t^(2l), reduces
# each arch to Carlson's R_F, and integrates over t by dyadic panels.
import time

from reglab.bigreal import nstr
from reglab.bigreal_periods import eval_IJ, series_periods
from reglab.elliptic_oracle import cubic_roots, direct_periods, inner_integrals

print("roots and arches at l = 5, t = 0.5")
roots = cubic_roots(5, 0.5, p=64)
print(f"  r1 = {roots.r1}")
print(f"  r2 = {roots.r2}")
print(f"  r3 = {roots.r3}")
inner = inner_integrals(5, 0.5, p=64)
print(f"  delta arch = {inner.delta_inner}")
print(f"  gamma arch = {inner.gamma_inner}")
print()

# both values are exact at w bits, and each relative gap is floored there
w = 256
worst = 0
start = time.time()
print(" l  j   delta (series)      delta (quadrature)   rel")
for l in (5, 7):
    for j in range(1, l):
        series = series_periods(eval_IJ(l, j, p=128)).delta_period
        oracle = direct_periods(l, j, p=64).delta_abs
        diff = (abs(oracle.fixed(w) - series.fixed(w)) << w) // series.fixed(w)
        worst = max(worst, diff)
        print(f"{l:>2} {j:>2}   {nstr(series.man, series.exp, 15):<19}  "
              f"{nstr(oracle.man, oracle.exp, 15):<19}  {nstr(diff, -w, 2)}")
print(f"worst relative difference {nstr(worst, -w, 3)} "
      f"in {time.time() - start:.1f}s")
