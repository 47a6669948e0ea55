# Numerical check of the weight-3 transformation law 27 E3b(-1/(3z)) = 3 sqrt(3) i z^3 E3a(z)
# on the imaginary axis, where everything is real.
from mpmath import mp

from reglab.bigreal import constants
from reglab.exact_series import eisenstein_numeric, eisenstein_transform_residual

for y, n in ((0.5, 300), (1, 80), (2, 200)):
    res = eisenstein_transform_residual(mp.mpc(0, y), N=n, p=128)
    print(f"residual at z = {y}i (N = {n:>3}): {res.to_decimal(3)}"
          f"  ({res.agreement_certificate} certified digits)")

# z = i/sqrt(3) is the fixed point of z -> -1/(3z); there the law collapses
# to the exact identity E3a(c) = 27 E3b(c) with c = exp(-2 pi / sqrt 3)
with mp.workprec(192):
    c = constants(160).c.value
    e3a = eisenstein_numeric("E3a", c, N=96, p=160)
    e3b = eisenstein_numeric("E3b", c, N=96, p=160)
    print(f"c            = {mp.nstr(c, 20)}")
    print(f"E3a(c)       = {e3a.to_decimal(20)}")
    print(f"27 E3b(c)    = {mp.nstr(27 * e3b.value, 20)}")
    t_val = e3a.value / (e3a.value + 27 * e3b.value)
    print(f"t-series(c)  = {mp.nstr(t_val, 20)}  (exactly 1/2 in the limit)")
