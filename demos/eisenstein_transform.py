# Numerical check of the weight-3 transformation law 27 E3b(-1/(3z)) = 3 sqrt(3) i z^3 E3a(z)
# on the imaginary axis, where everything is real.
from reglab.bigreal import constants, nstr
from reglab.exact_series import eisenstein_numeric, eisenstein_transform_residual

for y, n in ((0.5, 300), (1, 80), (2, 200)):
    res = eisenstein_transform_residual(complex(0, y), N=n, p=128)
    print(f"residual at z = {y}i (N = {n:>3}): {res.to_decimal(3)}"
          f"  ({res.agreement_certificate} certified digits)")

# z = i/sqrt(3) is the fixed point of z -> -1/(3z); there the law collapses
# to the exact identity E3a(c) = 27 E3b(c) with c = exp(-2 pi / sqrt 3)
c = constants(160).c
e3a = eisenstein_numeric("E3a", c, N=96, p=160)
e3b = eisenstein_numeric("E3b", c, N=96, p=160)
print(f"c            = {nstr(c.man, c.exp, 20)}")
print(f"E3a(c)       = {e3a.to_decimal(20)}")
print(f"27 E3b(c)    = {nstr(27 * e3b.man, e3b.exp, 20)}")
# t = E3a / (E3a + 27 E3b), floored at w bits
w = 192
a, b = e3a.fixed(w), 27 * e3b.fixed(w)
print(f"t-series(c)  = {nstr((a << w) // (a + b), -w, 20)}  (exactly 1/2 in the limit)")
