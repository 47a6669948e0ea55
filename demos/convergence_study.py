# How fast the period series converge, and what the certificate loop does.
#
# c = exp(-2 pi / sqrt 3) is about 0.0266, but the coefficients a_n and b_n
# grow geometrically, about as 0.163^-n: a(q)^3 vanishes at q = -0.163, and
# c is 0.163^2.  So the terms shrink by a ratio of about c / 0.163 = 0.163,
# and each extra term buys about -log10(0.163) = 0.79 digits, not
# -log10(c) = 1.575.  The evaluator picks a truncation N from the digit
# target, then certifies by comparing checkpoints 16 terms apart and retries
# if needed, so the N used below runs past that rate: 154 digits at N = 231
# is about 0.67 digits per term.
import time

from reglab.bigreal import nstr
from reglab.bigreal_periods import eval_IJ

print(" bits   digits   N used   I(1) at l = 5")
for p in (64, 128, 256, 512):
    start = time.time()
    pair = eval_IJ(5, 1, p)
    dt = time.time() - start
    print(f" {p:>4}   {pair.I.agreement_certificate:>6}   {pair.N_used:>6}   "
          f"{pair.I.to_decimal(min(40, pair.I.agreement_certificate))}  ({dt:.2f}s)")

# agreement between precisions confirms the certificates are conservative;
# both values are exact at w bits, and their relative gap is floored there
w = 1024
lo = eval_IJ(5, 1, 128).I.fixed(w)
hi = eval_IJ(5, 1, 512).I.fixed(w)
print(f"relative gap between 128-bit and 512-bit runs: "
      f"{nstr((abs(lo - hi) << w) // hi, -w, 3)}")
