# How fast the period series converge, and what the certificate loop does.
#
# c = exp(-2 pi / sqrt 3) is about 0.0266, so each extra term buys roughly
# -log10(c) = 1.575 digits before the n^(1/3)-ish coefficient growth eats
# into it.  The evaluator picks a truncation N from the digit target, then
# certifies by comparing checkpoints 16 terms apart and retries if needed.
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
