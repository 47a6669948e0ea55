"""Regulator determinants for the first few admissible l.

The determinant is evaluated from one period table per l, with k = (l+1)/2,
through its Laplace expansion along the J column,
I(1)...I(k-2) |det V| (J(k-1) I(k) + J(k) I(k-1)), V the period-free
(k-1) x (k-1) sine block.  V^2 = l Id, so |det V| = l^((l-1)/4) and the
determinant is the closed form
l^((l-1)/4) I(1)...I(k) (J(k-1)/I(k-1) + J(k)/I(k)).
Its magnitude is printed with the number of digits to which the sine block
passes the check V^2 = l Id.
Only l = 5 and l = 7 have independently confirmed normalizations; the rest
follow the generalized formula.
"""
from reglab.bigreal_periods import eval_IJ
from reglab.regulator import regulator_closed_form, vandermonde_like_det

tables = {l: [eval_IJ(l, j, p=128) for j in range(1, l)] for l in (5, 7, 11, 13)}
for l, table in tables.items():
    r = regulator_closed_form(table)
    flag = "" if r.normalization_verified else "  (normalization unverified)"
    print(f"l = {l}")
    print(f"  det (closed)    = {r.det_closed_form.to_decimal(20)}")
    print(f"  check V^2=l Id  = {r.det_agreement_digits} digits")
    print(f"  e_ind           = {r.value_e_ind.to_decimal(20)}{flag}")

print()
# the cyclotomic block squares to l^((l-1)/2) exactly
for l in (3, 5, 7, 9, 11):
    v = vandermonde_like_det(l, p=128)
    print(f"|det(zeta^pq - zeta^-pq)|^2 at l={l:>2}: "
          f"{v.to_decimal(18)}^2 = {l}^{(l - 1) // 2}")
