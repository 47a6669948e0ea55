# Period tables I(j), J(j) for l = 5 and l = 7, plus the regulator value.
from reglab.bigreal_periods import eval_IJ
from reglab.regulator import regulator_closed_form

for l in (5, 7):
    print(f"l = {l}")
    print(f"  {'j':>2}  {'I(j)':<22}  {'J(j)':<22}  N")
    pairs = [eval_IJ(l, j, p=128) for j in range(1, l)]
    for pair in pairs:
        print(f"  {pair.j:>2}  {pair.I.to_decimal(18):<22}  "
              f"{pair.J.to_decimal(18):<22}  {pair.N_used}")
    result = regulator_closed_form(pairs)
    print(f"  regulator e_ind   = {result.value_e_ind.to_decimal(18)}")
    print(f"  regulator e_ff    = {result.value_e_ff.to_decimal(18)}")
    print(f"  check V^2=l Id    = {result.det_agreement_digits} matching digits")
    print()

# the two magnitudes every run should reproduce
print("reference e_ind(5) = 0.346139631939354")
print("reference e_ind(7) = 0.629487860860584")
