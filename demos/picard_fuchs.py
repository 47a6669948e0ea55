# Gauss-Manin connection and Picard-Fuchs operator for the example family.
#
# Everything here is exact rational-function arithmetic; no floats appear.
from fractions import Fraction

from reglab.gauss_manin import connection_matrix, picard_fuchs, pf_apply, pf_relation
from reglab.weierstrass import example_family

for l in (1, 5, 7):
    W = example_family(l)
    conn = connection_matrix(W)
    print(f"l = {l}: {W.label}")
    print(f"  nabla omega-hat -> omega* coefficient: {conn.omega_hat_to_star}")
    print(f"  trace: {conn.trace()}")
    pf = picard_fuchs(W)
    print(f"  A  = {pf.A}")
    print(f"  B  = {pf.B}")
    print()

# the monomial relations that force the period recurrence
pf5 = picard_fuchs(example_family(5))
for m in range(1, 5):
    rel = pf_relation(pf5, m) * Fraction(15, 2)
    print(f"(3l/2) PF(t^{m} omega*) = {rel}")

# applying the operator to a constant lands on B
print(f"PF(1) = {pf_apply(pf5, 1)}  (equals B)")
