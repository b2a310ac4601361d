"""
Cyclotomic polynomials by two independent routes
================================================

Everything in this package leans on integer-exact cyclotomic polynomials,
so they are computed two unrelated ways and cross-checked, along with a
battery of classical identities that the solver's correctness arguments
rest on.
"""

from sicherman import cyclotomic, cyclotomic_by_division, mobius
from sicherman.cli import main
from sicherman.polyint import x_pow_minus_one

# Route one: the Mobius-inversion product.  phi_n is a product and quotient
# of binomials x^d - 1 over the divisors d of n, steered by the Mobius
# function mu(n/d).
print("mu(1..12):", [mobius(n) for n in range(1, 13)])
for n in (1, 2, 3, 4, 6, 12):
    print(f"phi_{n} =", cyclotomic(n).coeffs)

# Route two: peel proper-divisor factors off x^n - 1 by exact division.
# These two implementations share no code, so their agreement is a real
# check rather than a tautology.
for n in (12, 30, 105):
    assert cyclotomic(n) == cyclotomic_by_division(n)
print("\nMobius product and recursive division agree for n = 12, 30, 105")

# The most famous consequence: multiplying phi_d over all divisors of n
# rebuilds x^n - 1 exactly.
product = cyclotomic(1)
for d in (1, 2, 3, 5, 6, 10, 15, 30):
    product = product * cyclotomic(d) if d > 1 else product
print("product over divisors of 30 equals x^30 - 1:",
      product == x_pow_minus_one(30))

# A first surprise: coefficients are not always 0 or +-1.  The smallest
# example is phi_105, whose x^7 coefficient is -2.
print("phi_105 coefficient of x^7:", cyclotomic(105)[7])

# The full identity battery runs every instance of eight classical facts
# (plus two product identities) up to a bound, with per-identity counts.
# The command line prints its table; exit code 0 means every check passed.
print()
code = main(["identities", "--bound", "30"])
print("\nall identities passed:", code == 0)
