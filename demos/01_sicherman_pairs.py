"""
The classic six-sided relabeling
================================

Two ordinary dice roll a 7 more often than any other sum.  The only other
pair of six-sided dice with positive integer labels and the exact same sum
distribution is {1,2,2,3,3,4} and {1,3,4,5,6,8}.  This script finds it
from scratch and shows the generating-function bookkeeping behind it.
"""

from sicherman import (
    Die,
    cyclotomic,
    die_to_poly,
    enumerate_pairs,
    frequency_poly,
    sum_histogram,
)

# A die is just a sorted multiset of positive labels.  Encoding a die as the
# polynomial sum of x^label turns "roll two dice and add" into "multiply two
# polynomials": the coefficient of x^s counts the ways to roll s.
standard = Die.standard(6)
print("standard die:", standard)
print("as a polynomial:", die_to_poly(standard).coeffs)

# Two standard dice together give the frequency polynomial.  Its coefficients
# (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1) are the familiar staircase of ways to
# roll 2 through 12.
target = frequency_poly(6, 6)
print("\nfrequency polynomial coefficients:", target.coeffs)

# Over the integers that polynomial factors into cyclotomic polynomials:
# x^2 * phi_2^2 * phi_3^2 * phi_6^2.  Any pair of dice with the same sums
# must split those factors between the two dice, and there are very few
# legal ways to do it.
for d in (2, 3, 6):
    print(f"phi_{d} =", cyclotomic(d).coeffs)

# The solver enumerates every legal split and converts the survivors back
# into labels.
print()
for pair in enumerate_pairs(6):
    print("pair:", pair.left.die, "|", pair.right.die)

# Check the nonstandard pair the honest way, by listing all 36 rolls.
sicherman = [Die((1, 2, 2, 3, 3, 4)), Die((1, 3, 4, 5, 6, 8))]
print("\nsum counts (relabeled):", sum_histogram(sicherman).as_dict())
print("sum counts (standard): ", sum_histogram([standard, standard]).as_dict())
print("equal:", sum_histogram(sicherman) == sum_histogram([standard, standard]))
