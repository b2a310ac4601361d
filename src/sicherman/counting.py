"""Closed-form counts of sum-preserving relabelings, and triangular numbers.

The counts here are for dice whose sizes are prime powers, where every
exponent split survives, so counting splits is pure combinatorics.  The
triangular-number identity explains the face counts that appear in the
divisor decomposition of `solver.decompose`.
"""

from __future__ import annotations

import math

from .solver import check_divisor, decompose


def count_unbounded(k: int) -> int:
    """Splits of k cyclotomic factor pairs with no per-slot bound.

    Equals C(2k-1, k-1); the first values are 1, 3, 10, 35, 126.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return math.comb(2 * k - 1, k - 1)


def count_n_dice(n: int, k: int) -> int:
    """Splits of k factor pairs among n dice: [x^k] (1 + x + ... + x^n)^k.

    That power is (1 - x^(n+1))^k / (1 - x)^k.  The j-th term of the
    numerator, (-1)^j C(k, j) x^(j(n+1)), meets [x^(k - j(n+1))] of
    1 / (1 - x)^k, which is C(2k - 1 - j(n+1), k - 1), so only the
    k/(n+1) + 1 terms with j(n+1) <= k count.  For n >= k the bound never
    binds and this equals `count_unbounded(k)`.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    return sum(
        (-1) ** j * math.comb(k, j) * math.comb(2 * k - 1 - j * (n + 1), k - 1)
        for j in range(k // (n + 1) + 1)
    )


def count_two_dice_trinomial(k: int) -> int:
    """Central trinomial form of `count_n_dice(2, k)`.

    Sum over i of C(k, i) * C(k-i, i); the first values are 1, 3, 7, 19, 51.
    This counts the distinct dice of size p^k with standard pair sums.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return sum(math.comb(k, i) * math.comb(k - i, i) for i in range(k // 2 + 1))


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n * (n + 1) // 2


def check_triangular_identity(m: int, a: int) -> bool:
    """Verify m^2 == a^2 * (T_b + T_(b-1)) with b = m // a, two ways.

    Arithmetically, and structurally on the large die of `decompose(m, a)`:
    sorted by label, its first a*b face multiplicities sum to a*T_b and the
    remaining a*(b-1) sum to a*T_(b-1).
    """
    check_divisor(m, a)
    b = m // a
    if m * m != a * a * (triangular(b) + triangular(b - 1)):
        return False
    big = decompose(m, a).right.poly
    counts = [c for c in big.coeffs if c]
    head, tail = counts[: a * b], counts[a * b :]
    return (
        len(tail) == a * (b - 1)
        and sum(head) == a * triangular(b)
        and sum(tail) == a * triangular(b - 1)
    )
