"""Closed-form counts of sum-preserving relabelings, and triangular numbers.

The counts here are for dice whose sizes are prime powers, where every
exponent split survives, so counting splits is pure combinatorics.  The
triangular-number identity explains the face counts that appear in the
divisor decomposition of `solver.decompose`.
"""

from __future__ import annotations

import math

from .solver import check_divisor, decompose

# The cost of a count grows faster than k: each of the k/(n+1) terms of
# `count_n_dice` is a big-integer update of about k digits, so k = 100000
# took 6-8 s (n = 2 and 3, in process, 2 vCPU, CPython 3.11).  At this bound
# a count takes about 0.35 s (n = 1), 0.2 s (n = 2 and 3) and 0.03 s (no
# bound on n), so a larger exponent is refused rather than left to run.
MAX_COUNT_EXPONENT = 20_000


def _check_exponent(k: int) -> None:
    if k > MAX_COUNT_EXPONENT:
        raise ValueError(f"exponent must be at most {MAX_COUNT_EXPONENT}, got {k}")


def count_unbounded(k: int) -> int:
    """Splits of k cyclotomic factor pairs with no per-slot bound.

    Equals C(2k-1, k-1); the first values are 1, 3, 10, 35, 126.  k runs
    from 1 to MAX_COUNT_EXPONENT.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_exponent(k)
    return math.comb(2 * k - 1, k - 1)


def count_n_dice(n: int, k: int) -> int:
    """Splits of k factor pairs among n dice: [x^k] (1 + x + ... + x^n)^k.

    That power is (1 - x^(n+1))^k / (1 - x)^k.  The j-th term of the
    numerator, (-1)^j C(k, j) x^(j(n+1)), meets [x^(k - j(n+1))] of
    1 / (1 - x)^k, which is C(2k - 1 - j(n+1), k - 1), so only the
    k/(n+1) + 1 terms with j(n+1) <= k count.  For n >= k the bound never
    binds and this equals `count_unbounded(k)`.

    Each term's magnitude comes from the one before by an exact integer
    ratio: C(k, j) gains (k - j + 1) / j, and the second binomial, whose top
    N drops by n + 1, gains perm(N - k + 1, n + 1) / perm(N, n + 1).  k runs
    from 1 to MAX_COUNT_EXPONENT.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    _check_exponent(k)
    step = n + 1
    top = 2 * k - 1
    term = total = math.comb(top, k - 1)
    for j in range(1, k // step + 1):
        term = (
            term
            * (k - j + 1)
            * math.perm(top - k + 1, step)
            // (j * math.perm(top, step))
        )
        top -= step
        total += -term if j % 2 else term
    return total


def count_two_dice_trinomial(k: int) -> int:
    """Central trinomial form of `count_n_dice(2, k)`.

    Sum over i of C(k, i) * C(k-i, i); the first values are 1, 3, 7, 19, 51.
    This counts the distinct dice of size p^k with standard pair sums.  The
    i-th term is k! / (i!^2 (k-2i)!), so each comes from the one before by
    the exact ratio (k-2i)(k-2i-1) / (i+1)^2.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    term = total = 1
    for i in range(k // 2):
        term = term * (k - 2 * i) * (k - 2 * i - 1) // (i + 1) ** 2
        total += term
    return total


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
