"""Cyclotomic polynomials and the small number theory they need.

Two independent constructions are provided: `CyclotomicCache.get` builds
phi_n from the Mobius-product formula, while `cyclotomic_by_division`
recursively divides x^n - 1 by the phi_d of proper divisors.  Agreement of
the two routes is part of the test suite, and `check_identity_suite` runs a
battery of classical and product identities over a parameter range.

`cyclotomic` reads the one table of the process, and `mobius_exponents` is
the one statement of the Mobius rule, which the solver's net exponents use
too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from .polyint import IntPoly, ONE, one_minus_x_product, x_pow_minus_one


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}.

    >>> prime_factors(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == {n: 1}


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in prime_factors(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    """The Mobius function: 0 unless n is squarefree, else (-1)^#primes."""
    factors = prime_factors(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_totient(n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    t = n
    for p in prime_factors(n):
        t -= t // p
    return t


@functools.lru_cache(maxsize=None)
def mobius_exponents(n: int) -> tuple[tuple[int, int], ...]:
    """(k, mobius(n // k)) for the divisors k of n where it is nonzero.

    phi_n is the product over these of (x^k - 1)^mobius(n/k), and for n > 1
    the signs cancel, leaving (1 - x^k)^mobius(n/k).

    >>> mobius_exponents(12)
    ((2, 1), (4, -1), (6, -1), (12, 1))
    """
    return tuple((k, mu) for k in divisors(n) if (mu := mobius(n // k)))


class CyclotomicCache:
    """Memoized cyclotomic polynomials via the Mobius product
    (`mobius_exponents`).  `cyclotomic` reads the one table of the process.
    """

    def __init__(self):
        self._table: dict[int, IntPoly] = {}

    def get(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("n must be a positive integer")
        phi = self._table.get(n)
        if phi is None:
            phi = one_minus_x_product(dict(mobius_exponents(n)), euler_totient(n))
            if n == 1:
                phi = -phi  # phi_1 = x - 1 = -(1 - x)
            if phi.degree != euler_totient(n):
                raise AssertionError(f"phi_{n} has wrong degree {phi.degree}")
            if n >= 2 and phi.coeffs[-1] != 1:
                raise AssertionError(f"phi_{n} is not monic")
            self._table[n] = phi
        return phi


_shared_cache = CyclotomicCache()


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.

    >>> cyclotomic(6)
    IntPoly('1 - x + x^2')
    """
    return _shared_cache.get(n)


def cyclotomic_by_division(n: int) -> IntPoly:
    """phi_n computed by stripping phi_d of proper divisors from x^n - 1.

    Independent of `CyclotomicCache.get`; used to cross-check it.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    table: dict[int, IntPoly] = {}
    for k in divisors(n):
        poly = x_pow_minus_one(k)
        for d in divisors(k):
            if d < k:
                poly = poly.div_exact(table[d])
        table[k] = poly
    return table[n]


@dataclass
class IdentityCheck:
    name: str
    cases: int = 0
    passed: bool = True
    counterexample: Optional[str] = None

    def record(self, ok: bool, detail: str) -> None:
        self.cases += 1
        if not ok and self.passed:
            self.passed = False
            self.counterexample = detail


@dataclass
class IdentityReport:
    bound: int
    checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


# The battery's cost grows about threefold to sevenfold each time `bound`
# doubles: 0.2-0.3 s at 240, 0.8 s at 480 and 5-7 s at 1000 (the first run
# in a process, 2 vCPU, CPython 3.11), so a larger bound is refused rather
# than left to run for minutes.
MAX_IDENTITY_BOUND = 1000


def check_identity_suite(bound: int) -> IdentityReport:
    """Verify the cyclotomic identity battery for parameters up to `bound`.

    `bound` runs from 2 to MAX_IDENTITY_BOUND.  The two product identities
    at the end use fixed prime ranges (up to 13 with tower exponent up to 3,
    and up to 11) independent of `bound`, since their cost is driven by
    prime size rather than the main sweep.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > MAX_IDENTITY_BOUND:
        raise ValueError(f"bound must be at most {MAX_IDENTITY_BOUND}, got {bound}")
    phi = cyclotomic
    report = IdentityReport(bound=bound)
    primes = _primes_up_to(bound)

    factor_xn = IdentityCheck("x^n - 1 equals the product of phi_d over d | n")
    for n in range(1, bound + 1):
        prod = ONE
        for d in divisors(n):
            prod = prod * phi(d)
        factor_xn.record(prod == x_pow_minus_one(n), f"n={n}")
    report.checks.append(factor_xn)

    two_routes = IdentityCheck("Mobius product agrees with recursive division")
    for n in range(1, bound + 1):
        two_routes.record(phi(n) == cyclotomic_by_division(n), f"n={n}")
    report.checks.append(two_routes)

    prime_geo = IdentityCheck("phi_p is 1 + x + ... + x^(p-1)")
    for p in primes:
        expected = IntPoly((1,) * p)
        prime_geo.record(phi(p) == expected, f"p={p}")
    report.checks.append(prime_geo)

    lift = IdentityCheck("phi_{p^k m} equals phi_{pm} at x^(p^(k-1))")
    for p in primes:
        for m in range(1, bound + 1):
            if m % p == 0:
                continue
            k = 1
            while p**k * m <= bound:
                lhs = phi(p**k * m)
                rhs = phi(p * m).substitute_power(p ** (k - 1))
                lift.record(lhs == rhs, f"p={p},k={k},m={m}")
                k += 1
    report.checks.append(lift)

    coprime_step = IdentityCheck("phi_m * phi_pm equals phi_m at x^p")
    for p in primes:
        for m in range(1, bound + 1):
            if m % p == 0 or p * m > bound:
                continue
            lhs = phi(m) * phi(p * m)
            coprime_step.record(lhs == phi(m).substitute_power(p), f"p={p},m={m}")
    report.checks.append(coprime_step)

    at_one = IdentityCheck("phi_n(1) is p for prime powers and 1 otherwise")
    for n in range(2, bound + 1):
        factors = prime_factors(n)
        expected = next(iter(factors)) if len(factors) == 1 else 1
        at_one.record(phi(n).eval_at_one() == expected, f"n={n}")
    report.checks.append(at_one)

    two_prime = IdentityCheck("closed form for phi_{p^k q} as a ratio")
    for p in primes:
        for q in primes:
            if p == q:
                continue
            k = 1
            while p**k * q <= bound:
                pk = p**k
                lhs = phi(pk * q) * x_pow_minus_one(pk) * x_pow_minus_one(pk // p * q)
                rhs = x_pow_minus_one(pk // p) * x_pow_minus_one(pk * q)
                two_prime.record(lhs == rhs, f"p={p},k={k},q={q}")
                k += 1
    report.checks.append(two_prime)

    three_prime = IdentityCheck("closed form for phi_{pqr} as a ratio")
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for r in primes:
                if r <= q or p * q * r > bound:
                    continue
                lhs = phi(p * q * r)
                for a, b in ((1, 1), (p, q), (p, r), (q, r)):
                    lhs = lhs * x_pow_minus_one(a * b)
                rhs = x_pow_minus_one(p * q * r)
                for t in (p, q, r):
                    rhs = rhs * x_pow_minus_one(t)
                three_prime.record(lhs == rhs, f"p={p},q={q},r={r}")
    report.checks.append(three_prime)

    tower = IdentityCheck("prod of phi_{p^i q} for i<=k equals phi_q at x^(p^k)")
    for p in _primes_up_to(min(bound, 13)):
        for q in _primes_up_to(min(bound, 13)):
            if p == q:
                continue
            prod = ONE
            for k in range(4):
                prod = prod * phi(p**k * q)
                tower.record(
                    prod == phi(q).substitute_power(p**k), f"p={p},q={q},k={k}"
                )
    report.checks.append(tower)

    fan = IdentityCheck("phi_p phi_pq phi_pr phi_pqr equals phi_p at x^(qr)")
    small = _primes_up_to(min(bound, 11))
    for p in small:
        for q in small:
            for r in small:
                if len({p, q, r}) < 3:
                    continue
                prod = phi(p) * phi(p * q) * phi(p * r) * phi(p * q * r)
                fan.record(
                    prod == phi(p).substitute_power(q * r), f"p={p},q={q},r={r}"
                )
    report.checks.append(fan)

    return report
