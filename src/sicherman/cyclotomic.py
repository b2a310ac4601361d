"""Cyclotomic polynomials and the small number theory they need.

Two independent constructions are provided: `CyclotomicCache.get` builds
phi_n from the Mobius-product formula, while `cyclotomic_by_division`
recursively divides x^n - 1 by the phi_d of proper divisors.  Agreement of
the two routes is part of the test suite, and `check_identity_suite` runs a
battery of classical and product identities over a parameter range: one
table of identities, each a name and the cases it generates in order, which
one loop counts and reports with the first failing case.

`cyclotomic` reads the one table of the process, and `mobius_exponents` is
the one statement of the Mobius rule, which the solver's net exponents use
too.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations
from math import prod
from typing import Iterator, NamedTuple, Optional

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
            net = dict(mobius_exponents(n))
            phi = IntPoly(one_minus_x_product(net, euler_totient(n)))
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


class IdentityCheck(NamedTuple):
    name: str
    cases: int = 0
    passed: bool = True
    counterexample: Optional[str] = None


class IdentityReport(NamedTuple):
    bound: int
    checks: list[IdentityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _prime_powers(p: int, m: int, bound: int) -> Iterator[tuple[int, int]]:
    """(k, p^k) for k = 1, 2, ... while p^k * m <= bound."""
    k, pk = 1, p
    while pk * m <= bound:
        yield k, pk
        k, pk = k + 1, pk * p


def _value_at_one(n: int) -> int:
    """p when n is a power of the prime p, else 1."""
    factors = prime_factors(n)
    return next(iter(factors)) if len(factors) == 1 else 1


def _tower_cases(primes: list[int]) -> Iterator[tuple[bool, str]]:
    """The running product phi_q phi_pq ... phi_{p^k q} against phi_q at
    x^(p^k), for k = 0 .. 3."""
    for p, q in permutations(primes, 2):
        running = ONE
        for k in range(4):
            running = running * cyclotomic(p**k * q)
            holds = running == cyclotomic(q).substitute_power(p**k)
            yield holds, f"p={p},q={q},k={k}"


# The battery's cost grows about threefold to fivefold each time `bound`
# doubles: 0.2 s at 240, 0.55 s at 480 and 2.7 s at 1000 (`identities` in
# one fresh process each, 2 vCPU, CPython 3.11.7), so a larger bound is
# refused rather than left to run for minutes.
MAX_IDENTITY_BOUND = 1000


def check_identity_suite(bound: int) -> IdentityReport:
    """Verify the cyclotomic identity battery for parameters up to `bound`.

    `bound` runs from 2 to MAX_IDENTITY_BOUND.  The battery is a table of
    identities, each a name and its cases in order, a case being whether
    it holds and a detail naming its parameters; each check counts its
    cases and keeps the first failing detail.  The two product identities
    at the end use fixed prime ranges (up to 13 with tower exponent up to
    3, and up to 11) independent of `bound`, since their cost is driven by
    prime size rather than the main sweep.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > MAX_IDENTITY_BOUND:
        raise ValueError(f"bound must be at most {MAX_IDENTITY_BOUND}, got {bound}")
    phi, xm1 = cyclotomic, x_pow_minus_one  # phi_n and x^n - 1
    ns = range(1, bound + 1)
    primes = [p for p in ns if is_prime(p)]
    battery = [
        ("x^n - 1 equals the product of phi_d over d | n", (
            (prod(map(phi, divisors(n)), start=ONE) == xm1(n), f"n={n}") for n in ns
        )),
        ("Mobius product agrees with recursive division", (
            (phi(n) == cyclotomic_by_division(n), f"n={n}") for n in ns
        )),
        ("phi_p is 1 + x + ... + x^(p-1)", (
            (phi(p) == IntPoly((1,) * p), f"p={p}") for p in primes
        )),
        ("phi_{p^k m} equals phi_{pm} at x^(p^(k-1))", (
            (phi(pk * m) == phi(p * m).substitute_power(pk // p), f"p={p},k={k},m={m}")
            for p in primes for m in range(1, bound // p + 1) if m % p
            for k, pk in _prime_powers(p, m, bound)
        )),
        ("phi_m * phi_pm equals phi_m at x^p", (
            (phi(m) * phi(p * m) == phi(m).substitute_power(p), f"p={p},m={m}")
            for p in primes for m in range(1, bound // p + 1) if m % p
        )),
        ("phi_n(1) is p for prime powers and 1 otherwise", (
            (phi(n).eval_at_one() == _value_at_one(n), f"n={n}") for n in ns[1:]
        )),
        ("closed form for phi_{p^k q} as a ratio", (
            (phi(pk * q) * xm1(pk) * xm1(pk // p * q) == xm1(pk // p) * xm1(pk * q),
             f"p={p},k={k},q={q}")
            for p, q in permutations(primes, 2) for k, pk in _prime_powers(p, q, bound)
        )),
        ("closed form for phi_{pqr} as a ratio", (
            (phi(p * q * r) * xm1(1) * xm1(p * q) * xm1(p * r) * xm1(q * r)
             == xm1(p * q * r) * xm1(p) * xm1(q) * xm1(r), f"p={p},q={q},r={r}")
            for p, q, r in combinations(primes, 3) if p * q * r <= bound
        )),
        ("prod of phi_{p^i q} for i<=k equals phi_q at x^(p^k)",
         _tower_cases([p for p in primes if p <= 13])),
        ("phi_p phi_pq phi_pr phi_pqr equals phi_p at x^(qr)", (
            (phi(p) * phi(p * q) * phi(p * r) * phi(p * q * r)
             == phi(p).substitute_power(q * r), f"p={p},q={q},r={r}")
            for p, q, r in permutations([p for p in primes if p <= 11], 3)
        )),
    ]
    checks = []
    for name, cases in battery:
        outcomes = list(cases)
        failure = next((detail for holds, detail in outcomes if not holds), None)
        checks.append(IdentityCheck(name, len(outcomes), failure is None, failure))
    return IdentityReport(bound, checks)
