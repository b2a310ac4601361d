import importlib

import pytest

from sicherman.cli import main
from sicherman.cyclotomic import (
    CyclotomicCache,
    check_identity_suite,
    cyclotomic,
    cyclotomic_by_division,
    divisors,
    euler_totient,
    is_prime,
    mobius,
    prime_factors,
)
from sicherman.polyint import (
    IntPoly,
    ONE,
    geometric,
    one_minus_x_product,
    x_pow_minus_one,
)

# the package's `cyclotomic` attribute is the function of that name
cyclotomic_module = importlib.import_module("sicherman.cyclotomic")


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(97) == {97: 1}
    with pytest.raises(ValueError):
        prime_factors(0)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_mobius():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in values.items():
        assert mobius(n) == mu


def test_euler_totient():
    values = {1: 1, 2: 1, 6: 2, 12: 4, 36: 12, 97: 96, 100: 40}
    for n, t in values.items():
        assert euler_totient(n) == t


def test_small_cyclotomics():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(5) == geometric(5)
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(9) == IntPoly((1, 0, 0, 1, 0, 0, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))


def test_cyclotomic_coefficients_can_exceed_one():
    # the first index with a coefficient of magnitude 2
    assert cyclotomic(105)[7] == -2


def test_ratio_construction_instance():
    # phi_12 = (x^2-1)(x^12-1) / ((x^4-1)(x^6-1))
    num = x_pow_minus_one(2) * x_pow_minus_one(12)
    phi = num.div_exact(x_pow_minus_one(4)).div_exact(x_pow_minus_one(6))
    assert phi == cyclotomic(12)


def test_by_division_matches_cache():
    for n in range(1, 201):
        assert cyclotomic(n) == cyclotomic_by_division(n)


def test_degree_and_monic():
    cache = CyclotomicCache()
    for n in range(2, 120):
        phi = cache.get(n)
        assert phi.degree == euler_totient(n)
        assert phi.coeffs[-1] == 1


def test_divides_x_n_minus_one():
    for n in (2, 6, 12, 30, 97):
        q = x_pow_minus_one(n).div_exact(cyclotomic(n))
        assert q * cyclotomic(n) == x_pow_minus_one(n)


def test_value_at_one():
    for n in range(2, 101):
        f = prime_factors(n)
        expected = next(iter(f)) if len(f) == 1 else 1
        assert cyclotomic(n).eval_at_one() == expected


def test_cache_is_reused():
    cache = CyclotomicCache()
    assert cache.get(30) is cache.get(30)


def test_tower_product_instance():
    # phi_3 * phi_6 * phi_12 = phi_3 evaluated at x^4
    prod = cyclotomic(3) * cyclotomic(6) * cyclotomic(12)
    assert prod == cyclotomic(3).substitute_power(4)


def test_fan_product_instance():
    prod = ONE
    for n in (2, 6, 10, 30):
        prod = prod * cyclotomic(n)
    assert prod == cyclotomic(2).substitute_power(15)


def test_identity_suite_passes():
    report = check_identity_suite(12)
    assert report.all_passed
    assert len(report.checks) == 10
    by_name = {c.name: c for c in report.checks}
    assert by_name["x^n - 1 equals the product of phi_d over d | n"].cases == 12
    # the fixed-prime product checks run even when bound is small
    assert by_name["prod of phi_{p^i q} for i<=k equals phi_q at x^(p^k)"].cases > 0
    # every identity's case count, in battery order
    counts = {
        2: [2, 2, 1, 1, 1, 1, 0, 0, 0, 0],
        12: [12, 12, 5, 14, 10, 11, 5, 0, 80, 60],
        30: [30, 30, 10, 43, 32, 29, 19, 1, 120, 60],
    }
    for bound, cases in counts.items():
        report = check_identity_suite(bound)
        assert report.all_passed
        assert [c.cases for c in report.checks] == cases
    # from 13 up the tower check multiplies polynomials of degree about
    # 20,000 whose exponents share the stride 13
    assert check_identity_suite(13).all_passed


def test_identity_suite_reads_the_shared_table(monkeypatch):
    # a second battery in one process expands no phi again
    check_identity_suite(30)
    limits = []

    def recording(exponents, limit):
        limits.append(limit)
        return one_minus_x_product(exponents, limit)

    monkeypatch.setattr(cyclotomic_module, "one_minus_x_product", recording)
    assert check_identity_suite(30).all_passed
    assert limits == []


def test_identity_suite_reports_the_first_failure(monkeypatch, capsys):
    # a referee that is wrong at n = 6 and n = 10 fails the two-routes check
    # at the first of them, and only that check
    by_division = cyclotomic_module.cyclotomic_by_division

    def wrong_at_6_and_10(n):
        return by_division(n) + ONE if n in (6, 10) else by_division(n)

    monkeypatch.setattr(
        cyclotomic_module, "cyclotomic_by_division", wrong_at_6_and_10
    )
    report = check_identity_suite(12)
    assert not report.all_passed
    name = "Mobius product agrees with recursive division"
    failed = [
        (c.name, c.cases, c.passed, c.counterexample)
        for c in report.checks
        if not c.passed
    ]
    assert failed == [(name, 12, False, "n=6")]

    assert main(["identities", "--bound", "12"]) == 1
    assert f"{name}: 12 cases, FAIL at n=6\n" in capsys.readouterr().out
    assert main(["identities", "--bound", "12", "--format", "json"]) == 1
    assert '"status": "fail"' in capsys.readouterr().out


def test_identity_suite_rejects_tiny_bound():
    with pytest.raises(ValueError):
        check_identity_suite(1)
