import math

import pytest

from sicherman.counting import (
    MAX_COUNT_EXPONENT,
    check_triangular_identity,
    count_n_dice,
    count_two_dice_trinomial,
    count_unbounded,
    triangular,
)
from sicherman.cyclotomic import divisors
from sicherman.polyint import one_minus_x_product
from sicherman.solver import NotADivisor


def test_count_unbounded():
    assert [count_unbounded(k) for k in range(1, 6)] == [1, 3, 10, 35, 126]
    with pytest.raises(ValueError):
        count_unbounded(0)


def test_count_two_dice_trinomial():
    assert [count_two_dice_trinomial(k) for k in range(1, 6)] == [1, 3, 7, 19, 51]


def test_count_n_dice():
    assert [count_n_dice(2, k) for k in range(1, 6)] == [1, 3, 7, 19, 51]
    assert count_n_dice(1, 3) == 1
    with pytest.raises(ValueError):
        count_n_dice(0, 1)
    with pytest.raises(ValueError):
        count_n_dice(2, 0)


def test_ratio_updates_match_binomial_terms():
    # each term from scratch, with two binomials
    for n in range(1, 8):
        for k in range(1, 201):
            want = sum(
                (-1) ** j * math.comb(k, j) * math.comb(2 * k - 1 - j * (n + 1), k - 1)
                for j in range(k // (n + 1) + 1)
            )
            assert count_n_dice(n, k) == want, (n, k)


def test_inclusion_exclusion_matches_series_expansion():
    for n in range(1, 9):
        for k in range(1, 60):
            series = one_minus_x_product({1: -k, n + 1: k}, k)
            assert count_n_dice(n, k) == series[k], (n, k)


def test_trinomial_form_agrees_with_poly_power():
    for k in range(1, 13):
        assert count_n_dice(2, k) == count_two_dice_trinomial(k)


def test_trinomial_ratio_updates_match_count_n_dice():
    for k in range(1, 301):
        assert count_two_dice_trinomial(k) == count_n_dice(2, k), k
    assert count_two_dice_trinomial(10_000) == count_n_dice(2, 10_000)


def test_counts_refuse_an_exponent_above_the_maximum():
    assert MAX_COUNT_EXPONENT == 20_000
    for count in (
        count_unbounded, lambda k: count_n_dice(2, k), count_two_dice_trinomial
    ):
        with pytest.raises(ValueError, match="exponent must be at most 20000, got 20001"):
            count(20_001)
    assert count_unbounded(20_000) == math.comb(39_999, 19_999)
    assert count_two_dice_trinomial(20_000) == count_n_dice(2, 20_000)


def test_counts_name_the_value_they_refuse():
    for count in (
        count_unbounded, lambda k: count_n_dice(2, k), count_two_dice_trinomial
    ):
        for k in (0, -3):
            with pytest.raises(ValueError, match=f"^exponent must be positive, got {k}$"):
                count(k)
    for n in (0, -1):
        with pytest.raises(
            ValueError, match=f"^number of dice must be positive, got {n}$"
        ):
            count_n_dice(n, 3)


def test_unbounded_is_the_large_n_limit():
    for k in range(1, 8):
        assert count_n_dice(k, k) == count_unbounded(k)
        assert count_n_dice(k + 3, k) == count_unbounded(k)
        assert count_n_dice(10**6, k) == count_unbounded(k)
        if k > 1:
            assert count_n_dice(k - 1, k) < count_unbounded(k)


def test_triangular():
    assert [triangular(n) for n in range(6)] == [0, 1, 3, 6, 10, 15]
    with pytest.raises(ValueError):
        triangular(-1)


def test_triangular_square_identity():
    for n in range(1, 101):
        assert triangular(n) + triangular(n - 1) == n * n


def test_check_triangular_identity():
    for m in (6, 12, 35, 36):
        for a in divisors(m):
            assert check_triangular_identity(m, a)
    with pytest.raises(NotADivisor):
        check_triangular_identity(10, 4)
