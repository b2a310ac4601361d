from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sicherman.dice import (
    Die,
    DieError,
    NegativeCoefficient,
    NonzeroConstantTerm,
    SumHistogram,
    die_to_poly,
    poly_to_die,
    sum_histogram,
)
from sicherman.polyint import IntPoly, ONE


def test_die_sorts_labels():
    assert Die((3, 1, 2, 1)).labels == (1, 1, 2, 3)
    assert Die.standard(4).labels == (1, 2, 3, 4)
    assert Die((5,)).size == 1


def test_die_validation():
    with pytest.raises(DieError):
        Die(())
    with pytest.raises(DieError):
        Die((0, 1))
    with pytest.raises(DieError):
        Die((-2,))
    with pytest.raises(DieError, match="die size must be positive, got 0"):
        Die.standard(0)
    for labels in ((1.7, 2.2), (1, 2.0), (Fraction(3, 1),), ("1",)):
        with pytest.raises(TypeError):
            Die(labels)


def test_die_text_roundtrip():
    die = Die.from_text("1,3,4,5,6,8")
    assert die.labels == (1, 3, 4, 5, 6, 8)
    assert die.to_text() == "1,3,4,5,6,8"
    assert str(Die((2, 1))) == "1,2"
    with pytest.raises(DieError):
        Die.from_text("1,two,3")


def test_die_to_poly():
    assert die_to_poly(Die((1, 2, 2, 3))) == IntPoly((0, 1, 2, 1))
    assert die_to_poly(Die.standard(3)) == IntPoly((0, 1, 1, 1))


def test_poly_to_die():
    assert poly_to_die(IntPoly((0, 1, 2, 1))) == Die((1, 2, 2, 3))
    with pytest.raises(NegativeCoefficient):
        poly_to_die(IntPoly((0, 1, -1, 2)))
    with pytest.raises(NonzeroConstantTerm):
        poly_to_die(ONE)


def test_sum_histogram_two_standard():
    hist = sum_histogram([Die.standard(6), Die.standard(6)])
    assert hist.as_dict() == {
        2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 5, 9: 4, 10: 3, 11: 2, 12: 1,
    }
    assert hist.total == 36


def test_sum_histogram_single_die():
    hist = sum_histogram([Die((1, 2, 2, 3))])
    assert hist == SumHistogram(((1, 1), (2, 2), (3, 1)))


def test_sum_histogram_needs_dice():
    with pytest.raises(DieError):
        sum_histogram([])


def test_sicherman_histogram_matches_standard():
    pair = [Die.from_text("1,2,2,3,3,4"), Die.from_text("1,3,4,5,6,8")]
    standard = [Die.standard(6), Die.standard(6)]
    assert sum_histogram(pair) == sum_histogram(standard)


dies = st.lists(st.integers(1, 10), min_size=1, max_size=6).map(lambda v: Die(tuple(v)))


@given(dies)
def test_poly_roundtrip(die):
    assert poly_to_die(die_to_poly(die)) == die
    assert die_to_poly(die).eval_at_one() == die.size


@given(st.lists(dies, min_size=1, max_size=3))
def test_enumeration_agrees_with_convolution(dice):
    # face enumeration and polynomial products count the same sums
    product = ONE
    for die in dice:
        product = product * die_to_poly(die)
    counts = {j: c for j, c in enumerate(product.coeffs) if c}
    assert sum_histogram(dice).as_dict() == counts
