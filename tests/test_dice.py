import copy
import os
import pickle
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_die_is_an_immutable_value():
    die = Die((3, 1, 2))
    assert die == Die([1, 2, 3]) == Die(labels=(2, 3, 1))
    assert die != Die((1, 2, 4)) and die != (1, 2, 3) and die != "1,2,3"
    assert hash(die) == hash(Die((1, 2, 3)))
    assert len({die, Die((1, 2, 3)), Die((1, 2, 4))}) == 2
    assert repr(die) == "Die(labels=(1, 2, 3))"
    with pytest.raises(AttributeError):
        die.labels = (4,)
    with pytest.raises(AttributeError):
        die.faces = 3
    assert die.labels == (1, 2, 3)
    assert copy.copy(die) == die == pickle.loads(pickle.dumps(die))


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


# Polynomials of dice: one face, repeated labels, a gap, and a high label.
DIE_POLYS = [
    IntPoly((0, 1)),
    IntPoly((0, 0, 0, 3)),
    IntPoly((0, 1, 2, 2, 1)),
    IntPoly((0, 1, 0, 0, 0, 0, 4, 0, 1)),
    IntPoly((0, 2, *[0] * 300, 1)),
]

# Each check reads a coefficient die and its label twin, as (got, want).
DIE_CHECKS = {
    "labels": lambda d, t: (d.labels, t.labels),
    "coeffs": lambda d, t: (d.coeffs, t.coeffs),
    "equal": lambda d, t: (d == t and t == d and not d != t, True),
    "equal to its coefficient twin": lambda d, t: (d == poly_to_die(die_to_poly(t)), True),
    "unequal": lambda d, t: (d == Die((*t.labels, 1)) or Die((1, *t.labels)) == d, False),
    "hash": lambda d, t: (hash(d), hash(t)),
    "repr": lambda d, t: (repr(d), repr(t)),
    "str": lambda d, t: (str(d), str(t)),
    "size": lambda d, t: (d.size, t.size),
    "to_text": lambda d, t: (d.to_text(), t.to_text()),
    "die_to_poly": lambda d, t: (die_to_poly(d), die_to_poly(t)),
    "copy": lambda d, t: (copy.copy(d), t),
    "deepcopy": lambda d, t: (copy.deepcopy(d), t),
    "pickle": lambda d, t: (pickle.dumps(d), pickle.dumps(t)),
    "unpickle": lambda d, t: (pickle.loads(pickle.dumps(d)), t),
    "histogram": lambda d, t: (sum_histogram([d, d]), sum_histogram([t, t])),
}


@pytest.mark.parametrize("labels_read", [False, True])
@pytest.mark.parametrize("poly", DIE_POLYS, ids=lambda p: str(p.degree))
def test_die_from_coefficients_behaves_as_die_from_labels(poly, labels_read):
    twin = Die([j for j, c in enumerate(poly.coeffs) for _ in range(c)])
    for name, check in DIE_CHECKS.items():
        # a fresh die for each check, so that without labels_read each one
        # runs on a die whose labels no earlier check has built
        die = poly_to_die(poly)
        if labels_read:
            die.labels
        got, want = check(die, twin)
        assert got == want and type(got) is type(want), name
    with pytest.raises(AttributeError):
        die.labels = (4,)


def test_dice_of_coefficients_compare_without_building_labels(label_builds):
    a, b = poly_to_die(IntPoly((0, 1, 2, 1))), poly_to_die(IntPoly((0, 1, 2, 1)))
    c = poly_to_die(IntPoly((0, 1, 1, 1, 1)))
    assert a == b and a != c and a.size == c.size == 4
    assert label_builds == []


def test_poly_to_die_keeps_its_error_messages():
    # poly_to_die and Die.from_coeffs give the same three messages, checked
    # in the same order
    for make in (poly_to_die, lambda poly: Die.from_coeffs(poly.coeffs)):
        with pytest.raises(NegativeCoefficient, match=r"^coefficient -1 at power 2$"):
            make(IntPoly((0, 1, -1, 2, -5)))
        with pytest.raises(NonzeroConstantTerm, match=r"^constant term must be 0$"):
            make(IntPoly((1, 1)))
        # the sign check comes first
        with pytest.raises(NegativeCoefficient, match=r"^coefficient -1 at power 0$"):
            make(IntPoly((-1, 1)))
        with pytest.raises(DieError, match=r"^a die needs at least one face$"):
            make(IntPoly(()))


def test_from_coeffs_checks_what_it_is_given():
    # trailing zeros are dropped, as IntPoly drops them
    die = Die.from_coeffs((0, 1, 0, 0))
    assert die == Die((1,)) and Die((1,)) == die
    assert die.coeffs == (0, 1) and die.labels == (1,) and die.size == 1
    assert Die.from_coeffs([0, 1, 2, 1, 0]) == poly_to_die(IntPoly((0, 1, 2, 1)))
    # a list given is copied, so changing it later leaves the die alone
    coeffs = [0, 2, 1]
    die = Die.from_coeffs(coeffs)
    coeffs[1] = 5
    assert die.coeffs == (0, 2, 1) and die.labels == (1, 1, 2)
    # the messages of raw coefficients, trailing zeros and all
    with pytest.raises(NegativeCoefficient, match=r"^coefficient -2 at power 3$"):
        Die.from_coeffs([0, 1, 0, -2, 0])
    with pytest.raises(NonzeroConstantTerm, match=r"^constant term must be 0$"):
        Die.from_coeffs([3, 1, 0])
    with pytest.raises(DieError, match=r"^a die needs at least one face$"):
        Die.from_coeffs([0, 0, 0])
    # counts are exact integers: no floats, even integral ones
    for bad in ([0, 1.0], [0.0, 1], [0, Fraction(1)]):
        with pytest.raises(TypeError):
            Die.from_coeffs(bad)


def test_a_die_with_a_huge_label_stays_cheap():
    # A die of labels builds no coefficient tuple, which here would hold
    # 10^9 + 1 entries: the checks run in a process limited to 1 GB, where
    # such a build raises MemoryError rather than filling the machine.
    code = """if True:
        from sicherman.dice import Die, sum_histogram
        die = Die((10**9, 1))
        assert die == Die((1, 10**9)) and die != Die((1, 2))
        assert die != Die.from_coeffs((0, 1, 1))
        assert hash(die) == hash(Die((1, 10**9)))
        assert die.size == 2 and die.labels == (1, 10**9)
        assert str(die) == die.to_text() == "1,1000000000"
        assert repr(die) == "Die(labels=(1, 1000000000))"
        assert sum_histogram([die, Die((1,))]).entries == ((2, 1), (10**9 + 1, 1))
        print("cheap")
    """

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        preexec_fn=limit_memory, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "cheap\n", "")
