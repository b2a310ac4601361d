"""Exact polynomial arithmetic, checked against a naive reference product."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sicherman.cyclotomic import cyclotomic
from sicherman.polyint import (
    DivisionByZero,
    IntPoly,
    NonExactDivision,
    NonInvertibleSeries,
    ONE,
    X,
    ZERO,
    first_negative,
    geometric,
    one_minus_x_pow,
    one_minus_x_product,
    truncated_series_product,
    x_pow_minus_one,
)


def ref_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    # dict-accumulation product over the nonzero terms, independent of the
    # library's convolution
    terms = [(j, cb) for j, cb in enumerate(b.coeffs) if cb]
    out = {}
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in terms:
                out[i + j] = out.get(i + j, 0) + ca * cb
    size = max(out) + 1 if out else 0
    return IntPoly([out.get(k, 0) for k in range(size)])


polys = st.builds(IntPoly, st.lists(st.integers(-6, 6), max_size=7))
# a few nonzero terms spread up to x^500: a product whose longer operand is
# one of these takes the sparse branch of the convolution
sparse_polys = st.dictionaries(
    st.integers(0, 500), st.integers(-6, 6).filter(bool), max_size=6
).map(lambda terms: IntPoly(terms.get(k, 0) for k in range(501)))


def test_canonical_form():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).is_zero
    assert IntPoly((0, 0)).is_zero
    assert ZERO.degree == -1
    assert X.degree == 1
    assert IntPoly((0, 0, 5)).degree == 2
    assert IntPoly((True, False)).coeffs == (1,)
    for coeffs in ((0.5,), (1, 2.9), (Fraction(3, 2),), ("1",)):
        with pytest.raises(TypeError):
            IntPoly(coeffs)


def test_getitem_out_of_range():
    p = IntPoly((1, 2))
    assert p[0] == 1 and p[1] == 2 and p[5] == 0 and p[-3] == 0


def test_immutable():
    with pytest.raises(AttributeError):
        X.coeffs = (9,)


def test_copy_and_pickle():
    # __setattr__ refuses every assignment, so both rebuild through __init__
    p = IntPoly((1, -2, 0, 3))
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.coeffs == (1, -2, 0, 3)
    assert pickle.loads(pickle.dumps(ZERO)) == ZERO


def test_add_sub():
    assert IntPoly((1, 1)) + IntPoly((-1, 1)) == IntPoly((0, 2))
    assert IntPoly((1, 1)) - IntPoly((1, 1)) == ZERO
    assert ZERO + X == X


def test_mul_examples():
    assert IntPoly((1, 1, 1)) * IntPoly((1, -1, 1)) == IntPoly((1, 0, 1, 0, 1))
    assert (geometric(6) * geometric(6))[5] == 6  # six ways to make power 5
    assert X * ZERO == ZERO
    assert 3 * X == IntPoly((0, 3))


def test_mul_large_coefficients_stay_exact():
    # coefficients far beyond 64 bits must come out exact
    big = IntPoly([2**40] * 8)
    assert big * big == ref_mul(big, big)
    assert (big * big)[7] == 8 * 2**80


def test_pow():
    assert (ONE + X) ** 5 == IntPoly((1, 5, 10, 10, 5, 1))
    assert X**0 == ONE
    with pytest.raises(ValueError):
        X ** (-1)


def test_div_exact_examples():
    assert x_pow_minus_one(6).div_exact(x_pow_minus_one(1)) == geometric(6)
    q = x_pow_minus_one(6).div_exact(x_pow_minus_one(2))
    assert q == IntPoly((1, 0, 1, 0, 1))
    assert ZERO.div_exact(X) == ZERO


def test_div_exact_errors():
    with pytest.raises(NonExactDivision):
        IntPoly((1, 0, 1)).div_exact(IntPoly((1, 1)))
    with pytest.raises(NonExactDivision):
        X.div_exact(IntPoly((0, 0, 1)))
    with pytest.raises(DivisionByZero):
        X.div_exact(ZERO)


def test_eval_at_one():
    assert geometric(6).eval_at_one() == 6
    assert IntPoly((1, 0, 0, 1, 0, 0, 1)).eval_at_one() == 3
    assert IntPoly((1, -1, 1)).eval_at_one() == 1
    assert ZERO.eval_at_one() == 0


def test_substitute_power():
    assert IntPoly((1, 1)).substitute_power(3) == IntPoly((1, 0, 0, 1))
    assert geometric(3).substitute_power(2) == IntPoly((1, 0, 1, 0, 1))
    p = IntPoly((2, 0, -1))
    assert p.substitute_power(1) == p
    with pytest.raises(ValueError):
        p.substitute_power(0)


def test_first_negative():
    assert IntPoly((1, 2, 1)).first_negative() is None
    assert IntPoly((1, 2, 1)).is_nonnegative
    assert ZERO.is_nonnegative
    assert one_minus_x_pow(1).first_negative() == (1, -1)
    assert IntPoly((0, 2, 0, -5, -7)).first_negative() == (3, -5)
    # the function reads any coefficient sequence, trailing zeros included
    assert first_negative([]) is None
    assert first_negative([1, 0, 0]) is None
    assert first_negative([1, 0, -2, 0, -1, 0]) == (2, -2)


def test_truncated_series_product_positive_exponents():
    out = truncated_series_product([(geometric(3), 2)], 3)
    assert out == IntPoly((1, 2, 3, 2))  # truncation drops x^4
    assert truncated_series_product([], 5) == ONE


def test_truncated_series_product_inversion():
    assert truncated_series_product([(one_minus_x_pow(1), -1)], 4) == geometric(5)
    # (1-x^2) / (1-x)^2 = (1+x)/(1-x)
    out = truncated_series_product(
        [(one_minus_x_pow(2), 1), (one_minus_x_pow(1), -2)], 4
    )
    assert out == IntPoly((1, 2, 2, 2, 2))
    # alternating sign constant term is fine
    out = truncated_series_product([(IntPoly((-1, 1)), -1)], 3)
    assert out == IntPoly((-1, -1, -1, -1))


def test_truncated_series_product_errors():
    with pytest.raises(NonInvertibleSeries):
        truncated_series_product([(X, -1)], 4)
    with pytest.raises(NonInvertibleSeries):
        truncated_series_product([(IntPoly((2, 1)), -1)], 4)
    with pytest.raises(ValueError):
        truncated_series_product([(ONE, 1)], -1)


def test_one_minus_x_product_examples():
    # exactly limit + 1 coefficients, trailing zeros kept
    assert one_minus_x_product({}, 0) == [1]
    assert one_minus_x_product({}, 3) == [1, 0, 0, 0]
    assert one_minus_x_product({1: -1}, 4) == [1, 1, 1, 1, 1]
    # (1-x^2) / (1-x)^2 = (1+x)/(1-x)
    assert one_minus_x_product({1: -2, 2: 1}, 4) == [1, 2, 2, 2, 2]
    # phi_6 = (1-x)(1-x^6) / ((1-x^2)(1-x^3)) is exact at its degree
    assert one_minus_x_product({1: 1, 2: -1, 3: -1, 6: 1}, 2) == [1, -1, 1]
    # factors beyond the limit are 1 as series
    assert one_minus_x_product({5: 3, 9: -2}, 4) == [1, 0, 0, 0, 0]


def test_one_minus_x_product_errors():
    with pytest.raises(ValueError):
        one_minus_x_product({1: 1}, -1)
    with pytest.raises(ValueError):
        one_minus_x_product({0: 1}, 4)


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import sicherman; "
        "sys.exit('numpy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr or "numpy was imported"


@given(polys | sparse_polys, polys | sparse_polys)
def test_mul_matches_reference(a, b):
    assert a * b == ref_mul(a, b)


def test_mul_sparse_tower():
    # phi_143(x^169) times phi_(13^3 * 11), of degree 20,280 with 71 nonzero
    # terms each: the identity battery's tower check at p = 13
    a = cyclotomic(13 * 11).substitute_power(13**2)
    b = cyclotomic(13**3 * 11)
    assert a * b == ref_mul(a, b)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_div_exact_roundtrip(a, b):
    if not b.is_zero:
        assert (a * b).div_exact(b) == a


@given(polys, polys)
def test_eval_at_one_is_multiplicative(a, b):
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


@given(polys, st.integers(1, 4), st.integers(1, 4))
def test_substitute_power_composes(p, s, t):
    assert p.substitute_power(s).substitute_power(t) == p.substitute_power(s * t)
    assert p.substitute_power(t).eval_at_one() == p.eval_at_one()


@given(st.lists(st.tuples(polys, st.integers(1, 3)), max_size=3), st.integers(0, 12))
def test_truncated_product_agrees_with_full_product(factors, limit):
    full = ONE
    for base, e in factors:
        full = full * base**e
    expected = IntPoly(full.coeffs[: limit + 1])
    assert truncated_series_product(factors, limit) == expected


# k and e span the net exponents of the solver's candidates at sizes up to 36,
# and k reaches past sqrt(limit + 1), where division works block by block.
@given(
    st.dictionaries(st.integers(1, 36), st.integers(-5, 5), max_size=9),
    st.integers(0, 64),
)
def test_one_minus_x_product_matches_series_product(exponents, limit):
    factors = [(one_minus_x_pow(k), e) for k, e in exponents.items()]
    series = one_minus_x_product(exponents, limit)
    assert len(series) == limit + 1
    assert IntPoly(series) == truncated_series_product(factors, limit)
