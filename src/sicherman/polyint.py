"""Exact dense integer polynomial arithmetic.

A polynomial is stored as a tuple of coefficients indexed by power, so
``(0, 1, 2)`` is ``x + 2x^2``.  The canonical form has no trailing zeros and
the zero polynomial is the empty tuple.  All arithmetic is exact Python
integer arithmetic.  One convolution serves every product: it takes out the
common stride g of both operands' exponents, so that the towers phi_n(x^k)
of the identity battery, sparse as they are, multiply as small dense
polynomials in x^g, and then evaluates each operand at a power of two
(Kronecker substitution) so that one big-integer product holds every
coefficient of the result as a signed digit.  That format, fixed-width
little-endian digits whose top bit marks a sign or an overflow, is written
by `pack_digits`, read by `unpack_digits` and masked by `_top_bits`, and
by no other code; `_digit_width` gives the width of 1, 2, 4 or 8 bytes
that one `struct` call packs, or more.  They serve `_convolve` and
`one_minus_x_product` here, the solver's prefix mask (`_prefix_survivors`)
and right-side rule (`_right_side_rule`), and the oracle's search tables
(`brute_force_pairs`).  The mask and the oracle take the fewest bytes that
hold their digits, unrounded, since that width sets the cost of every
product or search step.
`one_minus_x_product` expands products of (1 - x^k)^e as one packed integer
in Z mod B^(limit + 1), by shifts and adds of its digits, and returns exactly
`limit + 1` coefficients as a list, trailing zeros kept.

Values are immutable, so every operation is a pure function and instances are
safe to share across threads.
"""

from __future__ import annotations

import struct
import sys
from itertools import compress
from math import comb, gcd
from operator import index
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class PolyError(Exception):
    """Base class for polynomial arithmetic errors."""


class DivisionByZero(PolyError):
    pass


class NonExactDivision(PolyError):
    """Raised when a quotient would leave ZZ[x]."""


class NonInvertibleSeries(PolyError):
    """Raised when a series inverse does not exist over the integers."""


class IntPoly:
    """Immutable dense polynomial over the integers.

    >>> IntPoly((1, 2, 1)) * IntPoly((1, -1))
    IntPoly('1 + x - x^2 - x^3')
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return IntPoly, (self.coeffs,)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __iter__(self) -> Iterator[int]:
        # without it, iteration would run on through __getitem__'s zeros
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPoly('0')"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and mag != 1:
                term = f"{mag}{term}"
            elif i == 0:
                term = str(mag)
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        text = text[2:] if text.startswith("+ ") else "-" + text[2:]
        return f"IntPoly('{text}')"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return _of_ints([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return _of_ints(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def div_exact(self, divisor: IntPoly) -> IntPoly:
        """Return q with q * divisor == self, or raise NonExactDivision.

        >>> IntPoly((-1, 0, 0, 0, 0, 0, 1)).div_exact(IntPoly((-1, 1)))
        IntPoly('1 + x + x^2 + x^3 + x^4 + x^5')
        """
        if divisor.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        if self.degree < divisor.degree:
            raise NonExactDivision(f"{self!r} is not divisible by {divisor!r}")
        rem = list(self.coeffs)
        db = divisor.degree
        lead = divisor.coeffs[-1]
        lower = [(j, c) for j, c in enumerate(divisor.coeffs[:-1]) if c]
        quot = [0] * (len(rem) - db)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db]
            if c == 0:
                continue
            t, r = divmod(c, lead)
            if r:
                raise NonExactDivision(f"{self!r} is not divisible by {divisor!r}")
            quot[i] = t
            rem[i + db] = 0
            for j, bc in lower:
                rem[i + j] -= t * bc
        if any(rem):
            raise NonExactDivision(f"{self!r} is not divisible by {divisor!r}")
        return IntPoly(quot)

    # -- queries -----------------------------------------------------------

    def eval_at_one(self) -> int:
        """Sum of coefficients, i.e. the value at x=1."""
        return sum(self.coeffs)

    def substitute_power(self, t: int) -> IntPoly:
        """Map x to x^t, spreading coefficient j to power j*t."""
        if t < 1:
            raise ValueError("t must be a positive integer")
        if t == 1 or self.is_zero:
            return self
        out = [0] * (self.degree * t + 1)
        out[::t] = self.coeffs
        return _of_ints(out)

    def first_negative(self) -> Optional[tuple[int, int]]:
        """The smallest power with a negative coefficient, as (power, value)."""
        return first_negative(self.coeffs)

    @property
    def is_nonnegative(self) -> bool:
        return self.first_negative() is None


def _of_ints(cs: list[int]) -> IntPoly:
    """The IntPoly of a list of ints, which it takes over: trailing zeros
    are stripped, but the coefficients skip `__init__`'s `index()` pass."""
    while cs and cs[-1] == 0:
        cs.pop()
    poly = object.__new__(IntPoly)
    object.__setattr__(poly, "coeffs", tuple(cs))
    return poly


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))


def x_pow_minus_one(n: int) -> IntPoly:
    """x^n - 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


def one_minus_x_pow(n: int) -> IntPoly:
    """1 - x^n."""
    return -x_pow_minus_one(n)


def geometric(n: int) -> IntPoly:
    """1 + x + ... + x^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return IntPoly((1,) * n)


def first_negative(coeffs: Iterable[int]) -> Optional[tuple[int, int]]:
    """The first negative coefficient of a sequence, as (power, value)."""
    for j, c in enumerate(coeffs):
        if c < 0:
            return (j, c)
    return None


# The signed `struct` format of each digit width, in bytes, that one call
# packs or reads; the unsigned format is its upper case.
_DIGIT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _top_bits(n: int, width: int) -> int:
    """The top bit of each of n digits of `width` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def pack_digits(coeffs: Sequence[int], width: int, signed: bool = False) -> int:
    """sum(c * 2^(8 * width * i)) over the coefficients c, lowest first.

    Each coefficient must fit a digit of `width` bytes: at least 0 and below
    2^(8 * width), or with `signed`, at least -2^(8 * width - 1) and below
    2^(8 * width - 1).  A width of 1, 2, 4 or 8 bytes is packed by one
    `struct.pack` call in its standard size; any other width, one `to_bytes`
    per coefficient.
    """
    code = _DIGIT_FORMATS.get(width)
    if code is None:
        data = b"".join([c.to_bytes(width, "little", signed=signed) for c in coeffs])
    else:
        data = struct.pack(f"<{len(coeffs)}{code if signed else code.upper()}", *coeffs)
    value = int.from_bytes(data, "little")
    if signed:
        # A negative c was written as c + 2^(8 * width), which sets its top
        # bit: take each such borrow back off.
        value -= (value & _top_bits(len(coeffs), width)) << 1
    return value


def unpack_digits(value: int, n: int, width: int, signed: bool = False) -> list[int]:
    """The n digits of `width` bytes of value, lowest first, as
    `pack_digits` packs them.

    Unsigned, it raises OverflowError if value is negative or needs more
    than n digits.  Signed, every digit of value must lie in the signed
    range; adding the top bit of each digit then leaves every digit
    nonnegative, and flipping that bit back gives its two's complement.
    """
    if signed:
        top = _top_bits(n, width)
        value = (value + top) ^ top
    code = _DIGIT_FORMATS.get(width)
    if code is None:
        data = value.to_bytes(n * width, "little")
        return [
            int.from_bytes(data[i : i + width], "little", signed=signed)
            for i in range(0, n * width, width)
        ]
    data = value.to_bytes(n * width, sys.byteorder)
    digits = memoryview(data).cast(code if signed else code.upper()).tolist()
    return digits if sys.byteorder == "little" else digits[::-1]


def _digit_width(bits: int) -> int:
    """The bytes of a digit of at least `bits` bits: 1, 2, 4 or 8, which one
    `struct` call packs and one cast reads, else as many as it takes.  A
    signed digit that holds every integer of absolute value at most bound
    takes bound.bit_length() + 1 bits."""
    width = (bits + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The len(a) + len(b) - 1 coefficients of the product of a and b, or
    none if either is empty; trailing zeros kept."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    # Every nonzero term of both lies at a multiple of g, so the product is
    # that of a(x^(1/g)) and b(x^(1/g)) at x^g.  A constant has no stride of
    # its own (gcd 0), and two constants none at all.  The one call gathers
    # both operands' exponents in a list and so builds its argument tuple at
    # its exact size.  From a lone iterator CPython builds it by resizing,
    # and each resized tuple of under 20 items stays on its tuple free list:
    # that grew a long cli-mix run by megabytes.
    g = gcd(*compress(range(len(a)), a), *compress(range(len(b)), b)) or 1
    if g > 1:
        a, b = a[::g], b[::g]
    # |[x^i] ab| <= sum over j of |a_j| |b_(i-j)|, at most l1(a) max|b| and
    # max|a| l1(b).  Digits of `width` bytes hold that bound and a sign bit,
    # and so, unless one operand is all zeros, every coefficient of either.
    bound = min(
        sum(map(abs, a)) * max(map(abs, b)), max(map(abs, a)) * sum(map(abs, b))
    )
    if not bound:
        return [0] * n
    width = _digit_width(bound.bit_length() + 1)
    m = len(a) + len(b) - 1
    product = pack_digits(a, width, True) * pack_digits(b, width, True)
    digits = unpack_digits(product, m, width, True)
    if g == 1:
        return digits
    out = [0] * n
    out[: m * g : g] = digits
    return out


def one_minus_x_product(exponents: Mapping[int, int], limit: int) -> list[int]:
    """The coefficients of x^0 .. x^limit of prod((1 - x^k)^e) over {k: e}:
    exactly limit + 1 of them, trailing zeros kept.

    Evaluating at x = B = 2^(8 * width) maps Z[x] mod x^n, n = limit + 1,
    onto Z mod B^n as a ring, so the truncated product is computed there as
    one packed integer.  Multiplying by 1 - x^k subtracts a copy shifted by
    k digits.  Dividing by it multiplies by 1 + x^(k * 2^i) for each
    k * 2^i < n, one shifted addition each, since 1/(1 - x^k) is the
    product of every such factor and the rest are 1 below x^n.  A factor
    with k >= n is 1 below x^n too.  The result is exact when the product
    is a polynomial of degree at most `limit`.

    Every step is exact in Z mod B^n, so only the result's coefficients
    need to fit: its digits are read back as signed, which is exact when
    every coefficient and a sign bit fit a digit.  Split the product into
    P, the factors with e > 0, and N, those with e < 0, both truncated.
    Every coefficient of N is nonnegative: 1/(1 - x^k)^m has
    C(j + m - 1, m - 1) at x^(jk), so its coefficients up to x^limit sum
    to C(limit // k + m, m), and those of N sum to at most the product of
    these.  The coefficients of P have absolute values summing to at most
    2^(sum of e > 0).  So by the triangle inequality no coefficient of PN
    exceeds that power of two times the product of binomials in absolute
    value.  `unpack_digits` reads digits of 1, 2, 4 or 8 bytes by one cast,
    and wider ones one by one.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    n = limit + 1
    minus = []  # each k of a factor 1 - x^k
    plus = []  # each k * 2^i of a factor 1 + x^(k * 2^i)
    bound = 1
    for k, e in exponents.items():
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if k < n and e > 0:
            minus += [k] * e
            bound <<= e
        elif k < n and e < 0:
            plus += [k << i for i in range((limit // k).bit_length())] * -e
            bound *= comb(limit // k - e, -e)
    width = _digit_width(bound.bit_length() + 1)
    digit = 8 * width
    mask = (1 << digit * n) - 1
    packed = 1
    for k in minus:
        packed = (packed - (packed << digit * k)) & mask
    for k in plus:
        packed = (packed + (packed << digit * k)) & mask
    # Signed digits that fit make a value in (-B^n / 2, B^n / 2), so the top
    # bit is set exactly when the value at x = B is negative.
    if packed >> (digit * n - 1):
        packed -= 1 << digit * n
    return unpack_digits(packed, n, width, True)


def _series_inverse(base: IntPoly, limit: int) -> list[int]:
    c = base.coeffs
    if not c or c[0] == 0:
        raise NonInvertibleSeries("series inverse needs a nonzero constant term")
    if c[0] not in (1, -1):
        raise NonInvertibleSeries(
            "integer series inverse needs constant term 1 or -1"
        )
    c0 = c[0]
    inv = [0] * (limit + 1)
    inv[0] = c0
    for n in range(1, limit + 1):
        acc = 0
        for i in range(1, min(n, len(c) - 1) + 1):
            acc += c[i] * inv[n - i]
        inv[n] = -acc * c0
    return inv


def truncated_series_product(
    factors: Iterable[tuple[IntPoly, int]], limit: int
) -> IntPoly:
    """Expand prod(base^exponent) as a power series, truncated at `limit`.

    Negative exponents are expanded by inverting the base as a formal series,
    which requires a constant term of 1 or -1.  With all exponents positive
    this agrees with plain multiplication followed by truncation.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    result = [1]
    for base, exponent in factors:
        if exponent == 0:
            continue
        if exponent > 0:
            coeffs: Sequence[int] = base.coeffs
        else:
            coeffs = _series_inverse(base, limit)
        for _ in range(abs(exponent)):
            result = _convolve(result, coeffs[: limit + 1])[: limit + 1]
            if not result:
                break
    return _of_ints(result)
