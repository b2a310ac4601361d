"""Exact dense integer polynomial arithmetic.

A polynomial is stored as a tuple of coefficients indexed by power, so
``(0, 1, 2)`` is ``x + 2x^2``.  The canonical form has no trailing zeros and
the zero polynomial is the empty tuple.  All arithmetic is exact Python
integer arithmetic: one convolution serves every product, adding a shifted
copy of the longer operand per term of the shorter, or, when fewer than one
in eight coefficients of the longer operand is nonzero (the towers
phi_n(x^k) of the identity battery), adding term by term.
`one_minus_x_product` expands products of (1 - x^k)^e by stride recurrences
and returns exactly `limit + 1` coefficients as a list, trailing zeros kept.

Values are immutable, so every operation is a pure function and instances are
safe to share across threads.
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import add, index, sub
from typing import Iterable, Mapping, Optional, Sequence


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
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_convolve(self.coeffs, other.coeffs))

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
        for j, c in enumerate(self.coeffs):
            out[j * t] = c
        return IntPoly(out)

    def first_negative(self) -> Optional[tuple[int, int]]:
        """The smallest power with a negative coefficient, as (power, value)."""
        return first_negative(self.coeffs)

    @property
    def is_nonnegative(self) -> bool:
        return self.first_negative() is None


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


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    n = len(b)
    out = [0] * (len(a) + n - 1)
    if 8 * (n - b.count(0)) < n:
        # Few nonzero terms: adding each one costs less than a slice of b.
        terms = [(j, b[j]) for j in compress(range(n), b)]
        for i, c in enumerate(a):
            if c:
                for j, d in terms:
                    out[i + j] += c * d
        return out
    for i, c in enumerate(a):
        if c:
            row = b if c == 1 else [c * d for d in b]
            out[i : i + n] = map(add, out[i : i + n], row)
    return out


def one_minus_x_product(exponents: Mapping[int, int], limit: int) -> list[int]:
    """The coefficients of x^0 .. x^limit of prod((1 - x^k)^e) over {k: e}:
    exactly limit + 1 of them, trailing zeros kept.

    Multiplying by 1 - x^k subtracts a copy shifted by k.  Dividing by it
    makes out[i] += out[i - k] in increasing i: a running sum along each
    residue class mod k when there are few classes, else one slice addition
    per block of k terms.  The result is exact when the product is a
    polynomial of degree at most `limit`.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    n = limit + 1
    out = [1] + [0] * limit
    for k, e in exponents.items():
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if k >= n:
            continue  # 1 - x^k is 1 below x^n
        for _ in range(abs(e)):
            if e > 0:
                out[k:] = map(sub, out[k:], out[: n - k])
            elif k * k <= n:
                for r in range(k):
                    out[r::k] = accumulate(out[r::k])
            else:
                for j in range(k, n, k):
                    out[j : j + k] = map(add, out[j : j + k], out[j - k : j])
    return out


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
    return IntPoly(result)
