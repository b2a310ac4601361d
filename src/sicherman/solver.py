"""Enumerate relabeled dice whose sums behave like standard dice.

Two standard m-sided dice have frequency polynomial
x^2 * prod(phi_d^2 for d | m, d > 1), so any relabeling that preserves the
sum frequencies corresponds to a way of splitting the cyclotomic factors
between the two dice.  Each candidate split is an exponent vector; a split
survives when both sides expand with nonnegative coefficients.  The same
machinery handles mixed standard sizes and prescribed unequal face counts,
since only the multiset of cyclotomic factors and the per-side face-count
targets change.

Since phi_d = prod over k | d of (1 - x^k)^mobius(d/k) for d > 1, every side
is also x * prod((1 - x^k)^E_k) with net exponents E_k (`net_exponents`), and
is expanded that way.  The search loop carries each side of a split as one
row: its net exponents followed by its exponent vector.  Both are linear
in the split, so sums and differences of rows keep the two parts in step,
and no exponent vector is ever found from net exponents.

The choices that make up a split fall into two halves, heads and tails.  A
split's left net exponents are a head's plus a tail's, and its right ones
are what the head leaves of its half's whole multiplicities plus what the
tail leaves of its half's, so each side's body is the product of a head
series and a tail series.  Each head's and each tail's two series are
expanded once (`_prefix_pairs`): the left one as far as any split's first
expansion step needs, below, and the right one as far as the mask reads.
Up to x^L, where L is PREFILTER_DEGREE or less for small dice, every split
is decided at once (`_prefix_survivors`): each tail's two series are read
to x^L and packed as one slot of 2L + 1 digits, and each head takes one
big-integer product per side (Kronecker substitution).  The digit width
comes from a bound proven by the triangle inequality (`_product_bound`),
with a bias that leaves a digit's top bit set exactly when its
coefficient is nonnegative.  Since -E_1 is the linear coefficient and L is
at least 1, this rejects every split with E_1 > 0 on either side.  When
both dice have the same face count, a split and its complement give the
same unordered pair, and the complement of split (head i, tail j) is split
(H - 1 - i, T - 1 - j) of the H heads and T tails (`_halves`).  So the
mask takes only the first half of the heads, and of a middle head only
the first half of the tails, and each split that passes is visited as
whichever of it and its complement has the smaller row.  Only the splits
that pass go on to the full rule for the left side and a right-side rule,
below.

One rule, `_expand_side`, decides the left side of every split that passes
the prefix and every side in `certify`, and builds both dice of
`decompose`.  A side body is a product of palindromic phi_d, d > 1, so its
lower half decides it and determines the rest: that half is expanded to
twice PREFILTER_DEGREE, past what the prefix decides, then to twice the
last limit, until a coefficient is negative (the witness) or half the
degree is reached.  A limit whose double would reach half the degree is
replaced by half itself, since the next expansion would repeat nearly all
of its work.  For a split's left side the first step costs no expansion:
its body is the product of a head's left series and a tail's, so its
coefficients up to the first limit are one packed product of the two, read
back as signed digits (`_first_step_rule`), and only a side that passes a
first limit below half its degree is expanded further.

The right side of a split whose left side L passes is found by one of two
rules (`_right_side_rule`), both packing polynomials as digits in a base
above the face count product F(1) of the frequency polynomial F.  While a
digit takes at most QUOTIENT_MAX_WIDTH bytes, the right side is the
quotient F / L, taken by one big-integer division.  L divides F in Z[x],
so the remainder is 0.  The split is kept when the quotient is
nonnegative, fits in deg F - deg L + 1 digits, and its digits times L(1)
sum to F(1).  Then no coefficient of L times the digits' polynomial
exceeds F(1), so that product packs with no carry and equals F: the
digits are exactly the right side's coefficients.  A nonnegative right
side always passes, since none of its coefficients exceeds F(1).  So each
split expands one side, not two, and needs no product check.  CPython
divides big integers in time quadratic in their length, though, so with
wider digits, which only sizes above 255 need, the division costs more
than an expansion, and many times more near MAX_ENUMERATION_SIZE.  There
the right side is expanded by `_expand_side` too, and a pair is kept only
if L(1) R(1) = F(1) and the packed product of L and R is packed F.

A surviving pair's exponent vectors are read off its two rows: the left
row is a head row plus a tail row, the right row is what the left leaves
of the problem's whole row, and each vector is the part of its row after
the net exponents.

A side is expanded and divided as a coefficient list, and each found die
is made from it (`Die.from_coeffs`); no side is an `IntPoly` unless a
caller reads `SolutionSide.poly`.  A die's labels are built only when a
caller reads them, so sides and pairs are ordered by coefficients.  Within
one problem every left die has one face count, and every right die one.
For two dice with the same face count, labels ascending is coefficients
descending: at the first power j where their coefficients differ, the die
with more j's has a j where the other has a larger label.  So a symmetric
pair puts the die with the larger coefficient tuple on the left, and pairs
sorted by coefficients in descending order come out sorted by labels.
`SolutionPair.sorted_sides` still compares labels: for dice of unequal
face counts the two orders can differ, since one die's labels can be a
prefix of the other's.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from math import gcd, prod
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .cyclotomic import cyclotomic, divisors, is_prime, mobius_exponents, prime_factors
from .dice import Die
from .polyint import (
    ONE,
    IntPoly,
    NonExactDivision,
    _convolve,
    _digit_width,
    _top_bits,
    first_negative,
    one_minus_x_pow,
    one_minus_x_product,
    pack_digits as _pack,
    truncated_series_product,
    unpack_digits,
)

DEFAULT_SEARCH_CAP = 10**6
# The last power the prefix mask decides.  A side's lower-half expansion
# starts at twice it, and each later limit doubles.
PREFILTER_DEGREE = 16


class SolverError(Exception):
    pass


class InvalidTargets(SolverError):
    """Face-count targets incompatible with the frequency polynomial."""


class NotADivisor(SolverError):
    pass


class UnsupportedShape(SolverError):
    """The paper's certificates only cover p^2*q and p*q*r."""


class SearchCapExceeded(SolverError):
    """More candidate vectors than the configured cap."""


class CertificateMissing(SolverError):
    """An expected negative coefficient could not be found."""


def _check_size(m: int) -> None:
    if m < 1:
        raise SolverError(f"die size must be positive, got {m}")


# The search cap counts splits, and a size with few splits has work that
# grows with the size alone.  Through the CLI with JSON output, the prime
# 49999 took 0.35 s, 49978 = 2 * 24989 0.6 s, 49983 = 3 * 16661 0.8 s and
# 24998 = 2 * 12499 1.6 s and 86 MB; before this bound, the prime 100003
# took 1.1 s and 1,000,003 was reported at 40 s and 361 MB (2 vCPU, CPython
# 3.11).  So the enumeration refuses a larger standard size or face count
# before it factors anything.
MAX_ENUMERATION_SIZE = 50_000


def _check_enumeration_size(n: int, what: str = "die size") -> None:
    if n > MAX_ENUMERATION_SIZE:
        raise SolverError(
            f"{what} {n} is more than the maximum of {MAX_ENUMERATION_SIZE}"
        )


def check_divisor(m: int, a: int) -> None:
    """Raise NotADivisor unless the split a is a positive divisor of m."""
    if a < 1:
        raise NotADivisor(f"split must be a positive divisor of {m}, got {a}")
    if m % a:
        raise NotADivisor(f"{a} does not divide {m}")


def frequency_poly(m1: int, m2: int) -> IntPoly:
    """Product of the generating polynomials of standard m1- and m2-sided
    dice: the sum s + 1 comes up in min(s, m1, m2, m1 + m2 - s) ways."""
    return IntPoly([0, 0, *[min(s, m1, m2, m1 + m2 - s) for s in range(1, m1 + m2)]])


class ExponentVector(NamedTuple):
    """Cyclotomic exponents of one die, as sorted (divisor, exponent) pairs.

    Every divisor that appears in the frequency polynomial is listed, so two
    vectors for the same problem always have the same key set.
    """

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> ExponentVector:
        return cls(tuple(sorted((int(d), int(c)) for d, c in mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def exponent(self, d: int) -> int:
        """The exponent of phi_d, 0 when d is not listed."""
        for key, c in self.entries:
            if key == d:
                return c
        return 0

    def complement(self, mults: dict[int, int]) -> ExponentVector:
        return ExponentVector.from_dict(
            {d: mults[d] - self.exponent(d) for d in mults}
        )


class SolutionSide(NamedTuple):
    """One die of a found pair, held as coefficients, and its vector."""

    die: Die
    vector: ExponentVector

    @property
    def poly(self) -> IntPoly:
        """The die's generating polynomial, built on each read."""
        return IntPoly(self.die.coeffs)


class SolutionPair(NamedTuple):
    left: SolutionSide
    right: SolutionSide

    @property
    def dice(self) -> tuple[Die, Die]:
        return (self.left.die, self.right.die)

    @property
    def labels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.left.die.labels, self.right.die.labels)

    def sorted_sides(self) -> SolutionPair:
        if self.left.die.labels <= self.right.die.labels:
            return self
        return SolutionPair(self.right, self.left)


def _divisor_mults(sizes: Iterable[int]) -> dict[int, int]:
    mults: dict[int, int] = {}
    for m in sizes:
        for d in divisors(m):
            if d > 1:
                mults[d] = mults.get(d, 0) + 1
    return mults


def _capped_compositions(total: int, caps: Sequence[int]) -> list[tuple[int, ...]]:
    if not caps:
        return [()] if total == 0 else []
    out = []
    for first in range(min(total, caps[0]), -1, -1):
        for rest in _capped_compositions(total - first, caps[1:]):
            out.append((first,) + rest)
    return out


def _composition_count(total: int, caps: Sequence[int]) -> int:
    """len(_capped_compositions(total, caps)), counted without building one."""
    ways = [1] + [0] * total  # ways[t]: compositions of t over the caps so far
    for cap in caps:
        for t in range(total, 0, -1):  # downward, so ways[:t] are still the last
            ways[t] = sum(ways[max(0, t - cap) : t + 1])
    return ways[total]


def _candidate_axes(
    mults: dict[int, int], left_size: int, search_cap: int
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The independent choices that make up every split with `left_size` faces.

    The left product evaluated at x=1 is the product of p^c over prime-power
    divisors p^j with exponent c, so for each prime the slot exponents must
    sum to the multiplicity of p in left_size.  Exponents of composite
    divisors are free up to their multiplicity in the problem.  Each axis is
    (divisors, options), and a split takes one option from every axis.  The
    splits are counted, and checked against `search_cap`, before any option
    is built.
    """
    prime_slots: dict[int, list[int]] = {}
    free: list[int] = []
    for d in sorted(mults):
        f = prime_factors(d)
        if len(f) == 1:
            prime_slots.setdefault(next(iter(f)), []).append(d)
        else:
            free.append(d)

    left_factors = prime_factors(left_size)
    primes = [
        (tuple(slots), left_factors.get(p, 0), [mults[d] for d in slots])
        for p, slots in sorted(prime_slots.items())
    ]
    n_candidates = prod(mults[d] + 1 for d in free) * prod(
        _composition_count(target, caps) for _, target, caps in primes
    )
    if n_candidates > search_cap:
        raise SearchCapExceeded(
            f"{n_candidates} candidate vectors exceed the cap of {search_cap}"
        )
    axes = [(slots, _capped_compositions(t, caps)) for slots, t, caps in primes]
    return axes + [((d,), [(c,) for c in range(mults[d] + 1)]) for d in free]


def _vector_poly(vector: ExponentVector) -> IntPoly:
    """prod(phi_d^c_d) of one side, without the leading x."""
    return prod((cyclotomic(d) ** c for d, c in vector.entries if c), start=ONE)


def net_exponents(vector: ExponentVector) -> dict[int, int]:
    """Net exponents {k: E_k}, sorted by k and nonzero, of one side.

    For d > 1, phi_d = prod of (1 - x^k)^mobius(d/k) over the pairs of
    `mobius_exponents(d)`, so the side x * prod(phi_d^c_d) equals
    x * prod((1 - x^k)^E_k) with E_k = sum of c_d * mobius(d/k) over the
    divisors d that k divides.
    """
    net: dict[int, int] = {}
    for d, c in vector.entries:
        if d < 2:
            raise ValueError(f"net exponents need divisors above 1, got {d}")
        for k, mu in mobius_exponents(d):
            net[k] = net.get(k, 0) + c * mu
    return {k: e for k, e in sorted(net.items()) if e}


Rows = list[list[int]]


def _combine(axes: Sequence[Rows], width: int) -> Rows:
    """Every choice of one net-exponent row per axis, summed."""
    combos = [[0] * width]
    for options in axes:
        combos = [[*map(add, net, opt)] for net in combos for opt in options]
    return combos


def _expand_side(
    net: Mapping[int, int],
    first: Optional[Callable[[int], Sequence[int]]] = None,
) -> tuple[Optional[list[int]], Optional[tuple[int, int]]]:
    """(coefficients of x * prod((1 - x^k)^E_k), None) for one side's net
    exponents {k: E_k}, or (None, (power, coefficient)) at the body's first
    negative coefficient.

    The body is expanded up to x^(2 * PREFILTER_DEGREE), then to twice the
    last limit, but a limit whose double would reach half the body's degree
    is replaced by half the degree itself, so no side is expanded to a limit
    that the next step would expand again almost whole.  Each step's
    coefficients come from `one_minus_x_product`, except that `first(limit)`,
    when given, supplies the first step's: the body's x^0 .. x^limit, which
    `_enumerate` takes as one product of a head series and a tail series.
    A truncated expansion is exactly the low end of the full one, so the
    witness is the first negative coefficient whatever the limits, and the
    first negative coefficient of a palindromic body lies at or below half
    its degree.  The upper half of a nonnegative side mirrors the lower.
    """
    degree = sum(map(mul, net, net.values()))
    half = degree // 2
    limit = PREFILTER_DEGREE
    while True:
        limit = half if 4 * limit >= half else 2 * limit
        if first is None:
            lower = one_minus_x_product(net, limit)
        else:
            lower, first = first(limit), None
        if min(lower) < 0:
            return None, first_negative(lower)
        if limit == half:
            return [0, *lower, *lower[: degree - half][::-1]], None


# The widest digit, in bytes, at which `_right_side_rule` takes the right
# side as a quotient.  The division's cost grows with the square of the
# packed length, which doubles where the digits go from 2 bytes to 4.  Per
# accepted left side, the quotient rule against the expansion rule took 55
# against 132 us at size 250 (2-byte digits), 125 against 114 us at 266
# (4 bytes), 142 against 130 us at 286, 229 against 171 us at 374, 1.83
# against 0.43 ms at 1155 and 5.4 against 0.81 ms at 2010 (2 vCPU, CPython
# 3.11; best of 31 interleaved passes).
QUOTIENT_MAX_WIDTH = 2


def _right_side_rule(
    sizes: tuple[int, int],
) -> Callable[[Sequence[int], Iterable[tuple[int, int]]], Optional[Sequence[int]]]:
    """The rule that takes a split's right side from the coefficients of its
    nonnegative left side L and its right net exponents, as (k, E_k) pairs:
    the coefficients of F / L when it has no negative one, else None, where
    F is the frequency polynomial of two standard dice of `sizes`.  Raises
    NonExactDivision when L does not divide F, or when L times the expanded
    right side is not F.  See the
    module docstring for the two ways it is decided exactly, and why the
    digit width picks between them.
    """
    freq = frequency_poly(*sizes).coeffs
    faces = sizes[0] * sizes[1]
    # Unsigned digits of `width` bytes hold every value up to `faces`; the
    # size bounds keep `faces` below 2^32, so one cast reads them.
    width = _digit_width(faces.bit_length())
    packed_freq = _pack(freq, width)

    def by_quotient(
        left: Sequence[int], right_net: Iterable[tuple[int, int]]
    ) -> Optional[Sequence[int]]:
        quotient, remainder = divmod(packed_freq, _pack(left, width))
        if remainder:
            raise NonExactDivision(f"{left} does not divide the frequency poly")
        try:
            right = unpack_digits(quotient, len(freq) - len(left) + 1, width)
        except OverflowError:
            return None  # the quotient is negative or has too many digits
        if sum(left) * sum(right) != faces:
            return None
        return right

    def by_expansion(
        left: Sequence[int], right_net: Iterable[tuple[int, int]]
    ) -> Optional[Sequence[int]]:
        right, _ = _expand_side({k: e for k, e in right_net if e})
        if right is None:
            return None
        # Two nonnegative sides whose values at x=1 multiply to `faces` have
        # no product coefficient above it, so their packed product carries
        # nothing and is packed F exactly when their product is F.
        if (
            sum(left) * sum(right) != faces
            or _pack(left, width) * _pack(right, width) != packed_freq
        ):
            raise NonExactDivision(f"{left} times {right} is not the frequency poly")
        return right

    return by_quotient if width <= QUOTIENT_MAX_WIDTH else by_expansion


def _prefix_limit(face_counts: Sequence[int]) -> int:
    """The last power the prefix mask decides: PREFILTER_DEGREE, or half
    the body degree of a standard die with the smaller face count, but never
    below x^1, whose coefficient -E_1 rejects most splits."""
    return min(PREFILTER_DEGREE, max(1, (min(face_counts) - 1) // 2))


def _prefix_pairs(
    ks: Sequence[int],
    rows: Rows,
    full: Sequence[int],
    limit: int,
    symmetric: bool,
    reach: int,
) -> list[tuple[list[int], list[int]]]:
    """The (left, right) series of each row: of its net exponents to x^reach
    and of what it leaves of `full` to x^limit, reach >= limit.  With equal
    face counts, what row j leaves is row n - 1 - j of the n rows (see
    `_halves`), so each series is expanded once and serves both."""
    left = [one_minus_x_product(dict(zip(ks, row)), reach) for row in rows]
    if symmetric:
        right = left[::-1]
    else:
        leaves = (map(sub, full, row) for row in rows)
        right = [one_minus_x_product(dict(zip(ks, net)), limit) for net in leaves]
    return list(zip(left, right))


def _product_bound(
    heads: Sequence[Sequence[int]], tails: Sequence[Sequence[int]], terms: int
) -> int:
    """A bound on the absolute value of every coefficient of every head and
    tail series, and of x^0 .. x^(terms - 1) of every product of a head
    series by a tail series; every series lists the same number of
    coefficients.

    By the triangle inequality |[x^i] h t| <= sum over j of |h_j| |t_(i-j)|
    <= sum over j of hmax_j tmax_(i-j), where hmax_j (tmax_j) is the largest
    |coefficient of x^j| over every head (tail) series.
    """
    hmax = [*map(max, zip(*[map(abs, s) for s in heads]))]
    tmax = [*map(max, zip(*[map(abs, s) for s in tails]))]
    return max([0, *_convolve(hmax, tmax)[:terms], *hmax, *tmax])


def _prefix_survivors(
    heads: Sequence[tuple[Sequence[int], Sequence[int]]],
    tails: Sequence[tuple[Sequence[int], Sequence[int]]],
    limit: int,
) -> Iterator[list[int]]:
    """For each head, the indices of the tails whose products with it, left
    series by left and right by right, have no negative coefficient of x^0
    .. x^limit.  Every series lists at least those limit + 1 coefficients,
    and only they are read.

    The tails' series are packed once, each as one slot of 2 * limit + 1
    digits, which hold a whole product, and a head then needs one product
    per side.  A bias of half the digit base, each digit's top bit
    (`_top_bits`), makes a digit's top bit the sign of its coefficient.
    The two products are ANDed, the top bytes of each slot's first
    limit + 1 digits are read as byte columns, one byte per tail, and the
    columns are ANDed, so bit 7 of a tail's byte is set exactly when both
    of its products pass.
    """
    if not heads or not tails:
        return
    n = limit + 1
    heads = [(left[:n], right[:n]) for left, right in heads]
    tails = [(left[:n], right[:n]) for left, right in tails]
    slot = 2 * limit + 1
    # Digits of `width` bytes hold every coefficient of every series and
    # product and a sign bit, so no biased digit carries.
    bound = _product_bound(
        [s for h in heads for s in h], [s for t in tails for s in t], slot
    )
    width = (bound.bit_length() + 8) // 8
    pad = [0] * limit
    bias = _top_bits(slot * len(tails), width)
    left_tails = _pack([c for t in tails for c in [*t[0], *pad]], width, True)
    right_tails = _pack([c for t in tails for c in [*t[1], *pad]], width, True)
    signs = _top_bits(len(tails), 1)
    stride = slot * width
    for left_head, right_head in heads:
        left = _pack(left_head, width, True)
        right = _pack(right_head, width, True)
        passed = (left * left_tails + bias) & (right * right_tails + bias)
        data = passed.to_bytes(stride * len(tails), "little")
        column = signs
        for i in range(width - 1, n * width, width):
            column &= int.from_bytes(data[i::stride], "little")
        # each byte of flags is 0x80 (both products pass) or 0
        flags = column.to_bytes(len(tails), "little")
        yield list(compress(range(len(tails)), flags))


def _first_step_rule(
    heads: Sequence[Sequence[int]], tails: Sequence[Sequence[int]], reach: int
) -> Callable[[int, int, int], list[int]]:
    """The rule that gives x^0 .. x^limit, for any limit up to `reach`, of
    the product of head series a and tail series b; every series lists
    reach + 1 coefficients.

    The product is (head mod B^n) * (tail mod B^n) mod B^n with n =
    limit + 1, read back as signed digits, since Z[x] mod x^n maps onto
    Z mod B^n as a ring at x = B.  Its digits hold `_product_bound` of the
    series to x^reach and a sign bit, so no coefficient overflows.  Each
    series is packed once, the first time a product needs it.
    """
    bound = _product_bound(heads, tails, reach + 1)
    width = _digit_width(bound.bit_length() + 1)
    digit = 8 * width
    packed_heads: list[Optional[int]] = [None] * len(heads)
    packed_tails: list[Optional[int]] = [None] * len(tails)

    def product(a: int, b: int, limit: int) -> list[int]:
        head, tail = packed_heads[a], packed_tails[b]
        if head is None:
            head = packed_heads[a] = _pack(heads[a], width, True)
        if tail is None:
            tail = packed_tails[b] = _pack(tails[b], width, True)
        bits = digit * (limit + 1)
        mask = (1 << bits) - 1
        value = (head & mask) * (tail & mask) & mask
        # The digits fit as signed, so the top bit is set exactly when the
        # value at x = B is negative.
        if value >> (bits - 1):
            value -= 1 << bits
        return unpack_digits(value, limit + 1, width, True)

    return product


def _halves(
    mults: dict[int, int], left_size: int, cap: int
) -> tuple[list[int], list[tuple[Rows, list[int]]]]:
    """(ks, [(head, head_full), (tail, tail_full)]) for the splits with
    `left_size` faces.

    `ks` is 1 followed by every divisor of `mults`, in order.  A row is a
    side's net exponents aligned to `ks` (so E_1 comes first), followed by
    its cyclotomic exponents aligned to `ks[1:]`.  Both parts are linear in
    the choice of options, so a split's left row is a head row plus a tail
    row, each the sum of one option's row per axis of its half.  A half's
    full row takes every divisor of its axes at its whole multiplicity, so
    the right side's row is what the head leaves of head_full plus what the
    tail leaves of tail_full.  `zip(ks, row)` stops at the end of `ks`, so it
    reads a row's net exponents alone.

    With equal face counts, each prime's slots hold twice its exponent in
    `left_size`, so the complement of an option is an option of the same
    axis.  It reverses the axis's order (compositions come in descending
    order, free exponents in ascending), and `_combine` keeps that order,
    so what row j of a half leaves of its full row is row n - 1 - j.  That
    lets `_prefix_pairs` expand each series once for both sides, and lets
    `_enumerate` mask only the first half of the heads, since the
    complement of split (i, j) is split (H - 1 - i, T - 1 - j).
    """
    axes = _candidate_axes(mults, left_size, cap)
    divs = sorted(d for slots, _ in axes for d in slots)
    ks = [1, *divs]  # every k that divides some d in divs

    mobius = {d: mobius_exponents(d) for d in divs}

    def row(slots: Sequence[int], exps: Sequence[int]) -> list[int]:
        # E_k sums c_d * mobius(d/k), as in `net_exponents`
        net = dict.fromkeys(ks, 0)
        vector = dict.fromkeys(divs, 0)
        for d, c in zip(slots, exps):
            vector[d] = c
            for k, mu in mobius[d]:
                net[k] += c * mu
        return [*net.values(), *vector.values()]

    rows = [[row(slots, exps) for exps in options] for slots, options in axes]
    # Each head and each tail is expanded once, so the axes are cut where
    # heads and tails together are fewest.
    counts = [len(options) for options in rows]
    half = min(
        range(len(rows) + 1), key=lambda i: prod(counts[:i]) + prod(counts[i:])
    )

    def full(part: Sequence[tuple[tuple[int, ...], list]]) -> list[int]:
        ds = [d for slots, _ in part for d in slots]
        return row(ds, [mults[d] for d in ds])

    width = 2 * len(ks) - 1
    return ks, [
        (_combine(rows[:half], width), full(axes[:half])),
        (_combine(rows[half:], width), full(axes[half:])),
    ]


def _enumerate(
    sizes: tuple[int, int], face_counts: tuple[int, int], search_cap: Optional[int]
) -> list[SolutionPair]:
    """Every pair of dice with `face_counts` faces whose sums match those of
    two standard dice of `sizes`, sorted by labels, which is sorting by
    coefficients in descending order (see the module docstring)."""
    cap = DEFAULT_SEARCH_CAP if search_cap is None else search_cap
    if cap < 1:
        raise SolverError(f"search_cap must be at least 1, got {cap}")
    mults = _divisor_mults(sizes)
    left_size, right_size = face_counts
    right_side = _right_side_rule(sizes)
    symmetric = left_size == right_size
    ks, [(head, head_full), (tail, tail_full)] = _halves(mults, left_size, cap)
    total = [*map(add, head_full, tail_full)]
    divs = ks[1:]

    def vector(row: Sequence[int]) -> ExponentVector:
        # From a list the tuple is allocated once at its size; from a bare zip
        # it is grown and shrunk, which left solve-large's peak RSS 1 MB higher.
        return ExponentVector(tuple([*zip(divs, row[len(ks):])]))

    limit = _prefix_limit(face_counts)
    # `_expand_side` starts a body of half degree h at x^h if h is at most
    # 4 * PREFILTER_DEGREE, else at x^(2 * PREFILTER_DEGREE), and a left
    # body's degree is its head row's plus its tail row's.  So each left
    # series is expanded once, to `reach`, past every split's first limit,
    # and the mask reads it to x^L.
    largest = [
        max([sum(map(mul, ks, row)) for row in rows], default=0)
        for rows in (head, tail)
    ]
    reach = max(limit, min(4 * PREFILTER_DEGREE, sum(largest) // 2))
    heads = _prefix_pairs(ks, head, head_full, limit, symmetric, reach)
    tails = _prefix_pairs(ks, tail, tail_full, limit, symmetric, reach)
    first_step = _first_step_rule([s for s, _ in heads], [s for s, _ in tails], reach)
    if symmetric:
        # With equal face counts a split and its complement give the same
        # pair once sorted, and the complement of split (i, j) is split
        # (H - 1 - i, T - 1 - j) (see `_halves`), so the mask takes the first
        # half of the heads and, of a middle head, the first half of the tails.
        heads = heads[: (len(head) + 1) // 2]
    survivors = _prefix_survivors(heads, tails, limit)

    found: list[SolutionPair] = []
    for i, (head_row, passed) in enumerate(zip(head, survivors)):
        if symmetric and 2 * i == len(head) - 1:
            passed = [j for j in passed if 2 * j <= len(tail) - 1]
        for j in passed:
            left_row = list(map(add, head_row, tail[j]))
            right_row = list(map(sub, total, left_row))
            indices = (i, j)
            # Of a split and its complement, the smaller row is the left one.
            if symmetric and left_row > right_row:
                left_row, right_row = right_row, left_row
                indices = (len(head) - 1 - i, len(tail) - 1 - j)
            left_coeffs, _ = _expand_side(
                {k: e for k, e in zip(ks, left_row) if e},
                partial(first_step, *indices),
            )
            if left_coeffs is None:
                continue
            try:
                right_coeffs = right_side(left_coeffs, zip(ks, right_row))
            except NonExactDivision:
                raise AssertionError(
                    f"split {vector(left_row)} does not multiply back"
                    " to the frequency poly"
                ) from None
            if right_coeffs is None:
                continue
            left = SolutionSide(Die.from_coeffs(left_coeffs), vector(left_row))
            right = SolutionSide(Die.from_coeffs(right_coeffs), vector(right_row))
            # the die with the smaller labels has the larger coefficients
            if symmetric and left.die.coeffs < right.die.coeffs:
                left, right = right, left
            found.append(SolutionPair(left, right))
    return sorted(
        found, key=lambda p: (p.left.die.coeffs, p.right.die.coeffs), reverse=True
    )


def enumerate_pairs(m: int, *, search_cap: Optional[int] = None) -> list[SolutionPair]:
    """All pairs of m-sided dice with standard sum frequencies.

    The standard pair is always included.  Pairs are unordered and come back
    sorted by labels, smaller die first.  m is at most MAX_ENUMERATION_SIZE.
    """
    _check_size(m)
    _check_enumeration_size(m)
    return _enumerate((m, m), (m, m), search_cap)


def enumerate_mixed(
    m1: int, m2: int, *, search_cap: Optional[int] = None
) -> list[SolutionPair]:
    """Pairs matching the sums of standard m1- and m2-sided dice.

    The left die of every returned pair has m1 faces.  Both sizes are at
    most MAX_ENUMERATION_SIZE.
    """
    for size in (m1, m2):
        _check_size(size)
        _check_enumeration_size(size)
    return _enumerate((m1, m2), (m1, m2), search_cap)


class SweepEntry(NamedTuple):
    sizes: tuple[int, int]
    pair_count: int
    nontrivial: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


class SweepReport(NamedTuple):
    bound: int
    entries: tuple[SweepEntry, ...]

    @property
    def total_nontrivial(self) -> int:
        return sum(len(e.nontrivial) for e in self.entries)


def conjecture_sweep(bound: int) -> SweepReport:
    """Scan coprime size pairs r < s <= bound for nonstandard relabelings.

    For every coprime pair the solver is run on the mixed problem, and each
    of its pairs besides the two standard dice is recorded as nontrivial.
    Coprime sizes are not rigid: up to 12 there are 14 nontrivial pairs,
    the smallest at sizes 5 and 6.  A cyclotomic factor whose order is
    composite but not a prime power is 1 at x = 1, so it can sit on
    either die.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    entries = []
    for r in range(2, bound + 1):
        for s in range(r + 1, bound + 1):
            if gcd(r, s) != 1:
                continue
            pairs = enumerate_mixed(r, s)
            # compared by coefficients, so only the reported pairs build labels
            standard = (Die.standard(r).coeffs, Die.standard(s).coeffs)
            nontrivial = tuple(
                p.labels
                for p in pairs
                if (p.left.die.coeffs, p.right.die.coeffs) != standard
            )
            entries.append(SweepEntry((r, s), len(pairs), nontrivial))
    return SweepReport(bound, tuple(entries))


def enumerate_unequal(
    m: int, s1: int, s2: int, *, search_cap: Optional[int] = None
) -> list[SolutionPair]:
    """Pairs with s1 and s2 faces matching two standard m-sided dice.

    Requires s1 * s2 == m * m; the left die of every pair has s1 faces.
    m, s1 and s2 are at most MAX_ENUMERATION_SIZE.
    """
    _check_size(m)
    _check_enumeration_size(m)
    if s1 < 1 or s2 < 1:
        raise InvalidTargets(f"face counts must be positive, got {s1},{s2}")
    if s1 * s2 != m * m:
        raise InvalidTargets(f"targets {s1}x{s2} do not multiply to {m}^2")
    _check_enumeration_size(max(s1, s2), "face count")
    return _enumerate((m, m), (s1, s2), search_cap)


# -- explicit decomposition for one divisor ---------------------------------


# The large die of `decompose(m, a)` has m^2/a faces.  Through the CLI with
# JSON output, (1000, 1) took 0.8-0.9 s and peaked at 131 MB, and (2000, 1)
# took 3.8 s, peaked at 491 MB and printed 108 MB (2 vCPU, CPython 3.11), so
# a larger die is refused rather than left to grow with m^2.
MAX_DECOMPOSE_FACES = 10**6


def _check_decomposition(m: int, a: int) -> None:
    """Raise SolverError unless a divides m > 0 and the large die of the
    decomposition has at most MAX_DECOMPOSE_FACES faces."""
    check_divisor(m, a)
    _check_size(m)
    faces = m * m // a
    if faces > MAX_DECOMPOSE_FACES:
        raise SolverError(
            f"the large die would have {faces} faces,"
            f" more than the maximum of {MAX_DECOMPOSE_FACES}"
        )


def decompose(m: int, a: int) -> SolutionPair:
    """The pair with a and m^2/a faces built from one divisor a of m.

    The left die is the standard a-sided die, x(x^a-1)/(x-1), with net
    exponents {1: -1, a: 1}; the right die is x(x^m-1)^2 / ((x^a-1)(x-1)),
    with net exponents {1: -1, a: -1, m: 2} (summed where a is 1 or m), and
    always has nonnegative coefficients.  Both are expanded by
    `_expand_side`, as every side of the enumeration is.  Together they
    reproduce the sums of two standard m-sided dice.
    """
    _check_decomposition(m, a)
    mults = _divisor_mults((m, m))
    left = ExponentVector.from_dict({d: (1 if a % d == 0 else 0) for d in mults})
    sides = []
    for vector in (left, left.complement(mults)):
        coeffs, witness = _expand_side(net_exponents(vector))
        if coeffs is None:
            raise AssertionError(f"divisor {a} of {m} gave the witness {witness}")
        sides.append(SolutionSide(Die.from_coeffs(coeffs), vector))
    return SolutionPair(*sides)


def decomposition_die_labels(m: int, a: int) -> Die:
    """Closed-form large die of `decompose(m, a)`, made from coefficients.

    With b = m // a, the labels come from 1..2m-a: for each i < b the numbers
    (i-1)a+1 .. ia and 2m-(i+1)a+1 .. 2m-ia appear i times, and the middle
    block m-a+1 .. m appears b times.  Each such block of a powers takes one
    slice of the coefficient list, so no label list is built.
    """
    _check_decomposition(m, a)
    b = m // a
    coeffs = [0] * (2 * m - a + 1)
    for i in range(1, b):
        coeffs[(i - 1) * a + 1 : i * a + 1] = [i] * a
        coeffs[2 * m - (i + 1) * a + 1 : 2 * m - i * a + 1] = [i] * a
    coeffs[m - a + 1 : m + 1] = [b] * a
    return Die.from_coeffs(coeffs)


# -- exclusion certificates -------------------------------------------------


# The splits the paper excludes at sizes p^2*q and p*q*r: each passes the
# per-prime face-count constraints but expands with a negative coefficient.
EXCLUDED_P2Q = ((1, 1, 0, 2), (2, 0, 2, 2), (2, 0, 1, 2))
EXCLUDED_PQR = ((0, 2, 2, 2), (0, 1, 2, 2), (2, 0, 0, 1), (1, 1, 1, 2))

# For each case: its number of distinct primes, its excluded splits, and, from
# the primes, the divisors d with phi_d fixed at exponent 1 and the four
# divisors that a split's exponents belong to, in order.
CASES = {
    "p2q": (2, EXCLUDED_P2Q, lambda p, q: ((q,), (p, p * p, p * q, p * p * q))),
    "pqr": (
        3, EXCLUDED_PQR, lambda p, q, r: ((p, q, r), (p * q, p * r, q * r, p * q * r))
    ),
}


class Certificate(NamedTuple):
    """A negative coefficient excluding one candidate split."""

    case: str
    primes: tuple[int, ...]
    vector: tuple[int, ...]
    power: int
    coefficient: int


def _case(case: str) -> tuple:
    if case not in CASES:
        raise UnsupportedShape(f"unknown case {case!r}")
    return CASES[case]


# A certificate's witness power grows like the product of two of the primes,
# and a side is expanded to limits that double from x^32.  With every prime
# at most 1024, each witness of pqr lies below 2^20: (1013, 1019, 1021) took
# 0.8 s and 117 MB through the CLI, where (1091, 1093, 1097) took 1.7 s and
# 217 MB and (1993, 1997, 1999) 2.7 s and 443 MB (2 vCPU, CPython 3.11).
MAX_CERTIFY_PRIME = 1024


def _check_primes(case: str, primes: Sequence[int]) -> tuple[int, ...]:
    want = _case(case)[0]
    primes = tuple(primes)
    if len(primes) != want or len(set(primes)) != want:
        raise SolverError(f"case {case} needs {want} distinct primes, got {primes}")
    for p in primes:
        # before the primality test, whose trial division a huge p stalls
        if p > MAX_CERTIFY_PRIME:
            raise SolverError(f"{p} is more than the maximum of {MAX_CERTIFY_PRIME}")
        if not is_prime(p):
            raise SolverError(f"{p} is not prime")
    return primes


def _case_vector(
    case: str, primes: Sequence[int], vector: Sequence[int]
) -> ExponentVector:
    """The full exponent vector of one split of `case` (see CASES)."""
    primes = _check_primes(case, primes)
    if len(vector) != 4:
        raise SolverError(f"case {case} needs 4 exponents, got {tuple(vector)}")
    fixed, keys = _case(case)[2](*primes)
    return ExponentVector.from_dict(
        {**dict.fromkeys(fixed, 1), **dict(zip(keys, vector))}
    )


def excluded_vectors(case: str) -> tuple[tuple[int, ...], ...]:
    return _case(case)[1]


def candidate_product(
    case: str, primes: Sequence[int], vector: Sequence[int]
) -> IntPoly:
    """Direct cyclotomic expansion of one candidate split, without the
    leading x, so the constant term is 1; it referees `net_exponents`."""
    return _vector_poly(_case_vector(case, primes, vector))


def reduced_form_matches(
    case: str, primes: Sequence[int], vector: Sequence[int], limit: int
) -> bool:
    """Check the cancelled series form prod((1 - x^k)^E_k) of one split
    against its direct expansion up to `limit`."""
    direct = candidate_product(case, primes, vector)
    net = net_exponents(_case_vector(case, primes, vector))
    factors = [(one_minus_x_pow(k), e) for k, e in net.items()]
    series = truncated_series_product(factors, limit)
    if limit >= direct.degree:
        return series == direct
    return series.coeffs == direct.coeffs[: limit + 1]


def negative_certificates(case: str, primes: Sequence[int]) -> list[Certificate]:
    """Locate the first negative coefficient of every excluded split, by the
    rule that decides every side (`_expand_side`).  Raises CertificateMissing
    if any expected negative coefficient is absent; with valid distinct
    primes this never happens.
    """
    primes = _check_primes(case, primes)
    out = []
    for vector in excluded_vectors(case):
        _, witness = _expand_side(net_exponents(_case_vector(case, primes, vector)))
        if witness is None:
            raise CertificateMissing(
                f"{case} split {vector} at primes {primes} is nonnegative"
            )
        out.append(Certificate(case, primes, vector, witness[0], witness[1]))
    return out
