"""Brute-force cross-checks that avoid cyclotomic factorization entirely.

`brute_force_pairs` searches over label multisets directly: labels are
assigned value by value, and the running sum-frequency table both forces
the number of faces carrying each value and prunes dead branches.  The
table and each die's face counts are packed into one integer apiece, a
fixed-width digit per value, so placing the faces of a value is a few
big-integer operations and its test one mask.  The search keeps its own
stack, so its depth is not bound by Python's recursion limit.  Nothing
here knows about polynomial factors, so agreement with the solver is a
meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dice import Die, sum_histogram
from .solver import enumerate_mixed


DEFAULT_MAX_NODES = 2_000_000


class BudgetExceeded(Exception):
    """The node budget ran out before the search finished."""


def verify_pair_against_standard(
    die1: Die, die2: Die, m: int, m2: Optional[int] = None
) -> bool:
    """Face-enumeration check of a pair against standard m- and m2-sided dice.

    m2 defaults to m.
    """
    return sum_histogram([die1, die2]) == sum_histogram(
        [Die.standard(m), Die.standard(m if m2 is None else m2)]
    )


def brute_force_pairs(
    m: int, *, m2: Optional[int] = None, max_nodes: int = DEFAULT_MAX_NODES
) -> list[tuple[Die, Die]]:
    """All pairs of dice whose sums match standard m- and m2-sided dice.

    m2 defaults to m.  The first die of every pair has m faces and the
    second m2; when the sizes are equal each pair is listed once, smaller
    die first.  Both dice must carry a 1 (the unique way to reach sum 2),
    and from there the frequency of each partial sum forces how many faces
    of each value the two dice hold together.  Labels run up to m + m2 - 1,
    which is the largest label any solution can use (the other die's 1
    leaves the largest sum m + m2).  Raises BudgetExceeded when more than
    max_nodes assignments are tried, and at once when max_nodes is below
    max(m, m2) - 1: every finished search tries one node for each value
    2 .. max(m, m2) on its way to the standard pair.

    When the sizes are equal, the search breaks the symmetry between the
    dice: while the two have held equally many faces of every value so
    far, it tries only splits that give the first die at least as many
    faces of the next value.  At the first value where the counts differ
    the first die holds more of it, so its labels sort first, and each
    unordered pair is reached exactly once.  Pairs come out in the order
    the search reaches them, which is sorted by labels.

    The search state is three integers of little-endian fixed-width
    digits: conv, the count of placed face pairs with each sum, and pa and
    pb, each die's face count of each value.  Placing da and db faces of
    value v adds (da * pb + db * pa) shifted up v digits, and da * db
    shifted up 2v digits, to conv.  A digit holds m * m2, the count of all
    face pairs, with a top bit to spare, and the slack table holds
    top - 1 - want[s] in digit s, where top is that bit.  So adding a trial
    conv to the slack carries out of no digit, and sets a top bit exactly
    where a sum passes its target: a trial fits when their sum has no top
    bit set.  Each frame holds its own integers, so a finished branch is
    dropped with its frame and needs no undo.

    >>> for a, b in brute_force_pairs(4):
    ...     print(a.labels, b.labels)
    (1, 2, 2, 3) (1, 3, 3, 5)
    (1, 2, 3, 4) (1, 2, 3, 4)
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m2 is None:
        m2 = m
    elif m2 < 1:
        raise ValueError("m2 must be a positive integer")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    sizes = f"size {m}" if m == m2 else f"sizes {m}x{m2}"
    over_budget = f"more than {max_nodes} nodes at {sizes}"
    if max_nodes < max(m, m2) - 1:
        raise BudgetExceeded(over_budget)

    last = m + m2 - 1  # the largest label
    # want[s] counts the face pairs (a, b), a <= m and b <= m2, with a + b = s
    want = [max(0, min(s - 1, m, m2, m + m2 + 1 - s)) for s in range(2 * last + 1)]
    width = ((m * m2).bit_length() + 8) // 8
    bits = 8 * width
    top = 1 << (bits - 1)
    digit = (1 << bits) - 1
    # Packed from bytes, since a sum of shifted digits takes quadratic time.
    packed_want = int.from_bytes(
        b"".join([w.to_bytes(width, "little") for w in want]), "little"
    )
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(want), "little")
    signs = ones << (bits - 1)
    slack = signs - ones - packed_want
    nodes = 0
    found: list[tuple[Die, Die]] = []

    def labels(counts: int) -> tuple[int, ...]:
        """Each value repeated as often as its digit in `counts` says."""
        data = counts.to_bytes(width * (last + 1), "little")
        return tuple(
            v
            for v in range(1, last + 1)
            for _ in range(int.from_bytes(data[v * width : (v + 1) * width], "little"))
        )

    def emit(conv: int, pa: int, pb: int) -> None:
        if conv != packed_want:
            return
        pair = (Die(labels(pa)), Die(labels(pb)))
        if not verify_pair_against_standard(pair[0], pair[1], m, m2):
            raise AssertionError(f"search produced a bad pair {pair}")
        found.append(pair)

    def frame(
        v: int, count_a: int, count_b: int, tied: bool, conv: int, pa: int, pb: int
    ) -> tuple:
        """Enter value v: emit a finished pair, else set out the faces of
        value v to try, as the total t and the counts da for the first die,
        the larger da first.  A tied frame, where the dice have equal sizes
        and equal counts of every value below v, tries only da >= t - da.
        The frame's slack covers the sums up to 2v, all that a trial can
        reach, so each trial costs time in v, not in the size."""
        if count_a == m and count_b == m2:
            emit(conv, pa, pb)
            return v, count_a, count_b, 0, tied, range(0), conv, pa, pb, 0
        if v > last:
            return v, count_a, count_b, 0, tied, range(0), conv, pa, pb, 0
        t = want[v + 1] - ((conv >> bits * (v + 1)) & digit)
        hi = min(t, m - count_a)
        lo = max(0, t - (m2 - count_b))
        if tied:
            lo = max(lo, (t + 1) // 2)
        low_slack = slack & ((1 << bits * (2 * v + 1)) - 1)
        trials = iter(range(hi, lo - 1, -1))
        return v, count_a, count_b, t, tied, trials, conv, pa, pb, low_slack

    # One frame per label value on the current branch, each with the tables
    # that the values below it leave; a frame whose trials are used up is
    # popped.
    stack = [frame(2, 1, 1, m == m2, 1 << 2 * bits, 1 << bits, 1 << bits)]
    while stack:
        v, count_a, count_b, t, tied, trials, conv, pa, pb, low_slack = stack[-1]
        shift = bits * v
        for da in trials:
            db = t - da
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(over_budget)
            new = conv
            if t:  # t == 0 places no face of value v
                new += ((da * pb + db * pa) << shift) + (da * db << 2 * shift)
                if (new + low_slack) & signs:
                    continue
            stack.append(
                frame(
                    v + 1, count_a + da, count_b + db, tied and da == db,
                    new, pa + (da << shift), pb + (db << shift),
                )
            )
            break
        else:
            stack.pop()
    return found


@dataclass(frozen=True)
class SweepEntry:
    sizes: tuple[int, int]
    pair_count: int
    nontrivial: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class SweepReport:
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
            if math.gcd(r, s) != 1:
                continue
            pairs = enumerate_mixed(r, s)
            standard = (Die.standard(r).labels, Die.standard(s).labels)
            nontrivial = tuple(
                p.labels for p in pairs if p.labels != standard
            )
            entries.append(SweepEntry((r, s), len(pairs), nontrivial))
    return SweepReport(bound, tuple(entries))
