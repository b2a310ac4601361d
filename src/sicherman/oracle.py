"""Brute-force cross-checks that avoid cyclotomic factorization entirely.

`brute_force_pairs` searches over label multisets directly: labels are
assigned value by value, and the running sum-frequency table both forces
the number of faces carrying each value and prunes dead branches.  The
table and each die's face counts are packed into one integer apiece, a
fixed-width digit per value, so placing the faces of a value is a few
big-integer operations and its test one mask.  Each branch is a generator
that yields the branches one value up, and the search keeps a stack of
them, so its depth is not bound by Python's recursion limit.  Nothing
here knows about polynomial factors or imports the solver, so agreement
with the solver is a meaningful check.  The coprime-sizes sweep, which
runs the solver, is `solver.conjecture_sweep`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .dice import Die, sum_histogram


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
    bit set.  A branch is a generator holding its own integers, which yields
    the branch of each placement that fits; the search keeps a stack of
    these generators, one per label value on the current branch, so a spent
    branch is popped with its integers and nothing is undone.  A branch
    with both dice full has every sum at or below its target, and both
    tables sum to m * m2, so its table equals the target; each such pair is
    still checked by face enumeration.

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

    def children(
        v: int, count_a: int, count_b: int, tied: bool, conv: int, pa: int, pb: int
    ) -> Iterator[Iterator]:
        """The branches one value up from a branch about to place value v:
        none, once the pair is recorded, when both dice are full.  Else the
        faces of value v to place, total t, are tried with the first die
        taking da of them, the larger da first; a tied branch, where the
        dice have equal sizes and equal counts of every value below v, tries
        only da >= t - da.  The slack covers the sums up to 2v, all that a
        trial can reach, so each trial costs time in v, not in the size."""
        nonlocal nodes
        if count_a == m and count_b == m2:
            pair = (Die(labels(pa)), Die(labels(pb)))
            if not verify_pair_against_standard(pair[0], pair[1], m, m2):
                raise AssertionError(f"search produced a bad pair {pair}")
            found.append(pair)
            return
        if v > last:
            return
        t = want[v + 1] - ((conv >> bits * (v + 1)) & digit)
        lo = max(0, t - (m2 - count_b))
        if tied:
            lo = max(lo, (t + 1) // 2)
        low_slack = slack & ((1 << bits * (2 * v + 1)) - 1)
        shift = bits * v
        for da in range(min(t, m - count_a), lo - 1, -1):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(over_budget)
            db = t - da
            new = conv
            if t:  # t == 0 places no face of value v
                new += ((da * pb + db * pa) << shift) + (da * db << 2 * shift)
                if (new + low_slack) & signs:
                    continue
            yield children(
                v + 1, count_a + da, count_b + db, tied and da == db,
                new, pa + (da << shift), pb + (db << shift),
            )

    # One generator per label value on the current branch, each holding the
    # tables that the values below it leave; a spent one is popped.
    stack = [children(2, 1, 1, m == m2, 1 << 2 * bits, 1 << bits, 1 << bits)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)
    return found
