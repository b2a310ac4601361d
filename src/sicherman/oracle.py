"""Brute-force cross-checks that avoid cyclotomic factorization entirely.

`brute_force_pairs` searches over label multisets directly: labels are
assigned value by value, and the running sum-frequency table both forces
the number of faces carrying each value and prunes dead branches.  The
table and each die's face counts are packed into one integer apiece, a
fixed-width digit per value, so placing the faces of a value is a few
big-integer operations and its test one mask.  The search is one loop over
a flat stack of branches, each a tuple of its value, face counts and
tables, so its depth is not bound by Python's recursion limit.  Nothing
here knows about polynomial factors or imports the solver, so agreement
with the solver is a meaningful check.  The coprime-sizes sweep, which
runs the solver, is `solver.conjecture_sweep`.
"""

from __future__ import annotations

from typing import Optional

from .dice import Die, sum_histogram


DEFAULT_MAX_NODES = 2_000_000

# The node budget bounds nodes, not the 2(m + m2)-digit tables or the cost
# of a node, which grow with the size.  Through the CLI with the default
# budget, size 10^5 took 10.4 s and 79 MB, 3 * 10^5 15.9 s and 205 MB, and
# 10^6 27.4 s and 650 MB, each ending on the budget (2 vCPU, CPython
# 3.11).  So a larger size is refused before anything is built.
MAX_ORACLE_SIZE = 100_000


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


def _die(counts: int, width: int, last: int) -> Die:
    """The die whose coefficient of x^v, v = 0 .. last, is digit v of
    `counts`, `width` bytes wide: no label list is built or sorted."""
    data = counts.to_bytes(width * (last + 1), "little")
    return Die.from_coeffs([
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ])


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
    2 .. max(m, m2) on its way to the standard pair.  A branch counts all
    its trials before it tries the first, and the search tries every trial
    it counts unless it raises, so it raises in exactly the searches that
    try more than max_nodes, though perhaps before the one that passes it.
    After that floor, a size above MAX_ORACLE_SIZE raises ValueError.

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
    bit set.  The slack is masked to the sums up to 2v, all that a trial
    can reach, so each trial costs time in v, not in the size.

    A branch is a tuple (v, count_a, count_b, tied, conv, pa, pb) about to
    place value v, and the search is one loop that pops a branch and
    enters it.  A branch with both dice full has every sum at or below its
    target, and both tables sum to m * m2, so its table equals the target;
    its pair is checked by face enumeration and recorded.  Otherwise the t
    faces of value v that the table still lacks are tried with the first
    die taking da of them; a tied branch, where the dice have equal sizes
    and equal counts of every value below v, tries only da >= t - da.  With
    t == 0 the one trial places nothing and fits, so it counts one node and
    is pushed with the branch's tables.  Else the branch adds all its
    trials to the node count, checks the budget, and builds the table of
    its smallest da; each next trial moves one face of value v from the
    second die to the first, which adds pb - pa shifted up v digits and
    db - 1 - da shifted up 2v digits, so no trial after the first
    multiplies.  Walking da upward, it pushes each trial that fits, so the
    largest is popped first, and every branch is entered, counted and
    checked against the budget in depth-first order, larger da first.  A
    branch holds its own integers, so a popped one leaves nothing to undo.

    >>> for a, b in brute_force_pairs(4):
    ...     print(a.labels, b.labels)
    (1, 2, 2, 3) (1, 3, 3, 5)
    (1, 2, 3, 4) (1, 2, 3, 4)
    """
    if m < 1:
        raise ValueError(f"die size must be positive, got {m}")
    if m2 is None:
        m2 = m
    elif m2 < 1:
        raise ValueError(f"die size must be positive, got {m2}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    sizes = f"size {m}" if m == m2 else f"sizes {m}x{m2}"
    over_budget = f"more than {max_nodes} nodes at {sizes}"
    if max_nodes < max(m, m2) - 1:
        raise BudgetExceeded(over_budget)
    for size in (m, m2):
        if size > MAX_ORACLE_SIZE:
            raise ValueError(
                f"die size {size} is more than the maximum of {MAX_ORACLE_SIZE}"
            )

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
    # the branches still to enter, the next one on top
    stack = [(2, 1, 1, m == m2, 1 << 2 * bits, 1 << bits, 1 << bits)]
    while stack:
        v, count_a, count_b, tied, conv, pa, pb = stack.pop()
        if count_a == m and count_b == m2:
            pair = (_die(pa, width, last), _die(pb, width, last))
            if not verify_pair_against_standard(pair[0], pair[1], m, m2):
                raise AssertionError(f"search produced a bad pair {pair}")
            found.append(pair)
            continue
        if v > last:
            continue
        t = want[v + 1] - ((conv >> bits * (v + 1)) & digit)
        if not t:  # one trial, which places no face of value v and fits
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(over_budget)
            stack.append((v + 1, count_a, count_b, tied, conv, pa, pb))
            continue
        # the trials run over da = lo .. hi; comparisons, not min and max,
        # since a builtin call per branch shows in the search's time
        hi = m - count_a
        if hi > t:
            hi = t
        lo = t - (m2 - count_b)
        if tied and 2 * lo < t:
            lo = (t + 1) // 2
        elif lo < 0:
            lo = 0
        if hi < lo:
            continue
        nodes += hi - lo + 1
        if nodes > max_nodes:
            raise BudgetExceeded(over_budget)
        low_slack = slack & ((1 << bits * (2 * v + 1)) - 1)
        shift = bits * v
        db = t - lo
        new = conv + ((lo * pb + db * pa) << shift) + (lo * db << 2 * shift)
        move = (pb - pa) << shift
        for da in range(lo, hi + 1):
            db = t - da
            if not (new + low_slack) & signs:
                stack.append((
                    v + 1, count_a + da, count_b + db, tied and da == db,
                    new, pa + (da << shift), pb + (db << shift),
                ))
            new += move + ((db - 1 - da) << 2 * shift)
    return found
