"""Brute-force search, and the sweep that probes the coprime-sizes guess."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sicherman import oracle
from sicherman.dice import Die, sum_histogram
from sicherman.oracle import (
    MAX_ORACLE_SIZE,
    BudgetExceeded,
    brute_force_pairs,
    verify_pair_against_standard,
)
from sicherman.solver import conjecture_sweep, enumerate_mixed, enumerate_pairs


def test_verify_pair_against_standard():
    assert verify_pair_against_standard(
        Die.from_text("1,2,2,3,3,4"), Die.from_text("1,3,4,5,6,8"), 6
    )
    assert verify_pair_against_standard(Die.standard(6), Die.standard(6), 6)
    assert not verify_pair_against_standard(
        Die.from_text("1,2,2,3,3,4"), Die.standard(6), 6
    )


def test_brute_force_smallest():
    assert brute_force_pairs(1) == [(Die((1,)), Die((1,)))]
    assert brute_force_pairs(2) == [(Die((1, 2)), Die((1, 2)))]


def test_brute_force_four():
    pairs = brute_force_pairs(4)
    assert [(a.labels, b.labels) for a, b in pairs] == [
        ((1, 2, 2, 3), (1, 3, 3, 5)),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
    ]


def test_brute_force_matches_solver():
    # every equal size up to 18, where a wrong symmetry skip would show;
    # 16 = 2^4 has 10 pairs and the p^2 q size 18 has 8.  The tie rule
    # reaches each pair once, smaller die first, in sorted order.
    for m in range(1, 19):
        brute = [(a.labels, b.labels) for a, b in brute_force_pairs(m)]
        assert set(brute) == {p.labels for p in enumerate_pairs(m)}
        assert all(a <= b for a, b in brute)
        assert brute == sorted(set(brute))


@given(st.integers(1, 10), st.integers(1, 10))
def test_brute_force_matches_solver_on_two_sizes(m, m2):
    # two sizes, coprime or not; the tie rule is off unless m == m2
    pairs = brute_force_pairs(m, m2=m2)
    assert {(a.labels, b.labels) for a, b in pairs} == {
        p.labels for p in enumerate_mixed(m, m2)
    }
    standard = sum_histogram([Die.standard(m), Die.standard(m2)])
    for a, b in pairs:
        assert sum_histogram([a, b]) == standard


def test_brute_force_two_sizes():
    # the 5-face die stays on the left; labels reach m + m2 - 1 = 10
    pairs = brute_force_pairs(5, m2=6)
    assert [(a.labels, b.labels) for a, b in pairs] == [
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)),
        ((1, 3, 4, 5, 7), (1, 2, 2, 3, 3, 4)),
    ]


def test_brute_force_rejects_bad_second_size():
    for m2 in (0, -3):
        with pytest.raises(ValueError, match=f"die size must be positive, got {m2}"):
            brute_force_pairs(5, m2=m2)


def test_node_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_pairs(9, max_nodes=5)
    # every finished search tries a node for each value 2 .. max(m, m2), so
    # a smaller budget ends a huge search before its sum table is built
    for m, max_nodes in ((10**5, 1), (10**12, 10)):
        with pytest.raises(BudgetExceeded, match=f"more than {max_nodes} nodes"):
            brute_force_pairs(m, max_nodes=max_nodes)


def test_node_budget_boundaries():
    # the smallest budgets that finish, which pin the order the search
    # tries its nodes in, at every size of the benchmark's oracle workload
    # (12 to 20) and more; equal sizes search one orientation of each pair.
    # A one-faced die leaves one node per value, the floor max(m, m2) - 1.
    boundaries = (
        (6, 6, 41), (9, 9, 325), (12, 12, 2381), (13, 13, 4392),
        (14, 14, 8342), (15, 15, 15291), (16, 16, 28794), (17, 17, 51684),
        (18, 18, 96016), (19, 19, 171702), (20, 20, 313272), (5, 6, 49), (6, 5, 49), (1, 7, 6), (7, 1, 6),
        (9, 12, 1689), (12, 9, 1689), (10, 15, 5482), (15, 10, 5482),
    )
    for m, m2, budget in boundaries:
        assert brute_force_pairs(m, m2=m2, max_nodes=budget)
        with pytest.raises(BudgetExceeded):
            brute_force_pairs(m, m2=m2, max_nodes=budget - 1)


def test_deep_search_hits_the_budget_not_the_recursion_limit():
    # labels run to 1199, and within 20,000 nodes the search passes label
    # 1000, deeper than Python's default recursion limit
    with pytest.raises(BudgetExceeded, match="size 600"):
        brute_force_pairs(600, max_nodes=20_000)


def test_wide_search_hits_the_budget():
    # labels run to 199,999; the slack is masked per branch, since a table
    # of the masks of every label value would hold about 4 * 10**10 digits
    with pytest.raises(BudgetExceeded, match="more than 99999 nodes at size 100000"):
        brute_force_pairs(10**5, max_nodes=99_999)


def test_size_above_the_maximum_is_refused():
    # the budget bounds nodes, not the tables a branch builds, which grow
    # with the size; the budget floor is still checked first
    for m, m2 in ((100_001, None), (10**6, None), (3, 100_001)):
        size = max(m, m2 or m)
        message = f"die size {size} is more than the maximum of 100000"
        with pytest.raises(ValueError, match=message):
            brute_force_pairs(m, m2=m2)
    with pytest.raises(BudgetExceeded):
        brute_force_pairs(MAX_ORACLE_SIZE + 1, max_nodes=10)


def test_node_budget_must_be_positive():
    for max_nodes in (0, -1):
        with pytest.raises(ValueError, match="max_nodes"):
            brute_force_pairs(3, max_nodes=max_nodes)


def test_oracle_imports_nothing_from_the_solver():
    # the oracle referees the solver, so it must not share the solver's code
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = []  # every module named, with the names taken from one
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [node.module or "", *(a.name for a in node.names)]
    assert "dice" in modules
    assert not [name for name in modules if "solver" in name.split(".")]


def test_sweep_covers_coprime_pairs_only():
    report = conjecture_sweep(8)
    sizes = [e.sizes for e in report.entries]
    assert (2, 3) in sizes and (3, 8) in sizes
    assert (4, 8) not in sizes and (6, 8) not in sizes
    assert all(r < s for r, s in sizes)


def test_sweep_prime_pairs_are_trivial():
    report = conjecture_sweep(7)
    by_sizes = {e.sizes: e for e in report.entries}
    assert by_sizes[(2, 3)].nontrivial == ()
    assert by_sizes[(5, 7)].nontrivial == ()
    assert by_sizes[(2, 3)].pair_count == 1


def test_sweep_finds_coprime_counterexamples():
    # the guess that coprime sizes admit only the standard labeling fails:
    # moving a phi_d with composite non-prime-power d across the pair can
    # leave both sides nonnegative.  (5,6) and (6,7) are the smallest cases.
    report = conjecture_sweep(7)
    by_sizes = {e.sizes: e for e in report.entries}
    assert ((1, 3, 4, 5, 7), (1, 2, 2, 3, 3, 4)) in by_sizes[(5, 6)].nontrivial
    assert ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 7, 9)) in by_sizes[(6, 7)].nontrivial
    for entry in report.entries:
        r, s = entry.sizes
        standard = sum_histogram([Die.standard(r), Die.standard(s)])
        for la, lb in entry.nontrivial:
            assert sum_histogram([Die(la), Die(lb)]) == standard
            assert (len(la), len(lb)) == (r, s)


def test_sweep_bound_twelve_count():
    assert conjecture_sweep(12).total_nontrivial == 14
