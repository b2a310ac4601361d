"""Acceptance suite: one test per required behavior, each printing a
single pass/fail line with its timing.  Run with `pytest -v` (add `-s`
to see the lines for passing tests as well)."""

import itertools
import json
import time

from sicherman.cli import main
from sicherman.counting import (
    check_triangular_identity,
    count_n_dice,
    count_two_dice_trinomial,
    count_unbounded,
    triangular,
)
from sicherman.cyclotomic import check_identity_suite, cyclotomic, divisors
from sicherman.dice import Die, sum_histogram
from sicherman.oracle import brute_force_pairs
from sicherman.polyint import ONE, x_pow_minus_one
from sicherman.solver import (
    candidate_product,
    conjecture_sweep,
    decompose,
    decomposition_die_labels,
    enumerate_mixed,
    enumerate_pairs,
    excluded_vectors,
    frequency_poly,
    negative_certificates,
    reduced_form_matches,
)

P2Q_PRIME_SETS = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3))
PQR_PRIME_SETS = tuple(itertools.permutations((2, 3, 5))) + ((2, 3, 7),)

# Surviving exponent pairs for m = 12, as (c_2, c_4, c_6, c_12) with c_3 = 1.
P2Q_TWELVE_PAIRS = (
    ((1, 1, 0, 0), (1, 1, 2, 2)),
    ((1, 1, 0, 1), (1, 1, 2, 1)),
    ((1, 1, 1, 0), (1, 1, 1, 2)),
    ((2, 0, 1, 0), (0, 2, 1, 2)),
    ((2, 0, 1, 1), (0, 2, 1, 1)),
    ((2, 0, 2, 0), (0, 2, 0, 2)),
    ((2, 0, 2, 1), (0, 2, 0, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1)),
)

# Surviving exponent pairs for three distinct primes, as
# (c_pq, c_pr, c_qr, c_pqr) with c_p = c_q = c_r = 1, up to
# permutation of the primes.
PQR_ROW_PAIRS = (
    ((1, 0, 0, 0), (1, 2, 2, 2)),
    ((1, 1, 0, 0), (1, 1, 2, 2)),
    ((1, 1, 0, 1), (1, 1, 2, 1)),
    ((2, 1, 0, 1), (0, 1, 2, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1)),
)

# Nonstandard pairs for coprime sizes r < s <= 12, as (r-face die, s-face die).
# The standard pair is the only other solution for every coprime size pair.
COPRIME_TWELVE_PAIRS = {
    (5, 6): (
        ((1, 3, 4, 5, 7), (1, 2, 2, 3, 3, 4)),
    ),
    (5, 12): (
        ((1, 2, 5, 8, 9), (1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8)),
        ((1, 3, 4, 5, 7), (1, 2, 2, 3, 3, 4, 7, 8, 8, 9, 9, 10)),
    ),
    (6, 7): (
        ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 7, 9)),
    ),
    (6, 11): (
        ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)),
    ),
    (7, 10): (
        ((1, 3, 5, 6, 7, 9, 11), (1, 2, 2, 3, 3, 4, 4, 5, 5, 6)),
    ),
    (7, 12): (
        ((1, 2, 5, 6, 7, 10, 11), (1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8)),
        ((1, 3, 4, 5, 6, 7, 9), (1, 2, 2, 3, 3, 4, 7, 8, 8, 9, 9, 10)),
        ((1, 4, 5, 7, 9, 10, 13), (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6)),
    ),
    (9, 10): (
        ((1, 3, 5, 6, 7, 8, 9, 11, 13), (1, 2, 2, 3, 3, 4, 4, 5, 5, 6)),
    ),
    (10, 11): (
        ((1, 2, 2, 3, 3, 4, 4, 5, 5, 6), (1, 3, 5, 6, 7, 8, 9, 10, 11, 13, 15)),
    ),
    (11, 12): (
        ((1, 2, 5, 6, 7, 8, 9, 10, 11, 14, 15), (1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8)),
        ((1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13), (1, 2, 2, 3, 3, 4, 7, 8, 8, 9, 9, 10)),
        ((1, 4, 5, 7, 8, 9, 10, 11, 13, 14, 17), (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6)),
    ),
}


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def label_pairs(pairs):
    return {tuple(sorted((p.left.die.labels, p.right.die.labels))) for p in pairs}


def distinct_dice(pairs):
    return {side.die.labels for p in pairs for side in (p.left, p.right)}


def test_criterion_01_sicherman_reproduction(capsys):
    start = time.perf_counter()
    code = main(["solve", "--sides", "6", "--format", "json"])
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    env = json.loads(out)
    got = {tuple(map(tuple, p)) for p in env["results"]["pairs"]}
    ok = (
        code == 0
        and env["results"]["pair_count"] == 2
        and got == {
            ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 8)),
            ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
        }
        and elapsed < 1.0
    )
    report(1, ok, f"solve --sides 6 gives the classic pair, {elapsed:.3f}s")
    assert ok


def test_criterion_02_two_prime_sizes():
    results = {}
    worst = 0.0
    for m in (6, 10, 15, 9, 4, 25):
        start = time.perf_counter()
        pairs = enumerate_pairs(m)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        results[m] = (len(pairs), elapsed)
    ok = all(n == 2 and t < 1.0 for n, t in results.values())
    report(2, ok, f"sizes 4,6,9,10,15,25 each give 2 pairs, worst {worst:.3f}s")
    assert ok, results


def test_criterion_03_eight_pairs_for_p2q():
    counts = {}
    worst = 0.0
    for m in (12, 18, 20, 45, 50):
        start = time.perf_counter()
        pairs = enumerate_pairs(m)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        counts[m] = (len(pairs), len(distinct_dice(pairs)), elapsed)
    ok = all(n == 8 and d == 15 and t < 5.0 for n, d, t in counts.values())

    def key(vec):
        return vec[2], vec[4], vec[6], vec[12]

    got = set()
    for p in enumerate_pairs(12):
        assert p.left.vector[3] == p.right.vector[3] == 1
        got.add(tuple(sorted((key(p.left.vector), key(p.right.vector)))))
    want = {tuple(sorted(pair)) for pair in P2Q_TWELVE_PAIRS}
    ok = ok and got == want
    report(3, ok, f"5 sizes give 8 pairs / 15 dice, m=12 vectors match, worst {worst:.3f}s")
    assert ok, (counts, got ^ want)


def test_criterion_04_thirteen_pairs_for_pqr():
    counts = {}
    worst = 0.0
    for m in (30, 42, 70, 105):
        start = time.perf_counter()
        pairs = enumerate_pairs(m)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        counts[m] = (len(pairs), len(distinct_dice(pairs)), elapsed)
    ok = all(n == 13 and d == 25 and t < 30.0 for n, d, t in counts.values())

    want = set()
    for p, q, r in itertools.permutations((2, 3, 5)):
        order = {p * q: 0, p * r: 1, q * r: 2, 30: 3}
        for left, right in PQR_ROW_PAIRS:
            def full(row):
                return tuple(row[order[d]] for d in (6, 10, 15, 30))

            want.add(tuple(sorted((full(left), full(right)))))
    assert len(want) == 13

    def key(vec):
        return vec[6], vec[10], vec[15], vec[30]

    got = set()
    for p in enumerate_pairs(30):
        assert all(p.left.vector[d] == p.right.vector[d] == 1 for d in (2, 3, 5))
        got.add(tuple(sorted((key(p.left.vector), key(p.right.vector)))))
    ok = ok and got == want
    report(4, ok, f"4 sizes give 13 pairs / 25 dice, m=30 vectors match, worst {worst:.3f}s")
    assert ok, (counts, got ^ want)


def test_criterion_05_exclusion_certificates():
    checked = 0
    for primes in P2Q_PRIME_SETS:
        certs = negative_certificates("p2q", primes)
        assert len(certs) == len(excluded_vectors("p2q")) == 3
        for cert in certs:
            poly = candidate_product("p2q", primes, cert.vector)
            assert poly[cert.power] == cert.coefficient < 0
            checked += 1
    for primes in PQR_PRIME_SETS:
        certs = negative_certificates("pqr", primes)
        assert len(certs) == len(excluded_vectors("pqr")) == 4
        for cert in certs:
            poly = candidate_product("pqr", primes, cert.vector)
            assert poly[cert.power] == cert.coefficient < 0
            checked += 1
    ok = checked == 6 * 3 + 7 * 4
    report(5, ok, f"{checked} excluded splits all expand with a negative coefficient")
    assert ok


def test_criterion_06_identity_suite():
    start = time.perf_counter()
    suite = check_identity_suite(30)
    product_ok = all(
        _divisor_product(n) == x_pow_minus_one(n) for n in range(1, 201)
    )
    elapsed = time.perf_counter() - start
    ok = suite.all_passed and product_ok and elapsed < 10.0
    failing = [c.name for c in suite.checks if not c.passed]
    report(6, ok, f"identity battery at bound 30 plus n<=200 product, {elapsed:.3f}s")
    assert ok, failing


def _divisor_product(n):
    poly = ONE
    for d in divisors(n):
        poly = poly * cyclotomic(d)
    return poly


def test_criterion_07_series_fixtures():
    checked = 0
    for primes in P2Q_PRIME_SETS:
        p, q = primes
        limit = 2 * p * p * q
        for vector in excluded_vectors("p2q"):
            assert reduced_form_matches("p2q", primes, vector, limit)
            checked += 1
    for primes in PQR_PRIME_SETS:
        p, q, r = primes
        limit = 2 * p * q * r
        for vector in excluded_vectors("pqr"):
            assert reduced_form_matches("pqr", primes, vector, limit)
            checked += 1
    ok = checked == 6 * 3 + 7 * 4
    report(7, ok, f"{checked} cancelled series forms match direct expansion")
    assert ok


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    mismatches = {}
    for m in (4, 6, 8, 9):
        brute = {tuple(sorted((a.labels, b.labels))) for a, b in brute_force_pairs(m)}
        solved = label_pairs(enumerate_pairs(m))
        if brute != solved:
            mismatches[m] = brute ^ solved
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    report(8, ok, f"brute force equals factor search for m=4,6,8,9, {elapsed:.3f}s total")
    assert ok, mismatches


def test_criterion_09_counting_table():
    table_ok = (
        [count_n_dice(2, k) for k in range(1, 6)] == [1, 3, 7, 19, 51]
        and [count_two_dice_trinomial(k) for k in range(1, 6)] == [1, 3, 7, 19, 51]
        and [count_unbounded(k) for k in range(1, 6)] == [1, 3, 10, 35, 126]
    )
    dice_counts = {
        m: len(distinct_dice(enumerate_pairs(m))) for m in (2, 4, 8, 16, 3, 9)
    }
    cross_ok = dice_counts == {2: 1, 4: 3, 8: 7, 16: 19, 3: 1, 9: 3}
    ok = table_ok and cross_ok
    report(9, ok, "closed-form counts match frozen table and prime-power search")
    assert ok, dice_counts


def test_criterion_10_unequal_sizes():
    bad = []
    for m in range(1, 37):
        freq = frequency_poly(m, m)
        for a in divisors(m):
            pair = decompose(m, a)
            if pair.left.poly * pair.right.poly != freq:
                bad.append((m, a, "product"))
            if pair.right.die != decomposition_die_labels(m, a):
                bad.append((m, a, "recipe"))
            if not check_triangular_identity(m, a):
                bad.append((m, a, "triangular"))
    squares_ok = all(triangular(n) + triangular(n - 1) == n * n for n in range(1, 101))
    ok = not bad and squares_ok
    report(10, ok, "divisor decompositions verified for every m <= 36")
    assert ok, bad


def test_criterion_11_mixed_sizes():
    for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        assert len(enumerate_mixed(p, p**k)) == k, (p, k)
    for r, s in itertools.combinations((2, 3, 5, 7, 11, 13), 2):
        pairs = enumerate_mixed(r, s)
        assert len(pairs) == 1, (r, s)
        assert pairs[0].left.die == Die.standard(r)
        assert pairs[0].right.die == Die.standard(s)

    # Coprime sizes are not rigid: a cyclotomic factor whose order is
    # composite but not a prime power (6, 10, 12) is 1 at x = 1, so it can
    # sit on either die.  The table is pinned literally; face enumeration
    # checks each pair, and the brute-force search, which uses no
    # polynomials, checks that nothing is missing.
    sweep = conjecture_sweep(12)
    found = {}
    for entry in sweep.entries:
        r, s = entry.sizes
        standard = (Die.standard(r).labels, Die.standard(s).labels)
        want = sum_histogram([Die.standard(r), Die.standard(s)])
        for a, b in entry.nontrivial:
            assert sum_histogram([Die(a), Die(b)]) == want, (entry.sizes, a, b)
        if entry.nontrivial:
            found[entry.sizes] = entry.nontrivial
        # the sweep lists the standard pair in its count, never as nontrivial
        assert standard not in entry.nontrivial, entry.sizes
        assert entry.pair_count == 1 + len(entry.nontrivial), entry.sizes
        solved = {p.labels for p in enumerate_mixed(r, s)}
        brute = {(a.labels, b.labels) for a, b in brute_force_pairs(r, m2=s)}
        assert solved == brute, (entry.sizes, solved ^ brute)
        assert solved == {standard, *entry.nontrivial}, entry.sizes
    ok = (
        found == COPRIME_TWELVE_PAIRS
        and len(sweep.entries) == 34
        and sweep.total_nontrivial == 14
    )
    report(
        11,
        ok,
        f"coprime sweep to 12 found {sweep.total_nontrivial} nontrivial pairs "
        f"over {len(sweep.entries)} size pairs, all confirmed by brute force",
    )
    assert ok, found
