"""Solver enumeration against frozen small cases and the histogram oracle."""

import ast
import collections
import copy
import hashlib
import itertools
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from sicherman.cyclotomic import divisors, mobius, mobius_exponents
from sicherman.dice import Die, die_to_poly, poly_to_die, sum_histogram
from sicherman.polyint import (
    IntPoly,
    NonExactDivision,
    X,
    geometric,
    one_minus_x_pow,
    one_minus_x_product,
    truncated_series_product,
)
from sicherman import solver
from sicherman.solver import (
    CertificateMissing,
    EXCLUDED_P2Q,
    EXCLUDED_PQR,
    ExponentVector,
    InvalidTargets,
    NotADivisor,
    SearchCapExceeded,
    SolutionPair,
    SolutionSide,
    SolverError,
    UnsupportedShape,
    candidate_product,
    conjecture_sweep,
    decompose,
    decomposition_die_labels,
    enumerate_mixed,
    enumerate_pairs,
    enumerate_unequal,
    excluded_vectors,
    frequency_poly,
    negative_certificates,
    net_exponents,
    reduced_form_matches,
    _candidate_axes,
    _case_vector,
    _divisor_mults,
    _vector_poly,
)

SICHERMAN = (Die.from_text("1,2,2,3,3,4"), Die.from_text("1,3,4,5,6,8"))

# The paper's cancelled series forms of the excluded splits, as (k, e) pairs
# for factors (1 - x^k)^e, with every shared factor cancelled.
CANCELLED_FORMS = {
    ("p2q", (2, 3)): {
        (1, 1, 0, 2): ((3, 1), (2, 2), (12, 2), (1, -2), (4, -1), (6, -2)),
        (2, 0, 2, 2): ((2, 2), (12, 2), (1, -1), (3, -1), (4, -2)),
        (2, 0, 1, 2): ((2, 3), (12, 2), (1, -2), (4, -2), (6, -1)),
    },
    ("pqr", (2, 3, 5)): {
        (0, 2, 2, 2): ((2, 1), (3, 1), (30, 2), (1, -1), (5, -1), (6, -2)),
        (0, 1, 2, 2): ((2, 2), (3, 1), (30, 2), (1, -2), (10, -1), (6, -2)),
        (2, 0, 0, 1): ((5, 2), (6, 1), (30, 1), (1, -2), (10, -1), (15, -1)),
        (1, 1, 1, 2): (
            (2, 1), (3, 1), (5, 1), (30, 2), (1, -2), (6, -1), (10, -1), (15, -1),
        ),
    },
}


# Each problem is (sizes, face_counts): the standard dice whose sums are
# matched, and the face counts of the two dice enumerated.
def equal(m):
    return (m, m), (m, m)


def mixed(m1, m2):
    return (m1, m2), (m1, m2)


def unequal(m, s1, s2):
    return (m, m), (s1, s2)


NET_EXPONENT_PROBLEMS = {
    "equal-12": equal(12),
    "equal-30": equal(30),
    "equal-36": equal(36),
    "mixed-4-9": mixed(4, 9),
    "mixed-5-6": mixed(5, 6),
    "unequal-6-4x9": unequal(6, 4, 9),
    "unequal-12-8x18": unequal(12, 8, 18),
}


def candidate_vectors(mults, left_size):
    """Every split's left ExponentVector, one option taken from each axis."""
    axes = _candidate_axes(mults, left_size, 10**7)
    divs = [d for slots, _ in axes for d in slots]
    for chosen in itertools.product(*(options for _, options in axes)):
        exps = itertools.chain.from_iterable(chosen)
        yield ExponentVector.from_dict(dict(zip(divs, exps)))


def labels_of(pairs):
    return [p.labels for p in pairs]


def histogram_ok(pair, sizes):
    standard = [Die.standard(s) for s in sizes]
    return sum_histogram(list(pair.dice)) == sum_histogram(standard)


def test_wrappers_check_sizes_and_targets():
    for call in (
        lambda: enumerate_pairs(0),
        lambda: enumerate_mixed(0, 6),
        lambda: enumerate_mixed(6, 0),
        lambda: enumerate_unequal(0, 1, 1),
        lambda: decompose(0, 1),
    ):
        with pytest.raises(SolverError, match="die size must be positive, got 0"):
            call()
    with pytest.raises(InvalidTargets, match="do not multiply"):
        enumerate_unequal(6, 4, 8)
    with pytest.raises(InvalidTargets, match="face counts must be positive"):
        enumerate_unequal(6, -6, -6)


def test_frequency_poly_equal_six():
    assert frequency_poly(6, 6) == IntPoly(
        (0, 0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)
    )


def test_frequency_poly_mixed():
    # standard 2- and 3-sided dice: sums 2..5 with frequencies 1,2,2,1
    assert frequency_poly(2, 3) == IntPoly((0, 0, 1, 2, 2, 1))
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            standard = die_to_poly(Die.standard(m1)) * die_to_poly(Die.standard(m2))
            assert frequency_poly(m1, m2) == standard


def test_exponent_vector():
    v = ExponentVector.from_dict({6: 2, 2: 1, 3: 0})
    assert v.entries == ((2, 1), (3, 0), (6, 2))
    assert v.exponent(6) == 2 and v.exponent(3) == 0 and v.exponent(99) == 0
    assert v[0] == v.entries
    assert v.as_dict() == {2: 1, 3: 0, 6: 2}
    comp = v.complement({2: 2, 3: 2, 6: 2})
    assert comp.as_dict() == {2: 1, 3: 2, 6: 0}
    assert isinstance(comp, ExponentVector)
    assert comp.complement({2: 2, 3: 2, 6: 2}) == v
    assert ExponentVector.from_dict({}).as_dict() == {}


def test_exponent_vector_iteration_ends():
    # `v.exponent(d)` gives 0 for an absent divisor d; the vector iterates
    # and indexes its one field, as any tuple does
    v = ExponentVector.from_dict({2: 1, 3: 0})
    assert len(list(itertools.islice(v, 3))) == 1
    assert v.exponent(2) == 1 and v.exponent(7) == 0


def test_solution_pair_copy_and_pickle():
    sich = enumerate_pairs(6)[0]
    for twin in (
        copy.copy(sich), copy.deepcopy(sich), pickle.loads(pickle.dumps(sich))
    ):
        assert twin == sich and twin.left.poly == sich.left.poly


def test_solution_pair_sorted_sides():
    sich = enumerate_pairs(6)[0]
    assert sich.labels == ((1, 2, 2, 3, 3, 4), (1, 3, 4, 5, 6, 8))
    assert sich.sorted_sides() is sich
    swapped = SolutionPair(sich.right, sich.left)
    assert swapped.dice == (sich.right.die, sich.left.die)
    assert swapped.sorted_sides() == sich


def test_enumerate_pairs_six():
    pairs = enumerate_pairs(6)
    assert labels_of(pairs) == [
        (SICHERMAN[0].labels, SICHERMAN[1].labels),
        (Die.standard(6).labels, Die.standard(6).labels),
    ]
    for p in pairs:
        assert histogram_ok(p, (6, 6))
    sich = pairs[0]
    assert sich.left.vector.as_dict() == {2: 1, 3: 1, 6: 0}
    assert sich.right.vector.as_dict() == {2: 1, 3: 1, 6: 2}


def test_enumerate_pairs_small_sizes():
    assert labels_of(enumerate_pairs(4)) == [
        ((1, 2, 2, 3), (1, 3, 3, 5)),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
    ]
    assert labels_of(enumerate_pairs(9)) == [
        ((1, 2, 2, 3, 3, 3, 4, 4, 5), (1, 4, 4, 7, 7, 7, 10, 10, 13)),
        (Die.standard(9).labels, Die.standard(9).labels),
    ]
    nonstandard = labels_of(enumerate_pairs(10))[0]
    assert nonstandard == (
        (1, 2, 2, 3, 3, 4, 4, 5, 5, 6),
        (1, 3, 5, 6, 7, 8, 9, 10, 12, 14),
    )
    assert labels_of(enumerate_pairs(1)) == [((1,), (1,))]


def test_standard_pair_always_present():
    for m in range(1, 21):
        standard = (Die.standard(m).labels, Die.standard(m).labels)
        assert standard in labels_of(enumerate_pairs(m))


def test_pairs_multiply_to_frequency():
    freq = frequency_poly(12, 12)
    for p in enumerate_pairs(12):
        assert p.left.poly * p.right.poly == freq
        assert histogram_ok(p, (12, 12))


def test_search_cap():
    with pytest.raises(SearchCapExceeded, match="81"):
        enumerate_pairs(30, search_cap=5)
    assert len(enumerate_pairs(30, search_cap=81)) == 13


def test_solve_180_is_pinned():
    # 180 = 2^2 3^2 5 has more splits than the default cap; this hash was
    # recorded while the mask still ran over every head
    pairs = enumerate_pairs(180, search_cap=5 * 10**6)
    assert len(pairs) == 1676
    text = repr([(p.labels, p.left.vector, p.right.vector) for p in pairs])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1a8cbfddba5102673a40490acdaf43fa6bb9fa5d61afdfebc2f2fec58fc78126"
    )


def test_solve_1254_is_pinned():
    # 1254 = 2 * 3 * 11 * 19 takes 4-byte digits, so every right side is
    # expanded (`by_expansion`), which no benchmark size reaches
    pairs = enumerate_pairs(1254)
    assert len(pairs) == 280
    text = repr([(p.labels, p.left.vector, p.right.vector) for p in pairs])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "405f0938a7f89f384cdc6005c07afe0da689041cb6a6dfb830dac21b90d84de0"
    )


def test_search_cap_is_checked_before_any_split_is_built(monkeypatch):
    # 2^15 has 15 prime-power slots of multiplicity 2, whose 1787607
    # compositions of 15 took seconds and hundreds of MB to build
    built = solver._capped_compositions
    calls = []
    monkeypatch.setattr(
        solver, "_capped_compositions", lambda *args: calls.append(args) or built(*args)
    )
    with pytest.raises(SearchCapExceeded, match="^1787607 candidate vectors"):
        enumerate_pairs(2**15, search_cap=10)
    assert calls == []
    for total in range(7):
        for caps in itertools.product(range(4), repeat=3):
            assert solver._composition_count(total, caps) == len(built(total, caps))
    assert solver._composition_count(0, ()) == 1
    assert solver._composition_count(1, ()) == 0


def test_search_cap_must_be_positive():
    for cap in (0, -1):
        for call in (
            lambda: enumerate_pairs(1, search_cap=cap),
            lambda: enumerate_mixed(2, 3, search_cap=cap),
        ):
            with pytest.raises(SolverError, match="search_cap") as exc:
                call()
            assert not isinstance(exc.value, SearchCapExceeded)


def test_enumeration_size_bound():
    # each standard size and face count is at most 50000, checked before
    # anything is factored, so a huge prime size is refused at once
    assert solver.MAX_ENUMERATION_SIZE == 50_000
    for call, message in (
        (lambda: enumerate_pairs(50_001), "die size 50001"),
        (lambda: enumerate_pairs(10**18 + 3), f"die size {10**18 + 3}"),
        (lambda: enumerate_mixed(1, 50_001), "die size 50001"),
        (lambda: enumerate_mixed(50_001, 1), "die size 50001"),
        (lambda: enumerate_unequal(50_001, 1, 50_001**2), "die size 50001"),
        (lambda: enumerate_unequal(224, 50_176, 1), "face count 50176"),
    ):
        with pytest.raises(SolverError, match=f"{message} is more than") as exc:
            call()
        assert not isinstance(exc.value, SearchCapExceeded)
    pairs = enumerate_unequal(223, 1, 49_729)  # 223 is prime: one split
    assert [len(p.right.die.labels) for p in pairs] == [49_729]


def test_enumerate_mixed_distinct_primes():
    pairs = enumerate_mixed(2, 3)
    assert labels_of(pairs) == [((1, 2), (1, 2, 3))]


def test_enumerate_mixed_prime_powers():
    pairs = enumerate_mixed(2, 8)
    assert [p.left.die.labels for p in pairs] == [(1, 2), (1, 3), (1, 5)]
    for p in pairs:
        assert p.left.die.size == 2 and p.right.die.size == 8
        assert histogram_ok(p, (2, 8))
    pairs = enumerate_mixed(3, 9)
    assert [p.left.die.labels for p in pairs] == [(1, 2, 3), (1, 4, 7)]


def test_enumerate_mixed_orientation():
    pairs = enumerate_mixed(8, 2)
    assert all(p.left.die.size == 8 for p in pairs)
    assert len(pairs) == 3


def test_enumerate_unequal():
    pairs = enumerate_unequal(6, 4, 9)
    assert labels_of(pairs) == [
        ((1, 2, 2, 3), (1, 3, 3, 5, 5, 5, 7, 7, 9)),
        ((1, 2, 4, 5), (1, 2, 3, 3, 4, 5, 5, 6, 7)),
        ((1, 4, 4, 7), (1, 2, 2, 3, 3, 3, 4, 4, 5)),
    ]
    for p in pairs:
        assert (p.left.die.size, p.right.die.size) == (4, 9)
        assert histogram_ok(p, (6, 6))


def test_enumerate_unequal_orientation_and_degenerate():
    pairs = enumerate_unequal(6, 36, 1)
    assert len(pairs) == 1
    assert pairs[0].left.die.size == 36 and pairs[0].right.die.labels == (1,)
    assert histogram_ok(pairs[0], (6, 6))
    with pytest.raises(InvalidTargets):
        enumerate_unequal(6, 4, 8)


def test_enumerate_unequal_same_targets_is_equal_case():
    assert labels_of(enumerate_unequal(6, 6, 6)) == labels_of(enumerate_pairs(6))


def test_decompose():
    pair = decompose(6, 2)
    assert pair.left.die.labels == (1, 2)
    assert pair.right.die.labels == (1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10)
    assert pair.left.vector.as_dict() == {2: 1, 3: 0, 6: 0}
    assert pair.right.vector.as_dict() == {2: 1, 3: 2, 6: 2}
    assert histogram_ok(pair, (6, 6))
    assert decompose(6, 6).right.die == Die.standard(6)
    assert decompose(6, 1).left.die.labels == (1,)
    with pytest.raises(NotADivisor):
        decompose(6, 5)
    with pytest.raises(NotADivisor):
        decompose(6, 0)


def test_decompose_right_poly_structure():
    # x(x^m-1)^2/((x^a-1)(x-1)) = (x+...+x^a)(1+x^a+...+x^(a(b-1)))^2, and
    # long division of the frequency polynomial by the standard a-sided die,
    # a route independent of the net exponents, referees both sides
    for m in range(1, 41):
        for a in divisors(m):
            b = m // a
            blocks = geometric(b).substitute_power(a)
            expected = X * geometric(a) * blocks * blocks
            pair = decompose(m, a)
            assert pair.right.poly == expected, (m, a)
            assert pair.right.poly == frequency_poly(m, m).div_exact(pair.left.poly)
            assert pair.left.poly == die_to_poly(Die.standard(a)), (m, a)
            assert pair.left.die == Die.standard(a), (m, a)


def test_decomposition_die_labels():
    assert decomposition_die_labels(6, 2) == Die(
        (1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10)
    )
    assert decomposition_die_labels(6, 6) == Die.standard(6)
    for m in range(1, 41):
        for a in divisors(m):
            assert decomposition_die_labels(m, a) == decompose(m, a).right.die
    with pytest.raises(NotADivisor):
        decomposition_die_labels(10, 4)


def test_decomposition_face_bound():
    # the large die has m^2/a faces: (1000, 1) is at the bound, (1001, 1)
    # and (1002, 1) are past it; both functions check before building
    assert solver.MAX_DECOMPOSE_FACES == 10**6
    for call in (decompose, decomposition_die_labels):
        for m, a, faces in ((1001, 1, 1002001), (1002, 1, 1004004)):
            with pytest.raises(SolverError, match=f"would have {faces} faces"):
                call(m, a)
        with pytest.raises(SolverError, match="die size must be positive"):
            call(0, 1)
    pair = decompose(1000, 1)
    assert len(pair.right.die.labels) == 10**6
    assert pair.right.die == decomposition_die_labels(1000, 1)
    assert pair.right.poly[1000] == 1000


def e1(vec):
    """Net exponent E_1 of (1 - x) in one side's series form."""
    return net_exponents(vec).get(1, 0)


def test_one_minus_x_exponent_p2q():
    # exponents of (phi_2, phi_3, phi_4, phi_6, phi_12)
    vec = ExponentVector.from_dict({2: 0, 3: 1, 4: 2, 6: 2, 12: 2})
    assert e1(vec) == 1
    standard = ExponentVector.from_dict({2: 1, 3: 1, 4: 1, 6: 1, 12: 1})
    assert e1(standard) == -1


def test_one_minus_x_exponent_pqr():
    vec = ExponentVector.from_dict({2: 1, 3: 1, 5: 1, 6: 2, 10: 2, 15: 2, 30: 0})
    assert e1(vec) == 3
    standard = ExponentVector.from_dict(
        {2: 1, 3: 1, 5: 1, 6: 1, 10: 1, 15: 1, 30: 1}
    )
    assert e1(standard) == -1


def test_one_minus_x_exponent_is_mobius_sum():
    for m in (12, 30):
        mults = _divisor_mults((m, m))
        for vec in candidate_vectors(mults, m):
            expected = sum(c * mobius(d) for d, c in vec.entries)
            assert e1(vec) == expected


def test_positive_exponent_means_negative_coefficient():
    # E_1 > 0 means a negative linear coefficient, on every candidate split
    for m in (12, 18, 30):
        mults = _divisor_mults((m, m))
        for vec in candidate_vectors(mults, m):
            if e1(vec) > 0:
                assert not _vector_poly(vec).is_nonnegative


@pytest.mark.parametrize("name", NET_EXPONENT_PROBLEMS)
def test_net_exponents_match_direct_expansion(name):
    # x * prod(phi_d^c_d) == x * prod((1 - x^k)^E_k) on both sides of every
    # candidate, and -E_1 is the linear coefficient, so the prefix mask
    # rejects every side with E_1 > 0, for every problem kind
    sizes, face_counts = NET_EXPONENT_PROBLEMS[name]
    mults = _divisor_mults(sizes)
    for vec in candidate_vectors(mults, face_counts[0]):
        for side in (vec, vec.complement(mults)):
            net = net_exponents(side)
            body = _vector_poly(side)
            factors = [(one_minus_x_pow(k), e) for k, e in net.items()]
            assert truncated_series_product(factors, body.degree) == body
            assert body[1] == -net.get(1, 0)
            if body.is_nonnegative:
                # the rule gives coefficient lists, lowest power first
                assert solver._expand_side(net) == (list((X * body).coeffs), None)
            else:
                assert solver._expand_side(net) == (None, body.first_negative())


def test_net_exponents_use_the_cyclotomic_rule():
    # one statement of phi_d = prod((1 - x^k)^mobius(d/k)), in cyclotomic
    assert solver.mobius_exponents is mobius_exponents
    for d in range(2, 201):
        vec = ExponentVector.from_dict({d: 1})
        assert net_exponents(vec) == dict(mobius_exponents(d)), d


def test_net_exponents_of_phi():
    assert net_exponents(ExponentVector.from_dict({6: 1})) == {1: 1, 2: -1, 3: -1, 6: 1}
    assert net_exponents(ExponentVector.from_dict({2: 2, 4: 0})) == {1: -2, 2: 2}
    with pytest.raises(ValueError):
        net_exponents(ExponentVector.from_dict({1: 1}))


def test_negative_certificates_p2q():
    certs = negative_certificates("p2q", (2, 3))
    got = {c.vector: (c.power, c.coefficient) for c in certs}
    assert got == {
        (1, 1, 0, 2): (3, -1),
        (2, 0, 2, 2): (2, -1),
        (2, 0, 1, 2): (3, -2),
    }


def test_negative_certificates_pqr():
    certs = negative_certificates("pqr", (2, 3, 5))
    assert len(certs) == 4
    assert {c.vector for c in certs} == set(EXCLUDED_PQR)
    assert all(c.coefficient < 0 for c in certs)


def test_negative_certificates_validation():
    with pytest.raises(SolverError):
        negative_certificates("p2q", (2, 4))
    with pytest.raises(SolverError):
        negative_certificates("p2q", (2, 2))
    with pytest.raises(SolverError):
        negative_certificates("pqr", (2, 3))
    with pytest.raises(UnsupportedShape):
        negative_certificates("cubefree", (2, 3))


@pytest.mark.parametrize(
    "case, primes", [("p2q", (13, 11)), ("p2q", (11, 13)), ("pqr", (13, 7, 11))]
)
def test_negative_certificates_at_large_primes(case, primes):
    # the net-exponent expansion finds the same witness as the direct
    # cyclotomic product, beyond the primes the acceptance criteria reach
    certs = negative_certificates(case, primes)
    assert [c.vector for c in certs] == list(excluded_vectors(case))
    for cert in certs:
        direct = candidate_product(case, primes, cert.vector)
        assert direct.first_negative() == (cert.power, cert.coefficient)


@pytest.fixture
def limits(monkeypatch):
    """Every limit passed to solver.one_minus_x_product, in call order."""
    seen = []

    def recording(exponents, limit):
        seen.append(limit)
        return one_minus_x_product(exponents, limit)

    monkeypatch.setattr(solver, "one_minus_x_product", recording)
    return seen


@pytest.mark.parametrize(
    "case, primes, witnesses",
    [
        ("p2q", (97, 89), [(141, -1), (186, -1), (145, -1)]),
        ("pqr", (41, 43, 47), [(43, -1), (62, -1), (1763, -1), (65, -1)]),
    ],
)
def test_negative_certificates_expand_only_to_the_witness(
    limits, case, primes, witnesses
):
    # each split's full degree is about 2p^2q, but no expansion goes past
    # twice the power of the witness it finds
    certs = negative_certificates(case, primes)
    assert [(c.power, c.coefficient) for c in certs] == witnesses
    assert max(limits) < 2 * max(power for power, _ in witnesses)


def test_certify_prime_bound():
    # every witness of primes up to 1024 lies below x^(2^20)
    assert solver.MAX_CERTIFY_PRIME == 1024
    assert len(negative_certificates("p2q", (2, 1021))) == 3
    for primes in ((2, 1031), (1031, 2), (2, 10**18 + 3)):
        with pytest.raises(SolverError, match=f"{max(primes)} is more than"):
            negative_certificates("p2q", primes)


def test_negative_certificates_missing(monkeypatch):
    # the standard split (1, 1, 1, 1) is nonnegative up to half its degree,
    # which decides the whole palindromic side
    monkeypatch.setattr(solver, "excluded_vectors", lambda case: ((1, 1, 1, 1),))
    with pytest.raises(CertificateMissing):
        negative_certificates("p2q", (5, 3))


def test_enumeration_expands_sides_only_to_half_their_degree(limits):
    # a side of two m-sided dice has degree at most 2m - 2 without its x, and
    # being palindromic it is decided by its coefficients up to m - 1
    for m in (12, 30, 36, 60):
        limits.clear()
        enumerate_pairs(m)
        assert max(limits) <= m - 1, m


@pytest.mark.parametrize("m", [72, 96, 1155])
def test_expansion_limits_skip_a_limit_that_half_would_repeat(monkeypatch, limits, m):
    # every side the enumeration decides gives what one expansion straight to
    # half its degree gives, and is expanded to 32, 64, ... only while twice
    # the limit stays below half, then to half
    nets = []
    expand_side = solver._expand_side
    monkeypatch.setattr(
        solver, "_expand_side", lambda net: nets.append(net) or expand_side(net)
    )
    enumerate_pairs(m)
    assert nets
    for net in nets:
        degree = sum(k * e for k, e in net.items())
        half = degree // 2
        lower = one_minus_x_product(net, half)
        witness = next(((j, c) for j, c in enumerate(lower) if c < 0), None)
        if witness is None:
            want = ([0, *lower, *lower[: degree - half][::-1]], None)
        else:
            want = (None, witness)
        limits.clear()
        assert expand_side(net) == want
        schedule = list(
            itertools.takewhile(
                lambda limit: 2 * limit < half,
                (2 * solver.PREFILTER_DEGREE << i for i in itertools.count()),
            )
        ) + [half]
        assert limits == schedule[: len(limits)]
        if witness is None:
            assert limits == schedule
        else:
            # the witness lies past every limit before the last
            assert witness[0] <= limits[-1]
            assert len(limits) == 1 or witness[0] > limits[-2]


# -- the packed prefix mask against the rule that decides every side ---------

MASK_PROBLEMS = {
    **NET_EXPONENT_PROBLEMS,
    "equal-60": equal(60),
    "unequal-12-72x2": unequal(12, 72, 2),
}


@pytest.mark.parametrize("name", MASK_PROBLEMS)
def test_prefix_mask_matches_expand_side(name):
    # on every split, the mask passes it exactly when _expand_side finds no
    # negative coefficient at or below x^L on either side
    sizes, face_counts = MASK_PROBLEMS[name]
    limit = solver._prefix_limit(face_counts)
    ks, [(head, head_full), (tail, tail_full)] = solver._halves(
        _divisor_mults(sizes), face_counts[0], 10**7
    )
    # a row is its net exponents followed by its exponent vector, and the
    # first is the net form of the second
    for row in [*head, *tail, head_full, tail_full]:
        net = net_exponents(ExponentVector(tuple(zip(ks[1:], row[len(ks):]))))
        assert [net.get(k, 0) for k in ks] == row[: len(ks)], row
    total = [a + b for a, b in zip(head_full, tail_full)]
    symmetric = face_counts[0] == face_counts[1]
    masks = solver._prefix_survivors(
        solver._prefix_pairs(ks, head, head_full, limit, symmetric),
        solver._prefix_pairs(ks, tail, tail_full, limit, symmetric),
        limit,
    )
    for h, passed in zip(head, masks, strict=True):
        for j, t in enumerate(tail):
            left = [a + b for a, b in zip(h, t)]
            right = [a - b for a, b in zip(total, left)]
            witnesses = [
                solver._expand_side(dict(zip(ks, side)))[1] for side in (left, right)
            ]
            slow = all(w is None or w[0] > limit for w in witnesses)
            assert (j in passed) == slow, (h, t)


def test_symmetric_halves_complement_in_reverse():
    # with equal face counts, what row j of a half leaves of its full row is
    # row n - 1 - j, which is what lets _prefix_pairs share each series and
    # lets _enumerate mask only the first half of the heads
    for m in [*range(1, 61), 72, 96]:
        _, halves = solver._halves(_divisor_mults((m, m)), m, 10**7)
        for rows, full in halves:
            leaves = [[f - e for f, e in zip(full, row)] for row in rows]
            assert leaves == rows[::-1], m


def masked_splits(sizes, face_counts):
    """(H, the left net exponents of every split the mask passes, run over
    all H heads, whose left row is at most its right row)."""
    ks, [(head, head_full), (tail, tail_full)] = solver._halves(
        _divisor_mults(sizes), face_counts[0], 10**7
    )
    limit = solver._prefix_limit(face_counts)
    symmetric = face_counts[0] == face_counts[1]
    total = [a + b for a, b in zip(head_full, tail_full)]
    masks = solver._prefix_survivors(
        solver._prefix_pairs(ks, head, head_full, limit, symmetric),
        solver._prefix_pairs(ks, tail, tail_full, limit, symmetric),
        limit,
    )
    nets = []
    for h, passed in zip(head, masks, strict=True):
        for j in passed:
            left = [a + b for a, b in zip(h, tail[j])]
            if left <= [a - b for a, b in zip(total, left)]:
                nets.append(tuple((k, e) for k, e in zip(ks, left) if e))
    return len(head), collections.Counter(nets)


@pytest.fixture
def enumeration_calls(monkeypatch):
    """The heads each `_prefix_survivors` call gets and the net exponents of
    each side `_expand_side` expands, recorded as `_enumerate` calls them."""
    calls = {"heads": [], "nets": collections.Counter()}
    survivors, expand_side = solver._prefix_survivors, solver._expand_side

    def recorded_survivors(heads, tails, limit):
        calls["heads"].append(len(heads))
        return survivors(heads, tails, limit)

    def recorded_expand_side(net):
        calls["nets"][tuple(net.items())] += 1
        return expand_side(net)

    monkeypatch.setattr(solver, "_prefix_survivors", recorded_survivors)
    monkeypatch.setattr(solver, "_expand_side", recorded_expand_side)
    return calls


def test_equal_face_counts_mask_half_the_heads_and_visit_the_same_splits(
    enumeration_calls,
):
    # Every size is below 255, so each right side is a quotient and only left
    # sides are expanded: exactly the representatives of the splits that pass
    # the mask, as if it had run over every head.
    for m in [*range(1, 61), 72, 96]:
        heads, want = masked_splits(*equal(m))
        for run in (
            lambda: enumerate_pairs(m),
            lambda: enumerate_mixed(m, m),
            lambda: enumerate_unequal(m, m, m),
        ):
            enumeration_calls["heads"].clear()
            enumeration_calls["nets"].clear()
            run()
            assert enumeration_calls["heads"] == [(heads + 1) // 2], m
            assert enumeration_calls["nets"] == want, m


@pytest.mark.parametrize("name", ["mixed-4-9", "mixed-5-6", "unequal-12-8x18"])
def test_unequal_face_counts_mask_every_head(enumeration_calls, name):
    sizes, face_counts = NET_EXPONENT_PROBLEMS[name]
    heads, _ = masked_splits(sizes, face_counts)
    enumeration_calls["heads"].clear()
    solver._enumerate(sizes, face_counts, None)
    assert enumeration_calls["heads"] == [heads]


def test_prefix_mask_holds_a_coefficient_at_its_bound():
    # all-ones series to x^127: the products' x^127 coefficient is 128, the
    # bound the digit width is chosen from, and must still read nonnegative
    ones = [1] * 128
    assert list(solver._prefix_survivors([(ones, ones)], [(ones, ones)], 127)) == [[0]]


def truncated_product_nonnegative(a, b):
    return all(sum(a[j] * b[i - j] for j in range(i + 1)) >= 0 for i in range(len(a)))


@given(st.data())
def test_prefix_mask_matches_direct_products(data):
    # small random series, zero constant terms included, against each
    # truncated product expanded directly
    limit = data.draw(st.integers(0, 6))
    series = st.lists(st.integers(-3, 3), min_size=limit + 1, max_size=limit + 1)
    pairs = st.lists(st.tuples(series, series), min_size=1, max_size=6)
    heads, tails = data.draw(pairs), data.draw(pairs)
    want = [
        [
            j
            for j, (tail_left, tail_right) in enumerate(tails)
            if truncated_product_nonnegative(left, tail_left)
            and truncated_product_nonnegative(right, tail_right)
        ]
        for left, right in heads
    ]
    assert list(solver._prefix_survivors(heads, tails, limit)) == want


def test_case_vectors_need_four_exponents():
    for case, primes, vector in (
        ("p2q", (2, 3), (1, 1)),
        ("p2q", (2, 3), (1, 1, 0, 2, 0)),
        ("pqr", (2, 3, 5), (0, 2)),
        ("pqr", (2, 3, 5), (0, 2, 2, 2, 1)),
    ):
        for call in (
            lambda: candidate_product(case, primes, vector),
            lambda: reduced_form_matches(case, primes, vector, 10),
        ):
            with pytest.raises(SolverError, match="needs 4 exponents"):
                call()


def test_excluded_vectors_table():
    assert excluded_vectors("p2q") == EXCLUDED_P2Q
    assert excluded_vectors("pqr") == EXCLUDED_PQR


def test_reduced_series_forms_match_direct_expansion():
    for vec in EXCLUDED_P2Q:
        assert reduced_form_matches("p2q", (2, 3), vec, 24)
        assert reduced_form_matches("p2q", (3, 2), vec, 36)
    for vec in EXCLUDED_PQR:
        assert reduced_form_matches("pqr", (2, 3, 5), vec, 60)


def test_reduced_series_form_is_the_cancelled_form():
    for (case, primes), forms in CANCELLED_FORMS.items():
        assert set(forms) == set(excluded_vectors(case))
        for vector, form in forms.items():
            net = net_exponents(_case_vector(case, primes, vector))
            assert list(net.items()) == sorted(form)


def test_excluded_splits_are_skipped_by_enumeration():
    # the tabulated exclusions really are the gap between candidates and pairs
    pairs = enumerate_pairs(12)
    seen = {p.left.vector.entries for p in pairs} | {
        p.right.vector.entries for p in pairs
    }
    for c_p, c_p2, c_pq, c_p2q in EXCLUDED_P2Q:
        vec = ExponentVector.from_dict(
            {2: c_p, 4: c_p2, 3: 1, 6: c_pq, 12: c_p2q}
        )
        assert vec.entries not in seen


def _move_last_up(coeffs):
    # the top coefficient one power higher: the same value at x=1
    return [*coeffs[:-1], 0, coeffs[-1]]


def _raise_last(coeffs):
    # the top coefficient one larger: the value at x=1 changes too
    return [*coeffs[:-1], coeffs[-1] + 1]


# Values of QUOTIENT_MAX_WIDTH that force each right-side rule at any size:
# every digit width is at most 8 bytes and at least 1.
RIGHT_SIDE_RULES = {"quotient": 8, "expansion": 0}


@pytest.mark.parametrize("change", [_move_last_up, _raise_last])
# At 12 the first split refused has net exponents unlike its exponent vector,
# so a vector read from the wrong part of its row is caught.
@pytest.mark.parametrize("problem", [equal(6), unequal(6, 4, 9), equal(12)])
def test_product_check_rejects_a_wrong_side(monkeypatch, change, problem):
    # every surviving pair is divided into or multiplied back to the
    # frequency polynomial, so a side that is wrong but still nonnegative
    # cannot pass, whichever rule takes the right side
    expand_side = solver._expand_side

    def wrong_side(net):
        coeffs, witness = expand_side(net)
        return (None if coeffs is None else change(coeffs)), witness

    monkeypatch.setattr(solver, "_expand_side", wrong_side)
    mults = _divisor_mults(problem[0])
    for max_width in RIGHT_SIDE_RULES.values():
        monkeypatch.setattr(solver, "QUOTIENT_MAX_WIDTH", max_width)
        with pytest.raises(AssertionError, match="does not multiply back") as exc:
            solver._enumerate(*problem, None)
        # the message names the left side's exponent vector: one exponent in
        # 0..multiplicity for each divisor of the problem, whose product of
        # phi_d^c_d has the left side's face count
        entries = re.fullmatch(
            r"split ExponentVector\(entries=(.*)\) does not multiply back.*",
            str(exc.value),
        )[1]
        vector = ExponentVector(ast.literal_eval(entries))
        assert [d for d, _ in vector.entries] == sorted(mults)
        assert all(0 <= c <= mults[d] for d, c in vector.entries), vector
        assert sum(_vector_poly(vector).coeffs) == problem[1][0], vector


# The problems where a right side has a negative coefficient after its left
# side passes, and size 96, where 1,920 of its splits do.
QUOTIENT_PROBLEMS = [
    mixed(10, 3),
    *[mixed(12, b) for b in range(1, 7)],
    *[unequal(12, s, 144 // s) for s in (8, 24, 36, 48, 72, 144)],
    *[unequal(18, s, 324 // s) for s in (36, 54, 81, 108, 162, 324)],
    equal(96),
]


@pytest.mark.parametrize("problem", QUOTIENT_PROBLEMS, ids=str)
def test_quotient_rule_matches_expand_side(monkeypatch, problem):
    # on every split whose left side passes, F / L keeps the split exactly
    # when _expand_side accepts the right side, and gives the same polynomial;
    # so does the rule that expands the right side and multiplies back
    sizes, face_counts = problem
    mults = _divisor_mults(sizes)
    for rule, max_width in RIGHT_SIDE_RULES.items():
        monkeypatch.setattr(solver, "QUOTIENT_MAX_WIDTH", max_width)
        right_side = solver._right_side_rule(sizes)
        assert right_side.__name__ == f"by_{rule}"
        refused = 0
        for vec in candidate_vectors(mults, face_counts[0]):
            left, _ = solver._expand_side(net_exponents(vec))
            if left is None:
                continue
            right_net = net_exponents(vec.complement(mults))
            right, _ = solver._expand_side(right_net)
            assert right_side(left, right_net.items()) == right, vec
            refused += right is None
        assert refused > 0


def test_right_side_rule_follows_the_digit_width():
    # F(1) = m^2 takes 2-byte digits up to m = 255, and 4-byte ones from 256
    assert solver.QUOTIENT_MAX_WIDTH == 2
    assert solver._right_side_rule((255, 255)).__name__ == "by_quotient"
    assert solver._right_side_rule((256, 256)).__name__ == "by_expansion"
    # 286 = 2 * 11 * 13 takes the expansion rule unforced
    assert len(enumerate_pairs(286)) == 13


@pytest.mark.parametrize("width", range(1, 10))
def test_pack_is_the_sum_of_its_digits(width):
    # widths 1, 2, 4 and 8 pack by struct, the others digit by digit, as the
    # prefix mask's bound can call for
    top = (1 << (8 * width)) - 1
    spread = [(top * i) // 299 for i in range(300)]
    for coeffs in ([], [0], [top], [0, 1, top, 7, top - 1, 0], spread):
        assert solver._pack(coeffs, width) == sum(
            c << (8 * width * i) for i, c in enumerate(coeffs)
        )


@pytest.mark.parametrize("width", range(1, 10))
def test_digits_read_back_what_pack_packs(width):
    # as the quotient rule reads its quotient, which may be negative or too
    # long, and as the oracle reads its dice, at widths of 3 bytes and more
    top = (1 << (8 * width)) - 1
    coeffs = [0, 1, top, 7, top - 1]
    value = solver._pack(coeffs, width)
    assert solver.unpack_digits(value, 5, width) == coeffs
    assert solver.unpack_digits(value, 6, width) == [*coeffs, 0]
    for bad, n in ((value, 4), (-1, 5)):  # too many digits, or negative
        with pytest.raises(OverflowError):
            solver.unpack_digits(bad, n, width)
    spread = [(top * i) // 299 for i in range(300)]
    assert solver.unpack_digits(solver._pack(spread, width), 300, width) == spread
    assert solver.unpack_digits(solver._pack([], width), 0, width) == []


def test_quotient_rule_refuses_a_left_side_that_does_not_divide():
    right_side = solver._right_side_rule((6, 6))
    with pytest.raises(NonExactDivision):
        right_side([0, 1, 1, 1, 1], ())


# -- the enumeration's pruning against a plain referee ------------------------

# Unordered pair counts of sizes where the expansion to x^16 rejects most sides.
PAIR_COUNTS = {36: 57, 60: 125, 72: 348, 96: 583}

REFEREE_PROBLEMS = {
    "equal": [equal(m) for m in range(1, 41)],
    "mixed": [mixed(a, b) for a in range(1, 13) for b in range(1, 13)],
    "unequal": [
        unequal(m, s, m * m // s)
        for m in range(1, 19)
        for s in divisors(m * m)
    ],
}


def referee_enumeration(sizes, face_counts):
    """Every split expanded in full, with only the E_1 skip: no half expansion
    and no complement symmetry."""
    mults = _divisor_mults(sizes)
    left_size, right_size = face_counts
    found = {}
    for vec in candidate_vectors(mults, left_size):
        sides = []
        for side in (vec, vec.complement(mults)):
            net = net_exponents(side)
            if net.get(1, 0) > 0:
                break
            body = IntPoly(
                one_minus_x_product(net, sum(k * e for k, e in net.items()))
            )
            if not body.is_nonnegative:
                break
            poly = X * body
            sides.append(SolutionSide(poly_to_die(poly), side))
        else:
            pair = SolutionPair(*sides)
            if left_size == right_size:
                pair = pair.sorted_sides()
            found.setdefault(pair.labels, pair)
    return sorted(found.values(), key=lambda p: p.labels)


@pytest.mark.parametrize("kind", REFEREE_PROBLEMS)
def test_pruning_changes_nothing(kind):
    # same labels, exponent vectors and polynomials, in the same order
    for sizes, face_counts in REFEREE_PROBLEMS[kind]:
        want = referee_enumeration(sizes, face_counts)
        got = solver._enumerate(sizes, face_counts, None)
        assert got == want, (sizes, face_counts)
        assert [(p.left.poly, p.right.poly) for p in got] == [
            (p.left.poly, p.right.poly) for p in want
        ], (sizes, face_counts)


def test_pair_counts():
    for m, count in PAIR_COUNTS.items():
        assert len(enumerate_pairs(m)) == count


def test_results_come_sorted_by_labels_smaller_die_first():
    # The solver orders sides and pairs by coefficients, in descending order;
    # that must be label order wherever the dice compared have one face count.
    runs = [
        *((m, m, enumerate_pairs(m)) for m in range(1, 61)),
        *((a, b, enumerate_mixed(a, b)) for a in range(1, 13) for b in range(1, 13)),
        *(
            (s, m * m // s, enumerate_unequal(m, s, m * m // s))
            for m in range(1, 13)
            for s in divisors(m * m)
        ),
    ]
    for s1, s2, pairs in runs:
        labels = labels_of(pairs)
        assert labels == sorted(set(labels)), (s1, s2)
        for left, right in labels:
            assert (len(left), len(right)) == (s1, s2)
            if s1 == s2:
                assert left <= right, (s1, s2, left, right)


def test_sweep_to_30_is_pinned_and_builds_labels_only_for_what_it_reports(
    label_builds,
):
    report = conjecture_sweep(30)
    # recorded while the sweep compared every pair's labels
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "516361315daab9bf8ed1e96615691e8b320a3b7762b5af391d4be9b8ef35997c"
    )
    assert len(label_builds) == 2 * report.total_nontrivial == 552
