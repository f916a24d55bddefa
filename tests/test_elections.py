from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from electodist import (
    COMPASS_KINDS,
    Election,
    all_orders,
    apply_matchings,
    borda_vector,
    canonical_anec_key,
    compass_election,
    compass_matrix,
    frequency_matrix,
    majority_matrix,
    parse_election,
    position_matrix,
    position_of,
    serialize_election,
)

from electodist import elections as elections_module
from electodist.elections import _order_table, _upper_pairs

from _oracles import loop_election_votes, permutations_all_orders
from conftest import ALL_ORDERS_3, CYCLIC_DOUBLED, SMALL_A, SPLIT_REVERSED, elections


def test_election_basic_shape():
    assert SMALL_A.m == 3
    assert SMALL_A.n == 3
    assert SMALL_A.votes[1] == (1, 2, 0)
    assert SMALL_A.array.shape == (3, 3)
    assert SMALL_A.array.dtype == np.int64


def test_election_rejects_bad_votes():
    with pytest.raises(ValueError):
        Election(3, [(0, 1)])
    with pytest.raises(ValueError):
        Election(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Election(3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        Election(3, [])
    with pytest.raises(ValueError):
        Election(0, [()])


def test_election_is_immutable():
    with pytest.raises(AttributeError):
        SMALL_A.m = 5
    arr = SMALL_A.array
    with pytest.raises(ValueError):
        arr[0, 0] = 9


def test_election_equality_and_hash():
    # the same votes as tuples, an int8 array and int32 rows are one election
    votes = [(0, 1, 2), (1, 2, 0), (1, 0, 2)]
    forms = [
        Election(3, votes),
        Election(3, np.array(votes, dtype=np.int8)),
        Election(3, [np.array(v, dtype=np.int32) for v in votes]),
    ]
    assert all(e == SMALL_A and hash(e) == hash(SMALL_A) for e in forms)
    others = [
        Election(3, [(0, 1, 2)] * 3),
        Election(4, [v + (3,) for v in votes]),
        Election(3, votes + [(0, 1, 2)]),
        Election(3, votes[::-1]),
    ]
    assert all(e != SMALL_A for e in others)


def test_election_owns_a_read_only_copy_of_its_votes():
    arr = np.array([[0, 1, 2], [2, 1, 0]])
    e = Election(3, arr)
    arr[0] = (2, 1, 0)
    assert e.votes == ((0, 1, 2), (2, 1, 0))
    assert e.array.tolist() == [[0, 1, 2], [2, 1, 0]]
    assert arr.flags.writeable
    assert not e.array.flags.writeable


# (m, a function making the votes): inputs the one-pass check takes, inputs
# it hands to the per-vote check, and inputs both reject
VOTE_INPUTS = {
    "int8": (3, lambda: np.array([[0, 2, 1], [2, 1, 0]], dtype=np.int8)),
    "uint8": (3, lambda: np.array([[0, 2, 1], [2, 1, 0]], dtype=np.uint8)),
    "int32": (3, lambda: np.array([[1, 2, 0]], dtype=np.int32)),
    "int64": (3, lambda: np.array([[1, 2, 0], [0, 1, 2]], dtype=np.int64)),
    "tuples": (3, lambda: [(0, 2, 1), (1, 0, 2)]),
    "numpy-rows": (3, lambda: [np.array([0, 2, 1]), np.array([1, 0, 2], dtype=np.int32)]),
    "generator": (3, lambda: (v for v in [(0, 1, 2), (2, 0, 1)])),
    "integral-floats": (3, lambda: np.array([[0.0, 2.0, 1.0]])),
    "non-integral-floats": (3, lambda: np.array([[0.0, 2.5, 1.0]])),
    "bool-tuples": (2, lambda: [(True, False)]),
    "bool-array": (2, lambda: np.array([[True, False], [False, True]])),
    "ragged": (3, lambda: [(0, 1, 2), (0, 1)]),
    "empty": (3, lambda: []),
    "no-rows": (3, lambda: np.zeros((0, 3), dtype=np.int64)),
    "out-of-range": (3, lambda: np.array([[0, 1, 3]])),
    "repeated": (3, lambda: [(0, 1, 2), (0, 1, 1)]),
    "huge-entry": (2, lambda: [(0, 2**70)]),
    "wrong-length": (3, lambda: np.array([[0, 1], [1, 0]])),
    "three-dimensional": (3, lambda: np.zeros((2, 3, 3), dtype=np.int64)),
}


def _outcome(call):
    # the call's value, or the message of the ValueError it raised
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("m, make", VOTE_INPUTS.values(), ids=VOTE_INPUTS.keys())
def test_election_checks_votes_as_the_per_vote_loop_did(m, make):
    got = _outcome(lambda: Election(m, make()).votes)
    assert got == _outcome(lambda: loop_election_votes(m, make()))


@pytest.mark.parametrize("votes", [
    np.array([[0, 2, 1], [2, 1, 0]], dtype=np.int8),
    [(0, 2, 1), (1, 0, 2)],
    [np.array([0, 2, 1]), np.array([1, 0, 2])],
], ids=["int8-array", "tuples", "numpy-rows"])
def test_valid_votes_are_checked_in_one_pass(votes):
    with mock.patch.object(elections_module, "_check_permutation", side_effect=AssertionError):
        assert Election(3, votes).n == 2


def test_position_of():
    vote = (1, 2, 0)
    assert position_of(vote, 1) == 1
    assert position_of(vote, 2) == 2
    assert position_of(vote, 0) == 3
    with pytest.raises(ValueError):
        position_of(vote, 3)


def test_majority_matrix_known_values():
    expected = np.array([[0, 1, 2], [2, 0, 3], [1, 0, 0]])
    assert np.array_equal(majority_matrix(SMALL_A), expected)


def test_position_matrix_known_values():
    expected = np.array([[1, 2, 0], [1, 1, 1], [1, 0, 2]])
    assert np.array_equal(position_matrix(SMALL_A), expected)


def test_borda_vector_known_values():
    assert borda_vector(SMALL_A).tolist() == [3, 5, 1]


@given(elections())
@settings(max_examples=60, deadline=None)
def test_aggregate_invariants(election):
    m, n = election.m, election.n
    wins = majority_matrix(election)
    assert np.array_equal(np.diag(wins), np.zeros(m, dtype=np.int64))
    off = wins + wins.T
    np.fill_diagonal(off, n)
    assert np.all(off == n)
    counts = position_matrix(election)
    assert counts.sum(axis=0).tolist() == [n] * m
    assert counts.sum(axis=1).tolist() == [n] * m
    scores = borda_vector(election)
    assert scores.sum() == n * m * (m - 1) // 2
    # Borda is recoverable from both aggregates
    assert np.array_equal(scores, wins.sum(axis=1))
    weights = np.arange(m - 1, -1, -1)
    assert np.array_equal(scores, weights @ counts)


def test_frequency_matrix_is_bistochastic_fractions():
    freq = frequency_matrix(SMALL_A)
    assert freq[0, 1] == Fraction(2, 3)
    for i in range(3):
        assert sum(freq[i, :]) == 1
        assert sum(freq[:, i]) == 1


def test_apply_matchings_small_case():
    moved = apply_matchings(SMALL_A, (2, 0, 1), (1, 0, 2))
    # vote 0 of the result relabels vote 1 of the input
    assert moved.votes[0] == tuple((2, 0, 1)[c] for c in SMALL_A.votes[1])
    assert moved.votes[2] == tuple((2, 0, 1)[c] for c in SMALL_A.votes[2])


def test_apply_matchings_identity_is_noop():
    assert apply_matchings(SMALL_A, (0, 1, 2), (0, 1, 2)) == SMALL_A


def test_apply_matchings_validates():
    with pytest.raises(ValueError):
        apply_matchings(SMALL_A, (0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        apply_matchings(SMALL_A, (0, 1, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        apply_matchings(SMALL_A, (0, 1, 2), (0, 2, 2))


def test_all_orders_lexicographic():
    orders = all_orders(3)
    assert len(orders) == 6
    assert orders[0] == (0, 1, 2)
    assert list(orders) == sorted(orders)


@pytest.mark.parametrize("m", range(8))
def test_all_orders_equal_itertools_permutations(m):
    assert all_orders(m) == permutations_all_orders(m)


@pytest.mark.parametrize("k", range(9))
def test_upper_pairs_are_in_combinations_order(k):
    # the order distance_values yields values in, and distance_matrix and
    # matrix_correlation place them in
    first, second = _upper_pairs(k)
    assert list(zip(first.tolist(), second.tolist())) == list(itertools.combinations(range(k), 2))


@pytest.mark.parametrize("m", range(1, 9))
def test_order_table_lists_permutations_in_order(m):
    table = _order_table(m)
    assert table.dtype == np.int64
    assert table.tolist() == [list(p) for p in itertools.permutations(range(m))]
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_compass_id():
    e = compass_election("ID", 4, 5)
    assert e.votes == ((0, 1, 2, 3),) * 5


def test_compass_an():
    e = compass_election("AN", 3, 6)
    assert e.votes[:3] == ((0, 1, 2),) * 3
    assert e.votes[3:] == ((2, 1, 0),) * 3
    assert e == SPLIT_REVERSED


def test_compass_un():
    e = compass_election("UN", 3, 12)
    counts = {}
    for v in e.votes:
        counts[v] = counts.get(v, 0) + 1
    assert counts == {v: 2 for v in all_orders(3)}


def test_compass_st():
    e = compass_election("ST", 4, 8)
    counts = {}
    for v in e.votes:
        assert set(v[:2]) == {0, 1}, "first block must fill the top half"
        counts[v] = counts.get(v, 0) + 1
    assert len(counts) == 4
    assert set(counts.values()) == {2}


def test_compass_divisibility_errors():
    with pytest.raises(ValueError):
        compass_election("AN", 3, 5)
    with pytest.raises(ValueError):
        compass_election("UN", 3, 8)
    with pytest.raises(ValueError):
        compass_election("ST", 3, 4)
    with pytest.raises(ValueError):
        compass_election("ST", 4, 6)
    with pytest.raises(ValueError):
        compass_election("XX", 3, 6)


def test_compass_divisors_are_checked_before_any_order_is_built():
    # building the orders before the check cost 557 MB of RSS for UN at
    # m=10 and a 71 MB traced peak for ST at m=12
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as un:
            compass_election("UN", 10, 24)
        with pytest.raises(ValueError) as st_:
            compass_election("ST", 12, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(un.value) == "compass election requires m! = 3628800 divides n (got n=24)"
    assert str(st_.value) == "compass election requires ((m/2)!)^2 = 518400 divides n (got n=24)"
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", COMPASS_KINDS)
def test_compass_matrix_matches_generated_election(kind):
    mat = compass_matrix(kind, 4)
    freq = frequency_matrix(compass_election(kind, 4, 24))
    assert np.array_equal(mat, freq)


def test_compass_matrix_an_odd_m():
    mat = compass_matrix("AN", 3)
    assert mat[1, 1] == 1
    assert mat[0, 0] == Fraction(1, 2)
    assert mat[0, 2] == Fraction(1, 2)
    assert mat[0, 1] == 0


def test_compass_matrix_st_rejects_odd_m():
    with pytest.raises(ValueError):
        compass_matrix("ST", 5)


@given(elections(), st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_key_is_isomorphism_invariant(election, data):
    sigma = data.draw(st.permutations(range(election.m)))
    rho = data.draw(st.permutations(range(election.n)))
    moved = apply_matchings(election, tuple(sigma), tuple(rho))
    assert canonical_anec_key(moved) == canonical_anec_key(election)


def test_canonical_key_separates_known_nonisomorphic_triple():
    keys = {
        canonical_anec_key(ALL_ORDERS_3),
        canonical_anec_key(CYCLIC_DOUBLED),
        canonical_anec_key(SPLIT_REVERSED),
    }
    assert len(keys) == 3


def test_canonical_key_guard():
    big = Election(9, [tuple(range(9))])
    with pytest.raises(ValueError):
        canonical_anec_key(big)


def test_serialize_parse_round_trip():
    assert parse_election(serialize_election(SMALL_A)) == SMALL_A


def test_parse_accepts_comments_and_blank_lines():
    text = "# header comment\n3 2\n\n0 1 2\n# between votes\n2 1 0\n"
    e = parse_election(text)
    assert e.votes == ((0, 1, 2), (2, 1, 0))


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_election("")
    with pytest.raises(ValueError):
        parse_election("3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_election("a b\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_election("3 2\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_election("3 1\n0 1 1\n")
    with pytest.raises(ValueError):
        parse_election("3 1\n0 x 2\n")
    with pytest.raises(ValueError):
        parse_election("0 1\n\n")


def test_serialized_form_is_plain():
    text = serialize_election(Election(2, [(1, 0)]))
    assert text == "2 1\n1 0\n"
