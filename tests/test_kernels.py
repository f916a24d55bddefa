"""Differential checks: each vectorized kernel against the loop it replaced."""

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
    METRIC_KINDS,
    Election,
    all_orders,
    apply_matchings,
    borda_vector,
    canonical_anec_key,
    check_diameter,
    count_equivalence_classes,
    distance,
    distance_matrix,
    enumerate_anecs,
    frequency_matrix,
    iso_distance,
    majority_matrix,
    majority_realizable_bruteforce,
    pairwise_distance,
    position_matrix,
    positionwise_distance,
    solve_assignment,
)
from electodist import analysis, metrics
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows
from electodist.metrics import distance_values, vote_swap_distance

from conftest import election_pairs, elections
from _oracles import (
    branch_and_bound_pairwise,
    bruteforce_majority_realizable,
    dict_discrete_search,
    lexicographic_swap_search,
    loop_borda_vector,
    loop_count_equivalence_classes,
    loop_enumerate_anecs,
    loop_majority_matrix,
    loop_position_matrix,
    loop_positionwise_distance,
    pair_loop_distance_matrix,
    refinement_solve_assignment,
    relabel_canonical_anec_key,
)


@settings(max_examples=150, deadline=None)
@given(elections(min_m=1, max_m=7, max_n=9))
def test_aggregates_equal_their_loop_versions(election):
    for fast, slow in (
        (position_matrix, loop_position_matrix),
        (majority_matrix, loop_majority_matrix),
        (borda_vector, loop_borda_vector),
    ):
        got, want = fast(election), slow(election)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(election_pairs(min_m=1, max_m=7, max_n=6))
def test_pairwise_equals_branch_and_bound(pair):
    a, b = pair
    ma, mb = majority_matrix(a), majority_matrix(b)
    value, sigma = branch_and_bound_pairwise(ma, mb)
    for out in (pairwise_distance(a, b), pairwise_distance(ma, mb)):
        assert out.value == value
        assert out.candidate_matching == sigma


def test_pairwise_equals_branch_and_bound_across_blocks():
    # at m = 8 the enumeration runs in eight blocks of 7! matchings
    rng = np.random.default_rng(8)
    for _ in range(2):
        a, b = (Election(8, [rng.permutation(8) for _ in range(5)]) for _ in range(2))
        ma, mb = majority_matrix(a), majority_matrix(b)
        out = pairwise_distance(ma, mb)
        assert (out.value, out.candidate_matching) == branch_and_bound_pairwise(ma, mb)


def test_pairwise_ties_resolve_to_smallest_matching_across_blocks():
    # equal off-diagonal cells make all 8! matchings optimal, so the
    # witness must be the identity, found in the first block
    flat = np.full((8, 8), 2)
    np.fill_diagonal(flat, 0)
    out = pairwise_distance(flat, flat)
    assert out.value == 0
    assert out.candidate_matching == tuple(range(8))


def test_pairwise_at_the_guard_allocates_no_full_table():
    rng = np.random.default_rng(10)
    a, b = (Election(10, [rng.permutation(10) for _ in range(4)]) for _ in range(2))
    ma, mb = majority_matrix(a), majority_matrix(b)
    tracemalloc.start()
    try:
        out = pairwise_distance(ma, mb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of all 10! matchings alone would take 290 MB
    assert peak < 40e6
    s = np.array(out.candidate_matching)
    assert out.value == int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())
    assert sorted(out.candidate_matching) == list(range(10))


@st.composite
def pooled_pairs(draw, max_m=6, max_n=8):
    # both elections draw their votes from two or three orders, so many
    # relabelings tie for the optimum
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    vote = st.sampled_from(draw(st.lists(st.permutations(range(m)), min_size=2, max_size=3)))
    return tuple(Election(m, [draw(vote) for _ in range(n)]) for _ in range(2))


def assert_same_outcome(got, want):
    assert (got.value, got.candidate_matching, got.voter_matching) == (
        want.value,
        want.candidate_matching,
        want.voter_matching,
    )


# chunk sizes, in gathered signs, from one relabeling per chunk to the default
CHUNK_ENTRIES = (1, 200, metrics._SWAP_CHUNK_ENTRIES)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(pooled_pairs(), election_pairs(min_m=1, max_m=6, max_n=8)),
    st.sampled_from(CHUNK_ENTRIES),
)
def test_isomorphic_searches_equal_their_loop_versions(pair, entries):
    a, b = pair
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        assert_same_outcome(iso_distance(a, b, "swap"), lexicographic_swap_search(a, b))
    assert_same_outcome(iso_distance(a, b, "discrete"), dict_discrete_search(a, b))


TIED_PAIRS = [
    # three optimal relabelings; the lexicographically smallest has a
    # larger majority bound than another, so the search meets it later
    (
        Election(5, [(1, 2, 0, 4, 3)] + [(1, 3, 0, 4, 2)] * 3),
        Election(5, [(0, 3, 1, 2, 4)] * 2 + [(1, 2, 0, 4, 3), (1, 3, 0, 4, 2)]),
    ),
    # several relabelings, the identity among them, share the tightened
    # bound of the optimum, so a chunk must visit them by index
    (
        Election(5, [(4, 1, 3, 2, 0), (2, 0, 1, 3, 4), (4, 1, 3, 2, 0), (3, 4, 1, 0, 2), (2, 0, 1, 3, 4)]),
        Election(5, [(3, 4, 1, 0, 2)] * 2 + [(2, 0, 1, 3, 4), (4, 1, 3, 2, 0), (3, 4, 1, 0, 2)]),
    ),
]


@pytest.mark.parametrize("entries", CHUNK_ENTRIES)
@pytest.mark.parametrize("a, b", TIED_PAIRS)
def test_swap_ties_resolve_to_smallest_relabeling(a, b, entries):
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        assert_same_outcome(iso_distance(a, b, "swap"), lexicographic_swap_search(a, b))


@pytest.mark.parametrize(
    "a, b",
    [
        # far: the search builds the cost matrices of several chunks
        (sample_ic(8, 8, 81), sample_euclidean(8, 8, 82, "disc_2d")),
        # close: the optimum is met in the first chunk
        (sample_mallows(8, 8, 83, 0.3), sample_mallows(8, 8, 84, 0.3)),
    ],
    ids=["far", "close"],
)
def test_swap_search_equals_loop_version_at_the_guard(a, b):
    assert_same_outcome(iso_distance(a, b, "swap"), lexicographic_swap_search(a, b))


def test_swap_search_allocates_no_full_table():
    a, b = sample_ic(8, 20, 85), sample_euclidean(8, 20, 86, "disc_2d")
    tracemalloc.start()
    try:
        out = iso_distance(a, b, "swap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the majority matrices of all 8! relabelings alone would take 20 MB
    assert peak < 16e6
    sigma, rho = out.candidate_matching, out.voter_matching
    relabeled = [[sigma[c] for c in vote] for vote in a.votes]
    assert out.value == sum(
        vote_swap_distance(relabeled[i], b.votes[rho[i]]) for i in range(a.n)
    )


@st.composite
def square_costs(draw, min_k=0, max_k=6, entries=st.integers(0, 3), dtype=np.int64):
    # few distinct entries, so many matchings tie for the optimum
    k = draw(st.integers(min_k, max_k))
    return np.array([draw(entries) for _ in range(k * k)], dtype=dtype).reshape(k, k)


fractions = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(square_costs(), square_costs(max_k=4, entries=fractions, dtype=object))
)
def test_lexmin_assignment_equals_refinement(costs):
    matching, total = solve_assignment(costs)
    want_matching, want_total = refinement_solve_assignment(costs)
    assert (matching, total) == (want_matching, want_total)
    assert type(total) is type(want_total)


@settings(max_examples=100, deadline=None)
@given(square_costs(max_k=10))
def test_lexmin_assignment_makes_at_most_k_minus_one_solves(costs):
    k = len(costs)
    with mock.patch.object(
        metrics, "linear_sum_assignment", wraps=metrics.linear_sum_assignment
    ) as lsa:
        solve_assignment(costs)
    assert lsa.call_count <= max(k - 1, 0)


def assert_same_positionwise(got, want):
    assert_same_outcome(got, want)
    assert type(got.value) is type(want.value)


@settings(max_examples=80, deadline=None)
@given(election_pairs(min_m=1, max_m=6, max_n=6))
def test_positionwise_on_elections_equals_matrix_path(pair):
    # elections, their position matrices and their Fraction frequency
    # matrices, against the per-column loop with the refinement solve
    a, b = pair
    for variant in ("EMD", "L1"):
        want = loop_positionwise_distance(position_matrix(a), position_matrix(b), variant)
        assert_same_positionwise(positionwise_distance(a, b, variant), want)
        assert_same_positionwise(
            positionwise_distance(position_matrix(a), position_matrix(b), variant), want
        )
        assert_same_positionwise(
            positionwise_distance(frequency_matrix(a), frequency_matrix(b), variant),
            loop_positionwise_distance(frequency_matrix(a), frequency_matrix(b), variant),
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(*[square_costs(m, m)] * 2)))
def test_positionwise_on_integer_matrices_equals_loop(pair):
    # arbitrary nonnegative matrices: l1 needs no common column sum
    xa, xb = pair
    assert_same_positionwise(
        positionwise_distance(xa, xb, "L1"), loop_positionwise_distance(xa, xb, "L1")
    )


def test_positionwise_witness_makes_at_most_m_minus_one_solves():
    a, b = sample_mallows(10, 100, 89, 0.5), sample_ic(10, 100, 90)
    with mock.patch.object(
        metrics, "linear_sum_assignment", wraps=metrics.linear_sum_assignment
    ) as lsa:
        out = positionwise_distance(a, b, "EMD")
    assert lsa.call_count <= 9
    want = loop_positionwise_distance(position_matrix(a), position_matrix(b), "EMD")
    assert_same_positionwise(out, want)


def test_check_diameter_recomputes_no_pair(monkeypatch):
    # with UN replaced by ID the bound is 0, so every pair at a positive
    # distance violates it; its value must come from distance_values
    identity = analysis.compass_election
    monkeypatch.setattr(
        analysis, "compass_election", lambda kind, m, n: identity("ID", m, n)
    )
    rng = np.random.default_rng(5)
    dataset = [Election(4, [rng.permutation(4) for _ in range(5)]) for _ in range(5)]
    for kind in METRIC_KINDS:
        calls = mock.Mock(wraps=metrics.distance)
        with mock.patch.object(metrics, "distance", calls), mock.patch.object(
            analysis, "distance", calls, create=True
        ):
            violations = check_diameter(dataset, kind)
        assert violations
        assert all(type(v) is int for _, _, v in violations)
        assert calls.call_count == 0


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    return [
        Election(m, [draw(st.permutations(range(m))) for _ in range(n)])
        for _ in range(k)
    ]


@settings(max_examples=40, deadline=None)
@given(datasets(), st.sampled_from(METRIC_KINDS))
def test_distance_matrix_equals_pair_loop(dataset, kind):
    dm = distance_matrix(dataset, kind)
    want = pair_loop_distance_matrix(dataset, kind)
    assert dm.cells.tobytes() == want.tobytes()


def test_distance_values_follow_combinations_order():
    rng = np.random.default_rng(3)
    dataset = [Election(4, [rng.permutation(4) for _ in range(5)]) for _ in range(5)]
    for kind in METRIC_KINDS:
        got = distance_values(dataset, kind)
        want = [
            distance(dataset[i], dataset[j], kind).value
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want
    assert distance_values(dataset[:1], "emdpos").dtype == np.int64
    assert distance_values(dataset[:1], "emdpos").shape == (0,)
    with pytest.raises(ValueError):
        distance_values(dataset, "kendall")


def test_distance_values_make_no_distance_call():
    rng = np.random.default_rng(4)
    dataset = [Election(4, [rng.permutation(4) for _ in range(5)]) for _ in range(5)]
    for kind in METRIC_KINDS:
        calls = mock.Mock(wraps=metrics.distance)
        with mock.patch.object(metrics, "distance", calls):
            distance_values(dataset, kind)
        assert calls.call_count == 0


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_distance_values_reject_mixed_shapes_first(kind):
    a = Election(3, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    # differing n, then differing m: at m = 11 the guards of swap and
    # pairwise would fail too, so the shape check must come first
    for other in (
        Election(3, [(0, 1, 2)] * 5),
        Election(11, [tuple(range(11))] * 3),
    ):
        with pytest.raises(ValueError, match="elections differ in shape"):
            distance_values([a, a, other], kind)
        with pytest.raises(ValueError, match="elections differ in shape"):
            distance_values([other, a], kind)


@pytest.mark.parametrize("m", range(1, 5))
def test_census_equals_loop_version(m):
    for n in range(1, 6):
        assert [e.votes for e in enumerate_anecs(m, n)] == [
            e.votes for e in loop_enumerate_anecs(m, n)
        ]
        assert count_equivalence_classes(m, n) == loop_count_equivalence_classes(m, n)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        pooled_pairs(max_m=5, max_n=6).map(lambda pair: pair[0]),
        elections(min_m=1, max_m=5, max_n=6),
    )
)
def test_canonical_key_equals_loop_version(election):
    assert canonical_anec_key(election) == relabel_canonical_anec_key(election)


def test_canonical_key_at_the_guard_allocates_no_full_table():
    rng = np.random.default_rng(12)
    election = sample_mallows(8, 100, 87, 0.5)
    tracemalloc.start()
    try:
        key = canonical_anec_key(election)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the former table of all 8! x 8! relabeled orders needed about 14 GB
    assert peak < 16e6
    for _ in range(3):
        moved = apply_matchings(election, rng.permutation(8), rng.permutation(100))
        assert canonical_anec_key(moved) == key
    assert canonical_anec_key(sample_mallows(8, 100, 88, 0.5)) != key


@pytest.mark.parametrize("m", range(1, 5))
def test_majority_search_equals_bruteforce(m):
    # for each n <= 4: about 15 realizable matrices, spread over all of
    # them, and random matrices with M + M^T = n, mostly unrealizable
    orders = all_orders(m)
    rng = np.random.default_rng(m)
    for n in range(1, 5):
        realizable = {}
        for combo in itertools.combinations_with_replacement(orders, n):
            target = majority_matrix(Election(m, combo))
            realizable.setdefault(target.tobytes(), target)
        targets = list(realizable.values())
        targets = targets[:: max(1, len(targets) // 15)]
        for _ in range(4):
            upper = np.triu(rng.integers(0, n + 1, size=(m, m)), 1)
            targets.append(upper + np.tril(n - upper.T, -1))
        for target in targets:
            got = majority_realizable_bruteforce(target, n)
            want = bruteforce_majority_realizable(target, n)
            if want is None:
                assert got is None
            else:
                assert got.votes == want.votes
