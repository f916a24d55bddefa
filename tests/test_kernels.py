"""Differential checks: each vectorized kernel against the loop it replaced."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from electodist import (
    METRIC_KINDS,
    Election,
    apply_matchings,
    borda_vector,
    canonical_anec_key,
    count_equivalence_classes,
    distance,
    distance_matrix,
    enumerate_anecs,
    iso_distance,
    majority_matrix,
    pairwise_distance,
    position_matrix,
    positionwise_distance,
)
from electodist import metrics
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows
from electodist.metrics import distance_values, vote_swap_distance

from conftest import election_pairs, elections
from _oracles import (
    branch_and_bound_pairwise,
    dict_discrete_search,
    lexicographic_swap_search,
    loop_borda_vector,
    loop_count_equivalence_classes,
    loop_enumerate_anecs,
    loop_majority_matrix,
    loop_position_matrix,
    pair_loop_distance_matrix,
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


@settings(max_examples=80, deadline=None)
@given(election_pairs(min_m=1, max_m=6, max_n=6))
def test_positionwise_on_elections_equals_matrix_path(pair):
    a, b = pair
    for variant in ("EMD", "L1"):
        fast = positionwise_distance(a, b, variant)
        slow = positionwise_distance(position_matrix(a), position_matrix(b), variant)
        assert (fast.value, fast.candidate_matching) == (slow.value, slow.candidate_matching)


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
@given(datasets(), st.sampled_from(METRIC_KINDS), st.sampled_from([None, 0, 1, 2, 5]))
def test_distance_matrix_equals_pair_loop(dataset, kind, threads):
    dm = distance_matrix(dataset, kind, threads=threads)
    want = pair_loop_distance_matrix(dataset, kind)
    assert dm.cells.tobytes() == want.tobytes()


def test_distance_values_follow_combinations_order():
    rng = np.random.default_rng(3)
    dataset = [Election(4, [rng.permutation(4) for _ in range(5)]) for _ in range(5)]
    for kind in METRIC_KINDS:
        got = distance_values(dataset, kind)
        want = [
            float(distance(dataset[i], dataset[j], kind).value)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert got.tolist() == want
    assert distance_values(dataset[:1], "emdpos").shape == (0,)
    with pytest.raises(ValueError):
        distance_values(dataset, "kendall")


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
