"""Differential checks: each vectorized kernel against the loop it replaced."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from electodist import (
    DEFAULT_CULTURES,
    METRIC_KINDS,
    DistanceOutcome,
    Election,
    all_orders,
    apply_matchings,
    borda_realizable,
    borda_vector,
    canonical_anec_key,
    check_diameter,
    compass_election,
    correlation,
    count_equivalence_classes,
    distance,
    distance_matrix,
    enumerate_anecs,
    frequency_matrix,
    majority_matrix,
    majority_realizable_bruteforce,
    pairwise_cost_at,
    pairwise_distance,
    position_matrix,
    positionwise_distance,
    solve_assignment,
)
from electodist import analysis, metrics
from electodist.cli import ExperimentConfig, build_dataset
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows, sample_many
from electodist.elections import _preferences, _upper_pairs
from electodist.metrics import distance_values, vote_swap_distance

from conftest import election_pairs, elections
from _oracles import (
    block_enumeration_pairwise,
    block_prefix_majority_bounds,
    branch_and_bound_pairwise,
    bruteforce_majority_realizable,
    cell_table_triangle_bounds,
    counter_discrete_search,
    dict_discrete_search,
    full_cell_pairwise_scan,
    index_borda_table,
    index_majority_table,
    lexicographic_swap_search,
    loop_borda_vector,
    loop_count_equivalence_classes,
    loop_enumerate_anecs,
    loop_majority_matrix,
    loop_position_matrix,
    loop_positionwise_distance,
    loop_preferences,
    minima_bounds,
    one_solve_swap_search,
    order_rows,
    pair_loop_distance_matrix,
    pair_sum_positionwise_search,
    reduction_bounds,
    refinement_solve_assignment,
    relabel_canonical_anec_key,
    row_major_packed_votes,
    row_major_swap_aggregates,
    row_major_voter_costs,
    row_search_distance_values,
    sign_aggregates,
    sign_dot_voter_costs,
    triangle_transport_bounds,
    unique_rows_vote_types,
)


def row_stacks(kind, a, bs):
    # one aggregate against a list of later ones, as the pair-aligned left
    # and right stacks that the kind's search takes
    stack = metrics._row(kind)[1]
    return stack([a] * len(bs)), stack(list(bs))


@pytest.mark.parametrize("m", range(1, 8))
def test_preferences_equal_the_vote_loop(m):
    # an (n, m) election, the (m!, m) order table and a (2, n, m) stack
    election = sample_ic(m, 9, m).array
    stack = np.stack([election, sample_ic(m, 9, m + 100).array])
    for orders in (election, order_rows(m), stack):
        prefers = _preferences(orders)
        assert prefers.dtype == bool and prefers.shape == (*orders.shape, m)
        assert np.array_equal(prefers, loop_preferences(orders))


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
    for out in (pairwise_distance(a, b), pairwise_distance(ma, mb), distance(a, b, "pairwise")):
        assert out.value == value
        assert out.candidate_matching == sigma


@pytest.mark.parametrize("m", range(1, 9))
def test_pairwise_distance_of_elections_is_the_search_of_distance(m):
    # two elections take distance's search, whose margin scan up to m = 6
    # solves no assignment; two majority matrices run the branch and bound
    # at every m, which solves one at its root at least
    a, b = sample_ic(m, 7, m), sample_ic(m, 7, m + 50)
    ma, mb = majority_matrix(a), majority_matrix(b)
    with mock.patch.object(metrics, "linear_sum_assignment", wraps=metrics.linear_sum_assignment) as solves:
        out = pairwise_distance(a, b)
        assert solves.call_count == 0 if m <= 6 else solves.call_count > 0
        solves.reset_mock()
        on_matrices = pairwise_distance(ma, mb)
        assert solves.call_count > 0
    assert out == distance(a, b, "pairwise") == on_matrices


def test_pairwise_equals_branch_and_bound_across_blocks():
    # at m = 8 pairwise_distance runs its best-first branch and bound; the
    # oracle searches depth first
    rng = np.random.default_rng(8)
    for _ in range(2):
        a, b = (Election(8, [rng.permutation(8) for _ in range(5)]) for _ in range(2))
        ma, mb = majority_matrix(a), majority_matrix(b)
        out = pairwise_distance(ma, mb)
        assert (out.value, out.candidate_matching) == branch_and_bound_pairwise(ma, mb)


def test_pairwise_ties_resolve_to_smallest_matching_across_blocks():
    # equal off-diagonal cells make all 8! matchings optimal, so the
    # witness must be the identity, whatever the branch and bound's first
    # incumbent
    flat = np.full((8, 8), 2)
    np.fill_diagonal(flat, 0)
    out = pairwise_distance(flat, flat)
    assert out.value == 0
    assert out.candidate_matching == tuple(range(8))


def test_pairwise_at_the_guard_allocates_no_full_table():
    rng = np.random.default_rng(10)
    a, b = (Election(12, [rng.permutation(12) for _ in range(4)]) for _ in range(2))
    ma, mb = majority_matrix(a), majority_matrix(b)
    tracemalloc.start()
    try:
        out = pairwise_distance(ma, mb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of all 12! matchings alone would take 46 GB
    assert peak < 40e6
    s = np.array(out.candidate_matching)
    assert out.value == int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())
    assert sorted(out.candidate_matching) == list(range(12))


def edge_elections(m, n, rng):
    # a unanimous election of n voters, its reverse and two drawn from a
    # pool of three orders: margins -n, n and between
    pool = np.array([rng.permutation(m) for _ in range(3)])
    dataset = [Election(m, np.repeat(pool[:1], n, axis=0)),
               Election(m, np.repeat(pool[:1, ::-1], n, axis=0))]
    return dataset + [Election(m, pool[rng.integers(3, size=n)]) for _ in range(2)]


@pytest.mark.parametrize("n", [63, 64, 16383, 16384])
@pytest.mark.parametrize("m", range(1, 7))
def test_pairwise_scan_equals_block_enumeration_at_the_type_edges(m, n):
    # elections of n voters at the edges of the margins' int8 and int16
    dataset = edge_elections(m, n, np.random.default_rng([m, n]))
    majorities = [majority_matrix(e) for e in dataset]
    margins = [metrics._row("pairwise")[0](e) for e in dataset]
    for i in range(len(dataset) - 1):
        found = metrics._pairwise_search(*row_stacks("pairwise", margins[i], margins[i + 1 :]))
        assert found == [block_enumeration_pairwise(majorities[i], mb) for mb in majorities[i + 1 :]]


@pytest.mark.parametrize("n", [63, 64, 16383, 16384])
@pytest.mark.parametrize("m", range(1, 7))
def test_pair_costs_equal_the_pairwise_cost_at_every_matching(m, n):
    # for one election and for a stack, at the edges of the margins' int8,
    # int16 and int32; the search on the margins equals the full-cell scan
    # on the majority matrices
    dataset = edge_elections(m, n, np.random.default_rng([m, n, 1]))
    margins = [metrics._row("pairwise")[0](e) for e in dataset]
    assert margins[0].dtype == np.min_scalar_type(-2 * n - 1)
    majorities = [majority_matrix(e) for e in dataset]
    perms = order_rows(m).tolist()
    for i in range(len(dataset) - 1):
        stacked = metrics._pair_costs(margins[i], np.stack(margins[i + 1 :]))
        assert stacked.shape == (len(dataset) - 1 - i, len(perms))
        assert stacked.dtype == (np.int32 if n < 16384 else np.int64)
        for mb, costs in zip(majorities[i + 1 :], stacked):
            want = [pairwise_cost_at(majorities[i], mb, sigma) for sigma in perms]
            assert costs.tolist() == want
        assert metrics._pair_costs(margins[i], margins[-1]).tolist() == want
        left, right = row_stacks("pairwise", margins[i], margins[i + 1 :])
        assert np.array_equal(metrics._pair_costs(left, right), stacked)
        found = metrics._pairwise_search(left, right)
        assert found == full_cell_pairwise_scan(majorities[i], majorities[i + 1 :])


@pytest.mark.parametrize("n", [63, 64, 16383, 16384])
@pytest.mark.parametrize("m", [7, 8])
def test_pair_costs_are_twice_the_block_prefix_majority_bound(m, n):
    dataset = edge_elections(m, n, np.random.default_rng([m, n, 2]))
    margins = [metrics._swap_aggregates(e)[0] for e in dataset]
    for e, got in zip(dataset, margins):
        want = metrics._row("pairwise")[0](e)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    stack = np.stack(margins[1:])
    want = block_prefix_majority_bounds(margins[0], stack) * 2
    assert np.array_equal(metrics._pair_costs(margins[0], stack), want)
    assert np.array_equal(metrics._pair_costs(margins[0], margins[1]), want[0])


@pytest.mark.parametrize("m, n", [(7, 3), (7, 64), (8, 4)])
def test_pairwise_search_on_margins_solves_as_on_majority_matrices(m, n):
    # from m = 7 the search runs the branch and bound on the margins: the
    # same assignments solved as on the majority matrices, the same
    # witness, and half the value, which block enumeration confirms
    rng = np.random.default_rng([m, n])
    dataset = edge_elections(m, n, rng) + [sample_ic(m, n, m * n)]
    majorities = [majority_matrix(e) for e in dataset]
    margins = [metrics._row("pairwise")[0](e) for e in dataset]
    solver = metrics.linear_sum_assignment
    for i in range(len(dataset) - 1):
        with mock.patch.object(metrics, "linear_sum_assignment", wraps=solver) as solves:
            found = metrics._pairwise_search(*row_stacks("pairwise", margins[i], margins[i + 1 :]))
            on_margins = solves.call_count
            want = [metrics._pairwise_branch_and_bound(majorities[i], mb) for mb in majorities[i + 1 :]]
            assert solves.call_count == 2 * on_margins
        assert found == want
        assert found == [block_enumeration_pairwise(majorities[i], mb) for mb in majorities[i + 1 :]]


@pytest.mark.parametrize(
    "peak", [63, 64, 16383, 16384, 2**31 // 72, 2**31 // 72 + 1, 2**40 - 3, 2**40 + 3]
)
def test_pairwise_scan_is_exact_on_arbitrary_matrices(peak):
    # pairwise_distance runs the branch and bound at every m, on square
    # matrices of either sign near the peak, and two constant ones of
    # opposite signs, whose cells differ by 2 peak and whose cost, 2 m * m
    # peak, passes 2**31 from the sixth case on at m = 6
    rng = np.random.default_rng(peak)
    for m in (1, 2, 4, 6):
        ma, mb = rng.choice([-1, 1], size=(2, m, m)) * (peak - rng.integers(0, 3, size=(2, m, m)))
        for x, y in ((ma, mb), (np.full((m, m), peak), np.full((m, m), -peak))):
            out = pairwise_distance(x, y)
            assert (out.value, out.candidate_matching) == block_enumeration_pairwise(x, y)


@st.composite
def majority_pairs(draw, max_m=8, max_n=3):
    # two matrices with M + M^T = n off the diagonal and cells in 0..n for
    # small n, so few distinct values and many tied matchings; or two
    # square matrices of small integers, diagonal and negative cells
    # included, which pairwise_distance accepts as well
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return tuple(rng.integers(-n, n + 1, size=(m, m)) for _ in range(2))
    uppers = (np.triu(rng.integers(0, n + 1, size=(m, m)), 1) for _ in range(2))
    return tuple(upper + np.tril(n - upper.T, -1) for upper in uppers)


@settings(max_examples=100, deadline=None)
@given(majority_pairs())
def test_branch_and_bound_equals_block_enumeration(pair):
    ma, mb = pair
    assert metrics._pairwise_branch_and_bound(ma, mb) == block_enumeration_pairwise(ma, mb)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_branch_and_bound_equals_block_enumeration_on_compass_pairs(m):
    # n = m! admits all four compass elections
    kinds = ("ID", "AN", "UN", "ST")
    compass = {kind: majority_matrix(compass_election(kind, m, math.factorial(m))) for kind in kinds}
    for x, y in itertools.product(kinds, repeat=2):
        ma, mb = compass[x], compass[y]
        assert metrics._pairwise_branch_and_bound(ma, mb) == block_enumeration_pairwise(ma, mb)


def test_branch_and_bound_equals_block_enumeration_on_census_anecs():
    matrices = [majority_matrix(e) for e in enumerate_anecs(4, 3)]
    for ma, mb in itertools.combinations_with_replacement(matrices, 2):
        assert metrics._pairwise_branch_and_bound(ma, mb) == block_enumeration_pairwise(ma, mb)


@pytest.mark.parametrize(
    "a, b",
    [
        (sample_ic(10, 20, 91), sample_ic(10, 20, 92)),
        (sample_ic(10, 20, 93), sample_euclidean(10, 20, 94, "disc_2d")),
        (sample_mallows(10, 20, 95, 0.3), sample_mallows(10, 20, 96, 0.3)),
    ],
    ids=["ic-ic", "ic-disc", "mallows-mallows"],
)
def test_branch_and_bound_equals_block_enumeration_at_m10(a, b):
    ma, mb = majority_matrix(a), majority_matrix(b)
    assert metrics._pairwise_branch_and_bound(ma, mb) == block_enumeration_pairwise(ma, mb)


def test_pairwise_at_m10_peaks_under_one_megabyte():
    ma, mb = majority_matrix(sample_ic(10, 20, 91)), majority_matrix(sample_ic(10, 20, 92))
    pairwise_distance(ma, mb)  # builds the cached index tables first
    tracemalloc.start()
    try:
        pairwise_distance(ma, mb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


# chunk budgets, in bytes, from one relabeling per chunk to the default
CHUNK_ENTRIES = (1, 200, metrics._SWAP_CHUNK_ENTRIES)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(pooled_pairs(), election_pairs(min_m=1, max_m=6, max_n=8)),
    st.sampled_from(CHUNK_ENTRIES),
)
def test_isomorphic_searches_equal_their_loop_versions(pair, entries):
    a, b = pair
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        assert_same_outcome(distance(a, b, "swap"), lexicographic_swap_search(a, b))
    assert_same_outcome(distance(a, b, "discrete"), dict_discrete_search(a, b))


# m**m overflows int64 from m = 16 on, and at m = 15 once a search holds
# more than 21 pairs: those searches run on Python-int codes
@pytest.mark.parametrize("m", [*range(1, 10), 15, 16, 20])
def test_discrete_row_search_equals_the_counter_kernel(m):
    # each row draws most votes from a few shared orders, so votes repeat
    # within and across elections and relabelings tie for the optimum
    rng = np.random.default_rng(m)
    aggregate = metrics._row("discrete")[0]

    def vote(pool):
        return pool[rng.integers(len(pool))] if rng.random() < 0.8 else rng.permutation(m)

    for later in (1, 2, 5, 24):
        for _ in range(3):
            n = int(rng.integers(1, 9))
            pool = [rng.permutation(m) for _ in range(int(rng.integers(1, 4)))]
            a, *bs = [Election(m, [vote(pool) for _ in range(n)]) for _ in range(later + 1)]
            got = metrics._discrete_search(*row_stacks("discrete", aggregate(a), [aggregate(b) for b in bs]))
            want = counter_discrete_search(Counter(a.votes), [Counter(b.votes) for b in bs])
            assert got == want


@pytest.mark.parametrize("m", [*range(1, 10), 15, 16, 20])
def test_vote_types_equal_the_row_unique(m):
    # codes stay int64 up to m = 15 and are Python ints from m = 16 on; the
    # rows, counts and dtypes equal the row-wise unique's, with no votes too
    rng = np.random.default_rng(m)
    pool = [rng.permutation(m) for _ in range(3)]
    for n in (0, 1, 2, 7, 30):
        votes = np.array(
            [pool[rng.integers(3)] if rng.random() < 0.7 else rng.permutation(m) for _ in range(n)],
            dtype=np.int64,
        ).reshape(n, m)
        got, want = metrics._vote_types(votes), unique_rows_vote_types(votes)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)


def test_discrete_values_equal_pair_distances_past_int64_codes():
    rng = np.random.default_rng(16)
    pool = [rng.permutation(16) for _ in range(3)]
    dataset = [
        Election(16, [pool[i] for i in rng.integers(3, size=6)]) for _ in range(5)
    ] + [Election(16, [rng.permutation(16) for _ in range(6)]) for _ in range(2)]
    want = [distance(a, b, "discrete").value for a, b in itertools.combinations(dataset, 2)]
    assert distance_values(dataset, "discrete").tolist() == want


@pytest.mark.parametrize("entries", CHUNK_ENTRIES)
@pytest.mark.parametrize("m", range(1, 9))
def test_packed_voter_costs_equal_sign_dot_products(m, entries):
    # a random chunk of the size the search takes at this budget, for one
    # election and for a stack; at m = 1 there is no pair and at m = 2 one,
    # so the words hold little but padding
    rng = np.random.default_rng([m, entries])
    n = int(rng.integers(1, 9))
    a, *bs = (Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(4))
    perms, cells = order_rows(m), metrics._swap_cells(m)
    chunk = max(1, entries // (n * (m * (m - 1) // 2 + n)))
    ids = np.sort(rng.choice(len(perms), size=min(chunk, len(perms)), replace=False))
    margins_a, prefs_a = metrics._swap_aggregates(a)
    want_margins, signs_a = sign_aggregates(a)
    assert margins_a.tolist() == want_margins.tolist()
    bits_a = metrics._packed_votes(prefs_a, cells[:1])[:, 0]
    for group in (bs[:1], bs):
        prefs_b = np.stack([metrics._swap_aggregates(b)[1] for b in group])
        signs_b = np.stack([sign_aggregates(b)[1] for b in group])
        # the aggregate is cell-major: voter v's bytes are column v
        gathered = prefs_b.swapaxes(-1, -2).take(cells[ids], axis=-1)
        packed = np.packbits(gathered, axis=-1, bitorder="little")
        words = metrics._packed_votes(prefs_b, cells[ids])
        assert np.array_equal(words, packed.view(words.dtype)[..., 0])
        costs = metrics._voter_costs(bits_a, prefs_b, cells[ids])
        relaxed = minima_bounds(costs)
        want_costs, want_relaxed = sign_dot_voter_costs(signs_a, signs_b, perms[ids])
        assert costs.dtype == np.uint8 and costs.flags.c_contiguous
        assert np.array_equal(np.moveaxis(costs, -1, -3), want_costs)
        assert relaxed.dtype == np.int64
        assert np.array_equal(relaxed, want_relaxed)


@pytest.mark.parametrize("m", range(1, 9))
def test_cell_major_words_equal_the_row_major_oracle(m):
    # the aggregates hold the same margins and the same preference bytes,
    # transposed; words and voter costs equal the row-major kernel's for one
    # election and for a stack, on every relabeling up to m = 5 and on a
    # sample above, n = 1 among the sizes
    rng = np.random.default_rng([m, 26])
    cells = metrics._swap_cells(m)
    ids = np.sort(rng.choice(len(cells), size=min(len(cells), 150), replace=False))
    for n in (1, 2, 9):
        a, *bs = (Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(4))
        margins_a, prefs_a = metrics._swap_aggregates(a)
        want_margins, want_prefs_a = row_major_swap_aggregates(a)
        assert margins_a.tolist() == want_margins.tolist()
        assert prefs_a.dtype == np.uint8 and prefs_a.flags.c_contiguous
        assert np.array_equal(prefs_a.T, want_prefs_a)
        bits_a = metrics._packed_votes(prefs_a, cells[:1])[:, 0]
        assert np.array_equal(bits_a, row_major_packed_votes(want_prefs_a, cells[:1])[:, 0])
        for prefs_b, want_prefs_b in (
            (metrics._swap_aggregates(bs[0])[1], row_major_swap_aggregates(bs[0])[1]),
            (np.stack([metrics._swap_aggregates(b)[1] for b in bs]),
             np.stack([row_major_swap_aggregates(b)[1] for b in bs])),
        ):
            words = metrics._packed_votes(prefs_b, cells[ids])
            assert np.array_equal(words, row_major_packed_votes(want_prefs_b, cells[ids]))
            costs = metrics._voter_costs(bits_a, prefs_b, cells[ids])
            got = costs, minima_bounds(costs)
            want = row_major_voter_costs(bits_a, want_prefs_b, cells[ids])
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.flags.c_contiguous
                assert np.array_equal(x, y)


@pytest.mark.parametrize(
    "n, dtype",
    [(1, np.int8), (63, np.int8), (64, np.int16), (16383, np.int16), (16384, np.int32)],
)
def test_swap_margins_take_the_narrowest_type_that_holds_twice_n(n, dtype):
    # two margins of n voters differ by up to 2 n, which the type must hold
    margins, _ = metrics._swap_aggregates(Election(2, [(0, 1)] * n))
    assert margins.dtype == dtype
    assert margins.tolist() == [0, n, -n, 0]


def _counted_swap_search(search, *stacks):
    # the search's outcomes and the number of assignments it solved
    solves = []
    solver = metrics.linear_sum_assignment

    def counted(costs):
        solves.append(1)
        return solver(costs)

    with mock.patch.object(metrics, "linear_sum_assignment", counted):
        return search(*stacks), len(solves)


@pytest.mark.parametrize("m", range(1, 9))
def test_swap_search_equals_the_one_solve_oracle(m):
    # the same outcomes from the same solves, row by row, each row as
    # pair-aligned stacks (the first row only above m = 6, for time), for
    # one later election and a stack of them, n = 1 among the sizes, at
    # every chunk budget up to m = 5.  Near elections (relabeled, a vote changed),
    # far ones (IC) and ones drawn from a pool of three orders give stacks
    # where most first solves meet their bound and some are beaten later
    rng = np.random.default_rng([m, 260])
    budgets = CHUNK_ENTRIES if m <= 5 else CHUNK_ENTRIES[-1:]
    for n in (1, 3, 8) if m < 8 else (1, 8):
        a = Election(m, [rng.permutation(m) for _ in range(n)])
        near = [rng.permutation(m)[a.array] for _ in range(2)]
        near[1][rng.integers(n)] = rng.permutation(m)
        pool = [rng.permutation(m) for _ in range(3)]
        dataset = [a, *(Election(m, v) for v in near)]
        dataset += [Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(2)]
        dataset += [Election(m, [pool[i] for i in rng.integers(3, size=n)]) for _ in range(4)]
        new = [metrics._swap_aggregates(e) for e in dataset]
        old = [row_major_swap_aggregates(e) for e in dataset]
        rows = range(len(dataset) - 1) if m <= 6 else range(1)
        for entries in budgets:
            with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
                for i in rows:
                    for later in (slice(i + 1, i + 2), slice(i + 1, None)):
                        got = _counted_swap_search(metrics._swap_search, *row_stacks("swap", new[i], new[later]))
                        want = _counted_swap_search(one_solve_swap_search, old[i], old[later])
                        assert got == want
                        # bounded by the row and column minima alone, or
                        # relabelings by the majority bound at every m, the
                        # same outcomes from no fewer solves
                        for weaker in (_minima_swap_search, _majority_swap_search):
                            found, solves = _counted_swap_search(weaker, old[i], old[later])
                            assert found == got[0] and solves >= got[1]


def _minima_swap_search(a, bs):
    return one_solve_swap_search(a, bs, reduce=False)


def _majority_swap_search(a, bs):
    return one_solve_swap_search(a, bs, triangles=False)


# the m = 6 map of the maps benchmark: six cultures and two compass
# elections, n = 12, seed 2026
MAP_M6 = {
    "m": 6, "n": 12, "seed": 2026, "compass": ["ID", "AN"],
    "dataset": [
        {"model": "IC", "count": 1},
        {"model": "Urn", "params": {"alpha": "gamma"}, "count": 1},
        {"model": "Mallows", "params": {"phi": "norm-uniform"}, "count": 1},
        {"model": "SPConitzer", "count": 1},
        {"model": "Euclidean", "params": {"shape": "disc_2d"}, "count": 1},
        {"model": "GroupSeparable", "params": {"tree": "caterpillar"}, "count": 1},
    ],
}


def test_reduction_bound_solves_fewer_on_the_map_swap_matrix():
    # row by row, each row as pair-aligned stacks: the same outcomes as the
    # oracle with the same bound and the same solves, and strictly fewer
    # solves than with the row and column minima alone
    _, dataset, _ = build_dataset(ExperimentConfig.from_json(MAP_M6))
    new = [metrics._swap_aggregates(e) for e in dataset]
    old = [row_major_swap_aggregates(e) for e in dataset]
    solves = {"search": 0, "oracle": 0, "minima": 0}
    for i in range(len(dataset) - 1):
        got, solves_got = _counted_swap_search(metrics._swap_search, *row_stacks("swap", new[i], new[i + 1 :]))
        want, solves_want = _counted_swap_search(one_solve_swap_search, old[i], old[i + 1 :])
        found, solves_found = _counted_swap_search(_minima_swap_search, old[i], old[i + 1 :])
        assert got == want == found
        solves["search"] += solves_got
        solves["oracle"] += solves_want
        solves["minima"] += solves_found
    assert solves["search"] == solves["oracle"] < solves["minima"]


@pytest.mark.parametrize("m", range(1, 9))
def test_reduction_bound_lies_between_the_minima_bound_and_the_optimum(m):
    # on chunks of voter costs, one election against a stack, with votes
    # drawn from a pool of three orders so that rows and columns tie, and
    # on uniform bytes up to the pair count: the bound equals the oracle's,
    # is at least the larger row-minima or column-minima sum, and at most
    # each matrix's assignment optimum
    rng = np.random.default_rng([m, 28])
    pairs = m * (m - 1) // 2
    cells = metrics._swap_cells(m)
    for n in (1, 2, 5, 12):
        pool = [rng.permutation(m) for _ in range(3)]
        a, *bs = (Election(m, [pool[i] for i in rng.integers(3, size=n)]) for _ in range(3))
        bs.append(Election(m, [rng.permutation(m) for _ in range(n)]))
        ids = np.sort(rng.choice(len(cells), size=min(len(cells), 40), replace=False))
        bits_a = metrics._packed_votes(metrics._swap_aggregates(a)[1], cells[:1])[:, 0]
        prefs_b = np.stack([metrics._swap_aggregates(b)[1] for b in bs])
        costs = metrics._voter_costs(bits_a, prefs_b, cells[ids])
        uniform = rng.integers(0, pairs + 1, size=(n, n, 40), dtype=np.uint8)
        for chunk in (costs, uniform):
            bounds = metrics._reduced_bounds(chunk)
            assert bounds.dtype == np.int64
            assert np.array_equal(bounds, reduction_bounds(chunk))
            assert (bounds >= minima_bounds(chunk)).all()
            matrices = np.moveaxis(chunk, -1, -3).reshape(-1, n, n)
            optima = [int(c[metrics.linear_sum_assignment(c)].sum()) for c in matrices]
            assert (bounds.ravel() <= optima).all()


def _tied_and_uniform(m, n, rng):
    # three elections drawn from a pool of three orders, so that many
    # voters and histograms tie, and one of uniform votes
    pool = [rng.permutation(m) for _ in range(3)]
    tied = [Election(m, [pool[i] for i in rng.integers(3, size=n)]) for _ in range(3)]
    return tied + [Election(m, [rng.permutation(m) for _ in range(n)])]


@pytest.mark.parametrize("m", sorted(metrics._TRIANGLES))
def test_triangle_bound_lies_between_the_majority_bound_and_the_optimum(m):
    # one election against the others, alone and as a stack: the bound
    # equals the oracle's transports by assignment, is at least the
    # majority bound at every relabeling and at most the voter assignment
    # optimum, at every relabeling at m = 7 and at a sample at m = 8
    rng = np.random.default_rng([m, 30])
    pairs = m * (m - 1) // 2
    cells = metrics._swap_cells(m)
    for n in (1, 2, 5, 12):
        elections = _tied_and_uniform(m, n, rng)
        a, *bs = (metrics._swap_aggregates(e) for e in elections)
        stacked = metrics._triangle_bounds(a, np.stack([b[0] for b in bs]), np.stack([b[1] for b in bs]))
        assert stacked.dtype == np.min_scalar_type(pairs * n + 1)
        assert stacked.shape == (len(bs), len(cells))
        bits_a = metrics._packed_votes(a[1], cells[:1])[:, 0]
        ids = np.arange(len(cells)) if m == 7 else np.sort(rng.choice(len(cells), 300, replace=False))
        for e, b, bounds in zip(elections[1:], bs, stacked):
            assert np.array_equal(metrics._triangle_bounds(a, *b), bounds)
            assert np.array_equal(metrics._swap_bounds(a, *b), bounds)
            want = triangle_transport_bounds(*map(row_major_swap_aggregates, (elections[0], e)))
            assert np.array_equal(bounds, want)
            assert (bounds >= metrics._pair_costs(a[0], b[0]) // 2).all()
            costs = np.moveaxis(metrics._voter_costs(bits_a, b[1], cells[ids]), -1, 0)
            optima = [int(c[metrics.linear_sum_assignment(c)].sum()) for c in costs]
            assert (bounds[ids] <= optima).all()


@pytest.mark.parametrize("m", sorted(metrics._TRIANGLES))
def test_triangle_bound_equals_the_cell_table_oracle(m):
    # bit for bit, dtype included, one election against the others alone
    # and as a stack, on tied and uniform votes, up to the pairs
    # benchmark's n = 8 and the correlation matrices' n = 20
    rng = np.random.default_rng([m, 31])
    for n in (1, 2, 5, 12, 20):
        a, *bs = (metrics._swap_aggregates(e) for e in _tied_and_uniform(m, n, rng))
        stack = np.stack([b[0] for b in bs]), np.stack([b[1] for b in bs])
        for b in (*bs, stack):
            got, want = metrics._triangle_bounds(a, *b), cell_table_triangle_bounds(a, *b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("m", range(1, 9))
def test_chunk_cells_equal_the_cell_table_rows(m):
    # random relabelings, the first and the last, and the slices the search
    # takes for the identity and for a one-chunk search
    rng = np.random.default_rng([m, 31])
    table = metrics._swap_cells(m)
    total = math.factorial(m)
    assert table.shape[0] == total and table.dtype == np.uint8
    for ids in (np.sort(rng.choice(total, size=min(total, 500), replace=False)),
                rng.integers(total, size=50), np.array([0, total - 1]), slice(1), slice(None)):
        cells = metrics._chunk_cells(m, ids)
        assert cells.dtype == np.uint8 and cells.flags.c_contiguous
        assert np.array_equal(cells, table[ids])


def _table_free(m):
    # _swap_cells, raising for an m of _TRIANGLES, where no search builds it
    table = metrics._swap_cells

    def cells(k):
        if k in metrics._TRIANGLES:
            raise AssertionError(f"_swap_cells({k}) was built")
        return table(k)

    return mock.patch.object(metrics, "_swap_cells", cells)


@pytest.mark.parametrize("m", sorted(metrics._TRIANGLES))
def test_swap_searches_at_m_7_and_8_build_no_cell_table(m):
    # distance and distance_values, at n = 1 (one chunk of all 5,040
    # relabelings at m = 7) and n = 3 (the chunked walk), give the
    # one-solve oracle's outcomes without the m!-row table
    rng = np.random.default_rng([m, 31])
    for n in (1, 3):
        dataset = _tied_and_uniform(m, n, rng)
        old = [row_major_swap_aggregates(e) for e in dataset]
        want = [found for i in range(len(old) - 1) for found in one_solve_swap_search(old[i], old[i + 1 :])]
        with _table_free(m):
            got = [astuple(distance(x, y, "swap")) for x, y in itertools.combinations(dataset, 2)]
            values = distance_values(dataset, "swap").tolist()
        assert got == want
        assert values == [value for value, *_ in want]


@pytest.mark.parametrize("m", sorted(metrics._TRIANGLES))
def test_triangle_packings_are_edge_disjoint(m):
    triangles, leftover = metrics._packing(m)
    first, second = (p.tolist() for p in _upper_pairs(m))
    packed = []
    for x, y, z in metrics._TRIANGLES[m]:
        assert 0 <= x < y < z < m
        packed += [(x, y), (x, z), (y, z)]
    assert len(set(packed)) == len(packed)
    rest = [pair for pair in zip(first, second) if pair not in packed]
    assert leftover.shape == (2, len(rest))
    assert [tuple(pair) for pair in leftover.T.tolist()] == rest
    assert triangles.T.tolist() == [list(t) for t in metrics._TRIANGLES[m]]


# the orders of three candidates x, y, z around the hexagon of _HEXAGON
HEXAGON_ORDERS = ("xyz", "xzy", "zxy", "zyx", "yzx", "yxz")


@pytest.mark.parametrize("m", range(3, 9))
def test_triple_histograms_equal_the_vote_positions(m):
    # steps around the hexagon are adjacent transpositions, and its cycle
    # distance is swap distance on three candidates
    for j, k in itertools.product(range(6), repeat=2):
        u, v = ("xyz".index(c) for c in HEXAGON_ORDERS[j]), ("xyz".index(c) for c in HEXAGON_ORDERS[k])
        assert vote_swap_distance(tuple(u), tuple(v)) == min((j - k) % 6, (k - j) % 6)
    rng = np.random.default_rng([m, 31])
    triples = np.array(list(itertools.permutations(range(m), 3))).T
    for n in (1, 2, 5, 12):
        elections = _tied_and_uniform(m, n, rng)
        prefs = [metrics._swap_aggregates(e)[1] for e in elections]
        stacked = metrics._triple_histograms(np.stack(prefs), *triples)
        for e, p, got in zip(elections, prefs, stacked):
            assert np.array_equal(metrics._triple_histograms(p, *triples), got)
            want = np.zeros((6, triples.shape[1]), dtype=np.int64)
            pos = np.argsort(e.array, axis=1)
            for t, (x, y, z) in enumerate(triples.T.tolist()):
                for v in range(n):
                    order = "".join(sorted("xyz", key=lambda c: pos[v, {"x": x, "y": y, "z": z}[c]]))
                    want[HEXAGON_ORDERS.index(order), t] += 1
            assert got.dtype == np.int32 and np.array_equal(got, want)


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
        assert_same_outcome(distance(a, b, "swap"), lexicographic_swap_search(a, b))


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
    assert_same_outcome(distance(a, b, "swap"), lexicographic_swap_search(a, b))


def test_swap_search_allocates_no_full_table():
    a, b = sample_ic(8, 20, 85), sample_euclidean(8, 20, 86, "disc_2d")
    tracemalloc.start()
    try:
        out = distance(a, b, "swap")
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


# one far m = 8 pair, whose search builds several chunks, with its
# witnesses, and the values of a small set, which share stacked chunks
BLAS_PROBE = """
from electodist import distance
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows, sample_many
from electodist.metrics import distance_values

out = distance(sample_ic(8, 8, 81), sample_euclidean(8, 8, 82, "disc_2d"), "swap")
dataset = [sample_mallows(5, 6, seed, 0.5) for seed in range(5)] + [sample_ic(5, 6, 5)]
print(out.value, out.candidate_matching, out.voter_matching)
print(distance_values(dataset, "swap").tobytes().hex())
"""


def test_swap_outputs_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(metrics.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 2


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


def test_correlation_checks_both_guards_before_any_distance(monkeypatch):
    # at m = 9 the pairwise search runs, but swap is guarded at m <= 8
    calls = mock.Mock(wraps=metrics._pairwise_search)
    monkeypatch.setattr(metrics, "_pairwise_search", calls)
    dataset = [sample_ic(9, 3, seed) for seed in range(3)]
    with pytest.raises(ValueError, match=r"^swap distance guarded at m <= 8 \(got m=9\)$"):
        correlation(dataset, "pairwise", "swap")
    assert calls.call_count == 0


def test_check_diameter_checks_the_compass_divisor_before_any_distance(monkeypatch):
    # n = 10 is no multiple of 7!, so UN, and with it the bound, cannot be built
    calls = mock.Mock(wraps=metrics._swap_search)
    monkeypatch.setattr(metrics, "_swap_search", calls)
    dataset = [sample_ic(7, 10, seed) for seed in range(3)]
    with pytest.raises(
        ValueError, match=r"^compass election requires m! = 5040 divides n \(got n=10\)$"
    ):
        check_diameter(dataset, "swap")
    assert calls.call_count == 0


# the names in metrics that each kind's entry points call, looked up when
# they run: the aggregate of each election, the block search and the solver
AGGREGATES = {"emdpos": "position_matrix", "l1pos": "position_matrix",
              "pairwise": "majority_matrix", "bordawise": "borda_vector"}
SEARCHES = {"swap": "_swap_search", "discrete": "_discrete_search",
            "pairwise": "_pairwise_search"}
SOLVES = ("swap", "emdpos", "l1pos")


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_entry_points_call_what_metrics_binds_when_they_run(kind):
    # counting wrappers put on metrics after import see every call, as the
    # tracer's do: no entry point keeps a reference taken at import
    rng = np.random.default_rng(11)
    dataset = [Election(4, [rng.permutation(4) for _ in range(5)]) for _ in range(4)]
    names = [*set(AGGREGATES.values()), *SEARCHES.values(), "linear_sum_assignment"]
    # the six pairs of four elections fit one block
    for run, elections_in, blocks in (
        (lambda: distance_values(dataset, kind), len(dataset), 1),
        (lambda: distance(dataset[0], dataset[1], kind), 2, 1),
    ):
        with contextlib.ExitStack() as stack:
            counters = {
                name: stack.enter_context(
                    mock.patch.object(metrics, name, wraps=getattr(metrics, name))
                )
                for name in names
            }
            run()
        counts = {name: c.call_count for name, c in counters.items() if c.call_count}
        want = {}
        if kind in AGGREGATES:
            want[AGGREGATES[kind]] = elections_in
        if kind in SEARCHES:
            want[SEARCHES[kind]] = blocks
        assert {name: counts.get(name) for name in want} == want
        assert set(counts) == set(want) | ({"linear_sum_assignment"} if kind in SOLVES else set())


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


@pytest.mark.parametrize("m", [1, 2, 4, 7, 10])
def test_positionwise_row_values_equal_the_pair_sums(m):
    # rows of one and of several later elections, IC and repeated votes
    rng = np.random.default_rng([m, 28])
    pool = [rng.permutation(m) for _ in range(2)]
    dataset = [Election(m, [rng.permutation(m) for _ in range(6)]) for _ in range(4)]
    dataset += [Election(m, [pool[i] for i in rng.integers(2, size=6)]) for _ in range(3)]
    for variant in ("EMD", "L1"):
        aggs = [metrics._positionwise_aggregate(e, variant) for e in dataset]
        for i in range(len(aggs) - 1):
            got = metrics._positionwise_search(*row_stacks("emdpos", aggs[i], aggs[i + 1 :]))
            assert got == pair_sum_positionwise_search(aggs[i], aggs[i + 1 :])
            assert all(type(v) is int for (v,) in got)


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


def stacked_dataset(m=4, n=24, sampled=6):
    # the compass elections, sampled ones, a duplicate of one and a
    # relabeled copy of another, and ID again; n = 24 admits UN and ST at m = 4
    rng = np.random.default_rng(m)
    compass = [compass_election(kind, m, n) for kind in ("ID", "AN", "UN", "ST")] if m == 4 else []
    drawn = [Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(sampled)]
    moved = apply_matchings(drawn[0], rng.permutation(m), rng.permutation(n))
    return compass + drawn + [drawn[1], moved] + compass[:1]


# at m = 4, n = 24 (k = 15): swap takes several chunks per pair at the
# first three budgets and one chunk per pair from 34560 on, in blocks of a
# row's 14 pairs; pairwise takes blocks of 14 pairs, and all 105 in one at
# the default budget
STACK_ENTRIES = (1, 768, 1152, 34560, 51840, metrics._SWAP_CHUNK_ENTRIES)


@pytest.mark.parametrize("entries", STACK_ENTRIES)
@pytest.mark.parametrize("kind", ["swap", "pairwise"])
def test_stacked_distance_values_equal_pair_distances(kind, entries):
    dataset = stacked_dataset()
    want = [distance(a, b, kind).value for a, b in itertools.combinations(dataset, 2)]
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        assert distance_values(dataset, kind).tolist() == want


@pytest.mark.parametrize("entries", STACK_ENTRIES)
def test_stacked_searches_equal_their_oracles(entries):
    # the witnesses of a stack, voter matchings included, are those of the
    # pair searches of the oracles
    dataset = stacked_dataset()
    swap_aggs = [metrics._swap_aggregates(e) for e in dataset]
    majorities = [majority_matrix(e) for e in dataset]
    margins = [metrics._row("pairwise")[0](e) for e in dataset]
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        for i, a in enumerate(dataset[:-1]):
            swaps = metrics._swap_search(*row_stacks("swap", swap_aggs[i], swap_aggs[i + 1 :]))
            for b, got in zip(dataset[i + 1 :], swaps):
                assert_same_outcome(DistanceOutcome(*got), lexicographic_swap_search(a, b))
            found = metrics._pairwise_search(*row_stacks("pairwise", margins[i], margins[i + 1 :]))
            assert found == [block_enumeration_pairwise(majorities[i], mb) for mb in majorities[i + 1 :]]


@pytest.mark.parametrize("m, n, sampled", [(6, 4, 6), (7, 3, 3), (8, 4, 2)])
def test_stacked_distance_values_equal_pair_distances_at_larger_m(m, n, sampled):
    # at m = 6 pairwise scans blocks of pairs; from m = 7 it runs the
    # branch and bound, and at m = 8 swap runs several chunks
    dataset = stacked_dataset(m, n, sampled)
    for kind in ("swap", "pairwise"):
        want = [distance(a, b, kind).value for a, b in itertools.combinations(dataset, 2)]
        assert distance_values(dataset, kind).tolist() == want


def _pairs_anecs():
    # the 20 ANECs (m = 4, n = 3) of the pairs benchmark's correlations, as
    # its seed 2026 draws them, voters reordered
    rng = np.random.default_rng(2026)
    anecs = list(enumerate_anecs(4, 3))
    chosen = sorted(rng.choice(len(anecs), 20, replace=False).tolist())
    return [apply_matchings(anecs[i], range(4), rng.permutation(3)) for i in chosen]


# the m = 10 map of the maps benchmark: the thirteen default cultures and
# two compass elections, n = 100, seed 2026
MAP_M10 = {"m": 10, "n": 100, "seed": 2026, "compass": ["ID", "AN"],
           "dataset": [dict(spec.to_json(), count=1) for spec in DEFAULT_CULTURES]}


def _block_datasets():
    # the pairs ANECs; the m6 and m10 maps; at m = 7, n = 1, where one
    # swap chunk holds all 5,040 relabelings and a block stacks the
    # triangle bound; and at m = 8, n = 2, where swap walks chunks and
    # pairwise runs the branch and bound, pair by pair
    rng = np.random.default_rng(32)
    return {
        "pairs": _pairs_anecs(),
        "m6": build_dataset(ExperimentConfig.from_json(MAP_M6))[1],
        "m10": build_dataset(ExperimentConfig.from_json(MAP_M10))[1],
        "m7n1": _tied_and_uniform(7, 1, rng) + [sample_ic(7, 1, seed) for seed in range(3)],
        "m8n2": _tied_and_uniform(8, 2, rng) + [sample_mallows(8, 2, 5, 0.3)],
    }


BLOCK_DATASETS = _block_datasets()


@pytest.mark.parametrize("entries", [metrics._SWAP_CHUNK_ENTRIES, 64])
@pytest.mark.parametrize("name", sorted(BLOCK_DATASETS))
def test_block_searches_equal_the_row_search_oracle(name, entries):
    # every metric the candidate guards admit, at the default budget and at
    # one so small that a block holds a row's bytes, k - 1 pairs where all
    # pairs weigh the same, and blocks end inside rows: the values of the
    # row searches, from as many assignment solves for swap and the
    # positionwise metrics
    dataset = BLOCK_DATASETS[name]
    k, m = len(dataset), dataset[0].m
    row_ends = np.cumsum(np.arange(k - 1, 0, -1)).tolist()
    solver, cut = metrics.linear_sum_assignment, metrics._pair_blocks
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        for kind in METRIC_KINDS:
            guard = metrics.GUARDS.get(f"{kind} distance", {"m": m})
            if m > guard["m"]:
                continue
            blocks, found = [], []
            for run in (distance_values, row_search_distance_values):
                with mock.patch.object(metrics, "linear_sum_assignment", wraps=solver) as solves, \
                        mock.patch.object(metrics, "_pair_blocks", lambda *a: blocks.append(cut(*a)) or blocks[-1]):
                    values = run(dataset, kind)
                found.append((values.dtype, values.tolist(), solves.call_count))
            (got_dtype, got_values, got_solves), (want_dtype, want_values, want_solves) = found
            assert (got_dtype, got_values) == (want_dtype, want_values)
            if kind in ("swap", "emdpos", "l1pos"):
                assert got_solves == want_solves
            [cuts] = blocks
            assert [b.start for b in cuts] == [0] + [b.stop for b in cuts[:-1]]
            assert cuts[-1].stop == len(want_values)
            if entries == 64 and kind != "discrete":
                assert [b.stop - b.start for b in cuts[:-1]] == [k - 1] * (len(cuts) - 1)
                assert any(b.stop not in row_ends for b in cuts)


@pytest.mark.parametrize("kind", ["emdpos", "discrete"])
def test_block_searches_peak_within_the_row_searches_and_the_budget(kind):
    # on 13 default cultures x 5 at m = 10, n = 100 (k = 65), where a row of
    # 64 pairs holds more than the budget: a block holds at most a row's
    # bytes, so the traced peak stays within the row oracle's and the
    # budget, which covers the stacks the blocks take
    dataset = [e for i, spec in enumerate(DEFAULT_CULTURES) for e in sample_many(spec, 10, 100, i, 5)]
    peaks = []
    for run in (distance_values, row_search_distance_values):
        tracemalloc.start()
        try:
            values = run(dataset, kind)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del values
    assert peaks[0] <= peaks[1] + metrics._SWAP_CHUNK_ENTRIES


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


def test_canonical_key_decodes_only_the_least_row():
    # at m = 8 and n = 2000 the d x n anchored codes take about 32 MB as
    # int64, and their sort a copy; all of them as Python ints take 187 MB
    election = sample_ic(8, 2000, 5)
    tracemalloc.start()
    try:
        canonical_anec_key(election)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


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


@pytest.mark.parametrize("m", range(1, 6))
def test_realizability_tables_equal_the_index_loops(m):
    # the per-order contributions each search hands to _realize_by_counts
    realize = analysis._realize_by_counts
    with mock.patch.object(analysis, "_realize_by_counts", wraps=realize) as spy:
        borda_realizable(borda_vector(compass_election("ID", m, 1)), 1)
        assert [tuple(row) for row in spy.call_args.args[1]] == index_borda_table(m)
        if m <= 4:
            majority_realizable_bruteforce(majority_matrix(compass_election("ID", m, 1)), 1)
            assert [tuple(row) for row in spy.call_args.args[1]] == index_majority_table(m)
