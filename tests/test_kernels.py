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
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from electodist import (
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
    pairwise_distance,
    position_matrix,
    positionwise_distance,
    solve_assignment,
)
from electodist import analysis, metrics
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows
from electodist.elections import _order_table, _preferences
from electodist.metrics import distance_values, vote_swap_distance

from conftest import election_pairs, elections
from _oracles import (
    block_enumeration_pairwise,
    branch_and_bound_pairwise,
    bruteforce_majority_realizable,
    counter_discrete_search,
    dict_discrete_search,
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
    pair_loop_distance_matrix,
    refinement_solve_assignment,
    relabel_canonical_anec_key,
    sign_aggregates,
    sign_dot_voter_costs,
    unique_rows_vote_types,
)


@pytest.mark.parametrize("m", range(1, 8))
def test_preferences_equal_the_vote_loop(m):
    # an (n, m) election, the (m!, m) order table and a (2, n, m) stack
    election = sample_ic(m, 9, m).array
    stack = np.stack([election, sample_ic(m, 9, m + 100).array])
    for orders in (election, _order_table(m), stack):
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
    for out in (pairwise_distance(a, b), pairwise_distance(ma, mb)):
        assert out.value == value
        assert out.candidate_matching == sigma


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


# m**m overflows int64 from m = 16 on, and at m = 15 once a row holds more
# than 21 later elections: those rows run on Python-int codes
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
            got = metrics._discrete_search(aggregate(a), [aggregate(b) for b in bs])
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
    perms, cells = metrics._order_table(m), metrics._swap_cells(m)
    chunk = max(1, entries // (n * (m * (m - 1) // 2 + n)))
    ids = np.sort(rng.choice(len(perms), size=min(chunk, len(perms)), replace=False))
    margins_a, prefs_a = metrics._swap_aggregates(a)
    want_margins, signs_a = sign_aggregates(a)
    assert margins_a.tolist() == want_margins.tolist()
    bits_a = metrics._packed_votes(prefs_a, cells[:1])[:, 0]
    for group in (bs[:1], bs):
        prefs_b = np.stack([metrics._swap_aggregates(b)[1] for b in group])
        signs_b = np.stack([sign_aggregates(b)[1] for b in group])
        gathered = prefs_b.take(cells[ids], axis=-1)
        packed = np.packbits(gathered, axis=-1, bitorder="little")
        words = metrics._packed_votes(prefs_b, cells[ids])
        assert np.array_equal(words, packed.view(words.dtype)[..., 0])
        costs, relaxed = metrics._voter_costs(bits_a, prefs_b, cells[ids])
        want_costs, want_relaxed = sign_dot_voter_costs(signs_a, signs_b, perms[ids])
        assert costs.dtype == np.uint8 and costs.flags.c_contiguous
        assert np.array_equal(np.moveaxis(costs, -1, -3), want_costs)
        assert relaxed.dtype == np.int64
        assert np.array_equal(relaxed, want_relaxed)


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
from electodist.cultures import sample_euclidean, sample_ic, sample_mallows
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
# they run: the aggregate of each election, the row search and the solver
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
    for run, elections_in, rows in (
        (lambda: distance_values(dataset, kind), len(dataset), len(dataset) - 1),
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
            want[SEARCHES[kind]] = rows
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


# at m = 4, n = 24: one swap chunk per election holds from 1 (1, 768, 1152:
# several chunks per election) to 2, 3 and 7 elections per stack, and one
# pairwise stack from 1 to 3 and 341 elections
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
    with mock.patch.object(metrics, "_SWAP_CHUNK_ENTRIES", entries):
        for i, a in enumerate(dataset):
            swaps = metrics._swap_search(swap_aggs[i], swap_aggs[i + 1 :])
            for b, got in zip(dataset[i + 1 :], swaps):
                assert_same_outcome(DistanceOutcome(*got), lexicographic_swap_search(a, b))
            found = metrics._pairwise_search(majorities[i], majorities[i + 1 :])
            assert found == [block_enumeration_pairwise(majorities[i], mb) for mb in majorities[i + 1 :]]


@pytest.mark.parametrize("m, n, sampled", [(6, 4, 6), (7, 3, 3), (8, 4, 2)])
def test_stacked_distance_values_equal_pair_distances_at_larger_m(m, n, sampled):
    # at m = 6 five pairwise matrices fill a stack; from m = 7 pairwise
    # runs the branch and bound, and at m = 8 swap runs several chunks
    dataset = stacked_dataset(m, n, sampled)
    for kind in ("swap", "pairwise"):
        want = [distance(a, b, kind).value for a, b in itertools.combinations(dataset, 2)]
        assert distance_values(dataset, kind).tolist() == want


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
