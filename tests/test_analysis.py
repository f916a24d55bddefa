from __future__ import annotations

import itertools
import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.stats import rankdata

from electodist import (
    COMPASS_KINDS,
    METRIC_KINDS,
    CensusReport,
    Election,
    all_orders,
    borda_realizable,
    borda_vector,
    canonical_anec_key,
    check_diameter,
    compass_distance_formula,
    compass_election,
    correlation,
    count_equivalence_classes,
    distance,
    distance_matrix,
    emd,
    emdpos_intrinsic_path,
    enumerate_anecs,
    l1pos_intrinsic_path,
    majority_matrix,
    majority_realizable_bruteforce,
    matrix_correlation,
    position_matrix,
    positionwise_distance,
    recover_election,
)

from electodist import analysis, metrics
from electodist.analysis import _average_ranks
from electodist.elections import GUARDS, _upper_pairs
from electodist.metrics import distance_values

from conftest import SMALL_A, SMALL_B, elections, election_pairs
from _oracles import burnside_anec_count
from _paths import discrete_unit_path, swap_unit_path


def random_election(rng, m, n):
    return Election(m, [tuple(rng.permutation(m).tolist()) for _ in range(n)])


# census

KNOWN_CENSUS = {
    (3, 3): (10, 10, 8, 8),
    (3, 4): (24, 23, 17, 13),
    (3, 5): (42, 40, 25, 18),
    (4, 3): (111, 93, 50, 37),
    (4, 4): (762, 465, 200, 76),
    (4, 5): (4095, 1746, 513, 131),
    (4, 6): (19941, 5741, 1338, 213),
}


def test_census_anec_counts_equal_burnside_everywhere_inside_the_guard():
    guard = GUARDS["census"]
    for m in range(1, guard["m"] + 1):
        for n in range(1, guard["n"] + 1):
            assert count_equivalence_classes(m, n).anec_count == burnside_anec_count(m, n)
    # the cells the benchmark pins, by hand from the formula
    assert (burnside_anec_count(3, 3), burnside_anec_count(4, 4)) == (10, 762)


@pytest.mark.parametrize("shape,expected", sorted(KNOWN_CENSUS.items()))
def test_census_known_cells(shape, expected):
    m, n = shape
    report = count_equivalence_classes(m, n)
    assert (
        report.anec_count,
        report.positionwise_classes,
        report.pairwise_classes,
        report.bordawise_classes,
    ) == expected


def zero_distance_components(count: int, zero_pairs) -> int:
    # the components of the graph on count nodes whose edges are the pairs
    # i < j at distance 0, by union-find
    parent = list(range(count))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zero_pairs:
        parent[root(i)] = root(j)
    return len({root(i) for i in range(count)})


@pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (3, 5), (4, 3)])
def test_zero_distances_separate_exactly_the_census_classes(m, n):
    # swap and discrete are metrics on ANECs: 0 only between equal
    # canonical keys, so never between two representatives.  The other four
    # are pseudometrics: their zero-distance classes are the census's
    anecs = list(enumerate_anecs(m, n))
    keys = [canonical_anec_key(e) for e in anecs]
    assert len(set(keys)) == len(anecs)
    report = count_equivalence_classes(m, n)
    classes = {
        "swap": report.anec_count,
        "discrete": report.anec_count,
        "emdpos": report.positionwise_classes,
        "l1pos": report.positionwise_classes,
        "pairwise": report.pairwise_classes,
        "bordawise": report.bordawise_classes,
    }
    pairs = list(itertools.combinations(range(len(anecs)), 2))
    for kind in METRIC_KINDS:
        zero = [pair for pair, value in zip(pairs, distance_values(anecs, kind)) if value == 0]
        if kind in ("swap", "discrete"):
            assert all(keys[i] == keys[j] for i, j in zero)
        assert zero_distance_components(len(anecs), zero) == classes[kind], kind


def test_census_smallest_shape():
    assert count_equivalence_classes(2, 1) == CensusReport(2, 1, 1, 1, 1, 1)


def test_census_csv_row():
    assert count_equivalence_classes(3, 3).to_csv_row() == "3,3,10,10,8,8"


def test_census_guard():
    with pytest.raises(ValueError):
        count_equivalence_classes(5, 3)
    with pytest.raises(ValueError):
        count_equivalence_classes(3, 7)
    with pytest.raises(ValueError):
        count_equivalence_classes(0, 3)


def test_enumeration_matches_exhaustive_canonical_count():
    orders = all_orders(3)
    keys = set()
    for combo in itertools.product(range(len(orders)), repeat=2):
        e = Election(3, tuple(orders[i] for i in combo))
        keys.add(canonical_anec_key(e))
    reps = list(enumerate_anecs(3, 2))
    assert len(reps) == len(keys)
    assert len({canonical_anec_key(e) for e in reps}) == len(reps)


def test_class_counts_respect_fineness():
    for m, n in ((2, 3), (3, 3), (3, 4)):
        r = count_equivalence_classes(m, n)
        assert r.anec_count >= r.positionwise_classes >= r.bordawise_classes
        assert r.anec_count >= r.pairwise_classes >= r.bordawise_classes


def test_smallest_nonzero_distances_on_3x3_census():
    census = list(enumerate_anecs(3, 3))
    expected = {
        "swap": 1,
        "discrete": 1,
        "bordawise": 1,
        "emdpos": 2,
        "pairwise": 2,
        "l1pos": 4,
    }
    for kind, smallest in expected.items():
        values = {
            distance(a, b, kind).value
            for a, b in itertools.combinations(census, 2)
        }
        assert min(v for v in values if v > 0) == smallest


# correlations

def test_correlation_of_kind_with_itself_is_one():
    census = list(enumerate_anecs(3, 3))
    rep = correlation(census, "swap", "swap")
    assert rep.pearson == pytest.approx(1.0)
    assert rep.spearman == pytest.approx(1.0)
    assert rep.pair_count == 45


def test_correlation_census_values_are_stable():
    census = list(enumerate_anecs(3, 3))
    expected = {
        "emdpos": (0.941704, 0.930184),
        "pairwise": (0.860171, 0.832808),
        "bordawise": (0.817356, 0.762371),
        "l1pos": (0.748246, 0.703259),
        "discrete": (0.614103, 0.577078),
    }
    for kind, (pearson, spearman) in expected.items():
        rep = correlation(census, "swap", kind)
        assert rep.pair_count == 45
        assert rep.pearson == pytest.approx(pearson, abs=1e-4)
        assert rep.spearman == pytest.approx(spearman, abs=1e-4)


def test_correlation_undefined_when_degenerate():
    rep = correlation([SMALL_A, SMALL_B], "swap", "emdpos")
    assert rep.pair_count == 1
    assert rep.pearson is None
    assert rep.spearman is None
    assert rep.to_csv_row() == "swap,emdpos,undefined,undefined,1"


def test_correlation_csv_row_format():
    census = list(enumerate_anecs(3, 3))
    rep = correlation(census, "swap", "emdpos")
    assert rep.to_csv_row() == (
        f"swap,emdpos,{rep.pearson:.6f},{rep.spearman:.6f},45"
    )


def test_correlation_errors():
    census = list(enumerate_anecs(3, 3))
    with pytest.raises(ValueError):
        correlation(census, "swap", "kendall")
    with pytest.raises(ValueError):
        correlation(census[:1], "swap", "emdpos")
    with pytest.raises(ValueError):
        correlation([SMALL_A, Election(3, [(0, 1, 2)])], "swap", "emdpos")


def _dataset(seed, k=7, m=4, n=5):
    rng = np.random.default_rng(seed)
    return [Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(k)]


def _counting_searches():
    # counts swap's searches and the matrix builds `correlation` asks for
    return (mock.patch.object(metrics, "_swap_search", wraps=metrics._swap_search),
            mock.patch.object(analysis, "distance_matrix", wraps=analysis.distance_matrix))


def _searched_pairs(calls, dataset):
    # the pairs (i, j) of the dataset that swap's searches were handed, in
    # the order they searched them, read from the preferences of the left
    # and right stacks of each call
    index = {metrics._swap_aggregates(e)[1].tobytes(): i for i, e in enumerate(dataset)}
    assert len(index) == len(dataset)
    return [(index[a.tobytes()], index[b.tobytes()])
            for c in calls for a, b in zip(c.args[0][1], c.args[1][1])]


def test_correlation_with_swap_builds_the_swap_matrix_once():
    dataset = _dataset(5)
    others = [kind for kind in METRIC_KINDS if kind != "swap"]
    searches, builds = _counting_searches()
    with searches as searched, builds as built:
        got = [correlation(dataset, "swap", kind) for kind in others]
    fresh_swap = distance_matrix(dataset, "swap")
    assert got == [
        matrix_correlation(fresh_swap, distance_matrix(dataset, kind)) for kind in others
    ]
    # the searches of one matrix cover each pair once
    pairs = list(itertools.combinations(range(len(dataset)), 2))
    assert _searched_pairs(searched.call_args_list, dataset) == pairs
    assert [c.args[1] for c in built.call_args_list] == ["swap", *others]


def test_correlation_of_swap_with_itself_searches_once():
    dataset = _dataset(6)
    searches, builds = _counting_searches()
    with searches as searched, builds as built:
        rep = correlation(dataset, "swap", "swap")
    pairs = list(itertools.combinations(range(len(dataset)), 2))
    assert _searched_pairs(searched.call_args_list, dataset) == pairs
    assert built.call_count == 1
    fresh = distance_matrix(dataset, "swap")
    assert rep == matrix_correlation(fresh, fresh)


def test_correlation_keeps_one_dataset():
    first, second = _dataset(7), _dataset(8, k=5)
    searches, _ = _counting_searches()
    with searches as searched:
        got = [correlation(ds, "swap", "emdpos") for ds in (first, second, first)]
    want = [
        matrix_correlation(distance_matrix(ds, "swap"), distance_matrix(ds, "emdpos"))
        for ds in (first, second, first)
    ]
    assert got == want
    # the second dataset replaced the first, whose matrix is built again
    searched_pairs = sum(len(c.args[0][0]) for c in searched.call_args_list)
    assert searched_pairs == 2 * math.comb(len(first), 2) + math.comb(len(second), 2)


def test_correlation_reuses_matrices_of_an_equal_dataset():
    dataset = _dataset(9)
    copy = [Election(e.m, e.votes) for e in dataset]
    assert all(a is not b for a, b in zip(dataset, copy))
    first = correlation(dataset, "swap", "pairwise")
    searches, builds = _counting_searches()
    with searches as searched, builds as built:
        again = correlation(copy, "swap", "pairwise")
    assert (searched.call_count, built.call_count) == (0, 0)
    assert again == first


def test_correlation_is_symmetric_bit_for_bit():
    # every pair of kinds, both ways round: the same report up to the order
    # of its pair, the coefficients equal to the last bit; swap first keeps
    # the bits of a matrix_correlation in that order
    dataset = _dataset(7)
    matrices = {kind: distance_matrix(dataset, kind) for kind in METRIC_KINDS}
    for a, b in itertools.combinations(METRIC_KINDS, 2):
        ab, ba = correlation(dataset, a, b), correlation(dataset, b, a)
        assert (ab.pair, ba.pair) == ((a, b), (b, a))
        assert ab.pearson is not None and ab.spearman is not None
        assert (ab.pearson, ab.spearman, ab.pair_count) == (ba.pearson, ba.spearman, ba.pair_count)
        assert matrix_correlation(matrices[b], matrices[a]).pearson == ab.pearson
    xs, ys = (matrices[kind].cells[_upper_pairs(len(dataset))] for kind in ("swap", "pairwise"))
    assert correlation(dataset, "pairwise", "swap").pearson == float(np.corrcoef(xs, ys)[0, 1])


def test_correlation_checks_before_reusing():
    dataset = _dataset(10)
    correlation(dataset, "swap", "emdpos")
    with pytest.raises(ValueError, match="swap distance guarded"):
        correlation([Election(9, [tuple(range(9))])] * 2, "swap", "emdpos")
    with pytest.raises(ValueError):
        correlation(dataset, "swap", "kendall")
    searches, _ = _counting_searches()
    with searches as searched:
        correlation(dataset, "emdpos", "swap")
    assert searched.call_count == 0


def test_correlation_threads_never_mix_datasets():
    # threads alternating between two datasets replace the kept matrices
    # under each other; each must still correlate its own dataset
    datasets = [_dataset(seed, k=6, m=3, n=4) for seed in (11, 12)]
    want = [
        matrix_correlation(distance_matrix(ds, "emdpos"), distance_matrix(ds, "l1pos"))
        for ds in datasets
    ]
    wrong = []

    def work(offset):
        for i in range(60):
            which = (i + offset) % 2
            if correlation(datasets[which], "emdpos", "l1pos") != want[which]:
                wrong.append(which)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@st.composite
def tie_heavy_arrays(draw):
    # values drawn from a pool of at most five, so most of them tie
    if draw(st.booleans()):
        pool = st.integers(-3, 4)
        dtype = np.int64
    else:
        pool = st.floats(-1e3, 1e3, allow_nan=False)
        dtype = float
    values = draw(st.lists(pool, min_size=1, max_size=5, unique=True))
    return np.array(draw(st.lists(st.sampled_from(values), min_size=1, max_size=40)), dtype=dtype)


@settings(max_examples=300)
@given(tie_heavy_arrays())
def test_average_ranks_equal_rankdata(values):
    ours = _average_ranks(values)
    theirs = rankdata(values)
    assert ours.dtype == theirs.dtype
    assert ours.tobytes() == theirs.tobytes()


# compass closed forms

def test_formula_examples():
    assert compass_distance_formula("emdpos", ("ID", "UN"), 4, 24) == 120
    assert compass_distance_formula("bordawise", ("ID", "UN"), 4, 24) == 120
    assert compass_distance_formula("pairwise", ("ID", "UN"), 4, 24) == 144
    assert compass_distance_formula("l1pos", ("ID", "UN"), 4, 24) == 144
    assert compass_distance_formula("discrete", ("ID", "UN"), 4, 24) == 23
    assert compass_distance_formula("pairwise", ("AN", "UN"), 4, 24) == 0
    assert compass_distance_formula("bordawise", ("AN", "UN"), 4, 24) == 0


def test_formula_same_endpoints_zero():
    for kind in METRIC_KINDS:
        for k in COMPASS_KINDS:
            assert compass_distance_formula(kind, (k, k), 4, 24) == 0


def test_formula_symmetry():
    for kind in METRIC_KINDS:
        for a, b in itertools.combinations(COMPASS_KINDS, 2):
            assert compass_distance_formula(kind, (a, b), 4, 24) == (
                compass_distance_formula(kind, (b, a), 4, 24)
            )


def test_swap_bounds_cells():
    assert compass_distance_formula("swap", ("AN", "UN"), 4, 24) == (18, 72)
    assert compass_distance_formula("swap", ("AN", "ST"), 4, 24) == (24, 72)


def test_formula_matches_computed_metric_at_4x24():
    compass = {k: compass_election(k, 4, 24) for k in COMPASS_KINDS}
    for kind in METRIC_KINDS:
        for a, b in itertools.combinations(COMPASS_KINDS, 2):
            expected = compass_distance_formula(kind, (a, b), 4, 24)
            computed = distance(compass[a], compass[b], kind).value
            if isinstance(expected, tuple):
                lo, hi = expected
                assert lo <= computed <= hi, (kind, a, b, computed)
            else:
                assert computed == expected, (kind, a, b, computed)


def test_swap_computed_values_inside_bounds_cells():
    compass = {k: compass_election(k, 4, 24) for k in COMPASS_KINDS}
    assert distance(compass["AN"], compass["UN"], "swap").value == 44
    assert distance(compass["AN"], compass["ST"], "swap").value == 60


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        compass_distance_formula("swap", ("ID", "UN"), 3, 6)
    with pytest.raises(ValueError):
        compass_distance_formula("swap", ("ID", "ST"), 2, 4)
    with pytest.raises(ValueError):
        compass_distance_formula("swap", ("ID", "UN"), 4, 12)
    with pytest.raises(ValueError):
        compass_distance_formula("swap", ("ID", "AN"), 4, 3)
    with pytest.raises(ValueError):
        compass_distance_formula("sway", ("ID", "UN"), 4, 24)
    with pytest.raises(ValueError):
        compass_distance_formula("swap", ("ID", "XX"), 4, 24)


def test_formula_small_even_m_without_st():
    assert compass_distance_formula("discrete", ("ID", "AN"), 2, 2) == 1
    assert compass_distance_formula("swap", ("ID", "UN"), 2, 2) == 1


# diameter property

def test_no_diameter_violations_on_random_elections():
    rng = np.random.default_rng(5)
    dataset = [random_election(rng, 3, 6) for _ in range(30)]
    for kind in METRIC_KINDS:
        assert check_diameter(dataset, kind) == []


def test_diameter_bound_is_tight_on_the_extremes():
    dataset = [compass_election("ID", 3, 6), compass_election("UN", 3, 6)]
    for kind in METRIC_KINDS:
        assert check_diameter(dataset, kind) == []
        assert (
            distance(dataset[0], dataset[1], kind).value
            == distance(
                compass_election("ID", 3, 6), compass_election("UN", 3, 6), kind
            ).value
        )


def test_bordawise_elections_lie_on_the_diameter():
    rng = np.random.default_rng(6)
    ident = compass_election("ID", 3, 6)
    unif = compass_election("UN", 3, 6)
    span = distance(ident, unif, "bordawise").value
    for _ in range(25):
        e = random_election(rng, 3, 6)
        total = (
            distance(e, ident, "bordawise").value
            + distance(e, unif, "bordawise").value
        )
        assert total == span


def test_diameter_violations_equal_a_per_pair_loop(monkeypatch):
    # with UN replaced by ID the bound is 0, so every pair at a positive
    # distance is reported, with its exact value
    import electodist.analysis as analysis

    identity = analysis.compass_election
    monkeypatch.setattr(
        analysis, "compass_election", lambda kind, m, n: identity("ID", m, n)
    )
    rng = np.random.default_rng(7)
    # the repeated election makes one pair at distance 0, which is not reported
    dataset = [random_election(rng, 3, 4) for _ in range(6)]
    dataset.append(dataset[0])
    for kind in METRIC_KINDS:
        loop = []
        for i, j in itertools.combinations(range(len(dataset)), 2):
            value = distance(dataset[i], dataset[j], kind).value
            if value > 0:
                loop.append((i, j, value))
        got = check_diameter(dataset, kind)
        assert got == loop
        assert len(got) < 21
        assert all(type(v) is type(w) for (_, _, v), (_, _, w) in zip(got, loop))


def test_diameter_edge_cases():
    assert check_diameter([], "swap") == []
    with pytest.raises(ValueError):
        check_diameter([SMALL_A, Election(3, [(0, 1, 2)])], "swap")


# position matrix recovery

def test_recover_identity_matrix():
    e = recover_election(4 * np.eye(3))
    assert e.votes == ((0, 1, 2),) * 4


def test_recover_small_example_matrix():
    p = position_matrix(SMALL_A)
    assert p.tolist() == [[1, 2, 0], [1, 1, 1], [1, 0, 2]]
    e = recover_election(p)
    assert e.n == 3
    assert np.array_equal(position_matrix(e), p)


def test_recover_flat_matrix_is_positionwise_uniform():
    e = recover_election(np.full((3, 3), 2))
    assert positionwise_distance(e, compass_election("UN", 3, 6)).value == 0


def test_recover_needs_multiple_peels():
    p = np.array([[2, 1], [1, 2]])
    e = recover_election(p)
    assert np.array_equal(position_matrix(e), p)
    assert len(set(e.votes)) == 2


def test_recover_errors():
    with pytest.raises(ValueError):
        recover_election(np.ones((2, 3)))
    with pytest.raises(ValueError):
        recover_election(np.array([[1, -1], [-1, 1]]))
    with pytest.raises(ValueError):
        recover_election(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        recover_election(np.array([[2, 1], [1, 1]]))
    with pytest.raises(ValueError):
        recover_election(np.zeros((3, 3)))


@given(elections())
def test_recover_round_trips_position_matrices(e):
    p = position_matrix(e)
    assert np.array_equal(position_matrix(recover_election(p)), p)


# Borda realizability

def test_borda_realizable_witness():
    e = borda_realizable((3, 5, 1), 3)
    assert e is not None
    assert e.n == 3
    assert borda_vector(e).tolist() == [3, 5, 1]


def test_borda_unrealizable_double_top():
    assert borda_realizable((6, 6, 0, 0), 2) is None


def test_borda_uniform_vector():
    e = borda_realizable((2, 2, 2), 2)
    assert e is not None
    assert borda_vector(e).tolist() == [2, 2, 2]


def test_borda_trivial_rejections():
    assert borda_realizable((0, 0, 0), 2) is None
    assert borda_realizable((7, -1, 0), 2) is None


def test_borda_guard():
    with pytest.raises(ValueError):
        borda_realizable((0,) * 6, 2)
    with pytest.raises(ValueError):
        borda_realizable((1, 1, 1), 0)
    with pytest.raises(ValueError):
        borda_realizable((1.5, 1, 0.5), 1)


def test_borda_search_agrees_with_exhaustive_enumeration():
    orders = all_orders(3)
    achievable = set()
    for u, v in itertools.product(orders, repeat=2):
        achievable.add(tuple(borda_vector(Election(3, [u, v])).tolist()))
    for x0 in range(7):
        for x1 in range(7 - x0):
            x = (x0, x1, 6 - x0 - x1)
            witness = borda_realizable(x, 2)
            if x in achievable:
                assert witness is not None
                assert tuple(borda_vector(witness).tolist()) == x
            else:
                assert witness is None


# majority realizability

def test_majority_round_trips():
    rng = np.random.default_rng(3)
    for _ in range(5):
        e = random_election(rng, 3, 3)
        target = majority_matrix(e)
        witness = majority_realizable_bruteforce(target, 3)
        assert witness is not None
        assert np.array_equal(majority_matrix(witness), target)


def test_majority_unanimous_pair():
    witness = majority_realizable_bruteforce(np.array([[0, 2], [0, 0]]), 2)
    assert witness is not None
    assert witness.votes == ((0, 1), (0, 1))


def test_majority_single_vote_cycle_impossible():
    cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert majority_realizable_bruteforce(cycle, 1) is None


def test_majority_malformed_matrices():
    assert majority_realizable_bruteforce(np.array([[1, 2], [0, 0]]), 2) is None
    assert majority_realizable_bruteforce(np.array([[0, 2], [1, 0]]), 2) is None
    assert majority_realizable_bruteforce(np.array([[0, -1], [3, 0]]), 2) is None


def test_majority_guard():
    with pytest.raises(ValueError):
        majority_realizable_bruteforce(np.zeros((5, 5)), 2)
    with pytest.raises(ValueError):
        majority_realizable_bruteforce(np.zeros((2, 2)), 5)


# intrinsic paths

L1_X = np.array(
    [[1, 2, 1, 1], [3, 1, 0, 1], [1, 2, 2, 0], [0, 0, 2, 3]]
)
L1_Y = np.array(
    [[1, 2, 2, 0], [2, 2, 0, 1], [1, 1, 2, 1], [1, 0, 1, 3]]
)
L1_FIRST_STEP = np.array(
    [[1, 2, 1, 1], [2, 1, 1, 1], [1, 2, 2, 0], [1, 0, 1, 3]]
)

EMD_X = np.array(
    [[1, 1, 2, 2], [3, 0, 3, 0], [0, 4, 0, 2], [2, 1, 1, 2]]
)
EMD_Y = np.array(
    [[1, 2, 2, 1], [3, 0, 3, 0], [1, 3, 0, 2], [1, 1, 1, 3]]
)
EMD_SINGLE_SHIFT = np.array(
    [[1, 2, 2, 1], [3, 0, 3, 0], [0, 3, 0, 3], [2, 1, 1, 2]]
)


def test_l1_path_hand_example():
    a = recover_election(L1_X)
    b = recover_election(L1_Y)
    outcome = positionwise_distance(a, b, "L1")
    assert outcome.value == 8
    assert outcome.candidate_matching == (0, 1, 2, 3)
    path = l1pos_intrinsic_path(a, b)
    assert path.step_distance == 4
    assert np.array_equal(path.steps[0], L1_X)
    assert np.array_equal(path.steps[1], L1_FIRST_STEP)
    assert positionwise_distance(L1_FIRST_STEP, L1_Y, "L1").value == 6
    assert np.array_equal(path.steps[-1], L1_Y)
    assert path.total == 12
    assert path.total <= 2 * outcome.value


def test_emd_path_hand_example():
    a = recover_election(EMD_X)
    b = recover_election(EMD_Y)
    identity_cost = sum(
        emd(EMD_X[:, c].tolist(), EMD_Y[:, c].tolist()) for c in range(4)
    )
    assert identity_cost == 6
    outcome = positionwise_distance(a, b, "EMD")
    assert outcome.value == 4
    assert outcome.candidate_matching == (0, 3, 2, 1)
    # the four-cell shift on rows 2 and 0 of column 1, donating into column
    # 3, lowers the identity-matching cost by twice the row gap
    shift_cost = sum(
        emd(EMD_SINGLE_SHIFT[:, c].tolist(), EMD_Y[:, c].tolist())
        for c in range(4)
    )
    assert shift_cost == identity_cost - 4
    path = emdpos_intrinsic_path(a, b)
    assert path.step_distance == 2
    assert path.total == 4
    assert path.total <= 2 * outcome.value
    matched_target = EMD_Y[:, [0, 3, 2, 1]]
    assert np.array_equal(path.steps[-1], matched_target)
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert positionwise_distance(prev, cur, "EMD").value == 2


def test_l1_path_ends_on_the_matched_target():
    # the working matrix reaches a column permutation of the last recorded
    # step, which the path then replaces by the matched target itself
    a = Election(4, [(0, 2, 1, 3), (0, 3, 1, 2)])
    b = Election(4, [(0, 1, 2, 3), (3, 0, 1, 2)])
    outcome = positionwise_distance(a, b, "L1")
    path = l1pos_intrinsic_path(a, b)
    assert len(path.steps) == 3
    assert path.total == 8
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert positionwise_distance(prev, cur, "L1").value == 4
    matched_target = position_matrix(b)[:, list(outcome.candidate_matching)]
    assert np.array_equal(path.steps[-1], matched_target)


def test_paths_at_the_smallest_nonzero_distance_have_two_steps():
    a = Election(3, [(0, 1, 2), (0, 1, 2)])
    b = Election(3, [(0, 1, 2), (1, 0, 2)])
    assert positionwise_distance(a, b, "L1").value == 4
    assert positionwise_distance(a, b, "EMD").value == 2
    for builder in (l1pos_intrinsic_path, emdpos_intrinsic_path):
        path = builder(a, b)
        assert len(path.steps) == 2
        assert np.array_equal(path.steps[0], position_matrix(a))
        assert np.array_equal(path.steps[1], position_matrix(b))


def test_paths_between_isomorphic_elections_are_single_points():
    a = Election(3, [(0, 1, 2), (2, 1, 0)])
    b = Election(3, [(1, 0, 2), (2, 0, 1)])
    for builder in (l1pos_intrinsic_path, emdpos_intrinsic_path):
        path = builder(a, b)
        assert len(path.steps) == 1
        assert path.total == 0
        assert np.array_equal(path.steps[0], position_matrix(a))


def test_path_materializes_elections():
    a = Election(3, [(0, 1, 2), (0, 1, 2)])
    b = Election(3, [(1, 2, 0), (2, 1, 0)])
    path = emdpos_intrinsic_path(a, b)
    materialized = path.elections()
    assert len(materialized) == len(path.steps)
    for e, p in zip(materialized, path.steps):
        assert np.array_equal(position_matrix(e), p)


def test_path_input_validation():
    with pytest.raises(ValueError):
        l1pos_intrinsic_path(SMALL_A, Election(3, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        emdpos_intrinsic_path(position_matrix(SMALL_A), SMALL_B)
    a = Election(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    b = Election(3, [(0, 1, 2)] * 5)
    for builder in (l1pos_intrinsic_path, emdpos_intrinsic_path):
        with pytest.raises(ValueError, match=r"elections differ in shape: \(3, 3\) vs \(3, 5\)"):
            builder(a, b)


@settings(deadline=None)
@given(election_pairs())
def test_l1_path_properties(pair):
    a, b = pair
    d = positionwise_distance(a, b, "L1").value
    path = l1pos_intrinsic_path(a, b)
    assert path.total == 4 * (len(path.steps) - 1)
    assert path.total <= 2 * d
    assert np.array_equal(path.steps[0], position_matrix(a))
    for s in path.steps:
        assert s.min() >= 0
        assert (s.sum(axis=0) == a.n).all()
        assert (s.sum(axis=1) == a.n).all()
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert positionwise_distance(prev, cur, "L1").value == 4
    assert positionwise_distance(path.steps[-1], position_matrix(b), "L1").value == 0


@settings(deadline=None)
@given(election_pairs())
def test_emd_path_properties(pair):
    a, b = pair
    d = positionwise_distance(a, b, "EMD").value
    path = emdpos_intrinsic_path(a, b)
    assert path.total == 2 * (len(path.steps) - 1)
    assert path.total <= 2 * d
    assert np.array_equal(path.steps[0], position_matrix(a))
    for s in path.steps:
        assert s.min() >= 0
        assert (s.sum(axis=0) == a.n).all()
        assert (s.sum(axis=1) == a.n).all()
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert positionwise_distance(prev, cur, "EMD").value == 2
    assert positionwise_distance(path.steps[-1], position_matrix(b), "EMD").value == 0


# unit-step paths for the two isomorphic metrics

def test_swap_unit_path_small_pair():
    steps = swap_unit_path(SMALL_A, SMALL_B)
    assert len(steps) == 2
    assert steps[0] == SMALL_A
    assert distance(steps[0], steps[1], "swap").value == 1
    assert distance(steps[-1], SMALL_B, "swap").value == 0


def test_discrete_unit_path_small_pair():
    steps = discrete_unit_path(SMALL_A, SMALL_B)
    assert len(steps) == 2
    assert distance(steps[0], steps[1], "discrete").value == 1
    assert distance(steps[-1], SMALL_B, "discrete").value == 0


def test_unit_step_paths_realize_the_distance_exactly():
    rng = np.random.default_rng(9)
    builders = {"swap": swap_unit_path, "discrete": discrete_unit_path}
    for _ in range(15):
        a = random_election(rng, 3, 3)
        b = random_election(rng, 3, 3)
        for kind, builder in builders.items():
            d = distance(a, b, kind).value
            steps = builder(a, b)
            assert len(steps) - 1 == d
            assert steps[0] == a
            assert distance(steps[-1], b, kind).value == 0
            for prev, cur in zip(steps, steps[1:]):
                assert distance(prev, cur, kind).value == 1
