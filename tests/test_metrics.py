from __future__ import annotations

import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from electodist import metrics
from electodist.cli import main
from electodist.cultures import CultureSpec, sample, sample_many
from electodist.elections import GUARDS
from electodist.metrics import distance_values
from electodist import (
    DEFAULT_CULTURES,
    METRIC_KINDS,
    Election,
    apply_matchings,
    borda_realizable,
    canonical_anec_key,
    compass_election,
    count_equivalence_classes,
    distance,
    emd,
    enumerate_anecs,
    frequency_matrix,
    l1,
    majority_matrix,
    majority_realizable_bruteforce,
    pairwise_cost_at,
    pairwise_distance,
    position_matrix,
    positionwise_distance,
    solve_assignment,
    vote_discrete_distance,
    vote_swap_distance,
)

from conftest import (
    ALL_ORDERS_3,
    CYCLIC_DOUBLED,
    SMALL_A,
    SMALL_B,
    SPLIT_REVERSED,
    election_pairs,
    election_triples,
    elections,
)
from _oracles import (
    brute_force_assignment,
    brute_force_iso_distance,
    brute_force_pairwise,
    brute_force_positionwise,
    emd_flow,
)


# two cultures far apart on the map, for draws at m = 7 and 8
CULTURE_DRAWS = (CultureSpec("Mallows", {"phi": 0.3}), CultureSpec("Euclidean", {"shape": "disc_2d"}))


def test_vote_swap_distance_basics():
    assert vote_swap_distance((0, 1, 2), (0, 1, 2)) == 0
    assert vote_swap_distance((0, 1, 2), (2, 1, 0)) == 3
    assert vote_swap_distance((0, 1, 2), (1, 0, 2)) == 1
    with pytest.raises(ValueError):
        vote_swap_distance((0, 1, 2), (0, 1))


def test_vote_discrete_distance_basics():
    assert vote_discrete_distance((0, 1), (0, 1)) == 0
    assert vote_discrete_distance((0, 1), (1, 0)) == 1
    with pytest.raises(ValueError):
        vote_discrete_distance((0, 1), (0, 1, 2))


@given(st.integers(2, 5), st.data())
def test_discrete_is_swap_clipped_to_one(m, data):
    u = tuple(data.draw(st.permutations(range(m))))
    v = tuple(data.draw(st.permutations(range(m))))
    assert vote_discrete_distance(u, v) == min(1, vote_swap_distance(u, v))


def test_l1_known_values():
    assert l1((1, 1, 1), (2, 1, 0)) == 2
    assert l1((3, 4), (3, 4)) == 0
    assert l1((0, 3), (3, 0)) == 6
    with pytest.raises(ValueError):
        l1((1, 2), (1, 2, 3))


def test_emd_known_values():
    assert emd((1, 1, 1), (2, 1, 0)) == 2
    assert emd((5, 0), (5, 0)) == 0
    assert emd((0, 3), (3, 0)) == 3


def test_emd_validates_input():
    with pytest.raises(ValueError):
        emd((1, 2), (1, 2, 0))
    with pytest.raises(ValueError):
        emd((1, 2), (2, 2))
    with pytest.raises(ValueError):
        emd((-1, 1), (0, 0))


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=12),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_emd_prefix_sums_equal_greedy_flow(x, data):
    # redistribute the same total to get an equal-sum partner vector
    total = sum(x)
    k = len(x)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=k - 1, min_size=k - 1)))
    y = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    assert emd(x, y) == emd_flow(x, y)


def test_emd_handles_fractions():
    x = (Fraction(1, 2), Fraction(1, 2))
    y = (Fraction(1, 4), Fraction(3, 4))
    assert emd(x, y) == Fraction(1, 4)
    assert emd_flow(x, y) == Fraction(1, 4)


def test_solve_assignment_identity_cheapest():
    costs = [[0, 9, 9], [9, 0, 9], [9, 9, 0]]
    matching, total = solve_assignment(costs)
    assert matching == (0, 1, 2)
    assert total == 0


def test_solve_assignment_antidiagonal():
    matching, total = solve_assignment([[0, 5], [5, 0]])
    assert total == 0
    assert matching == (0, 1)


def test_solve_assignment_matches_brute_force_on_random_integers():
    rng = np.random.default_rng(7)
    for _ in range(120):
        costs = rng.integers(0, 40, size=(5, 5))
        matching, total = solve_assignment(costs)
        bf_matching, bf_total = brute_force_assignment(costs.tolist())
        assert total == bf_total
        assert matching == bf_matching


def test_solve_assignment_fraction_costs_exact():
    rng = np.random.default_rng(11)
    for _ in range(40):
        nums = rng.integers(0, 20, size=(4, 4))
        dens = rng.integers(1, 9, size=(4, 4))
        costs = np.empty((4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                costs[i, j] = Fraction(int(nums[i, j]), int(dens[i, j]))
        matching, total = solve_assignment(costs)
        bf_matching, bf_total = brute_force_assignment(costs.tolist())
        assert total == bf_total
        assert isinstance(total, Fraction)
        assert matching == bf_matching


def test_solve_assignment_float_costs():
    # float costs get one solve: only the total and a permutation are pinned
    rng = np.random.default_rng(13)
    costs = rng.random((6, 6))
    matching, total = solve_assignment(costs)
    _, bf_total = brute_force_assignment(costs.tolist())
    assert total == pytest.approx(bf_total)
    assert sorted(matching) == list(range(6))


def test_solve_assignment_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_assignment([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        solve_assignment([[np.inf, 1], [1, 0]])


@pytest.mark.parametrize("as_array", [True, False], ids=["int64", "list"])
def test_solve_assignment_rejects_costs_beyond_float_precision(as_array):
    # in float64 2**53 + 1 rounds to 2**53, so the solver would see a tie
    # and could return the total 2**53 + 1 instead of the optimum 2**53
    costs = [[2**53 + 1, 2**53], [0, 0]]
    with pytest.raises(ValueError, match="too large"):
        solve_assignment(np.array(costs, dtype=np.int64) if as_array else costs)


def test_solve_assignment_guard_counts_the_tie_broken_solves():
    # a 3x3 solve scales costs by up to 3 and adds ranks below 3, over 3
    # rows, so it must keep (peak + 1) * 9 below 2**53
    peak = -(-(2**53) // 9) - 1
    with pytest.raises(ValueError, match="too large"):
        solve_assignment([[peak, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert solve_assignment([[peak - 1, 0, 0], [0, 0, 0], [0, 0, 0]]) == ((1, 0, 2), 0)


def test_iso_discrete_known_pair():
    out = distance(SMALL_A, SMALL_B, "discrete")
    assert out.value == 1
    assert out.candidate_matching == (0, 1, 2)


def test_iso_swap_known_pair():
    # the identity matching costs 2, but relabeling 0<->1 reaches 1
    out = distance(SMALL_A, SMALL_B, "swap")
    assert out.value == 1
    assert out.candidate_matching == (1, 0, 2)
    at_identity = min(
        sum(
            vote_swap_distance(SMALL_A.votes[i], SMALL_B.votes[rho[i]])
            for i in range(3)
        )
        for rho in itertools.permutations(range(3))
    )
    assert at_identity == 2
    assert brute_force_iso_distance(SMALL_A, SMALL_B, "swap") == 1


def test_iso_witnesses_reproduce_value():
    for kind in ("swap", "discrete"):
        out = distance(SMALL_A, SMALL_B, kind)
        sigma, rho = out.candidate_matching, out.voter_matching
        vote_dist = vote_swap_distance if kind == "swap" else vote_discrete_distance
        replayed = sum(
            vote_dist(
                tuple(sigma[c] for c in SMALL_A.votes[i]), SMALL_B.votes[rho[i]]
            )
            for i in range(SMALL_A.n)
        )
        assert replayed == out.value


@given(election_pairs(max_m=4, max_n=3))
@settings(max_examples=60, deadline=None)
def test_iso_distance_matches_brute_force(pair):
    a, b = pair
    for kind in ("swap", "discrete"):
        assert distance(a, b, kind).value == brute_force_iso_distance(a, b, kind)


@given(elections(max_m=4, max_n=4), st.data())
@settings(max_examples=40, deadline=None)
def test_isomorphic_elections_are_at_distance_zero(election, data):
    sigma = tuple(data.draw(st.permutations(range(election.m))))
    rho = tuple(data.draw(st.permutations(range(election.n))))
    moved = apply_matchings(election, sigma, rho)
    for kind in METRIC_KINDS:
        assert distance(election, moved, kind).value == 0


def test_iso_distance_validates():
    with pytest.raises(ValueError):
        distance(SMALL_A, Election(3, [(0, 1, 2)]), "swap")
    with pytest.raises(ValueError):
        distance(SMALL_A, SMALL_B, "hamming")
    big = Election(9, [tuple(range(9))])
    with pytest.raises(ValueError):
        distance(big, big, "swap")
    assert distance(big, big, "discrete").value == 0


def test_guards_dict_is_the_only_guard(tmp_path, capsys):
    # metrics.GUARDS is the one table of elections.py; patching an entry
    # moves the guard it names on every path, and restoring it moves it back
    assert metrics.GUARDS is GUARDS
    e = Election(5, [tuple(range(5)), (4, 3, 2, 1, 0)])
    small = Election(4, [tuple(range(4))] * 2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "m": 5, "n": 2, "compass": ["ID", "AN"], "metrics": ["emdpos", "pairwise"],
        "output": str(tmp_path / "out"),
    }), encoding="utf-8")
    with mock.patch.dict(metrics.GUARDS, {"swap distance": {"m": 4}, "pairwise distance": {"m": 4}}):
        for kind, call in (
            ("swap", lambda: distance(e, e, "swap")),
            ("pairwise", lambda: pairwise_distance(e, e)),
            ("swap", lambda: metrics.distance_values([e, e], "swap")),
            ("pairwise", lambda: metrics.distance_values([e, e], "pairwise")),
        ):
            with pytest.raises(ValueError, match=rf"^{kind} distance guarded at m <= 4 \(got m=5\)$"):
                call()
        assert distance(small, small, "swap").value == 0
        assert pairwise_distance(small, small).value == 0
        assert main(["map", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pairwise distance guarded at m <= 4 (got m=5)\n"
        assert not (tmp_path / "out").exists()
    assert distance(e, e, "swap").value == 0
    assert pairwise_distance(e, e).value == 0

    # the other four entries, each patched below a shape it accepts; the
    # CLI commands print the same message on one line and nothing on stdout
    two = Election(3, [(0, 1, 2), (2, 1, 0)])
    matrix = tmp_path / "majority.txt"
    matrix.write_text("\n".join(" ".join(map(str, row)) for row in majority_matrix(two)) + "\n")
    realizable_majority = ["realizable", "majority", "--file", str(matrix), "--n", "2"]
    cases = (
        ("census", {"m": 2, "n": 6}, "m <= 2 and n <= 6 (got m=3, n=2)", (
            lambda: count_equivalence_classes(3, 2),
            lambda: enumerate_anecs(3, 2),
            ["census", "--m", "3", "--n", "2"],
        )),
        ("census", {"m": 4, "n": 1}, "m <= 4 and n <= 1 (got m=3, n=2)", (
            lambda: count_equivalence_classes(3, 2),
            lambda: enumerate_anecs(3, 2),
            ["census", "--m", "3", "--n", "2"],
        )),
        ("Borda realizability", {"m": 2}, "m <= 2 (got m=3)", (
            lambda: borda_realizable((2, 2, 2), 2),
            ["realizable", "borda", "--scores", "2,2,2", "--n", "2"],
        )),
        ("majority realizability", {"m": 2, "n": 4}, "m <= 2 and n <= 4 (got m=3, n=2)", (
            lambda: majority_realizable_bruteforce(majority_matrix(two), 2),
            realizable_majority,
        )),
        ("majority realizability", {"m": 4, "n": 1}, "m <= 4 and n <= 1 (got m=3, n=2)", (
            lambda: majority_realizable_bruteforce(majority_matrix(two), 2),
            realizable_majority,
        )),
        ("canonical key", {"m": 2}, "m <= 2 (got m=3)", (lambda: canonical_anec_key(two),)),
    )
    for name, bound, tail, calls in cases:
        message = f"{name} guarded at {tail}"
        with mock.patch.dict(metrics.GUARDS, {name: bound}):
            for call in calls:
                if isinstance(call, list):
                    assert main(call) == 2
                    assert capsys.readouterr() == ("", f"error: {message}\n")
                else:
                    with pytest.raises(ValueError) as exc:
                        call()
                    assert str(exc.value) == message
        for call in calls:
            if isinstance(call, list):
                assert main(call) == 0
                assert capsys.readouterr().out != ""
            else:
                call()


def test_positionwise_known_pair():
    # column costs at the identity matching are 2 + 1 + 1
    out = positionwise_distance(SMALL_A, SMALL_B, "EMD")
    assert out.value == 2
    assert out.candidate_matching == (1, 0, 2)
    pa = position_matrix(SMALL_A)
    pb = position_matrix(SMALL_B)
    cols = lambda mat, c: [int(mat[i, c]) for i in range(3)]
    at_identity = sum(emd(cols(pa, c), cols(pb, c)) for c in range(3))
    assert at_identity == 4
    assert brute_force_positionwise(SMALL_A, SMALL_B, emd) == 2


def test_positionwise_l1_matches_brute_force_on_known_pair():
    out = positionwise_distance(SMALL_A, SMALL_B, "L1")
    assert out.value == brute_force_positionwise(SMALL_A, SMALL_B, l1)


@given(election_pairs(max_m=4, max_n=4))
@settings(max_examples=50, deadline=None)
def test_positionwise_matches_brute_force(pair):
    a, b = pair
    assert positionwise_distance(a, b, "EMD").value == brute_force_positionwise(a, b, emd)
    assert positionwise_distance(a, b, "L1").value == brute_force_positionwise(a, b, l1)


def test_positionwise_accepts_matrices():
    pa = position_matrix(SMALL_A)
    pb = position_matrix(SMALL_B)
    assert positionwise_distance(pa, pb, "EMD").value == 2
    fa = frequency_matrix(SMALL_A)
    fb = frequency_matrix(SMALL_B)
    out = positionwise_distance(fa, fb, "EMD")
    assert out.value == Fraction(2, 3)
    assert out.value * SMALL_A.n == 2


def test_positionwise_float_matrices_with_rounded_column_sums():
    # each column holds 0.1, 0.2 and 0.7, whose float sums are 1.0 or
    # 0.9999999999999999 by the order they are added in
    pa = np.array([[0.1, 0.7, 0.2], [0.2, 0.2, 0.7], [0.7, 0.1, 0.1]])
    pb = np.array([[0.7, 0.1, 0.2], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]])
    assert len(set(np.cumsum(pa, axis=0)[-1]) | set(np.cumsum(pb, axis=0)[-1])) == 2
    best = min(
        sum(emd(pa[:, c].tolist(), pb[:, sigma[c]].tolist()) for c in range(3))
        for sigma in itertools.permutations(range(3))
    )
    assert positionwise_distance(pa, pb, "EMD").value == pytest.approx(best, abs=1e-12)
    with pytest.raises(ValueError, match="different column sums"):
        positionwise_distance(pa, pb * 1.1, "EMD")


def test_positionwise_identical_matrices_are_at_zero():
    pa = position_matrix(SMALL_A)
    for variant in ("EMD", "L1"):
        assert positionwise_distance(pa, pa, variant).value == 0


def test_positionwise_validates():
    with pytest.raises(ValueError):
        positionwise_distance(SMALL_A, SMALL_B, "L2")
    with pytest.raises(ValueError):
        positionwise_distance(SMALL_A, Election(4, [(0, 1, 2, 3)] * 3), "EMD")


def test_pairwise_cost_at_known_values():
    assert pairwise_cost_at(SMALL_A, SMALL_B, (1, 0, 2)) == 2
    assert pairwise_cost_at(SMALL_A, SMALL_B, (0, 1, 2)) == 4
    assert pairwise_cost_at(SMALL_A, SMALL_A, (0, 1, 2)) == 0
    with pytest.raises(ValueError):
        pairwise_cost_at(SMALL_A, SMALL_B, (0, 0, 2))


def test_pairwise_distance_known_pair():
    out = pairwise_distance(SMALL_A, SMALL_B)
    assert out.value == 2
    assert out.value == brute_force_pairwise(SMALL_A, SMALL_B)
    assert pairwise_cost_at(SMALL_A, SMALL_B, out.candidate_matching) == out.value


def test_pairwise_distance_fineness_witnesses():
    assert pairwise_distance(ALL_ORDERS_3, SPLIT_REVERSED).value == 0
    assert pairwise_distance(ALL_ORDERS_3, CYCLIC_DOUBLED).value > 0
    assert positionwise_distance(ALL_ORDERS_3, CYCLIC_DOUBLED, "EMD").value == 0
    assert positionwise_distance(ALL_ORDERS_3, CYCLIC_DOUBLED, "L1").value == 0
    assert positionwise_distance(ALL_ORDERS_3, SPLIT_REVERSED, "EMD").value > 0


@given(election_pairs(max_m=4, max_n=5))
@settings(max_examples=50, deadline=None)
def test_pairwise_matches_brute_force(pair):
    a, b = pair
    assert pairwise_distance(a, b).value == brute_force_pairwise(a, b)


def test_pairwise_guard():
    big = Election(13, [tuple(range(13))])
    with pytest.raises(ValueError):
        pairwise_distance(big, big)


def test_bordawise_known_pair():
    assert distance(SMALL_A, SMALL_B, "bordawise").value == 1
    assert distance(SMALL_A, SMALL_A, "bordawise").value == 0


def test_bordawise_antagonism_equals_uniformity():
    an = compass_election("AN", 3, 12)
    un = compass_election("UN", 3, 12)
    assert distance(an, un, "bordawise").value == 0
    assert pairwise_distance(an, un).value == 0


def test_distance_dispatcher_agrees_with_direct_calls():
    assert distance(SMALL_A, SMALL_B, "bordawise").value == 1
    assert distance(SMALL_A, SMALL_B, "discrete").value == 1
    assert distance(SMALL_A, SMALL_B, "swap").value == 1
    assert distance(SMALL_A, SMALL_B, "emdpos").value == 2
    assert distance(SMALL_A, SMALL_B, "l1pos").value == positionwise_distance(
        SMALL_A, SMALL_B, "L1"
    ).value
    assert distance(SMALL_A, SMALL_B, "pairwise").value == 2
    with pytest.raises(ValueError):
        distance(SMALL_A, SMALL_B, "euclidean")


@given(election_pairs(max_m=4, max_n=4))
@settings(max_examples=30, deadline=None)
def test_all_metrics_are_symmetric(pair):
    a, b = pair
    for kind in METRIC_KINDS:
        assert distance(a, b, kind).value == distance(b, a, kind).value


@given(election_triples(max_m=4, max_n=4))
@settings(max_examples=30, deadline=None)
def test_all_metrics_satisfy_triangle_inequality(triple):
    a, b, c = triple
    for kind in METRIC_KINDS:
        ab = distance(a, b, kind).value
        bc = distance(b, c, kind).value
        ac = distance(a, c, kind).value
        assert ac <= ab + bc
        assert ab >= 0 and distance(a, a, kind).value == 0


def test_brute_force_guard():
    wide = Election(5, [tuple(range(5))] * 2)
    tall = Election(2, [(0, 1)] * 5)
    with pytest.raises(ValueError):
        brute_force_iso_distance(wide, wide, "swap")
    with pytest.raises(ValueError):
        brute_force_iso_distance(tall, tall, "swap")
    with pytest.raises(ValueError):
        brute_force_iso_distance(SMALL_A, SMALL_B, "cosine")


def test_ties_resolve_to_smallest_matching():
    un = compass_election("UN", 3, 6)
    assert distance(un, un, "swap").candidate_matching == (0, 1, 2)
    assert distance(un, un, "discrete").candidate_matching == (0, 1, 2)
    assert pairwise_distance(un, un).candidate_matching == (0, 1, 2)
    assert positionwise_distance(un, un, "EMD").candidate_matching == (0, 1, 2)


@pytest.mark.parametrize("m", range(1, 9))
def test_cross_metric_inequalities(m):
    # on seeded pairs at n = 1..7, near (relabeled, a vote changed), far (IC)
    # and drawn from a pool of two orders, through distance and through
    # distance_values, whose swap takes the stacked small-m search:
    # pairwise <= 2 swap, emdpos <= 2 swap, discrete <= swap <= C(m, 2)
    # discrete and l1pos <= 2 emdpos <= (m - 1) l1pos.  Bordawise <= emdpos
    # is no such bound: random m = 6, n = 3 pairs break it (14 > 10).  At
    # m = 7 and 8, n = 1..4 for time, with two culture draws more, swap
    # takes its chunked walk and its triangle bound, and pairwise its
    # branch and bound
    rng = np.random.default_rng([m, 2026])
    kinds = ("swap", "discrete", "emdpos", "l1pos", "pairwise")
    for n in range(1, 8 if m <= 6 else 5):
        a = Election(m, [rng.permutation(m) for _ in range(n)])
        near = rng.permutation(m)[a.array]
        near[rng.integers(n)] = rng.permutation(m)
        pool = [rng.permutation(m) for _ in range(2)]
        dataset = [a, Election(m, near)]
        dataset += [Election(m, [rng.permutation(m) for _ in range(n)]) for _ in range(2)]
        dataset += [Election(m, [pool[i] for i in rng.integers(2, size=n)]) for _ in range(2)]
        if m > 6:
            dataset += [sample(spec, m, n, int(rng.integers(2**32))) for spec in CULTURE_DRAWS]
        values = {kind: distance_values(dataset, kind).tolist() for kind in kinds}
        for p, (x, y) in enumerate(itertools.combinations(dataset, 2)):
            d = {kind: distance(x, y, kind).value for kind in kinds}
            assert d == {kind: values[kind][p] for kind in kinds}
            assert d["pairwise"] <= 2 * d["swap"]
            assert d["emdpos"] <= 2 * d["swap"]
            assert d["discrete"] <= d["swap"] <= m * (m - 1) // 2 * d["discrete"]
            assert d["l1pos"] <= 2 * d["emdpos"] <= (m - 1) * d["l1pos"]


def test_distance_matrices_satisfy_the_triangle_inequality_at_k_65():
    # every triple of 13 cultures x 5 elections at m = 10, n = 100, all k^3
    # at once on the full matrix: D[i, l] <= D[i, j] + D[j, l]
    dataset = [e for i, spec in enumerate(DEFAULT_CULTURES) for e in sample_many(spec, 10, 100, i, 5)]
    k = len(dataset)
    upper = np.triu_indices(k, 1)
    for kind in ("emdpos", "l1pos", "bordawise", "discrete"):
        d = np.zeros((k, k), dtype=np.int64)
        d[upper] = distance_values(dataset, kind)
        d += d.T
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()
