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
from electodist import (
    METRIC_KINDS,
    Election,
    apply_matchings,
    bordawise_distance,
    compass_election,
    distance,
    emd,
    frequency_matrix,
    iso_distance,
    l1,
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
    out = iso_distance(SMALL_A, SMALL_B, "discrete")
    assert out.value == 1
    assert out.candidate_matching == (0, 1, 2)


def test_iso_swap_known_pair():
    # the identity matching costs 2, but relabeling 0<->1 reaches 1
    out = iso_distance(SMALL_A, SMALL_B, "swap")
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
        out = iso_distance(SMALL_A, SMALL_B, kind)
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
        assert iso_distance(a, b, kind).value == brute_force_iso_distance(a, b, kind)


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
        iso_distance(SMALL_A, Election(3, [(0, 1, 2)]), "swap")
    with pytest.raises(ValueError):
        iso_distance(SMALL_A, SMALL_B, "hamming")
    big = Election(9, [tuple(range(9))])
    with pytest.raises(ValueError):
        iso_distance(big, big, "swap")
    assert iso_distance(big, big, "discrete").value == 0


def test_guards_dict_is_the_only_guard(tmp_path, capsys):
    e = Election(5, [tuple(range(5)), (4, 3, 2, 1, 0)])
    small = Election(4, [tuple(range(4))] * 2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "m": 5, "n": 2, "compass": ["ID", "AN"], "metrics": ["emdpos", "pairwise"],
        "output": str(tmp_path / "out"),
    }), encoding="utf-8")
    with mock.patch.dict(metrics.GUARDS, {"swap": 4, "pairwise": 4}):
        for kind, call in (
            ("swap", lambda: iso_distance(e, e, "swap")),
            ("pairwise", lambda: pairwise_distance(e, e)),
            ("swap", lambda: metrics.distance_values([e, e], "swap")),
            ("pairwise", lambda: metrics.distance_values([e, e], "pairwise")),
        ):
            with pytest.raises(ValueError, match=rf"^{kind} distance guarded at m <= 4 \(got m=5\)$"):
                call()
        assert iso_distance(small, small, "swap").value == 0
        assert pairwise_distance(small, small).value == 0
        assert main(["map", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pairwise distance guarded at m <= 4 (got m=5)\n"
        assert not (tmp_path / "out").exists()
    assert iso_distance(e, e, "swap").value == 0
    assert pairwise_distance(e, e).value == 0


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
    big = Election(11, [tuple(range(11))])
    with pytest.raises(ValueError):
        pairwise_distance(big, big)


def test_bordawise_known_pair():
    assert bordawise_distance(SMALL_A, SMALL_B).value == 1
    assert bordawise_distance(SMALL_A, SMALL_A).value == 0


def test_bordawise_antagonism_equals_uniformity():
    an = compass_election("AN", 3, 12)
    un = compass_election("UN", 3, 12)
    assert bordawise_distance(an, un).value == 0
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
    assert iso_distance(un, un, "swap").candidate_matching == (0, 1, 2)
    assert iso_distance(un, un, "discrete").candidate_matching == (0, 1, 2)
    assert pairwise_distance(un, un).candidate_matching == (0, 1, 2)
    assert positionwise_distance(un, un, "EMD").candidate_matching == (0, 1, 2)
