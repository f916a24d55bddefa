"""The exact message of every input rule, at every entry point that applies it.

Each rule (candidate and voter permutations, square matrices, integer
entries, metric kinds, positive shapes, size guards, compass kinds and
divisors, culture parameter domains, sampler seeds) is written once; these
cases pin what each caller reports through it, and the neighbouring raises
of the same callers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from electodist import (
    METRIC_KINDS,
    DistanceMatrix,
    Election,
    apply_matchings,
    borda_realizable,
    canonical_anec_key,
    check_diameter,
    compass_distance_formula,
    compass_election,
    compass_matrix,
    correlation,
    count_equivalence_classes,
    distance,
    embed_all,
    embedding_stress,
    enumerate_anecs,
    is_single_peaked,
    is_spoc_vote,
    majority_realizable_bruteforce,
    mallows_phi_from_norm,
    matrix_correlation,
    pairwise_cost_at,
    pairwise_distance,
    position_matrix,
    position_of,
    positionwise_distance,
    recover_election,
    solve_assignment,
    vote_discrete_distance,
    vote_swap_distance,
)
from electodist.cli import ExperimentConfig, parse_int_list
from electodist.cultures import (
    CultureSpec,
    sample,
    sample_euclidean,
    sample_group_separable,
    sample_ic,
    sample_mallows,
    sample_many,
    sample_single_crossing,
    sample_sp_conitzer,
    sample_sp_walsh,
    sample_spoc,
    sample_urn,
)
from electodist.metrics import distance_values

from conftest import SMALL_A, SMALL_B

KINDS = "('swap', 'discrete', 'emdpos', 'l1pos', 'pairwise', 'bordawise')"

TWO_BY_THREE = np.zeros((2, 3), dtype=np.int64)
TWO_VOTERS = Election(3, [(0, 1, 2), (2, 1, 0)])
LABELED = DistanceMatrix(("a", "b"), np.array([[0, 1], [1, 0]]), "emdpos")
RELABELED = DistanceMatrix(("a", "c"), np.array([[0, 1], [1, 0]]), "emdpos")
SINGLE = DistanceMatrix(("a",), np.zeros((1, 1)), "emdpos")

CASES = {
    # candidate and voter permutations
    "apply-candidates": (
        lambda: apply_matchings(SMALL_A, (0, 0, 1), (0, 1, 2)),
        "candidate matching (0, 0, 1) is not a permutation of 0..2",
    ),
    "apply-voters": (
        lambda: apply_matchings(SMALL_A, (0, 1, 2), (0, 1)),
        "voter matching (0, 1) has length 2, expected 3",
    ),
    "single-peaked-axis": (
        lambda: is_single_peaked(SMALL_A, (0, 1, 1)),
        "axis (0, 1, 1) is not a permutation of 0..2",
    ),
    "spoc-circle": (
        lambda: is_spoc_vote((0, 1, 2), (0, 1)),
        "axis (0, 1) has length 2, expected 3",
    ),
    "spoc-vote-off-circle": (
        lambda: is_spoc_vote((0, 5, 1), (0, 1, 2)),
        "vote (0, 5, 1) is not a permutation of 0..2",
    ),
    "spoc-vote-repeat": (
        lambda: is_spoc_vote((0, 0, 1), (0, 1, 2)),
        "vote (0, 0, 1) is not a permutation of 0..2",
    ),
    "vote-swap-off-range": (
        lambda: vote_swap_distance((0, 5), (0, 1)),
        "vote (0, 5) is not a permutation of 0..1",
    ),
    "vote-swap-repeat": (
        lambda: vote_swap_distance((0, 0), (0, 1)),
        "vote (0, 0) is not a permutation of 0..1",
    ),
    "vote-swap-integers": (
        lambda: vote_swap_distance((0.5, 1), (0, 1)),
        "vote entries must be integers, got 0.5",
    ),
    "vote-discrete-repeat": (
        lambda: vote_discrete_distance((0, 1), (1, 1)),
        "vote (1, 1) is not a permutation of 0..1",
    ),
    "position-of-repeat": (
        lambda: position_of((0, 0, 1), 1),
        "vote (0, 0, 1) is not a permutation of 0..2",
    ),
    "pairwise-cost-matching": (
        lambda: pairwise_cost_at(SMALL_A, SMALL_B, (0, 1)),
        "matching (0, 1) has length 2, expected 3",
    ),
    "pairwise-cost-integers": (
        lambda: pairwise_cost_at(SMALL_A, SMALL_A, (0.9, 1, 2)),
        "matching entries must be integers, got 0.9",
    ),
    "apply-candidates-integers": (
        lambda: apply_matchings(TWO_VOTERS, (0.5, 1, 2), (0, 1)),
        "candidate matching entries must be integers, got 0.5",
    ),
    "election-m-float": (
        lambda: Election(2.7, [(0, 1)]),
        "m must be an integer, got 2.7",
    ),
    "election-m-text": (
        lambda: Election("3", [(0, 1, 2)]),
        "m must be an integer, got '3'",
    ),
    "election-m-bool": (
        lambda: Election(True, [(0,)]),
        "m must be an integer, got True",
    ),
    "election-vote-length": (
        lambda: Election(3, [(0, 1, 2), (0, 1)]),
        "vote (0, 1) has length 2, expected 3",
    ),
    "election-vote-permutation": (
        lambda: Election(2, [(0, 1), (1, 1)]),
        "vote (1, 1) is not a permutation of 0..1",
    ),
    # square matrices, and the size checks beside them
    "assignment-square": (
        lambda: solve_assignment(TWO_BY_THREE),
        "cost matrix must be square, got shape (2, 3)",
    ),
    "positionwise-square": (
        lambda: positionwise_distance(TWO_BY_THREE, np.zeros((3, 3))),
        "position matrix must be square, got shape (2, 3)",
    ),
    "positionwise-negative-emd": (
        lambda: positionwise_distance(np.array([[2, -1], [-1, 2]]), np.eye(2)),
        "EMD needs nonnegative position matrices",
    ),
    "positionwise-sizes": (
        lambda: positionwise_distance(np.eye(2, dtype=int), np.eye(3, dtype=int), "L1"),
        "matrices differ in shape: (2, 2) vs (3, 3)",
    ),
    "pairwise-square": (
        lambda: pairwise_distance(np.zeros((3, 3)), TWO_BY_THREE),
        "majority matrix must be square, got shape (2, 3)",
    ),
    "pairwise-shapes": (
        lambda: pairwise_distance(np.zeros((2, 2)), np.zeros((3, 3))),
        "matrices differ in shape: (2, 2) vs (3, 3)",
    ),
    "pairwise-cost-square": (
        lambda: pairwise_cost_at(TWO_BY_THREE, np.zeros((3, 3)), (0, 1, 2)),
        "majority matrix must be square, got shape (2, 3)",
    ),
    "recover-square": (
        lambda: recover_election(TWO_BY_THREE),
        "position matrix must be square, got shape (2, 3)",
    ),
    "majority-realizable-square": (
        lambda: majority_realizable_bruteforce(TWO_BY_THREE, 2),
        "majority matrix must be square, got shape (2, 3)",
    ),
    "majority-realizable-m": (
        lambda: majority_realizable_bruteforce(np.zeros((0, 0)), 2),
        "need m >= 1 and n >= 1, got m=0, n=2",
    ),
    "majority-realizable-n": (
        lambda: majority_realizable_bruteforce(np.zeros((2, 2)), 0),
        "need m >= 1 and n >= 1, got m=2, n=0",
    ),
    "distance-matrix-square": (
        lambda: DistanceMatrix(("a", "b"), TWO_BY_THREE, "emdpos"),
        "cells must be square, got shape (2, 3)",
    ),
    "distance-matrix-empty": (
        lambda: DistanceMatrix((), np.zeros((0, 0)), "swap"),
        "need at least one election",
    ),
    "distance-matrix-infinite": (
        lambda: DistanceMatrix(("a", "b"), [[0, np.inf], [np.inf, 0]], "emdpos"),
        "cells must be finite",
    ),
    "distance-matrix-nan-before-symmetry": (
        lambda: DistanceMatrix(("a", "b"), [[0, np.nan], [1, 0]], "emdpos"),
        "cells must be finite",
    ),
    "recover-ragged": (
        lambda: recover_election([[1, 0], [0]]),
        "position matrix must be square, got rows of lengths [2, 1]",
    ),
    "majority-realizable-ragged": (
        lambda: majority_realizable_bruteforce([[0, 1], [0]], 1),
        "majority matrix must be square, got rows of lengths [2, 1]",
    ),
    "recover-scalar-row": (
        lambda: recover_election([[1, 0], 5]),
        "position matrix must be square, got rows of lengths [2, None]",
    ),
    "majority-realizable-scalar-row": (
        lambda: majority_realizable_bruteforce([0, [0, 1]], 1),
        "majority matrix must be square, got rows of lengths [None, 2]",
    ),
    # integer entries, named as Python scalars in row-major order
    "recover-integers": (
        lambda: recover_election(np.array([[1.0, 0.5], [0.5, 1.0]])),
        "position matrix entries must be integers, got 0.5",
    ),
    "recover-nonnegative": (
        lambda: recover_election([[2, -1], [-1, 2]]),
        "position matrix entries must be nonnegative, got -1",
    ),
    "recover-first-entry-wins": (
        lambda: recover_election([[1, -1], [0.5, 2]]),
        "position matrix entries must be nonnegative, got -1.0",
    ),
    "recover-fraction": (
        lambda: recover_election(np.array([[Fraction(1, 2), 1], [1, 1]], dtype=object)),
        "position matrix entries must be integers, got Fraction(1, 2)",
    ),
    "majority-realizable-integers": (
        lambda: majority_realizable_bruteforce(np.array([[0.0, 0.5], [0.5, 0.0]]), 1),
        "majority matrix entries must be integers, got 0.5",
    ),
    "borda-integers": (
        lambda: borda_realizable([1, 1.5, 0.5], 1),
        "Borda scores must be integers, got 1.5",
    ),
    "borda-integers-ndarray": (
        lambda: borda_realizable(np.array([1.0, 1.5, 0.5]), 1),
        "Borda scores must be integers, got 1.5",
    ),
    "election-vote-integers": (
        lambda: Election(2, [(0, 1), (0.5, 1)]),
        "vote entries must be integers, got 0.5",
    ),
    "election-vote-integers-ndarray": (
        lambda: Election(3, [np.array([0.0, 2.5, 1.0])]),
        "vote entries must be integers, got 2.5",
    ),
    "int-list-token": (
        lambda: parse_int_list("1,x"),
        "non-integer token in list '1,x'",
    ),
    # metric kinds
    "distance-kind": (
        lambda: distance(SMALL_A, SMALL_B, "foo"),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "distance-values-kind": (
        lambda: distance_values([SMALL_A, SMALL_B], "foo"),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "correlation-kind": (
        lambda: correlation([SMALL_A, SMALL_B], "emdpos", "foo"),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "diameter-kind-empty": (
        lambda: check_diameter([], "foo"),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "diameter-guard-before-divisor": (
        # n = 10 fails UN's divisor too, but the guard is reported first
        lambda: check_diameter([compass_election("ID", 9, 10)] * 2, "swap"),
        "swap distance guarded at m <= 8 (got m=9)",
    ),
    # size guards, one table read by one check before any work
    "census-guard-m": (
        lambda: count_equivalence_classes(5, 3),
        "census guarded at m <= 4 and n <= 6 (got m=5, n=3)",
    ),
    "census-guard-n": (
        lambda: count_equivalence_classes(3, 7),
        "census guarded at m <= 4 and n <= 6 (got m=3, n=7)",
    ),
    "enumerate-anecs-guard-on-call": (
        # raised by the call itself, not at the first next()
        lambda: enumerate_anecs(5, 3),
        "census guarded at m <= 4 and n <= 6 (got m=5, n=3)",
    ),
    "borda-guard": (
        lambda: borda_realizable((0,) * 6, 2),
        "Borda realizability guarded at m <= 5 (got m=6)",
    ),
    "majority-guard-m": (
        lambda: majority_realizable_bruteforce(np.zeros((5, 5)), 2),
        "majority realizability guarded at m <= 4 and n <= 4 (got m=5, n=2)",
    ),
    "majority-guard-n": (
        lambda: majority_realizable_bruteforce(np.zeros((2, 2)), 5),
        "majority realizability guarded at m <= 4 and n <= 4 (got m=2, n=5)",
    ),
    "canonical-key-guard": (
        lambda: canonical_anec_key(Election(9, [tuple(range(9))])),
        "canonical key guarded at m <= 8 (got m=9)",
    ),
    "compass-formula-kind": (
        lambda: compass_distance_formula("foo", ("ID", "AN"), 4, 4),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "config-not-object": (
        lambda: ExperimentConfig.from_json([]),
        "config must be a JSON object",
    ),
    "config-kind": (
        lambda: ExperimentConfig.from_json({"m": 3, "n": 6, "compass": ["ID"], "metrics": ["foo"]}),
        f"unknown metric kind 'foo', expected one of {KINDS}",
    ),
    "config-seed": (
        lambda: ExperimentConfig.from_json({"m": 3, "n": 6, "compass": ["ID"], "seed": -1}),
        "seed must be nonnegative, got -1",
    ),
    "correlation-labels": (
        lambda: matrix_correlation(LABELED, RELABELED),
        "distance matrices have different labels",
    ),
    "correlation-one-election": (
        lambda: matrix_correlation(SINGLE, SINGLE),
        "need at least two elections",
    ),
    # compass kinds and divisors
    "compass-an": (
        lambda: compass_election("AN", 3, 3),
        "compass election requires 2 | n (got n=3)",
    ),
    "compass-un": (
        lambda: compass_election("UN", 3, 4),
        "compass election requires m! = 6 divides n (got n=4)",
    ),
    "compass-st": (
        lambda: compass_election("ST", 4, 2),
        "compass election requires ((m/2)!)^2 = 4 divides n (got n=2)",
    ),
    "compass-st-odd": (
        lambda: compass_election("ST", 3, 4),
        "ST compass election requires even m",
    ),
    "compass-positive": (
        lambda: compass_election("ID", 0, 2),
        "need m >= 1 and n >= 1, got m=0, n=2",
    ),
    "compass-matrix-zero": (
        lambda: compass_matrix("ID", 0),
        "need m >= 1, got m=0",
    ),
    "compass-matrix-negative": (
        lambda: compass_matrix("UN", -1),
        "need m >= 1, got m=-1",
    ),
    "compass-matrix-float": (
        lambda: compass_matrix("ID", 2.5),
        "m must be an integer, got 2.5",
    ),
    "compass-matrix-kind": (
        lambda: compass_matrix("XX", 4),
        "unknown compass kind 'XX', expected one of ('ID', 'AN', 'UN', 'ST')",
    ),
    "compass-matrix-st-odd": (
        lambda: compass_matrix("ST", 5),
        "ST compass election requires even m",
    ),
    "compass-formula-compass-kind": (
        lambda: compass_distance_formula("emdpos", ("ID", "XX"), 4, 4),
        "unknown compass kind 'XX', expected one of ('ID', 'AN', 'UN', 'ST')",
    ),
    "compass-formula-one-kind": (
        lambda: compass_distance_formula("swap", ("ID",), 4, 4),
        "compass pair must be two compass kinds, got ('ID',)",
    ),
    "compass-formula-three-kinds": (
        lambda: compass_distance_formula("swap", ["ID", "AN", "UN"], 4, 24),
        "compass pair must be two compass kinds, got ('ID', 'AN', 'UN')",
    ),
    "compass-formula-divisor": (
        lambda: compass_distance_formula("emdpos", ("ID", "UN"), 4, 6),
        "compass election requires m! = 24 divides n (got n=6)",
    ),
    "compass-formula-first-side": (
        # both sides fail their divisor; the pair's first side is reported
        lambda: compass_distance_formula("emdpos", ("ST", "AN"), 4, 3),
        "compass election requires ((m/2)!)^2 = 4 divides n (got n=3)",
    ),
    "compass-formula-negative-n": (
        lambda: compass_distance_formula("emdpos", ("ID", "AN"), 4, -24),
        "need m >= 1 and n >= 1, got m=4, n=-24",
    ),
    "compass-formula-negative-n-bounds": (
        lambda: compass_distance_formula("swap", ("AN", "UN"), 4, -24),
        "need m >= 1 and n >= 1, got m=4, n=-24",
    ),
    # culture parameter domains
    "urn-alpha": (
        lambda: sample_urn(3, 3, 0, -1),
        "urn alpha must be nonnegative, got -1.0",
    ),
    "urn-alpha-infinite": (
        lambda: sample_urn(3, 3, 0, float("inf")),
        "urn alpha must be finite, got inf",
    ),
    "urn-alpha-nan": (
        lambda: sample_urn(3, 3, 0, float("nan")),
        "urn alpha must be finite, got nan",
    ),
    "urn-alpha-text": (
        lambda: sample_urn(3, 3, 0, "many"),
        "urn alpha must be a number, got 'many'",
    ),
    "urn-alpha-numeric-text": (
        lambda: sample_urn(3, 2, 0, "2.5"),
        "urn alpha must be a number, got '2.5'",
    ),
    "mallows-phi-numpy-bool": (
        lambda: sample_mallows(3, 2, 0, np.True_),
        "mallows phi must be a number, got np.True_",
    ),
    "mallows-phi": (
        lambda: sample_mallows(3, 3, 0, 1.5),
        "mallows phi must lie in [0, 1], got 1.5",
    ),
    "mallows-phi-bool": (
        lambda: sample_mallows(3, 3, 0, True),
        "mallows phi must be a number, got True",
    ),
    "urn-alpha-bool": (
        lambda: sample_urn(3, 3, 0, True),
        "urn alpha must be a number, got True",
    ),
    "mallows-norm-phi": (
        lambda: mallows_phi_from_norm(1.5, 4),
        "norm-phi must lie in [0, 1], got 1.5",
    ),
    "mallows-norm-phi-text": (
        lambda: mallows_phi_from_norm("0.5", 4),
        "norm-phi must be a number, got '0.5'",
    ),
    "mallows-norm-phi-bool": (
        lambda: mallows_phi_from_norm(True, 4),
        "norm-phi must be a number, got True",
    ),
    "mallows-norm-phi-m-float": (
        lambda: mallows_phi_from_norm(0.5, 2.5),
        "m must be an integer, got 2.5",
    ),
    "euclidean-shape": (
        lambda: sample_euclidean(3, 3, 0, "cube_4d"),
        "unknown shape 'cube_4d', expected one of "
        "('interval_1d', 'sphere_2d', 'disc_2d', 'cube_3d')",
    ),
    "group-separable-tree": (
        lambda: sample_group_separable(3, 3, 0, "tall"),
        "unknown tree 'tall', expected one of ('balanced', 'caterpillar')",
    ),
}

# seeds, counts and starts of the samplers: rejected before any draw, never
# truncated, at every entry point
IC = CultureSpec("IC")
for value, message in (
    (1.5, "seed must be an integer, got 1.5"),
    (2.9, "seed must be an integer, got 2.9"),
    (True, "seed must be an integer, got True"),
    ("x", "seed must be an integer, got 'x'"),
    (-1, "seed must be nonnegative, got -1"),
):
    for name, call in (
        ("sample", lambda seed: sample(IC, 3, 3, seed)),
        ("sample-many", lambda seed: sample_many(IC, 3, 3, seed, 2)),
        ("sample-ic", lambda seed: sample_ic(3, 3, seed)),
        ("sample-urn", lambda seed: sample_urn(3, 3, seed, 0.5)),
        ("sample-mallows", lambda seed: sample_mallows(3, 3, seed, "norm-uniform")),
        ("sample-sp-walsh", lambda seed: sample_sp_walsh(3, 3, seed)),
        ("sample-sp-conitzer", lambda seed: sample_sp_conitzer(3, 3, seed)),
        ("sample-spoc", lambda seed: sample_spoc(3, 3, seed)),
        ("sample-single-crossing", lambda seed: sample_single_crossing(3, 3, seed)),
        ("sample-euclidean", lambda seed: sample_euclidean(3, 3, seed, "disc_2d")),
        ("sample-group-separable", lambda seed: sample_group_separable(3, 3, seed, "balanced")),
    ):
        CASES[f"{name}-seed-{value!r}"] = (lambda call=call, value=value: call(value), message)
CASES["sample-many-count"] = (
    lambda: sample_many(IC, 3, 3, 0, -3),
    "count must be nonnegative, got -3",
)
CASES["sample-many-count-float"] = (
    lambda: sample_many(IC, 3, 3, 0, 2.5),
    "count must be an integer, got 2.5",
)
CASES["sample-many-start"] = (
    lambda: sample_many(IC, 3, 3, 0, 2, start=-1),
    "start must be nonnegative, got -1",
)

# shapes: m and n are integers, a bool, float or string rejected by name
# before any arithmetic, at every entry point that takes them
for (m, n), message in (
    ((4, 2.5), "n must be an integer, got 2.5"),
    ((4, True), "n must be an integer, got True"),
    ((4, 4.0), "n must be an integer, got 4.0"),
    ((4.0, 4), "m must be an integer, got 4.0"),
    (("4", 4), "m must be an integer, got '4'"),
):
    for name, call in (
        ("compass-election", lambda m, n: compass_election("ID", m, n)),
        ("compass-formula", lambda m, n: compass_distance_formula("swap", ("ID", "AN"), m, n)),
        ("enumerate-anecs", lambda m, n: enumerate_anecs(m, n)),
        ("census", lambda m, n: count_equivalence_classes(m, n)),
        ("sample", lambda m, n: sample(IC, m, n, 0)),
    ):
        CASES[f"{name}-shape-{m!r}-{n!r}"] = (lambda call=call, m=m, n=n: call(m, n), message)
for n, message in (
    (1.5, "n must be an integer, got 1.5"),
    (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"),
):
    CASES[f"borda-realizable-n-{n!r}"] = (lambda n=n: borda_realizable([1, 0], n), message)
    CASES[f"majority-realizable-n-{n!r}"] = (
        lambda n=n: majority_realizable_bruteforce([[0, 1], [0, 0]], n),
        message,
    )

# non-elections: a position matrix beside an election, either way round, for
# every kind at both entry points
POSITIONS = position_matrix(SMALL_A)
for kind in METRIC_KINDS:
    for order, pair in (
        ("election-matrix", (SMALL_A, POSITIONS)),
        ("matrix-election", (POSITIONS, SMALL_A)),
    ):
        CASES[f"distance-{kind}-{order}"] = (
            lambda pair=pair, kind=kind: distance(*pair, kind),
            "expected elections, got ndarray",
        )
        CASES[f"distance-values-{kind}-{order}"] = (
            lambda pair=pair, kind=kind: distance_values(list(pair), kind),
            "expected elections, got ndarray",
        )

# maps: stress targets are square matrices and points one (x, y) per row;
# embed_all takes distance matrices, checked before any layout
for name, (points, targets, message) in {
    "fewer-points": (np.zeros((3, 2)), np.ones((4, 4)), "points must have shape (4, 2), got (3, 2)"),
    "three-coordinates": (np.zeros((4, 3)), np.ones((4, 4)), "points must have shape (4, 2), got (4, 3)"),
    "more-points": (np.zeros((4, 2)), np.ones((3, 3)), "points must have shape (3, 2), got (4, 2)"),
    "flat-points": (np.zeros(4), np.ones((2, 2)), "points must have shape (2, 2), got (4,)"),
    "non-square-targets": (np.zeros((2, 2)), np.ones((2, 3)), "targets must be square, got shape (2, 3)"),
    "ragged-targets": (np.zeros((2, 2)), [[0, 1], [1]], "targets must be square, got rows of lengths [2, 1]"),
}.items():
    CASES[f"embedding-stress-{name}"] = (
        lambda points=points, targets=targets: embedding_stress(points, targets),
        message,
    )
CASES["embed-all-ndarray"] = (
    lambda: embed_all([LABELED, np.zeros((2, 2))]),
    "expected distance matrices, got ndarray",
)


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_check_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

