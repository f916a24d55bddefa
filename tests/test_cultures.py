from __future__ import annotations

import functools
import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from scipy.stats import chisquare

from electodist import Election, all_orders, cultures
from electodist.cultures import (
    DEFAULT_CULTURES,
    EUCLIDEAN_SHAPES,
    GROUP_SEPARABLE_TREES,
    CultureSpec,
    is_single_crossing,
    is_single_peaked,
    is_spoc_vote,
    mallows_phi_from_norm,
    sample,
    sample_euclidean,
    sample_group_separable,
    sample_ic,
    sample_mallows,
    sample_many,
    sample_sp_conitzer,
    sample_sp_walsh,
    sample_spoc,
    sample_single_crossing,
    sample_urn,
)
from electodist.cultures import _mallows_expected_swaps
from electodist.metrics import vote_swap_distance

from _oracles import (
    loop_is_single_crossing,
    loop_sample_euclidean,
    loop_sample_group_separable,
    loop_sample_ic,
    loop_sample_mallows,
    loop_sample_sp_conitzer,
    loop_sample_sp_walsh,
    loop_sample_spoc,
)


@pytest.mark.parametrize("spec", DEFAULT_CULTURES, ids=lambda s: s.label())
def test_sampling_is_deterministic(spec):
    first = sample(spec, 5, 8, 424242)
    second = sample(spec, 5, 8, 424242)
    assert first == second


def test_different_seeds_differ():
    assert sample_ic(5, 8, 1) != sample_ic(5, 8, 2)


@pytest.mark.parametrize("spec", DEFAULT_CULTURES, ids=lambda s: s.label())
@pytest.mark.parametrize("m", [1, 2, 5])
def test_samples_are_valid_elections(spec, m):
    e = sample(spec, m, 6, 99)
    assert isinstance(e, Election)
    assert e.m == m and e.n == 6


def test_ic_single_candidate():
    assert sample_ic(1, 4, 0).votes == ((0,),) * 4


def test_ic_uniform_at_m3():
    e = sample_ic(3, 60000, 2024)
    counts = {v: 0 for v in all_orders(3)}
    for v in e.votes:
        counts[v] += 1
    result = chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_urn_alpha_zero_runs_and_varies():
    e = sample_urn(4, 30, 5, alpha=0.0)
    assert len(set(e.votes)) > 1


def test_urn_high_alpha_copies():
    identical = 0
    trials = 2000
    for s in range(trials):
        e = sample_urn(3, 2, s, alpha=1e9)
        identical += e.votes[0] == e.votes[1]
    assert identical >= trials - 2


def test_urn_gamma_mode_is_deterministic():
    spec = CultureSpec("Urn", {"alpha": "gamma"})
    assert sample(spec, 4, 10, 7) == sample(spec, 4, 10, 7)


def test_urn_rejects_negative_alpha():
    with pytest.raises(ValueError):
        sample_urn(3, 3, 0, alpha=-1.0)


def test_mallows_zero_dispersion_gives_central_order():
    e = sample_mallows(5, 12, 3, phi=0.0)
    assert e.votes == ((0, 1, 2, 3, 4),) * 12


def test_mallows_full_dispersion_uniform_at_m3():
    e = sample_mallows(3, 60000, 77, phi=1.0)
    counts = {v: 0 for v in all_orders(3)}
    for v in e.votes:
        counts[v] += 1
    result = chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_mallows_distance_monotone_in_phi():
    central = (0, 1, 2, 3)
    means = []
    for phi in (0.25, 0.5, 0.75):
        e = sample_mallows(4, 2000, 11, phi=phi)
        means.append(
            np.mean([vote_swap_distance(v, central) for v in e.votes])
        )
    assert means[0] < means[1] < means[2]


def test_mallows_rejects_bad_phi():
    with pytest.raises(ValueError):
        sample_mallows(3, 3, 0, phi=1.5)


def test_phi_from_norm_endpoints_and_target():
    assert mallows_phi_from_norm(0.0, 6) == 0.0
    assert mallows_phi_from_norm(1.0, 6) == 1.0
    # one candidate, the least m accepted, has no swap to disperse
    assert mallows_phi_from_norm(0.5, 1) == 0.0
    for norm in (0.3, 0.5, 0.9):
        phi = mallows_phi_from_norm(norm, 5)
        target = (norm / 2.0) * 10.0
        assert abs(_mallows_expected_swaps(phi, 5) - target) < 1e-6


# mallows_phi_from_norm's bits on a grid, as Python 3.11 gives them; four of
# the thirty (norm 0.5 at m = 3, 0.1 at 5, 0.99 at 8, 0.25 at 10) change
# when the expected swaps are summed by a compensated sum(), as Python 3.12
# sums floats, and with them the elections Mallows draws from a seed
PHI_NORMS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
PINNED_PHI_HEX = {
    3: (
        "0x1.340fffcda81d2p-4", "0x1.86b905c82b728p-3", "0x1.9b4fe1e21d2e0p-2",
        "0x1.50a08595980d2p-1", "0x1.b2702ac7fe354p-1", "0x1.f7b08ea9d1d38p-1",
    ),
    5: (
        "0x1.e258838d14572p-4", "0x1.17cccae9d27ccp-2", "0x1.0222452f58a90p-1",
        "0x1.77d769d803e60p-1", "0x1.c5d8c99ab646cp-1", "0x1.f9e4767fb104cp-1",
    ),
    8: (
        "0x1.663dca194af28p-3", "0x1.7b1358f0f4720p-2", "0x1.363d93b120bd6p-1",
        "0x1.9a13a0d53977ep-1", "0x1.d5b867d90de76p-1", "0x1.fba1441100be6p-1",
    ),
    10: (
        "0x1.ac3cd84291fb6p-3", "0x1.afd64d22cb5e4p-2", "0x1.4e90f7104129cp-1",
        "0x1.a8b755668e646p-1", "0x1.dc3aea3bd2378p-1", "0x1.fc539dbdcd744p-1",
    ),
    12: (
        "0x1.eca878169f0f6p-3", "0x1.dca2e98d675f6p-2", "0x1.61ab58f39cc22p-1",
        "0x1.b3ae3b7ee7854p-1", "0x1.e100c0a4d4d92p-1", "0x1.fcd4eb7bbbdb8p-1",
    ),
}


@pytest.mark.parametrize("m", PINNED_PHI_HEX)
def test_phi_from_norm_gives_the_pinned_bits(m):
    assert [mallows_phi_from_norm(x, m).hex() for x in PHI_NORMS] == list(PINNED_PHI_HEX[m])


def test_sp_walsh_votes_are_single_peaked():
    e = sample_sp_walsh(6, 300, 21)
    assert is_single_peaked(e, tuple(range(6)))


def test_sp_walsh_uniform_over_sp_votes_at_m3():
    e = sample_sp_walsh(3, 20000, 4)
    counts: dict = {}
    for v in e.votes:
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) == {(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)}
    for c in counts.values():
        assert abs(c / 20000 - 0.25) < 0.02


def test_sp_conitzer_votes_are_single_peaked_with_uniform_peak():
    e = sample_sp_conitzer(3, 20000, 8)
    assert is_single_peaked(e, (0, 1, 2))
    peaks = {c: 0 for c in range(3)}
    for v in e.votes:
        peaks[v[0]] += 1
    for c in peaks.values():
        assert abs(c / 20000 - 1 / 3) < 0.02


def test_spoc_votes_lie_on_the_circle():
    e = sample_spoc(6, 400, 15)
    circle = tuple(range(6))
    assert all(is_spoc_vote(v, circle) for v in e.votes)


SAMPLER_ORACLES = {
    "sp-conitzer": (sample_sp_conitzer, loop_sample_sp_conitzer),
    "spoc": (sample_spoc, loop_sample_spoc),
    "ic": (sample_ic, loop_sample_ic),
    "sp-walsh": (sample_sp_walsh, loop_sample_sp_walsh),
}
for shape in EUCLIDEAN_SHAPES:
    SAMPLER_ORACLES[f"euclidean-{shape}"] = (
        functools.partial(sample_euclidean, shape=shape),
        functools.partial(loop_sample_euclidean, shape=shape),
    )
for tree in GROUP_SEPARABLE_TREES:
    SAMPLER_ORACLES[f"group-separable-{tree}"] = (
        functools.partial(sample_group_separable, tree=tree),
        functools.partial(loop_sample_group_separable, tree=tree),
    )


@pytest.mark.parametrize("sampler, oracle", SAMPLER_ORACLES.values(), ids=SAMPLER_ORACLES.keys())
def test_grown_votes_equal_the_old_loops(sampler, oracle):
    # 3,000 seeds run through every (m, n) with m in 1..9 and n in 1..13,
    # since 9 and 13 are coprime
    for seed in range(3000):
        m, n = 1 + seed % 9, 1 + seed % 13
        assert sampler(m, n, seed) == oracle(m, n, seed), (m, n, seed)


def test_mallows_equals_the_old_loop():
    # 3,000 seeds through every (m, n) with m in 1..9 and n in 1..13, and
    # phi drawn per election, fixed inside (0, 1), or at either end
    phis = ("norm-uniform", 0.0, 0.35, 0.8, 1.0)
    for seed in range(3000):
        m, n, phi = 1 + seed % 9, 1 + seed % 13, phis[seed % 5]
        assert sample_mallows(m, n, seed, phi) == loop_sample_mallows(m, n, seed, phi), (m, n, seed)


def test_spoc_uniform_at_m3():
    # with three candidates every order is single-peaked on the circle
    e = sample_spoc(3, 60000, 350)
    counts = {v: 0 for v in all_orders(3)}
    for v in e.votes:
        counts[v] += 1
    result = chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_single_crossing_profiles_pass_checker():
    for seed in range(6):
        e = sample_single_crossing(5, 40, seed)
        assert is_single_crossing(e)


def test_single_crossing_check_equals_the_old_loop():
    # every vote multiset of m = 3, n <= 4 and m = 4, n <= 2, then sampled
    # single-crossing and IC elections, mostly failing, of m = 1..7
    elections = [
        Election(m, votes)
        for m, most in ((3, 4), (4, 2))
        for n in range(1, most + 1)
        for votes in itertools.combinations_with_replacement(all_orders(m), n)
    ]
    for seed in range(200):
        m, n = 1 + seed % 7, 1 + seed % 11
        elections += [sample_single_crossing(m, n, seed), sample_ic(m, n, seed)]
    verdicts = [is_single_crossing(e) for e in elections]
    assert verdicts == [loop_is_single_crossing(e) for e in elections]
    assert 0 < sum(verdicts) < len(verdicts)


def test_single_crossing_domain_spans_canonical_to_reverse():
    e = sample_single_crossing(3, 4000, 2)
    votes = set(e.votes)
    assert (0, 1, 2) in votes
    assert (2, 1, 0) in votes
    max_swaps = 3
    assert all(vote_swap_distance(v, (0, 1, 2)) <= max_swaps for v in e.votes)


def test_euclidean_interval_is_single_peaked_on_some_axis():
    for seed in range(5):
        e = sample_euclidean(5, 30, seed, "interval_1d")
        assert any(
            is_single_peaked(e, axis)
            for axis in itertools.permutations(range(5))
        )


@pytest.mark.parametrize("shape", ["interval_1d", "sphere_2d", "disc_2d", "cube_3d"])
def test_euclidean_shapes_sample(shape):
    e = sample_euclidean(4, 25, 13, shape)
    assert e.m == 4 and e.n == 25


def test_euclidean_rejects_unknown_shape():
    with pytest.raises(ValueError):
        sample_euclidean(3, 3, 0, "donut")


def _tree_orders(node):
    if isinstance(node, int):
        return {(node,)}
    left, right = node
    lefts = _tree_orders(left)
    rights = _tree_orders(right)
    both = set()
    for a in lefts:
        for b in rights:
            both.add(a + b)
            both.add(b + a)
    return both


def test_group_separable_caterpillar_m2():
    e = sample_group_separable(2, 500, 17, "caterpillar")
    assert set(e.votes) == {(0, 1), (1, 0)}


def test_group_separable_caterpillar_m3_frequencies():
    e = sample_group_separable(3, 20000, 19, "caterpillar")
    counts: dict = {}
    for v in e.votes:
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) == {(0, 1, 2), (0, 2, 1), (1, 2, 0), (2, 1, 0)}
    for c in counts.values():
        assert abs(c / 20000 - 0.25) < 0.02


def test_group_separable_votes_stay_in_tree_language():
    from electodist.cultures import _balanced_tree, _caterpillar_tree

    for tree_name, builder in (("balanced", _balanced_tree), ("caterpillar", _caterpillar_tree)):
        allowed = _tree_orders(builder(tuple(range(4))))
        e = sample_group_separable(4, 200, 23, tree_name)
        assert set(e.votes) <= allowed


def test_group_separable_rejects_unknown_tree():
    with pytest.raises(ValueError):
        sample_group_separable(3, 3, 0, "star")


def test_is_single_peaked_hand_cases():
    axis = (0, 1, 2)
    assert is_single_peaked(Election(3, [(0, 1, 2)]), axis)
    assert is_single_peaked(Election(3, [(1, 0, 2)]), axis)
    assert not is_single_peaked(Election(3, [(0, 2, 1)]), axis)
    # arcs of the circle that wrap round past either end of the axis
    assert not is_single_peaked(Election(3, [(2, 0, 1)]), axis)
    with pytest.raises(ValueError):
        is_single_peaked(Election(3, [(0, 1, 2)]), (0, 1, 1))


def test_is_spoc_vote_hand_cases():
    circle = (0, 1, 2, 3)
    assert is_spoc_vote((0, 3, 1, 2), circle)
    assert not is_spoc_vote((0, 2, 1, 3), circle)


def test_is_single_crossing_rejects_double_crossing():
    profile = Election(3, [(0, 1, 2), (1, 2, 0), (0, 2, 1)])
    # pair (0, 1) flips twice along any distance-sorted order
    assert not is_single_crossing(profile)


def test_sample_many_uses_per_index_streams():
    spec = CultureSpec("IC")
    batch = sample_many(spec, 4, 6, 31, 4)
    tail = sample_many(spec, 4, 6, 31, 2, start=2)
    assert batch[2:] == tail
    assert len({e.votes for e in batch}) > 1


# sha256 of the votes' reprs of the 13 default cultures, culture j drawn from
# the child stream (2026, j) as build_dataset draws a dataset of one election
# per culture: a change to any sampler's draws, in number, kind or order,
# changes a digest, even for the samplers no loop oracle covers
DEFAULT_STREAM_DIGESTS = {
    (10, 100): "f8e634069b85d3e23a308c8e24630ab72682bb92cce0c3a10c529acb11f753a1",
    (6, 12): "f8871fc0e3fd76c152b0389cb144c55ade85278eac3fa436459742089cee48a1",
}


@pytest.mark.parametrize("m, n", DEFAULT_STREAM_DIGESTS)
def test_default_cultures_draw_the_pinned_streams(m, n):
    digest = hashlib.sha256()
    for j, spec in enumerate(DEFAULT_CULTURES):
        (election,) = sample_many(spec, m, n, 2026, 1, start=j)
        digest.update(repr(election.votes).encode())
    assert digest.hexdigest() == DEFAULT_STREAM_DIGESTS[(m, n)]


def test_culture_spec_json_round_trip():
    spec = CultureSpec("Euclidean", {"shape": "disc_2d"})
    assert CultureSpec.from_json(spec.to_json()) == spec
    assert spec.label() == "Euclidean(shape=disc_2d)"


def test_sample_rejects_bad_specs():
    cases = [
        (CultureSpec("Borda"), 3, "unknown culture model 'Borda'"),
        (CultureSpec("Urn"), 3, "Urn requires parameter 'alpha'"),
        (CultureSpec("IC", {"alpha": 1}), 3, "unexpected parameters for IC: ['alpha']"),
        (
            CultureSpec("Euclidean", {"shape": "disc_2d", "tree": "balanced"}),
            3,
            "unexpected parameters for Euclidean: ['tree']",
        ),
        (CultureSpec("IC"), 0, "need m >= 1 and n >= 1, got m=0, n=3"),
        (CultureSpec("Urn", {"alpha": -1}), 3, "urn alpha must be nonnegative, got -1.0"),
        (CultureSpec("Urn", {"alpha": "many"}), 3, "urn alpha must be a number, got 'many'"),
        (CultureSpec("Mallows", {"phi": 1.5}), 3, "mallows phi must lie in [0, 1], got 1.5"),
        (
            CultureSpec("Euclidean", {"shape": "cube_4d"}),
            3,
            "unknown shape 'cube_4d', expected one of "
            "('interval_1d', 'sphere_2d', 'disc_2d', 'cube_3d')",
        ),
        (
            CultureSpec("GroupSeparable", {"tree": "tall"}),
            3,
            "unknown tree 'tall', expected one of ('balanced', 'caterpillar')",
        ),
    ]
    for spec, m, message in cases:
        # every sampler draws from a generator made by _rng, so none is made
        with mock.patch.object(cultures, "_rng", wraps=cultures._rng) as rng:
            with pytest.raises(ValueError) as exc:
                sample(spec, m, 3, 0)
        assert str(exc.value) == message
        assert rng.call_count == 0
