"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different route than the package:
transport by greedy flow instead of prefix sums, assignments and matchings
by exhaustive permutation search instead of the Hungarian-style solver,
Borda scores as majority-matrix row sums instead of positional points.
The loop oracles are the package's earlier per-vote and per-pair routines,
kept to check the vectorized kernels that replaced them;
``sign_dot_voter_costs`` is the swap search's earlier float32 kernel, kept
to check the packed-bit one; ``row_major_packed_votes`` and
``row_major_voter_costs`` its earlier byte-at-a-time gather of the words,
kept to check the cell-major one, and ``one_solve_swap_search`` the whole
search on that layout, solving one relabeling at a time, kept to check the
stacked first solves, with ``reduction_bounds``, the Hungarian reduction
bound on (relabeling, voter, voter) int64 matrices, or with only the row
and column minima as the search bounded before it, and with the majority
bound at every m as it ordered relabelings before it packed triangles;
``triangle_transport_bounds`` is the swap search's triangle bound by one
assignment solve per triangle and ordered triple, kept to check its closed
form for the transport on the hexagon, and ``cell_table_triangle_bounds``
the same closed form indexed through the whole ``metrics._swap_cells(m)``
table, kept to check the bound that reads candidate-major order columns;
``minima_bounds`` is the larger of the row-minima and column-minima sums
of voter cost matrices, with which the chunked swap search once decided
whether to reduce a chunk, kept to check that the reduction bound is never
below it; ``burnside_anec_count``
counts ANECs by Burnside's lemma, to check the census;
``pair_sum_positionwise_search`` is the positionwise row search summed
pair by pair, kept to check the row's one gather;
``full_cell_pairwise_scan`` is the small-m pairwise search on the m * m
cells of majority matrices, and ``block_prefix_majority_bounds`` swap's
majority bound gathered once per block of relabelings that share a prefix,
both kept to check the one margin kernel that replaced them;
``counter_discrete_search`` is the discrete
search's earlier per-pair dict kernel, kept to check the row kernel,
``unique_rows_vote_types`` its earlier row-wise vote-type aggregate, and
``single_layout_descent_tail`` the map's descent tail of one layout, kept to
check the tail that moves a stack of layouts in lockstep;
``stacked_spring_phase`` and ``stacked_descent_tail`` (with
``stacked_measure``) are the map's loops on a layout-major (B, 2, k) stack,
a new array for every operation, kept to check the buffered loops on the
coordinate-major (2, B, k) stack that ``layout_major`` hands them.
``permutations_all_orders`` is the order list as ``itertools.permutations``
builds it, and ``loop_preferences`` each vote's pairwise preferences read
by ``tuple.index``, kept to check the one order table and the one
preference table of ``elections``; ``order_rows`` reads that order table
one order per row, in int64.  ``row_search_distance_values`` is
``distance_values`` searching row by row, one aggregate against a list of
later ones, with the row searches ``row_swap_search``,
``row_discrete_search``, ``row_pairwise_search``,
``row_positionwise_search`` and ``row_bordawise_search``, kept to check the
searches of blocks of pairs that replaced them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import pearsonr

from electodist import (
    CensusReport,
    DistanceOutcome,
    Election,
    all_orders,
    borda_vector,
    distance,
    majority_matrix,
    pairwise_cost_at,
    position_matrix,
)
from electodist.analysis import check_census_guard
from electodist import metrics
from electodist.elections import _check_permutation, _order_columns, _place_values, _preferences
from electodist.cultures import (
    _balanced_tree,
    _caterpillar_tree,
    _euclidean_points,
    _rng,
    mallows_phi_from_norm,
)
from electodist.metrics import l1, emd, vote_discrete_distance, vote_swap_distance


def emd_flow(x, y):
    """Minimum transport cost on a line, by greedy left-to-right flow."""
    supply = list(x)
    demand = list(y)
    cost = 0
    i = j = 0
    while i < len(supply) and j < len(demand):
        if supply[i] == 0:
            i += 1
            continue
        if demand[j] == 0:
            j += 1
            continue
        move = min(supply[i], demand[j])
        cost += move * abs(i - j)
        supply[i] -= move
        demand[j] -= move
    return cost


def brute_force_assignment(costs):
    """Exhaustive minimum-cost matching, lexicographically smallest winner."""
    k = len(costs)
    best = None
    best_perm = None
    for perm in itertools.permutations(range(k)):
        total = sum(costs[i][perm[i]] for i in range(k))
        if best is None or total < best:
            best = total
            best_perm = perm
    return best_perm, best


def refinement_solve_assignment(costs):
    """Lexicographically smallest minimum-cost matching: one solve for the
    optimum, then a refinement that tries every column for each row in turn
    and keeps the first whose best completion still reaches the optimum (up
    to k**2 more solves).

    Floats go to the solver as they are and are compared with a tolerance;
    integers and Fractions are scaled to integers by the lcm of the
    denominators and compared exactly.
    """
    arr = np.asarray(costs)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    rows = arr.tolist()
    flat = [v for row in rows for v in row]
    if any(isinstance(v, float) for v in flat):
        num = arr.astype(float)
    else:
        denoms = [v.denominator for v in flat if isinstance(v, Fraction)]
        scale = math.lcm(*denoms) if denoms else 1
        num = np.array([[int(v * scale) for v in row] for row in rows], dtype=float)
    k = num.shape[0]
    if k == 0:
        return (), 0

    def exact_total(sub_rows, matching):
        return sum(sub_rows[i][c] for i, c in enumerate(matching))

    def equal(x, y):
        if isinstance(x, float) or isinstance(y, float):
            return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
        return x == y

    ri, ci = linear_sum_assignment(num)
    best_total = exact_total(rows, [int(c) for c in ci[np.argsort(ri)]])
    cols_left = list(range(k))
    fixed: list[int] = []
    fixed_cost = 0
    for i in range(k):
        rest_rows = list(range(i + 1, k))
        for c in cols_left:
            rest_cols = [x for x in cols_left if x != c]
            sub_total = 0
            if rest_rows:
                sri, sci = linear_sum_assignment(num[np.ix_(rest_rows, rest_cols)])
                sub_total = exact_total(
                    [[rows[r][x] for x in rest_cols] for r in rest_rows],
                    [int(x) for x in sci[np.argsort(sri)]],
                )
            if equal(fixed_cost + rows[i][c] + sub_total, best_total):
                fixed.append(c)
                fixed_cost = fixed_cost + rows[i][c]
                cols_left.remove(c)
                break
        else:
            raise RuntimeError("lexmin refinement failed to place a row")
    return tuple(fixed), best_total


def loop_positionwise_distance(pa, pb, variant: str = "EMD") -> DistanceOutcome:
    """Positionwise distance between two position or frequency matrices:
    per-column-pair ``emd`` or ``l1`` in Python, then the refinement solve."""
    rows_a, rows_b = np.asarray(pa).tolist(), np.asarray(pb).tolist()
    m = len(rows_a)
    cols_a = [[rows_a[i][c] for i in range(m)] for c in range(m)]
    cols_b = [[rows_b[i][c] for i in range(m)] for c in range(m)]
    dist = emd if variant == "EMD" else l1
    costs = np.empty((m, m), dtype=object)
    for c in range(m):
        for d in range(m):
            costs[c, d] = dist(cols_a[c], cols_b[d])
    matching, total = refinement_solve_assignment(costs)
    return DistanceOutcome(total, matching)


def brute_force_positionwise(a: Election, b: Election, dist) -> int:
    """Minimum over all candidate matchings of summed column distances."""
    pa = position_matrix(a)
    pb = position_matrix(b)
    m = a.m
    cols_a = [[int(pa[i, c]) for i in range(m)] for c in range(m)]
    cols_b = [[int(pb[i, c]) for i in range(m)] for c in range(m)]
    return min(
        sum(dist(cols_a[c], cols_b[sigma[c]]) for c in range(m))
        for sigma in itertools.permutations(range(m))
    )


def brute_force_pairwise(a: Election, b: Election) -> int:
    """Minimum of the pairwise objective over all candidate matchings."""
    return min(
        pairwise_cost_at(a, b, sigma)
        for sigma in itertools.permutations(range(a.m))
    )


def bordawise_census_pearson(reps, swap_values) -> float:
    """Pearson correlation of swap and bordawise over all pairs of reps.

    `swap_values` lists the swap distances of the pairs in
    `itertools.combinations(reps, 2)` order. A candidate's Borda score is
    the number of (voter, rival) pairs it wins, the row sum of the majority
    matrix; bordawise is the transport cost between the nonincreasingly
    sorted score vectors.
    """
    scores = [
        sorted((int(s) for s in majority_matrix(e).sum(axis=1)), reverse=True)
        for e in reps
    ]
    borda_values = [emd_flow(x, y) for x, y in itertools.combinations(scores, 2)]
    return float(pearsonr(swap_values, borda_values)[0])


def brute_force_iso_distance(a: Election, b: Election, kind: str) -> int:
    """Exhaustive minimum over all candidate and voter matchings; m, n <= 4."""
    if a.m != b.m or a.n != b.n:
        raise ValueError(
            f"elections differ in shape: ({a.m}, {a.n}) vs ({b.m}, {b.n})"
        )
    if a.m > 4 or a.n > 4:
        raise ValueError(f"brute force guarded at m <= 4, n <= 4 (got {a.m}, {a.n})")
    if kind == "swap":
        vote_dist = vote_swap_distance
    elif kind == "discrete":
        vote_dist = vote_discrete_distance
    else:
        raise ValueError(f"unknown isomorphic kind {kind!r}, expected 'swap' or 'discrete'")
    best = None
    for sigma in itertools.permutations(range(a.m)):
        relabeled = [tuple(sigma[c] for c in u) for u in a.votes]
        for rho in itertools.permutations(range(a.n)):
            total = sum(
                vote_dist(relabeled[i], b.votes[rho[i]]) for i in range(a.n)
            )
            if best is None or total < best:
                best = total
    return best


def loop_election_votes(m: int, votes) -> tuple[tuple[int, ...], ...]:
    """The votes as ``Election`` once stored them: each vote checked in
    turn by ``_check_permutation``, then at least one required."""
    checked = tuple(_check_permutation(v, m, "vote") for v in votes)
    if not checked:
        raise ValueError("need at least one voter")
    return checked


def permutations_all_orders(m: int) -> tuple[tuple[int, ...], ...]:
    """``all_orders`` as it was: the m! orders by ``itertools.permutations``."""
    return tuple(itertools.permutations(range(m)))


def order_rows(m: int) -> np.ndarray:
    """The m! orders of ``elections._order_columns(m)`` as an (m!, m) int64
    array, one order per row, in lexicographic order."""
    return _order_columns(m).T.astype(np.int64)


def loop_preferences(orders: np.ndarray) -> np.ndarray:
    """``elections._preferences`` order by order: [..., c, d] is True when
    the order ranks c above d, by ``tuple.index``."""
    m = orders.shape[-1]
    votes = map(tuple, orders.reshape(-1, m).tolist())
    table = [[[v.index(c) < v.index(d) for d in range(m)] for c in range(m)] for v in votes]
    return np.array(table, dtype=bool).reshape(*orders.shape, m)


def loop_position_matrix(election: Election) -> np.ndarray:
    """Position matrix counted vote by vote."""
    m = election.m
    counts = np.zeros((m, m), dtype=np.int64)
    positions = np.arange(m)
    for vote in election.votes:
        counts[positions, vote] += 1
    return counts


def loop_majority_matrix(election: Election) -> np.ndarray:
    """Weighted majority matrix counted vote by vote."""
    m = election.m
    wins = np.zeros((m, m), dtype=np.int64)
    for vote in election.votes:
        for i, c in enumerate(vote):
            wins[c, vote[i + 1 :]] += 1
    np.fill_diagonal(wins, 0)
    return wins


def loop_borda_vector(election: Election) -> np.ndarray:
    """Borda scores summed vote by vote."""
    m = election.m
    scores = np.zeros(m, dtype=np.int64)
    for vote in election.votes:
        for i, c in enumerate(vote):
            scores[c] += m - 1 - i
    return scores


def branch_and_bound_pairwise(ma, mb) -> tuple[int, tuple[int, ...]]:
    """Pairwise distance and its lexicographically smallest optimal matching
    between two majority matrices, by branch and bound.

    Matchings are built row by row in lexicographic order and only strictly
    better leaves replace the incumbent.  The bound charges every unassigned
    candidate its cheapest possible disagreement against the assigned ones.
    """
    ma = np.asarray(ma, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    m = ma.shape[0]
    identity = tuple(range(m))
    best = pairwise_cost_at(ma, mb, identity)
    best_sigma = identity

    sigma = [0] * m
    assigned: list[int] = []

    def extension_cost(c: int, t: int) -> int:
        total = 0
        for d in assigned:
            total += abs(int(ma[c, d]) - int(mb[t, sigma[d]]))
            total += abs(int(ma[d, c]) - int(mb[sigma[d], t]))
        return total

    def lower_bound(free_cols: list[int], next_row: int) -> int:
        total = 0
        for c in range(next_row, m):
            total += min(extension_cost(c, t) for t in free_cols)
        return total

    def search(row: int, partial: int, free_cols: list[int]) -> None:
        nonlocal best, best_sigma
        if row == m:
            if partial < best:
                best = partial
                best_sigma = tuple(sigma)
            return
        for t in free_cols:
            step = partial + extension_cost(row, t)
            if step >= best:
                continue
            rest = [x for x in free_cols if x != t]
            sigma[row] = t
            assigned.append(row)
            if rest and step + lower_bound(rest, row + 1) >= best:
                assigned.pop()
                continue
            search(row + 1, step, rest)
            assigned.pop()

    search(0, 0, list(range(m)))
    return best, best_sigma


def block_enumeration_pairwise(ma, mb) -> tuple[int, tuple[int, ...]]:
    """Pairwise distance and its lexicographically smallest optimal matching
    between two majority matrices, by enumerating every matching with numpy.

    Matchings are visited in lexicographic order, in blocks that fix the
    images of all but the last (at most 7) candidates; a block's costs sum
    the cells among its fixed candidates, the cells between fixed and free
    ones and the cells among the free ones, and only a strictly smaller
    block minimum replaces the incumbent.
    """
    ma = np.asarray(ma, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    m = ma.shape[0]
    free = min(m, 7)
    fixed = m - free
    perms = np.array(list(itertools.permutations(range(free))), dtype=np.int64).reshape(-1, free)
    # per matching tau of the free rows: the flat cells (tau r, tau s) of a
    # free x free matrix, r-major, and the cells (r, tau r)
    pair_cells = (perms[:, :, None] * free + perms[:, None, :]).reshape(len(perms), free * free)
    row_cells = np.arange(free) * free + perms
    inner_free = ma[fixed:, fixed:].ravel()
    best = None
    best_sigma: tuple[int, ...] = ()
    for prefix in itertools.permutations(range(m), fixed):
        rest = tuple(sorted(set(range(m)).difference(prefix)))
        p, r = np.array(prefix, dtype=np.int64), np.array(rest, dtype=np.int64)
        inner = np.abs(inner_free - mb[np.ix_(r, r)].ravel()[pair_cells]).sum(axis=1)
        # cross[i, t]: free candidate fixed + i sent to rest[t], against the prefix
        cross = np.abs(ma[fixed:, None, :fixed] - mb[np.ix_(r, p)][None]).sum(axis=2)
        cross += np.abs(ma[:fixed, fixed:].T[:, None] - mb[np.ix_(p, r)].T[None]).sum(axis=2)
        costs = inner + cross.ravel()[row_cells].sum(axis=1)
        idx = int(np.argmin(costs))
        value = int(np.abs(ma[:fixed, :fixed] - mb[np.ix_(p, p)]).sum() + costs[idx])
        if best is None or value < best:
            best = value
            best_sigma = prefix + tuple(rest[t] for t in perms[idx].tolist())
    return best, best_sigma


def full_cell_pairwise_scan(ma, mbs) -> list[tuple[int, tuple[int, ...]]]:
    """Pairwise distance and its lexicographically smallest optimal matching
    between the majority matrix ma and each of mbs, by summing all m * m
    cells (tau r, tau s) of every matching tau in lexicographic order: the
    small-m pairwise search before it summed margins over the pairs c < d."""
    ma = np.asarray(ma, dtype=np.int64)
    m = ma.shape[0]
    perms = order_rows(m)
    cells = (perms[:, :, None] * m + perms[:, None, :]).reshape(len(perms), m * m)
    out = []
    for mb in mbs:
        costs = np.abs(np.asarray(mb, dtype=np.int64).ravel()[cells] - ma.ravel()).sum(axis=1)
        best = int(costs.argmin())
        out.append((int(costs[best]), tuple(perms[best].tolist())))
    return out


def block_prefix_majority_bounds(margins_a, margins_b) -> np.ndarray:
    """Swap's majority bound, half the l1 distance of the margins over the
    pairs c < d, for every relabeling in order and one or a stack of
    elections, as the swap search summed it before ``_pair_costs``: with the
    pairs ordered by d and then c, the relabelings that share their images
    of candidates 0..d form a block of (m - 1 - d)! and share the terms of
    the pairs among those candidates, so the pairs (c, d) of candidate d are
    gathered once per block, at its first relabeling, and the sums repeat
    into the blocks of the next candidate."""
    m = math.isqrt(margins_a.shape[-1])
    perms = order_rows(m)
    first, second = np.triu_indices(m, 1)
    by_second = np.lexsort((first, second))
    cells = perms[:, first[by_second]] * m + perms[:, second[by_second]]
    upper_a = margins_a.astype(np.int64)[cells[0]]
    sums = np.zeros(margins_b.shape[:-1] + (1,), dtype=np.int64)
    for d in range(1, m + 1):
        block = math.factorial(m - d)
        sums = np.repeat(sums, m - d + 1, axis=-1)
        cols = slice((d - 1) * (d - 2) // 2, d * (d - 1) // 2)
        gathered = margins_b.astype(np.int64)[..., cells[::block, cols]] - upper_a[cols]
        sums += np.abs(gathered).sum(axis=-1)
    return sums // 2


def pair_loop_distance_matrix(dataset, kind: str) -> np.ndarray:
    """Distance matrix cells computed pair by pair with ``distance``."""
    k = len(dataset)
    cells = np.zeros((k, k), dtype=float)
    for i, j in itertools.combinations(range(k), 2):
        value = float(distance(dataset[i], dataset[j], kind).value)
        cells[i, j] = value
        cells[j, i] = value
    return cells


def lexicographic_swap_search(a: Election, b: Election) -> DistanceOutcome:
    """Swap distance by one assignment solve per relabeling, in lexicographic
    order, skipping relabelings whose majority-matrix bound cannot beat the
    incumbent.

    The witness is the lexicographically smallest optimal relabeling and the
    solver's voter matching on its integer cost matrix.
    """
    m, n = a.m, a.n
    ma = majority_matrix(a)
    mb = majority_matrix(b)
    perms = np.array(all_orders(m), dtype=np.int64)
    # lower bound per relabeling: half the l1 distance of majority matrices,
    # since every disagreeing voter pair forces at least one inversion
    mb_perm = mb[perms[:, :, None], perms[:, None, :]]
    lbs = np.abs(mb_perm - ma[None, :, :]).sum(axis=(1, 2)) // 2
    suffix_min = np.minimum.accumulate(lbs[::-1])[::-1]

    def order_matrices(election):
        # O[v, x, y] = 1 iff voter v prefers x to y
        pos = np.empty((n, m), dtype=np.int64)
        pos[np.arange(n)[:, None], election.array] = np.arange(m)[None, :]
        return (pos[:, :, None] < pos[:, None, :]).astype(np.int64)

    oa = order_matrices(a)
    ob_flat = order_matrices(b).reshape(n, m * m)
    k_total = m * (m - 1) // 2
    inv = np.empty(m, dtype=np.int64)

    best = None
    best_sigma: tuple[int, ...] = ()
    best_rho: tuple[int, ...] = ()
    orders = all_orders(m)
    for idx in range(len(orders)):
        if best is not None:
            if best <= suffix_min[idx]:
                break
            if lbs[idx] >= best:
                continue
        sigma = orders[idx]
        inv[np.array(sigma)] = np.arange(m)
        oa_sigma = oa[:, inv][:, :, inv].reshape(n, m * m)
        cost = k_total - oa_sigma @ ob_flat.T
        ri, ci = linear_sum_assignment(cost)
        value = int(cost[ri, ci].sum())
        if best is None or value < best:
            best = value
            best_sigma = sigma
            rho = [0] * n
            for r, c in zip(ri, ci):
                rho[r] = int(c)
            best_rho = tuple(rho)
    return DistanceOutcome(best, best_sigma, best_rho)


def sign_aggregates(election: Election) -> tuple[np.ndarray, np.ndarray]:
    """The swap search's aggregates before it packed preference bits: the
    float32 signs S[v, c * m + d], +1 if voter v prefers c to d, -1 if d
    to c, 0 if c = d, and their column sums, the majority margins 2 M - n."""
    arr = election.array
    n, m = arr.shape
    pos = arr.argsort(axis=1)
    signs = np.sign(pos[:, None, :] - pos[:, :, None]).reshape(n, m * m)
    return signs.sum(axis=0), signs.astype(np.float32)


def sign_dot_voter_costs(
    signs_a: np.ndarray, signs_b: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The swap search's voter costs before it packed preference bits, by
    float32 sign dot products.

    costs[..., l, i, j] is (pairs - sign agreement) / 2, the inversions
    between voter i of a relabeled by perms[l] and voter j of b, for the
    signs signs_b of one or a stack of elections; relaxed[..., l] is the
    larger of the sums of the row minima and of the column minima.
    """
    n = signs_a.shape[0]
    m = math.isqrt(signs_a.shape[1])
    first, second = np.triu_indices(m, 1)
    pairs = len(first)
    signs_upper_a = signs_a.take(first * m + second, axis=1)
    cells = perms.take(first, axis=1) * m + perms.take(second, axis=1)
    gathered = signs_b.take(cells, axis=-1)
    lead = gathered.shape[:-1]
    costs = gathered.reshape(math.prod(lead), pairs) @ signs_upper_a.T
    np.subtract(pairs, costs, out=costs)
    costs *= 0.5
    costs = np.moveaxis(costs.reshape(lead + (n,)), -3, -1)
    relaxed = np.maximum(
        np.add.reduce(np.minimum.reduce(costs, axis=-1), axis=-1),
        np.add.reduce(np.minimum.reduce(costs, axis=-2), axis=-1),
    )
    return costs, relaxed.astype(np.int64)


def row_major_swap_aggregates(election: Election) -> tuple[np.ndarray, np.ndarray]:
    """The swap search's aggregates before its preferences went cell-major:
    the int32 majority margins 2 M - n, flat, and the uint8 preferences
    P[v, c * m + d], voter v's cells in one row."""
    n, m = election.array.shape
    prefers = _preferences(election.array).reshape(n, m * m).view(np.uint8)
    counts = prefers.sum(axis=0, dtype=np.int32).reshape(m, m)
    return (counts - counts.T).ravel(), prefers


def row_major_packed_votes(prefs: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The swap search's word packing before it gathered whole voter rows:
    words[..., v, l] packs the bits of row-major prefs (one or a stack of
    elections) at the l-th relabeling's cells, gathered a byte at a time."""
    lanes = prefs.take(cells, axis=-1).view(np.uint64)
    lanes *= metrics._PACK_BYTES
    lanes >>= np.uint64(56)
    return lanes.astype(np.uint8).view(f"u{lanes.shape[-1]}")[..., 0]


def row_major_voter_costs(bits_a: np.ndarray, prefs_b: np.ndarray, cells: np.ndarray):
    """The swap search's voter costs on row-major preferences: uint8
    costs[..., i, j, l] and the int64 larger of the row-minima and
    column-minima sums."""
    words_b = row_major_packed_votes(prefs_b, cells)
    costs = np.bitwise_count(words_b[..., None, :, :] ^ bits_a[:, None, None])
    relaxed = np.maximum(
        costs.min(axis=-2).sum(axis=-2, dtype=np.int64),
        costs.min(axis=-3).sum(axis=-2, dtype=np.int64),
    )
    return costs, relaxed


def minima_bounds(costs: np.ndarray) -> np.ndarray:
    # the int64 larger of the row-minima and column-minima sums of each of
    # the voter cost matrices costs[..., i, j, l], which no voter matching
    # beats
    return np.maximum(
        costs.min(axis=-2).sum(axis=-2, dtype=np.int64),
        costs.min(axis=-3).sum(axis=-2, dtype=np.int64),
    )


def reduction_bounds(costs: np.ndarray) -> np.ndarray:
    """The Hungarian method's reduction bound of each voter cost matrix
    costs[..., i, j, l], per relabeling l: the larger of (row minima plus
    the column minima of what is left) and (column minima plus the row
    minima of what is left), in int64 on matrices moved to (..., l, i, j)."""
    c = np.moveaxis(costs, -1, -3).astype(np.int64)
    rows = c.min(axis=-1)
    by_rows = rows.sum(axis=-1) + (c - rows[..., :, None]).min(axis=-2).sum(axis=-1)
    cols = c.min(axis=-2)
    by_cols = cols.sum(axis=-1) + (c - cols[..., None, :]).min(axis=-1).sum(axis=-1)
    return np.maximum(by_rows, by_cols)


def triangle_transport_bounds(a, b) -> np.ndarray:
    """Swap's triangle bound of every relabeling tau, in order, from the
    election of row-major aggregates a to that of b: for each triangle x, y,
    z of ``metrics._TRIANGLES[m]``, the least inversions on its three pairs
    over all voter matchings, by one assignment solve on the restricted n x n
    costs per ordered triple tau x, tau y, tau z, plus half the margin
    difference of each pair no triangle holds."""
    (margins_a, prefs_a), (margins_b, prefs_b) = a, b
    m = math.isqrt(prefs_a.shape[1])
    perms = order_rows(m)
    bounds = np.zeros(len(perms), dtype=np.int64)
    covered = set()
    for x, y, z in metrics._TRIANGLES[m]:
        covered |= {(x, y), (x, z), (y, z)}
        bits_a = prefs_a[:, [x * m + y, x * m + z, y * m + z]]
        least = np.zeros((m, m, m), dtype=np.int64)
        for p, q, r in itertools.permutations(range(m), 3):
            bits_b = prefs_b[:, [p * m + q, p * m + r, q * m + r]]
            costs = (bits_a[:, None, :] != bits_b[None, :, :]).sum(axis=2)
            least[p, q, r] = costs[linear_sum_assignment(costs)].sum()
        bounds += least[perms[:, x], perms[:, y], perms[:, z]]
    for c, d in itertools.combinations(range(m), 2):
        if (c, d) not in covered:
            bounds += np.abs(margins_b[perms[:, c] * m + perms[:, d]] - margins_a[c * m + d]) // 2
    return bounds


def cell_table_triangle_bounds(a, margins_b, prefs_b) -> np.ndarray:
    """``metrics._triangle_bounds`` as it was: the same transports and
    majority terms, each triangle indexed by its ``metrics._swap_cells(m)``
    column of (x, y) times m plus tau z, and each pair left by its column,
    all m! rows of the table read.  a is ``metrics._swap_aggregates``, and
    margins_b, prefs_b those of one election or a stack."""
    margins_a, prefs_a = a
    n = prefs_a.shape[1]
    m = math.isqrt(prefs_a.shape[0])
    dtype = np.min_scalar_type(m * (m - 1) // 2 * n + 1)
    first, second = metrics._upper_pairs(m)
    column = {pair: p for p, pair in enumerate(zip(first.tolist(), second.tolist()))}
    triangles = np.array(metrics._TRIANGLES[m]).T
    covered = {pair for x, y, z in metrics._TRIANGLES[m] for pair in ((x, y), (x, z), (y, z))}
    leftover = [p for pair, p in column.items() if pair not in covered]
    every = np.arange(m**3)
    cum_a = np.cumsum(metrics._triple_histograms(prefs_a, *triangles), axis=0, dtype=np.int32)
    hist_b = metrics._triple_histograms(prefs_b, every // (m * m), every // m % m, every % m)
    flows = np.cumsum(hist_b, axis=-2, dtype=np.int32)[..., None, :] - cum_a[:, :, None]
    lows, highs = metrics._sorted_three(flows[..., :3, :, :]), metrics._sorted_three(flows[..., 3:, :, :])
    transports = sum(np.abs(x - y) for x, y in zip(lows, highs[::-1])).astype(dtype)
    cells = metrics._swap_cells(m)
    upper_a = margins_a.take(cells[0, leftover])
    terms = (np.abs(margins_b[..., None, :] - upper_a[:, None]) // 2).astype(dtype)
    orders = _order_columns(m).T
    bounds = np.zeros(margins_b.shape[:-1] + (len(cells),), dtype=dtype)
    for t, (x, y, z) in enumerate(metrics._TRIANGLES[m]):
        index = cells[:, column[x, y]].astype(np.uint16)
        index *= m
        index += orders[:, z]
        bounds += transports[..., t, :].take(index, axis=-1)
    for k, p in enumerate(leftover):
        bounds += terms[..., k, :].take(cells[:, p], axis=-1)
    return bounds


def one_solve_swap_search(
    a, bs, reduce: bool = True, triangles: bool = True
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The swap search on row-major aggregates, solving one relabeling at a
    time: each election of a stack visits its whole chunk by (tight bound,
    index) from no incumbent, with its own sort.  The tight bound is the
    larger of the relabeling bound and ``reduction_bounds`` on every chunk,
    or with ``reduce=False`` the larger of the row-minima and column-minima
    sums, the bound of the search before it reduced.  The relabeling bound
    is ``triangle_transport_bounds`` at an m of ``metrics._TRIANGLES`` and
    the majority bound below, or with ``triangles=False`` the majority
    bound at every m, the bound of the search before it packed triangles.

    a and bs are ``row_major_swap_aggregates``; (value, sigma, rho) per b.
    The solver and the chunk budget are read from ``metrics`` when called,
    so a test that patches either sees this search take them too.
    """
    margins_a, prefs_a = a
    n = prefs_a.shape[0]
    m = math.isqrt(prefs_a.shape[1])
    perms = order_rows(m)
    cells = metrics._swap_cells(m)
    total, width = cells.shape
    pairs = m * (m - 1) // 2
    margins_upper_a = margins_a.take(cells[0])
    bits_a = row_major_packed_votes(prefs_a, cells[:1])[:, 0]
    chunk = max(1, metrics._SWAP_CHUNK_ENTRIES // (n * (pairs + n)))

    def relabeling_bounds(b):
        if triangles and m in metrics._TRIANGLES:
            return triangle_transport_bounds(a, b)
        out = np.empty(total, dtype=np.int64)
        for s in range(0, total, step):
            gathered = b[0].take(cells[s : s + step], axis=-1)
            gathered -= margins_upper_a
            out[s : s + step] = np.abs(gathered, out=gathered).sum(axis=-1) // 2
        return out

    def visit(costs, tight, ids, best, best_rho):
        visit_order = np.lexsort((ids, tight)).tolist()
        tight, ids = tight.tolist(), ids.tolist()
        for t in visit_order:
            if (tight[t], ids[t]) >= best:
                break
            ri, ci = metrics.linear_sum_assignment(costs[..., t])
            value = int(costs[ri, ci, t].sum())
            if (value, ids[t]) < best:
                best = (value, ids[t])
                best_rho = ci
        return best, best_rho

    def outcome(best, rho):
        return best[0], tuple(perms[best[1]].tolist()), tuple(rho.tolist())

    def voter_bounds(bits_a, prefs_b, cells):
        costs, relaxed = row_major_voter_costs(bits_a, prefs_b, cells)
        return costs, reduction_bounds(costs) if reduce else relaxed

    unset = (pairs * n + 1, total)
    step = max(1, metrics._SWAP_CHUNK_ENTRIES // width)
    if total <= chunk:
        ids = np.arange(total)
        stack = chunk // total
        out = []
        for s in range(0, len(bs), stack):
            group = bs[s : s + stack]
            bounds = np.stack([relabeling_bounds(b) for b in group])
            costs, voters = voter_bounds(bits_a, np.stack([b[1] for b in group]), cells)
            tight = np.maximum(bounds, voters)
            for g in range(len(group)):
                out.append(outcome(*visit(costs[g], tight[g], ids, unset, None)))
        return out
    out = []
    for margins_b, prefs_b in bs:
        bounds = relabeling_bounds((margins_b, prefs_b)).astype(np.min_scalar_type(unset[0]))
        order = np.argsort(bounds, kind="stable")
        best, rho = unset, None
        for start in range(0, total, chunk):
            ids = order[start : start + chunk]
            lb = bounds[ids]
            open_ = (lb < best[0]) | ((lb == best[0]) & (ids < best[1]))
            stop = len(ids) if open_.all() else int(open_.argmin())
            if stop == 0:
                break
            ids, lb = ids[:stop], lb[:stop]
            costs, voters = voter_bounds(bits_a, prefs_b, cells[ids])
            best, rho = visit(costs, np.maximum(lb, voters), ids, best, rho)
        out.append(outcome(best, rho))
    return out


def pair_sum_positionwise_search(x: np.ndarray, ys) -> list[tuple[int]]:
    """The positionwise row search before it gathered a row at once: one
    solve per later aggregate, its cost summed at the solver's (rows,
    columns)."""
    out = []
    for costs in metrics._column_costs(x, np.stack(ys)):
        ri, ci = linear_sum_assignment(costs)
        out.append((int(costs[ri, ci].sum()),))
    return out


def burnside_anec_count(m: int, n: int) -> int:
    """The number of ANECs at (m, n) by Burnside's lemma.

    A relabeling g acts on the m! orders freely, so in cycles of its order
    o(g); a multiset of n orders that g fixes is made of whole cycles,
    which needs o(g) | n, and is a multiset of n / o(g) of the m! / o(g)
    cycles.  The classes are the orbits, the mean number of fixed
    multisets:

        (1/m!) * sum over g in S_m with o(g) | n of
            C(m!/o(g) + n/o(g) - 1, n/o(g)).
    """
    total = 0
    for g in itertools.permutations(range(m)):
        seen, order = set(), 1
        for start in range(m):
            length, c = 0, start
            while c not in seen:
                seen.add(c)
                c = g[c]
                length += 1
            if length:
                order = math.lcm(order, length)
        if n % order == 0:
            cycles, picks = math.factorial(m) // order, n // order
            total += math.comb(cycles + picks - 1, picks)
    return total // math.factorial(m)


def dict_discrete_search(a: Election, b: Election) -> DistanceOutcome:
    """Discrete distance by counting relabeled votes in dicts keyed by vote
    tuples, one relabeling at a time.

    Only relabelings that map some vote of a onto some vote of b can share
    a vote; the witness is the lexicographically smallest one of maximum
    overlap, and voters are matched greedily by ascending index.
    """
    m, n = a.m, a.n
    counts_b: dict[tuple[int, ...], int] = {}
    for w in b.votes:
        counts_b[w] = counts_b.get(w, 0) + 1
    candidates = set()
    for u in set(a.votes):
        for w in counts_b:
            sigma = [0] * m
            for uc, wc in zip(u, w):
                sigma[uc] = wc
            candidates.add(tuple(sigma))
    best_overlap = 0
    best_sigma = tuple(range(m))
    for sigma in sorted(candidates):
        counts_a: dict[tuple[int, ...], int] = {}
        for u in a.votes:
            t = tuple(sigma[c] for c in u)
            counts_a[t] = counts_a.get(t, 0) + 1
        overlap = sum(min(cnt, counts_b.get(t, 0)) for t, cnt in counts_a.items())
        if overlap > best_overlap:
            best_overlap = overlap
            best_sigma = sigma

    relabeled = [tuple(best_sigma[c] for c in u) for u in a.votes]
    free_b: dict[tuple[int, ...], list[int]] = {}
    for j in range(n - 1, -1, -1):
        free_b.setdefault(b.votes[j], []).append(j)
    rho = [-1] * n
    for i, t in enumerate(relabeled):
        stack = free_b.get(t)
        if stack:
            rho[i] = stack.pop()
    leftover_b = sorted(j for stack in free_b.values() for j in stack)
    it = iter(leftover_b)
    for i in range(n):
        if rho[i] < 0:
            rho[i] = next(it)
    return DistanceOutcome(n - best_overlap, best_sigma, tuple(rho))


def unique_rows_vote_types(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The discrete aggregate as it was: the distinct rows of the (n, m)
    votes, in lexicographic order, with their counts, by a row-wise unique."""
    return np.unique(votes, axis=0, return_counts=True)


def counter_discrete_search(a: Counter, bs) -> list[tuple[int, tuple[int, ...]]]:
    """The discrete row search on vote counts: for each Counter of bs,
    (value, lexicographically smallest optimal relabeling) against a.

    The relabeling that maps vote u of a onto vote w of b sends u[k] to
    w[k]; its base-m code, whose digits are its entries and so order like
    them, is the sum of w[k] * place[u[k]], a Python int.  A relabeling maps
    u onto at most one w, so its overlap sums min(count u, count w) over
    the pairs (u, w) that give it, filled into a dict one pair at a time.
    """
    m = len(next(iter(a)))
    place = _place_values(m)
    n = sum(a.values())
    weights = [([place[c] for c in u], count) for u, count in a.items()]
    out = []
    for b in bs:
        overlap: dict[int, int] = {}
        for weights_u, count_u in weights:
            for w, count_w in b.items():
                code = sum(map(operator.mul, w, weights_u))
                overlap[code] = overlap.get(code, 0) + min(count_u, count_w)
        most = max(overlap.values())
        best = min(code for code, o in overlap.items() if o == most)
        out.append((n - most, tuple(best // p % m for p in place)))
    return out


def bruteforce_majority_realizable(M, n: int) -> Optional[Election]:
    """An n-voter election whose majority matrix equals M, or None, by
    trying every vote multiset in ``combinations_with_replacement`` order;
    the first match is the lexicographically first multiset.
    """
    target = np.asarray(M, dtype=np.int64)
    m = target.shape[0]
    orders = all_orders(m)
    wins = []
    for v in orders:
        w = np.zeros((m, m), dtype=np.int64)
        for i, c in enumerate(v):
            w[c, list(v[i + 1:])] = 1
        wins.append(w)
    for combo in itertools.combinations_with_replacement(range(len(orders)), n):
        total = wins[combo[0]].copy()
        for i in combo[1:]:
            total += wins[i]
        if np.array_equal(total, target):
            return Election(m, tuple(orders[i] for i in combo))
    return None


def index_borda_table(m: int) -> list[tuple[int, ...]]:
    """``analysis.borda_realizable``'s table as it was: each order's Borda
    points to candidates 0..m-1, by ``tuple.index``."""
    return [tuple(m - 1 - v.index(c) for c in range(m)) for v in all_orders(m)]


def index_majority_table(m: int) -> list[tuple[int, ...]]:
    """``analysis.majority_realizable_bruteforce``'s table as it was: for
    each order, 1 per pair c < d it ranks c above d, by ``tuple.index``."""
    pairs = list(itertools.combinations(range(m), 2))
    return [tuple(int(v.index(c) < v.index(d)) for c, d in pairs) for v in all_orders(m)]


def loop_is_single_crossing(election: Election) -> bool:
    """``cultures.is_single_crossing`` as it was: votes sorted by their
    swap distance to the canonical order, then every pair's crossings
    counted by ``tuple.index``."""
    canonical = tuple(range(election.m))
    ordered = sorted(
        election.votes, key=lambda v: (vote_swap_distance(v, canonical), v)
    )
    m = election.m
    for a in range(m):
        for b in range(a + 1, m):
            crossings = 0
            previous = None
            for vote in ordered:
                prefers = vote.index(a) < vote.index(b)
                if previous is not None and prefers != previous:
                    crossings += 1
                previous = prefers
            if crossings > 1:
                return False
    return True


@lru_cache(maxsize=None)
def relabel_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """tables[s][v] = index of relabeling s applied to order v, both indices
    into ``all_orders(m)``, so index order is vote order; m! x m! entries."""
    orders = all_orders(m)
    index = {v: i for i, v in enumerate(orders)}
    return tuple(
        tuple(index[tuple(sigma[c] for c in vote)] for vote in orders) for sigma in orders
    )


def relabel_canonical_anec_key(election: Election) -> bytes:
    """Canonical ANEC key as the lexicographic minimum, over all m!
    relabelings, of the sorted vote multiset."""
    m = election.m
    orders = all_orders(m)
    index = {v: i for i, v in enumerate(orders)}
    votes = sorted(index[v] for v in election.votes)
    best = min(sorted(table[v] for v in votes) for table in relabel_tables(m))
    body = b"".join(bytes(orders[v]) for v in best)
    return bytes([m]) + election.n.to_bytes(4, "big") + body


def loop_enumerate_anecs(m: int, n: int):
    """ANEC representatives: every vote multiset in lexicographic order that
    no candidate relabeling makes lexicographically smaller."""
    check_census_guard(m, n)
    orders = all_orders(m)
    tables = relabel_tables(m)[1:]  # the identity relabeling never rejects
    for combo in itertools.combinations_with_replacement(range(len(orders)), n):
        if all(tuple(sorted(t[i] for i in combo)) >= combo for t in tables):
            yield Election(m, tuple(orders[i] for i in combo))


def loop_count_equivalence_classes(m: int, n: int) -> CensusReport:
    """Census from per-representative aggregates and tuple keys; the
    pairwise key is the smallest relabeled majority matrix."""
    perms = list(itertools.permutations(range(m)))
    anecs = 0
    pos_keys = set()
    pair_keys = set()
    borda_keys = set()
    for e in loop_enumerate_anecs(m, n):
        anecs += 1
        p = position_matrix(e)
        pos_keys.add(tuple(sorted(map(tuple, p.T.tolist()))))
        mm = majority_matrix(e).tolist()
        pair_keys.add(min(tuple(mm[i][j] for i in pi for j in pi) for pi in perms))
        borda_keys.add(tuple(sorted(borda_vector(e).tolist())))
    return CensusReport(m, n, anecs, len(pos_keys), len(pair_keys), len(borda_keys))


def indexing_embedding_stress(points: np.ndarray, targets: np.ndarray) -> float:
    """``mapping.embedding_stress`` as it was, rebuilding the upper-triangle
    indices for the targets and again for the embedded distances."""
    t = np.asarray(targets, dtype=float)[np.triu_indices(len(points), k=1)]
    denom = float((t**2).sum())
    if denom == 0.0:
        return 0.0
    pts = np.asarray(points, dtype=float)
    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    e = dists[np.triu_indices(pts.shape[0], k=1)]
    ee = float((e**2).sum())
    scale = float(e @ t) / ee if ee > 0 else 0.0
    return float(((scale * e - t) ** 2).sum() / denom)


def indexing_descent_tail(
    points: np.ndarray, targets: np.ndarray, iterations: int
) -> list[float]:
    """``mapping._descent_tail`` as it was: every trial step recomputes the
    stress from scratch, index tables and target norm included."""
    trace = []
    current = indexing_embedding_stress(points, targets)
    k = points.shape[0]
    iu = np.triu_indices(k, k=1)
    t = targets[iu]
    step = 0.1
    for _ in range(iterations):
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, 1.0)
        e = dists[iu]
        ee = float((e**2).sum())
        scale = float(e @ t) / ee if ee > 0 else 0.0
        resid = np.zeros((k, k))
        resid[iu] = scale * e - t
        resid = resid + resid.T
        ratio = np.divide(resid, dists, out=np.zeros((k, k)), where=dists > 0)
        grad = 2.0 * scale * (ratio[:, :, None] * diffs).sum(axis=1)
        improved = False
        trial_step = step
        for _ in range(8):
            candidate = points - trial_step * grad
            value = indexing_embedding_stress(candidate, targets)
            if value < current:
                points[:] = candidate
                current = value
                step = trial_step * 1.5
                improved = True
                break
            trial_step /= 2.0
        if not improved:
            step = trial_step
        trace.append(current)
    return trace


def diagonal_zeroing_spring_phase(
    points: np.ndarray, ideal: np.ndarray, iterations: int, temperature: float
) -> None:
    """``mapping._spring_phase`` as it was: it zeroes each point's force
    coefficient on itself before summing the pair forces."""
    for it in range(iterations):
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, 1.0)
        coeff = (ideal - dists) / dists
        np.fill_diagonal(coeff, 0.0)
        force = (coeff[:, :, None] * diffs).sum(axis=1)
        norms = np.sqrt((force**2).sum(axis=1, keepdims=True))
        norms[norms == 0] = 1.0
        temp = temperature * (1.0 - it / iterations) + 1e-4
        step = force / norms * np.minimum(norms, temp)
        points += step


def single_layout_spring_phase(
    points: np.ndarray, ideal: np.ndarray, iterations: int, temperature: float
) -> None:
    """``mapping._spring_phase`` as it was before it moved a stack of
    layouts: points (k, 2) and ideal (k, k) of one layout."""
    for it in range(iterations):
        diffs = points[:, None, :] - points[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, 1.0)
        # spring force toward the ideal length for every pair; a point's
        # own term, -1 times a +0.0 difference, is -0.0 and changes no sum
        coeff = (ideal - dists) / dists
        force = (coeff[:, :, None] * diffs).sum(axis=1)
        norms = np.sqrt((force**2).sum(axis=1, keepdims=True))
        norms[norms == 0] = 1.0
        temp = temperature * (1.0 - it / iterations) + 1e-4
        step = force / norms * np.minimum(norms, temp)
        points += step


def single_layout_measure(
    points: np.ndarray, iu: tuple, t: np.ndarray, denom: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``mapping._measure`` as it was before it measured a stack of layouts:
    the pair differences, distances, best scale and stress of one (k, 2)
    layout."""
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    e = dists[iu]
    ee = float((e**2).sum())
    scale = float(e @ t) / ee if ee > 0 else 0.0
    return diffs, dists, scale, float(((scale * e - t) ** 2).sum() / denom)


def single_layout_descent_tail(
    points: np.ndarray, targets: np.ndarray, iterations: int
) -> list[float]:
    """``mapping._descent_tail`` as it was before it moved a stack of
    layouts: points (k, 2) and targets (k, k) of one layout, whose line
    search accepts or rejects its steps alone."""
    trace = []
    k = points.shape[0]
    iu = np.triu_indices(k, k=1)
    t = targets[iu]
    denom = float((t**2).sum())
    diffs, dists, scale, current = single_layout_measure(points, iu, t, denom)
    step = 0.1
    for _ in range(iterations):
        resid = np.zeros((k, k))
        resid[iu] = scale * dists[iu] - t
        resid = resid + resid.T
        ratio = np.divide(resid, dists, out=np.zeros((k, k)), where=dists > 0)
        grad = 2.0 * scale * (ratio[:, :, None] * diffs).sum(axis=1)
        trial_step = step
        for _ in range(8):
            candidate = points - trial_step * grad
            measured = single_layout_measure(candidate, iu, t, denom)
            if measured[3] < current:
                points[:] = candidate
                diffs, dists, scale, current = measured
                step = trial_step * 1.5
                break
            trial_step /= 2.0
        else:
            step = trial_step
        trace.append(current)
    return trace


def stacked_measure(
    points: np.ndarray, iu: tuple, t: np.ndarray, denom: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``mapping._measure`` as it was on a layout-major (B, 2, k) stack: the
    pair differences ([b, c, j, i] = p_i - p_j), the pair distances, the
    best scales and the stresses, read through two index arrays."""
    diffs = points[:, :, None, :] - points[:, :, :, None]
    sq = diffs**2
    dists = np.sqrt(sq[:, 0] + sq[:, 1])
    e = np.ascontiguousarray(dists[:, iu[0], iu[1]])
    ee = (e**2).sum(axis=1)
    dot = np.matmul(e[:, None, :], t[:, :, None])[:, 0, 0]
    scale = np.divide(dot, ee, out=np.zeros_like(ee), where=ee > 0)
    return diffs, dists, scale, ((scale[:, None] * e - t) ** 2).sum(axis=1) / denom


def stacked_spring_phase(
    points: np.ndarray, ideal: np.ndarray, iterations: int, temperature: float
) -> None:
    """``mapping._spring_phase`` as it was on a layout-major (B, 2, k) stack,
    moved in place, a new array for every operation of every step."""
    eye = np.eye(points.shape[2])
    for it in range(iterations):
        diffs = points[:, :, None, :] - points[:, :, :, None]
        sq = diffs**2
        dists = np.sqrt(sq[:, 0] + sq[:, 1]) + eye
        coeff = (ideal - dists) / dists
        force = (coeff[:, None] * diffs).sum(axis=2)
        f2 = force**2
        norms = np.sqrt(f2[:, :1] + f2[:, 1:])
        norms[norms == 0] = 1.0
        temp = temperature * (1.0 - it / iterations) + 1e-4
        points += force / norms * np.minimum(norms, temp)


def stacked_descent_tail(
    points: np.ndarray, targets: np.ndarray, iterations: int
) -> list[list[float]]:
    """``mapping._descent_tail`` as it was on a layout-major (B, 2, k) stack,
    moved in place: the accepted trials are copied over the held
    measurements by ten masked gets and sets."""
    iu = metrics._upper_pairs(points.shape[2])
    t = np.ascontiguousarray(targets[:, iu[0], iu[1]])
    denom = (t**2).sum(axis=1)
    diffs, dists, scale, current = stacked_measure(points, iu, t, denom)
    step = np.full(len(points), 0.1)
    trace = []
    for _ in range(iterations):
        resid = scale[:, None, None] * dists - targets
        ratio = np.divide(resid, dists, out=np.zeros(dists.shape), where=dists > 0)
        grad = (2.0 * scale)[:, None, None] * (ratio[:, None] * diffs).sum(axis=2)
        trial_step = step.copy()
        searching = np.ones(len(points), dtype=bool)
        for _ in range(8):
            candidate = points - trial_step[:, None, None] * grad
            measured = stacked_measure(candidate, iu, t, denom)
            accept = searching & (measured[3] < current)
            for held, new in zip((points, diffs, dists, scale, current), (candidate, *measured)):
                held[accept] = new[accept]
            step[accept] = trial_step[accept] * 1.5
            searching &= ~accept
            trial_step[searching] /= 2.0
            if not searching.any():
                break
        step[searching] = trial_step[searching]
        trace.append(current.copy())
    return np.array(trace).T.tolist()


def per_layout(phase):
    """A spring phase or descent tail of one (k, 2) layout, made to take a
    (2, B, k) stack and its (B, k, k) targets as ``mapping._spring_phase`` and
    ``mapping._descent_tail`` do: it runs once per layout, on a row-major
    copy that is written back, and returns the list of its results, a
    tail's traces."""

    def stacked(points, targets, *args):
        results = []
        for b, layout_targets in enumerate(targets):
            rows = points[:, b].T.copy()
            results.append(phase(rows, layout_targets, *args))
            points[:, b] = rows.T
        return results

    return stacked


def layout_major(phase):
    """A phase of a layout-major (B, 2, k) stack, ``stacked_spring_phase`` or
    ``stacked_descent_tail``, made to take the coordinate-major (2, B, k)
    stack of ``mapping``: it runs on a C-contiguous (B, 2, k) copy that is
    written back, and returns the phase's result."""

    def coordinate_major(points, targets, *args):
        layouts = points.transpose(1, 0, 2).copy()
        result = phase(layouts, targets, *args)
        points[:] = layouts.transpose(1, 0, 2)
        return result

    return coordinate_major


def loop_sample_sp_conitzer(m: int, n: int, seed) -> Election:
    """``cultures.sample_sp_conitzer`` as it was: its own growth loop on a
    line, before it shared one with SPOC."""
    rng = _rng(seed)
    votes = []
    for _ in range(n):
        peak = int(rng.integers(0, m))
        lo = hi = peak
        vote = [peak]
        while len(vote) < m:
            extend_left = lo > 0 and (hi == m - 1 or rng.random() < 0.5)
            if extend_left:
                lo -= 1
                vote.append(lo)
            else:
                hi += 1
                vote.append(hi)
        votes.append(tuple(vote))
    return Election(m, votes)


def loop_sample_spoc(m: int, n: int, seed) -> Election:
    """``cultures.sample_spoc`` as it was: its own growth loop on a circle,
    before it shared one with SPConitzer."""
    rng = _rng(seed)
    votes = []
    for _ in range(n):
        top = int(rng.integers(0, m))
        left = (top - 1) % m
        right = (top + 1) % m
        vote = [top]
        while len(vote) < m:
            if rng.random() < 0.5:
                vote.append(left)
                left = (left - 1) % m
            else:
                vote.append(right)
                right = (right + 1) % m
        votes.append(tuple(vote))
    return Election(m, votes)


def loop_sample_mallows(m: int, n: int, seed, phi) -> Election:
    """``cultures.sample_mallows`` as it was: it built each insertion
    step's distribution once per vote."""
    rng = _rng(seed)
    if phi == "norm-uniform":
        phi = mallows_phi_from_norm(float(rng.uniform(0.0, 1.0)), m)
    votes = []
    for _ in range(n):
        vote: list[int] = []
        for i in range(1, m + 1):
            weights = np.array([phi ** (i - j) for j in range(1, i + 1)])
            j = int(rng.choice(i, p=weights / weights.sum()))
            vote.insert(j, i - 1)
        votes.append(tuple(vote))
    return Election(m, votes)


def loop_sample_ic(m: int, n: int, seed) -> Election:
    """``cultures.sample_ic`` by one ``rng.permutation`` per vote, in place
    of one shuffle of every row of an (n, m) array."""
    rng = _rng(seed)
    return Election(m, [tuple(int(c) for c in rng.permutation(m)) for _ in range(n)])


def loop_sample_sp_walsh(m: int, n: int, seed) -> Election:
    """``cultures.sample_sp_walsh`` as it was: one ``rng.random()`` per
    step, building each vote from the bottom up."""
    rng = _rng(seed)
    votes = []
    for _ in range(n):
        lo, hi = 0, m - 1
        bottom_up: list[int] = []
        while lo < hi:
            if rng.random() < 0.5:
                bottom_up.append(lo)
                lo += 1
            else:
                bottom_up.append(hi)
                hi -= 1
        bottom_up.append(lo)
        votes.append(tuple(reversed(bottom_up)))
    return Election(m, votes)


def loop_sample_euclidean(m: int, n: int, seed, shape: str) -> Election:
    """``cultures.sample_euclidean`` as it was: one distance sort per voter."""
    rng = _rng(seed)
    candidates = _euclidean_points(rng, m, shape)
    voters = _euclidean_points(rng, n, shape)
    votes = []
    for voter in voters:
        sq = ((candidates - voter) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        votes.append(tuple(int(c) for c in order))
    return Election(m, votes)


def loop_sample_group_separable(m: int, n: int, seed, tree: str) -> Election:
    """``cultures.sample_group_separable`` as it was: one ``rng.random()``
    per internal node as the tree walk reaches it."""
    build = _balanced_tree if tree == "balanced" else _caterpillar_tree
    root = build(tuple(range(m)))
    rng = _rng(seed)

    def read_leaves(node, out):
        if isinstance(node, int):
            out.append(node)
            return
        left, right = node
        if rng.random() < 0.5:
            left, right = right, left
        read_leaves(left, out)
        read_leaves(right, out)

    votes = []
    for _ in range(n):
        leaves: list[int] = []
        read_leaves(root, leaves)
        votes.append(tuple(leaves))
    return Election(m, votes)


def row_swap_search(
    a: tuple[np.ndarray, np.ndarray], bs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    # exact swap distance between the election of aggregates a (from
    # _swap_aggregates) and each election of aggregates bs, with the
    # lexicographically smallest optimal relabeling sigma (candidate c of a
    # to sigma[c] of b) and the solver's voter matching for it.  Relabelings
    # are visited best-first by _swap_bounds: at an m of _TRIANGLES the
    # triangle bound over the packing _TRIANGLES[m], below it the majority
    # bound.  Every voter matching pays at least each triangle's transport
    # on its three pairs, and each transport is at least its pairs'
    # majority terms, so both lie between the majority bound and the
    # optimum and the values and witnesses do not depend on which is
    # taken.  The relabelings go in chunks whose voter
    # cost matrices are built at once and whose bounds are tightened by
    # _reduced_bounds before any assignment is solved.  Only the cells c < d
    # are compared: the cells d > c mirror them.
    margins_a, prefs_a = a
    n = prefs_a.shape[1]
    m = math.isqrt(prefs_a.shape[0])
    perms = _order_columns(m).T
    total = len(perms)
    pairs = m * (m - 1) // 2
    # the identity comes first among the relabelings
    bits_a = metrics._packed_votes(prefs_a, metrics._chunk_cells(m, slice(1)))[:, 0]
    chunk = max(1, metrics._SWAP_CHUNK_ENTRIES // (n * (pairs + n)))

    def beats(bound, ids, best):
        # the relabelings whose (bound, index) is below the incumbent's
        # (value, index): the smaller pair wins, so among optimal
        # relabelings the lexicographically smallest does
        return (bound < best[0]) | ((bound == best[0]) & (ids < best[1]))

    def visit(costs, tight, ids, best, best_rho):
        # solve the chunk's assignments by (tight bound, index) while they
        # can beat the incumbent.  Only those that can beat it at the start
        # are sorted
        open_ = beats(tight, ids, best)
        if not open_.any():
            return best, best_rho
        cols = np.flatnonzero(open_)
        tight, ids = tight[cols], ids[cols]
        visit_order = np.lexsort((ids, tight)).tolist()
        tight, ids, cols = tight.tolist(), ids.tolist(), cols.tolist()
        for t in visit_order:
            if (tight[t], ids[t]) >= best:
                break
            ri, ci = metrics.linear_sum_assignment(costs[..., cols[t]])
            value = int(costs[ri, ci, cols[t]].sum())
            if (value, ids[t]) < best:
                best, best_rho = (value, ids[t]), ci
        return best, best_rho

    def outcomes(found, rhos):
        # the (value, sigma, rho) of each incumbent (value, index) and its
        # voter matching, the witness rows read in one pass
        sigmas = perms[[index for _, index in found]].tolist()
        return [(value, tuple(sigma), tuple(rho))
                for (value, _), sigma, rho in zip(found, sigmas, rhos)]

    unset = (pairs * n + 1, total)
    if total <= chunk:
        # one chunk per election, in index order, whose cells serve its
        # bounds too; a stack of elections shares the chunk budget.  Each
        # election's first relabeling by (tight bound, index), its first
        # least bound, is solved in one pass over the stack.  One whose
        # value meets its bound is settled; for the rest that bound becomes
        # the value, so that the incumbent is not solved again, and the
        # chunk is visited
        ids, voters = np.arange(total), np.arange(n)
        cells = metrics._chunk_cells(m, slice(None))
        stack = chunk // total
        found, rhos = [], []
        for s in range(0, len(bs), stack):
            group = bs[s : s + stack]
            prefs_b = np.array([b[1] for b in group])
            bounds = metrics._swap_bounds(a, np.array([b[0] for b in group]), prefs_b)
            costs = metrics._voter_costs(bits_a, prefs_b, cells)
            tight = np.maximum(bounds, metrics._reduced_bounds(costs))
            rows = np.arange(len(group))
            firsts = tight.argmin(axis=-1)
            first_costs = costs[rows, :, :, firsts]
            rho = np.array([metrics.linear_sum_assignment(c)[1] for c in first_costs])
            values = first_costs[rows[:, None], voters, rho].sum(axis=1, dtype=np.int64)
            group_found = list(zip(values.tolist(), firsts.tolist()))
            group_rhos = rho.tolist()
            for g in (values > tight[rows, firsts]).nonzero()[0].tolist():
                tight[g, firsts[g]] = values[g]
                best, best_rho = visit(costs[g], tight[g], ids, group_found[g], rho[g])
                group_found[g], group_rhos[g] = best, best_rho.tolist()
            found += group_found
            rhos += group_rhos
        return outcomes(found, rhos)
    # the bounds stay below unset, in the smallest unsigned type, uint16 at
    # moderate n, which a stable argsort sorts by radix
    found, rhos = [], []
    for margins_b, prefs_b in bs:
        bounds = metrics._swap_bounds(a, margins_b, prefs_b).astype(np.min_scalar_type(unset[0]), copy=False)
        order = np.argsort(bounds, kind="stable")
        best, rho = unset, None
        for start in range(0, total, chunk):
            ids = order[start : start + chunk]
            lb = bounds[ids]
            # (bound, index) ascends along order: the relabelings that can
            # still beat the incumbent form a prefix, empty for all later
            # chunks, and whole in the first, where every pair is below unset
            open_ = beats(lb, ids, best)
            stop = len(ids) if open_.all() else int(open_.argmin())
            if stop == 0:
                break
            ids, lb = ids[:stop], lb[:stop]
            costs = metrics._voter_costs(bits_a, prefs_b, metrics._chunk_cells(m, ids))
            # the reduction bound, never below the minima bound, only where
            # the cheaper minima bound leaves a relabeling open: the others
            # stay shut under a larger bound.  Before the first solve every
            # relabeling is open
            if best == unset or beats(np.maximum(lb, minima_bounds(costs)), ids, best).any():
                best, rho = visit(costs, np.maximum(lb, metrics._reduced_bounds(costs)), ids, best, rho)
        found.append(best)
        rhos.append(rho.tolist())
    return outcomes(found, rhos)


def row_discrete_search(a: tuple, bs: Sequence[tuple]) -> list[tuple[int, tuple[int, ...]]]:
    # exact discrete distance from the election of distinct votes and counts a
    # to each such one of bs, with the lexicographically smallest optimal
    # relabeling.  Mapping vote u onto w has the base-m code w @ place[u], which
    # orders like it, and overlaps min(count u, count w) summed over its (u, w).
    # bs share one sort, m**m apart
    types_a, counts_a = a
    m = types_a.shape[1]
    place = metrics._code_places(m, len(bs) * m**m)
    offsets = np.repeat(np.arange(len(bs)).astype(place.dtype) * m**m, [len(b[1]) for b in bs])
    codes = np.concatenate([b[0] for b in bs]) @ place[types_a].T + offsets[:, None]
    keys, inverse = np.unique(codes.ravel(), return_inverse=True)
    pairs = np.minimum.outer(np.concatenate([b[1] for b in bs]), counts_a)
    overlap = np.bincount(inverse, pairs.ravel()).astype(np.int64)
    owner = (keys // m**m).astype(np.int64)
    most = np.maximum.reduceat(overlap, np.searchsorted(owner, np.arange(len(bs))))
    # the least code of most overlap: each election's first among its ties
    ties = np.flatnonzero(overlap == most[owner])
    best = ties[np.searchsorted(owner[ties], np.arange(len(bs)))]
    sigmas = keys[best, None] % m**m // place % m
    return list(zip((counts_a.sum() - most).tolist(), map(tuple, sigmas.tolist())))


def row_pairwise_search(
    ma: np.ndarray, mbs: Sequence[np.ndarray]
) -> list[tuple[int, tuple[int, ...]]]:
    # the pairwise distance between the election of flat margins ma (from
    # _margins) and each election of margins mbs: (value, lexmin optimal
    # matching) per election.  A matching's pairwise cost is its
    # _pair_costs, whose first least entry gives the lexmin witness.  Above
    # _PAIRWISE_SCAN_MAX the branch and bound runs on the m x m margins,
    # where every cost and bound is twice the one on the majority matrices,
    # so that it solves the same assignments to the same witness
    m = math.isqrt(ma.size)
    if m > metrics._PAIRWISE_SCAN_MAX:
        squares = np.reshape([ma, *mbs], (-1, m, m)).astype(np.int64)
        found = [metrics._pairwise_branch_and_bound(squares[0], mb) for mb in squares[1:]]
        return [(value // 2, sigma) for value, sigma in found]
    if not len(mbs):
        return []
    costs = metrics._pair_costs(ma, np.stack(mbs))
    best = costs.argmin(axis=1)
    values = costs[np.arange(len(best)), best].tolist()
    return list(zip(values, map(tuple, order_rows(m)[best].tolist())))


def row_positionwise_search(x: np.ndarray, ys: Sequence[np.ndarray]) -> list[tuple[int]]:
    # the positionwise value of the aggregate x against each of ys, by one
    # assignment solve each: no witness, so none of solve_assignment's
    # lexmin solves.  A square solve gives its rows in order, so each pair's
    # columns are all it keeps, and the row's values are one gather
    costs = metrics._column_costs(x, np.stack(ys))
    columns = np.array([metrics.linear_sum_assignment(c)[1] for c in costs])
    values = np.take_along_axis(costs, columns[:, :, None], axis=2).sum(axis=(1, 2))
    return [(v,) for v in values.tolist()]


def row_bordawise_search(x: np.ndarray, ys: Sequence[np.ndarray]) -> list[tuple[int]]:
    # the l1 distance of the sorted Borda prefix x to each of ys
    return [(v,) for v in np.abs(np.stack(ys) - x).sum(axis=1).tolist()]


def row_search_distance_values(dataset, kind: str) -> np.ndarray:
    """``metrics.distance_values`` as it searched before it walked blocks of
    pairs: each election's aggregate once, then per election i one row
    search of its aggregate against the list of all later ones.  The row
    searches above are the package's earlier ones, on its kernels and its
    solver, which they look up in ``metrics`` when they run; swap's takes
    the later elections in stacks of as many as one chunk budget holds."""
    metrics._check_elections(dataset, kind)
    if len(dataset) < 2:
        return np.zeros(0, dtype=np.int64)
    search = {
        "swap": row_swap_search,
        "discrete": row_discrete_search,
        "emdpos": row_positionwise_search,
        "l1pos": row_positionwise_search,
        "pairwise": row_pairwise_search,
        "bordawise": row_bordawise_search,
    }[kind]
    aggs = [metrics._row(kind)[0](e) for e in dataset]
    values = [found[0] for i in range(len(aggs) - 1) for found in search(aggs[i], aggs[i + 1 :])]
    return np.array(values, dtype=np.int64)
