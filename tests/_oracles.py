"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different route than the package:
transport by greedy flow instead of prefix sums, assignments and matchings
by exhaustive permutation search instead of the Hungarian-style solver,
Borda scores as majority-matrix row sums instead of positional points.
The loop oracles are the package's earlier per-vote and per-pair routines,
kept to check the vectorized kernels that replaced them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

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
