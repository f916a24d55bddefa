"""The six election metrics, with exact algorithms and witnesses.

Two isomorphic metrics (swap, discrete) optimize over candidate and voter
matchings jointly; two positionwise metrics (EMD, l1) and the pairwise
metric optimize over candidate matchings only; the Bordawise metric needs
no matching at all.  Every routine returns exact values: integer inputs
give integer distances, Fraction inputs give Fraction distances.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .elections import Election, _order_table, majority_matrix, borda_vector, position_matrix

__all__ = [
    "METRIC_KINDS",
    "DistanceOutcome",
    "vote_swap_distance",
    "vote_discrete_distance",
    "l1",
    "emd",
    "solve_assignment",
    "iso_distance",
    "positionwise_distance",
    "pairwise_cost_at",
    "pairwise_distance",
    "bordawise_distance",
    "distance",
    "GUARDS",
    "check_guard",
    "distance_values",
]

METRIC_KINDS = ("swap", "discrete", "emdpos", "l1pos", "pairwise", "bordawise")

# largest candidate count each exponential search accepts by default
GUARDS = {"swap": 8, "pairwise": 10}

# the pairwise search enumerates relabelings in blocks of at most 7! rows
_PAIRWISE_BLOCK = 7

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class DistanceOutcome:
    """A distance value plus optional optimal matchings.

    ``candidate_matching`` maps candidates of the first election to
    candidates of the second; ``voter_matching`` maps voter i of the first
    to a voter of the second (isomorphic metrics only).  ``exact`` is False
    only if a search was truncated, which no current algorithm does.
    """

    value: Number
    candidate_matching: Optional[tuple[int, ...]] = None
    voter_matching: Optional[tuple[int, ...]] = None
    exact: bool = True


def vote_swap_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of candidate pairs that u and v rank oppositely."""
    m = len(u)
    if len(v) != m:
        raise ValueError(f"votes have different lengths {m} and {len(v)}")
    pos_v = [0] * m
    for i, c in enumerate(v):
        pos_v[c] = i
    count = 0
    for i in range(m):
        for j in range(i + 1, m):
            if pos_v[u[i]] > pos_v[u[j]]:
                count += 1
    return count


def vote_discrete_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """0 if the votes are identical, 1 otherwise."""
    if len(u) != len(v):
        raise ValueError(f"votes have different lengths {len(u)} and {len(v)}")
    return 0 if tuple(u) == tuple(v) else 1


def l1(x: Sequence[Number], y: Sequence[Number]) -> Number:
    """Sum of absolute coordinate differences."""
    if len(x) != len(y):
        raise ValueError(f"vectors have different lengths {len(x)} and {len(y)}")
    total = 0
    for a, b in zip(x, y):
        total += abs(a - b)
    return total


def _sums_match(sx: Number, sy: Number) -> bool:
    if isinstance(sx, float) or isinstance(sy, float):
        return math.isclose(sx, sy, rel_tol=1e-9, abs_tol=1e-9)
    return sx == sy


def emd(x: Sequence[Number], y: Sequence[Number]) -> Number:
    """Earth mover's distance between two same-sum nonnegative vectors.

    Computed as the l1 distance of the prefix-sum vectors, which equals the
    minimum total move cost of any transport between the distributions.
    """
    if len(x) != len(y):
        raise ValueError(f"vectors have different lengths {len(x)} and {len(y)}")
    for v in itertools.chain(x, y):
        if v < 0:
            raise ValueError(f"negative entry {v} in emd input")
    if not _sums_match(sum(x), sum(y)):
        raise ValueError(f"emd inputs have different sums {sum(x)} and {sum(y)}")
    running = 0
    total = 0
    for a, b in zip(x, y):
        running += a - b
        total += abs(running)
    return total


def _exact_total(costs: Sequence[Sequence[Number]], matching: Sequence[int]) -> Number:
    total = 0
    for i, c in enumerate(matching):
        total += costs[i][c]
    return total


def _numeric_matrix(costs) -> tuple[np.ndarray, list[list[Number]]]:
    # returns (float array for the solver, python-number rows for exact sums)
    arr = np.asarray(costs)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    rows = [list(r) for r in (costs.tolist() if hasattr(costs, "tolist") else costs)]
    if arr.dtype == object:
        flat = [v for row in rows for v in row]
        if any(isinstance(v, float) for v in flat):
            num = arr.astype(float)
        else:
            # Fractions and ints: scale by the lcm of denominators so the
            # float solve is exact (values must stay below 2**53)
            denoms = [v.denominator for v in flat if isinstance(v, Fraction)]
            scale = math.lcm(*denoms) if denoms else 1
            scaled = [[int(v * scale) for v in row] for row in rows]
            peak = max((abs(v) for row in scaled for v in row), default=0)
            if peak * max(arr.shape[0], 1) >= 2**53:
                raise ValueError("cost matrix values too large for exact solving")
            num = np.array(scaled, dtype=float)
    else:
        num = arr.astype(float)
    if not np.all(np.isfinite(num)):
        raise ValueError("cost matrix entries must be finite")
    return num, rows


def _values_equal(a: Number, b: Number) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def solve_assignment(costs, lexmin: bool = True) -> tuple[tuple[int, ...], Number]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (matching, total) where matching[i] is the column assigned to
    row i.  With lexmin=True the matching is the lexicographically smallest
    among all optimal ones; the refinement re-solves reduced problems, so
    skip it in inner loops that only need the value.
    """
    num, rows = _numeric_matrix(costs)
    k = num.shape[0]
    if k == 0:
        return (), 0
    ri, ci = linear_sum_assignment(num)
    matching = [0] * k
    for r, c in zip(ri, ci):
        matching[r] = int(c)
    best_total = _exact_total(rows, matching)
    if not lexmin:
        return tuple(matching), best_total

    cols_left = list(range(k))
    fixed: list[int] = []
    fixed_cost: Number = 0
    for i in range(k):
        rest_rows = list(range(i + 1, k))
        for c in cols_left:
            rest_cols = [x for x in cols_left if x != c]
            if rest_rows:
                sub = num[np.ix_(rest_rows, rest_cols)]
                sri, sci = linear_sum_assignment(sub)
                sub_total = _exact_total(
                    [[rows[r][rest_cols[x]] for x in range(len(rest_cols))] for r in rest_rows],
                    [int(x) for x in sci[np.argsort(sri)]],
                )
            else:
                sub_total = 0
            if _values_equal(fixed_cost + rows[i][c] + sub_total, best_total):
                fixed.append(c)
                fixed_cost = fixed_cost + rows[i][c]
                cols_left.remove(c)
                break
        else:
            raise RuntimeError("lexmin refinement failed to place a row")
    return tuple(fixed), best_total


def _suffix_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    # for each matching tau of k rows, in lexicographic order: the flat
    # indices of the cells (tau r, tau s) of a k x k matrix, r-major, and
    # of the cells (r, tau r); rebuilt per call, since a cached copy would
    # stay resident beside the swap search's tables
    perms = _order_table(k)
    pair_cells = (perms[:, :, None] * k + perms[:, None, :]).reshape(len(perms), k * k)
    row_cells = np.arange(k) * k + perms
    return pair_cells, row_cells


def _swap_aggregates(election: Election) -> tuple[np.ndarray, np.ndarray]:
    # S[v, c * m + d] = +1 if voter v prefers c to d, -1 if d to c, 0 if
    # c = d, in float32 for BLAS (dot products of m * m signs are exact),
    # and its column sums, the majority margins 2 M - n
    arr = election.array
    n, m = arr.shape
    pos = arr.argsort(axis=1)
    signs = np.sign(pos[:, None, :] - pos[:, :, None]).reshape(n, m * m)
    return signs.sum(axis=0), signs.astype(np.float32)


@lru_cache(maxsize=None)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    # the candidate pairs c < d of m candidates, as two index arrays
    pairs = np.triu_indices(m, 1)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _upper_cells(perms: np.ndarray, m: int) -> np.ndarray:
    # for each relabeling tau in perms: the flat indices of the cells
    # (tau c, tau d), c < d, of an m x m matrix
    first, second = _upper_pairs(m)
    return perms.take(first, axis=1) * m + perms.take(second, axis=1)


# a swap search chunk holds at most this many float32 gathered signs and
# voter costs, 512 KB
_SWAP_CHUNK_ENTRIES = 1 << 17


def _swap_search(
    margins_a: np.ndarray, signs_a: np.ndarray, margins_b: np.ndarray, signs_b: np.ndarray
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # exact swap distance between elections given by _swap_aggregates, with
    # the lexicographically smallest optimal relabeling sigma (candidate c
    # of a to sigma[c] of b) and the solver's voter matching for it.
    # Relabelings are visited best-first by their majority bound, in chunks
    # whose voter cost matrices are built at once and whose bounds are
    # tightened before any assignment is solved.  Only the cells c < d are
    # compared: the cells d > c mirror them.
    n = signs_a.shape[0]
    m = math.isqrt(signs_a.shape[1])
    perms = _order_table(m)
    total = len(perms)
    first, second = _upper_pairs(m)
    upper = first * m + second
    pairs = len(upper)
    signs_upper_a = signs_a.take(upper, axis=1)
    margins_upper_a = margins_a.take(upper)
    chunk = max(1, _SWAP_CHUNK_ENTRIES // (n * (pairs + n)))

    def majority_bounds(cells):
        # half the l1 distance of the majority matrices, since every
        # disagreeing voter pair forces an inversion: half the l1 distance
        # of the margins over the cells c < d is the same number
        return np.abs(margins_b.take(cells) - margins_upper_a).sum(axis=1) // 2

    if total <= chunk:
        # one chunk in index order, whose cells serve its bounds too
        cells = _upper_cells(perms, m)
        bounds = majority_bounds(cells)
        order = np.arange(total)
    else:
        cells = None
        bounds = np.concatenate([
            majority_bounds(_upper_cells(perms[s : s + chunk], m))
            for s in range(0, total, chunk)
        ])
        order = np.argsort(bounds, kind="stable")
    # (value, index) of the incumbent: the smaller pair wins, so among
    # optimal relabelings the lexicographically smallest does
    best = (pairs * n + 1, total)
    best_rho = None
    for start in range(0, total, chunk):
        ids = order[start : start + chunk]
        lb = bounds[ids]
        if best_rho is not None:
            # (bound, index) ascends along order: the relabelings that can
            # still beat the incumbent form a prefix, empty for all later chunks
            open_ = (lb < best[0]) | ((lb == best[0]) & (ids < best[1]))
            stop = len(ids) if open_.all() else int(open_.argmin())
            if stop == 0:
                break
            ids, lb = ids[:stop], lb[:stop]
        chunk_cells = _upper_cells(perms[ids], m) if cells is None else cells
        gathered = signs_b.take(chunk_cells, axis=1).reshape(n * len(ids), pairs)
        # costs[l, i, j]: inversions between voter i of a relabeled by
        # sigma_l and voter j of b, (pairs - sign agreement) / 2
        costs = gathered @ signs_upper_a.T
        np.subtract(pairs, costs, out=costs)
        costs *= 0.5
        costs = costs.reshape(n, len(ids), n).transpose(1, 2, 0)
        # no voter matching beats its row minima or its column minima
        relaxed = np.maximum(
            np.add.reduce(np.minimum.reduce(costs, axis=2), axis=1),
            np.add.reduce(np.minimum.reduce(costs, axis=1), axis=1),
        )
        tight = np.maximum(lb, relaxed.astype(np.int64))
        visit = np.lexsort((ids, tight)).tolist()
        tight, ids = tight.tolist(), ids.tolist()
        for t in visit:
            if (tight[t], ids[t]) >= best:
                break
            ri, ci = linear_sum_assignment(costs[t])
            value = int(costs[t][ri, ci].sum())
            if (value, ids[t]) < best:
                best = (value, ids[t])
                best_rho = ci
    return best[0], tuple(perms[best[1]].tolist()), tuple(best_rho.tolist())


def check_guard(kind: str, m: int, guard: Optional[int] = None) -> None:
    """Raise ValueError when m exceeds the candidate guard of a search metric.

    guard defaults to ``GUARDS[kind]``; metrics without a guard accept any m.
    """
    guard = GUARDS.get(kind) if guard is None else guard
    if guard is not None and m > guard:
        raise ValueError(f"{kind} distance guarded at m <= {guard} (got m={m})")


def _check_same_shape(a: Election, b: Election) -> None:
    if a.m != b.m or a.n != b.n:
        raise ValueError(
            f"elections differ in shape: ({a.m}, {a.n}) vs ({b.m}, {b.n})"
        )


def _iso_swap(a: Election, b: Election, guard: int) -> DistanceOutcome:
    check_guard("swap", a.m, guard)
    value, sigma, rho = _swap_search(*_swap_aggregates(a), *_swap_aggregates(b))
    return DistanceOutcome(value, sigma, rho)


def _iso_discrete(a: Election, b: Election) -> DistanceOutcome:
    m, n = a.m, a.n
    # votes and relabelings as integer codes: a sequence's base-m digits are
    # its entries, so codes order like the sequences
    place = [m ** (m - 1 - k) for k in range(m)]
    codes_a = [sum(map(operator.mul, v, place)) for v in a.votes]
    codes_b = [sum(map(operator.mul, v, place)) for v in b.votes]
    counts_a, counts_b = Counter(codes_a), Counter(codes_b)
    votes_a, votes_b = dict(zip(codes_a, a.votes)), dict(zip(codes_b, b.votes))
    # the relabeling that maps vote u of a onto vote w of b sends u[k] to
    # w[k], so its code is the sum of w[k] * place[u[k]].  A relabeling maps
    # u onto w exactly when it is that one, and u onto at most one w, so its
    # overlap sums min(count u, count w) over the pairs (u, w) that give it
    overlap: dict[int, int] = {}
    for cu, u in votes_a.items():
        weights = [place[c] for c in u]
        for cw, w in votes_b.items():
            code = sum(map(operator.mul, w, weights))
            overlap[code] = overlap.get(code, 0) + min(counts_a[cu], counts_b[cw])
    most = max(overlap.values())
    # the smallest code is the lexicographically smallest relabeling
    best = min(code for code, o in overlap.items() if o == most)
    sigma = tuple(best // p % m for p in place)

    # match voters greedily by ascending index: voter i of a takes the
    # smallest free voter of b with its relabeled vote, the rest pair up
    # in order
    image = {cu: sum(sigma[c] * p for c, p in zip(u, place)) for cu, u in votes_a.items()}
    free_b: dict[int, list[int]] = {}
    for j in range(n - 1, -1, -1):
        free_b.setdefault(codes_b[j], []).append(j)
    rho = [-1] * n
    for i, cu in enumerate(codes_a):
        stack = free_b.get(image[cu])
        if stack:
            rho[i] = stack.pop()
    leftover_b = iter(sorted(j for stack in free_b.values() for j in stack))
    for i in range(n):
        if rho[i] < 0:
            rho[i] = next(leftover_b)
    return DistanceOutcome(n - most, sigma, tuple(rho))


def iso_distance(
    a: Election, b: Election, kind: str, guard: int = GUARDS["swap"]
) -> DistanceOutcome:
    """Exact isomorphic distance, minimizing over candidate and voter matchings.

    kind is "swap" (inversion counts per matched vote pair; m guarded,
    default 8) or "discrete" (count of unmatched votes; polynomial).
    """
    _check_same_shape(a, b)
    if kind == "swap":
        return _iso_swap(a, b, guard)
    if kind == "discrete":
        return _iso_discrete(a, b)
    raise ValueError(f"unknown isomorphic kind {kind!r}, expected 'swap' or 'discrete'")


def _positionwise_aggregate(election: Election, variant: str) -> np.ndarray:
    # the position matrix, cumulated down each column for EMD: the l1
    # distance of two cumulated columns is the EMD of the columns
    pos = position_matrix(election)
    return np.cumsum(pos, axis=0) if variant == "EMD" else pos


def _column_costs(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # costs[..., c, d] = l1 distance between column c of x and column d of
    # each matrix in ys
    return np.abs(x[:, :, None] - ys[..., :, None, :]).sum(axis=-3)


def _position_columns(x) -> list[list[Number]]:
    arr = np.asarray(x)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"position matrix must be square, got shape {arr.shape}")
    rows = arr.tolist()
    m = arr.shape[0]
    return [[rows[i][c] for i in range(m)] for c in range(m)]


def positionwise_distance(a, b, variant: str = "EMD") -> DistanceOutcome:
    """Positionwise distance between elections or position/frequency matrices.

    Each candidate contributes the EMD (or l1, per variant) between its two
    position distributions; the reported value is the minimum total over all
    candidate matchings.
    """
    v = variant.upper()
    if v not in ("EMD", "L1"):
        raise ValueError(f"unknown variant {variant!r}, expected 'EMD' or 'L1'")
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
        costs = _column_costs(
            _positionwise_aggregate(a, v), _positionwise_aggregate(b, v)
        )
        matching, total = solve_assignment(costs)
        return DistanceOutcome(total, matching, None)
    cols_a = _position_columns(a)
    cols_b = _position_columns(b)
    if len(cols_a) != len(cols_b):
        raise ValueError(
            f"matrices differ in size: {len(cols_a)} vs {len(cols_b)}"
        )
    dist = emd if v == "EMD" else l1
    m = len(cols_a)
    costs = [[dist(cols_a[c], cols_b[d]) for d in range(m)] for c in range(m)]
    matching, total = solve_assignment(np.array(costs, dtype=object))
    return DistanceOutcome(total, matching, None)


def _majority_of(x) -> np.ndarray:
    if isinstance(x, Election):
        return majority_matrix(x)
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"majority matrix must be square, got shape {arr.shape}")
    return arr


def pairwise_cost_at(a, b, sigma: Sequence[int]) -> int:
    """Sum over ordered candidate pairs of |M_a(c,d) - M_b(sigma c, sigma d)|."""
    ma = _majority_of(a)
    mb = _majority_of(b)
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
    if ma.shape != mb.shape:
        raise ValueError(f"matrices differ in shape: {ma.shape} vs {mb.shape}")
    m = ma.shape[0]
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(m)):
        raise ValueError(f"matching must be a permutation of 0..{m - 1}")
    s = np.array(sigma)
    return int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())


def pairwise_distance(a, b, guard: int = GUARDS["pairwise"]) -> DistanceOutcome:
    """Exact pairwise distance: minimum of pairwise_cost_at over all matchings.

    Enumerates every matching with numpy, in lexicographic order, in blocks
    that fix all but the last (at most 7) candidates' images; the witness is
    the lexicographically smallest optimal matching.
    """
    ma = _majority_of(a)
    mb = _majority_of(b)
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
    if ma.shape != mb.shape:
        raise ValueError(f"matrices differ in shape: {ma.shape} vs {mb.shape}")
    m = ma.shape[0]
    check_guard("pairwise", m, guard)

    free = min(m, _PAIRWISE_BLOCK)
    fixed = m - free
    pair_cells, row_cells = _suffix_tables(free)
    inner_free = ma[fixed:, fixed:].ravel()
    inner_costs: dict[tuple[int, ...], np.ndarray] = {}
    best = None
    best_sigma: tuple[int, ...] = ()
    for prefix in itertools.permutations(range(m), fixed):
        rest = tuple(sorted(set(range(m)).difference(prefix)))
        p, r = np.array(prefix, dtype=np.int64), np.array(rest, dtype=np.int64)
        # disagreements among the free candidates depend only on which
        # targets are left, not on the order of the prefix
        inner = inner_costs.get(rest)
        if inner is None:
            inner = np.abs(inner_free - mb[np.ix_(r, r)].ravel()[pair_cells]).sum(axis=1)
            inner_costs[rest] = inner
        # cross[i, t]: free candidate fixed + i sent to rest[t], against the prefix
        cross = np.abs(ma[fixed:, None, :fixed] - mb[np.ix_(r, p)][None]).sum(axis=2)
        cross += np.abs(ma[:fixed, fixed:].T[:, None] - mb[np.ix_(p, r)].T[None]).sum(axis=2)
        costs = inner + cross.ravel()[row_cells].sum(axis=1)
        idx = int(np.argmin(costs))
        value = int(np.abs(ma[:fixed, :fixed] - mb[np.ix_(p, p)]).sum() + costs[idx])
        if best is None or value < best:
            best = value
            best_sigma = prefix + tuple(rest[t] for t in _order_table(free)[idx])
    return DistanceOutcome(best, best_sigma, None)


def bordawise_distance(a: Election, b: Election) -> DistanceOutcome:
    """EMD between the nonincreasingly sorted Borda score vectors."""
    _check_same_shape(a, b)
    sa = sorted((int(v) for v in borda_vector(a)), reverse=True)
    sb = sorted((int(v) for v in borda_vector(b)), reverse=True)
    return DistanceOutcome(emd(sa, sb), None, None)


def distance(a: Election, b: Election, kind: str) -> DistanceOutcome:
    """Dispatch to one of the six metrics by name."""
    if kind == "swap" or kind == "discrete":
        return iso_distance(a, b, kind)
    if kind == "emdpos":
        return positionwise_distance(a, b, "EMD")
    if kind == "l1pos":
        return positionwise_distance(a, b, "L1")
    if kind == "pairwise":
        return pairwise_distance(a, b)
    if kind == "bordawise":
        return bordawise_distance(a, b)
    raise ValueError(f"unknown metric kind {kind!r}, expected one of {METRIC_KINDS}")


def _assignment_value(costs: np.ndarray) -> int:
    ri, ci = linear_sum_assignment(costs)
    return int(costs[ri, ci].sum())


def distance_values(dataset: Sequence[Election], kind: str) -> np.ndarray:
    """Float distances of every pair i < j of same-shape elections, in
    ``itertools.combinations`` order.

    Equal to ``float(distance(dataset[i], dataset[j], kind).value)``.  The
    positionwise and Bordawise metrics take each election's aggregates once
    and compare one election with all later ones by broadcasting; the
    positionwise metrics then solve one value-only assignment per pair.
    Pairwise takes each majority matrix once and swap each election's
    majority margins and order signs once; discrete searches pair by pair.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}, expected one of {METRIC_KINDS}")
    k = len(dataset)
    if k < 2:
        return np.zeros(0)
    if kind == "bordawise":
        scores = np.sort(np.stack([borda_vector(e) for e in dataset]), axis=1)[:, ::-1]
        prefix = np.cumsum(scores, axis=1)
        rows = [np.abs(prefix[i + 1 :] - prefix[i]).sum(axis=1) for i in range(k - 1)]
    elif kind in ("emdpos", "l1pos"):
        variant = "EMD" if kind == "emdpos" else "L1"
        agg = np.stack([_positionwise_aggregate(e, variant) for e in dataset])
        rows = [
            [_assignment_value(c) for c in _column_costs(agg[i], agg[i + 1 :])]
            for i in range(k - 1)
        ]
    elif kind == "pairwise":
        majority = [majority_matrix(e) for e in dataset]
        rows = [
            [pairwise_distance(majority[i], majority[j]).value for j in range(i + 1, k)]
            for i in range(k - 1)
        ]
    elif kind == "swap":
        check_guard("swap", dataset[0].m)
        aggregates = [_swap_aggregates(e) for e in dataset]
        rows = [
            [_swap_search(*aggregates[i], *aggregates[j])[0] for j in range(i + 1, k)]
            for i in range(k - 1)
        ]
    else:
        rows = [
            [distance(dataset[i], dataset[j], kind).value for j in range(i + 1, k)]
            for i in range(k - 1)
        ]
    return np.concatenate([np.asarray(row, dtype=float) for row in rows])
