"""The six election metrics, with exact algorithms and witnesses.

Two isomorphic metrics (swap, discrete) optimize over candidate and voter
matchings jointly; two positionwise metrics (EMD, l1) and the pairwise
metric optimize over candidate matchings only; the Bordawise metric needs
no matching at all.  Every routine returns exact values: integer inputs
give integer distances, Fraction inputs give Fraction distances, and
``distance_values`` gives a dataset's distances as int64.  Positionwise
inputs (elections, position or frequency matrices) share one cost kernel
and reach one exact ``solve_assignment``, whose witness is the
lexicographically smallest optimal matching.
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

# largest candidate count each exponential search accepts
GUARDS = {"swap": 8, "pairwise": 10}

# the pairwise search enumerates relabelings in blocks of at most 7! rows
_PAIRWISE_BLOCK = 7

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class DistanceOutcome:
    """A distance value plus optional optimal matchings.

    ``candidate_matching`` maps candidates of the first election to
    candidates of the second; ``voter_matching`` maps voter i of the first
    to a voter of the second (isomorphic metrics only).
    """

    value: Number
    candidate_matching: Optional[tuple[int, ...]] = None
    voter_matching: Optional[tuple[int, ...]] = None


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


def _exact_costs(arr: np.ndarray) -> Optional[np.ndarray]:
    # integer and Fraction costs as int64, scaled by the lcm of their
    # denominators; None for float costs
    if arr.dtype.kind in "biu":
        scaled = arr
    elif arr.dtype == object and all(hasattr(v, "denominator") for v in arr.flat):
        scaled = arr * math.lcm(*(v.denominator for v in arr.flat))
    else:
        return None
    # a tie-broken solve adds less than k' to k' times each cost, so its
    # total stays below (peak + 1) * k**2, which must be exact in float64
    peak = max(int(scaled.max()), -int(scaled.min()))
    if (peak + 1) * len(arr) ** 2 >= 2**53:
        raise ValueError("cost matrix values too large for exact solving")
    return scaled.astype(np.int64)


def solve_assignment(costs) -> tuple[tuple[int, ...], Number]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (matching, total) where matching[i] is the column assigned to
    row i, and total sums the given costs along it.  Integer and Fraction
    costs are solved exactly, as integers scaled by the lcm of the
    denominators; ValueError if (peak + 1) * k**2 reaches 2**53.  Their
    matching is the lexicographically smallest optimal one, found by k - 1
    solves: with rows 0..i-1 fixed, the remaining problem is solved with
    its costs times k', the number of columns left, plus on row i the rank
    of each column among them.  The rank is below k', so each solve stays
    optimal and gives row i its smallest column among optimal completions.
    Float costs have no exact path: they get one solve and the solver's
    matching.
    """
    arr = np.asarray(costs)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    k = arr.shape[0]
    if k == 0:
        return (), 0
    scaled = _exact_costs(arr)
    if scaled is None:
        num = arr.astype(float)
        if not np.all(np.isfinite(num)):
            raise ValueError("cost matrix entries must be finite")
        matching = linear_sum_assignment(num)[1].tolist()
    else:
        matching = []
        cols = list(range(k))
        for i in range(k - 1):
            sub = scaled[i:, cols] * len(cols)
            sub[0] += np.arange(len(cols))
            # square problems come back with rows in order, so [1][0] is row i
            matching.append(cols.pop(int(linear_sum_assignment(sub)[1][0])))
        matching.append(cols[0])
    return tuple(matching), sum(row[c] for row, c in zip(arr.tolist(), matching))


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
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # exact swap distance between elections given by _swap_aggregates, with
    # the lexicographically smallest optimal relabeling sigma (candidate c
    # of a to sigma[c] of b) and the solver's voter matching for it.
    # Relabelings are visited best-first by their majority bound, in chunks
    # whose voter cost matrices are built at once and whose bounds are
    # tightened before any assignment is solved.  Only the cells c < d are
    # compared: the cells d > c mirror them.
    (margins_a, signs_a), (margins_b, signs_b) = a, b
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


def check_guard(kind: str, m: int) -> None:
    """Raise ValueError when m exceeds ``GUARDS[kind]``, the candidate guard
    of a search metric; metrics without a guard accept any m."""
    guard = GUARDS.get(kind)
    if guard is not None and m > guard:
        raise ValueError(f"{kind} distance guarded at m <= {guard} (got m={m})")


def _check_same_shape(a: Election, b: Election) -> None:
    if a.m != b.m or a.n != b.n:
        raise ValueError(
            f"elections differ in shape: ({a.m}, {a.n}) vs ({b.m}, {b.n})"
        )


def _discrete_aggregate(election: Election) -> tuple[list[int], list[int], Counter, dict]:
    # the place values of base-m digits, each voter's vote code, the count
    # of each code and the vote behind each code: a sequence's base-m digits
    # are its entries, so codes order like the sequences
    m = election.m
    place = [m ** (m - 1 - k) for k in range(m)]
    codes = [sum(map(operator.mul, v, place)) for v in election.votes]
    return place, codes, Counter(codes), dict(zip(codes, election.votes))


def _discrete_search(a: tuple, b: tuple) -> tuple[int, int]:
    # exact discrete distance between elections given by _discrete_aggregate,
    # with the code of the lexicographically smallest optimal relabeling.
    # The relabeling that maps vote u of a onto vote w of b sends u[k] to
    # w[k], so its code is the sum of w[k] * place[u[k]].  A relabeling maps
    # u onto at most one w, so its overlap sums min(count u, count w) over
    # the pairs (u, w) that give it
    place, codes_a, counts_a, votes_a = a
    _, _, counts_b, votes_b = b
    overlap: dict[int, int] = {}
    for cu, u in votes_a.items():
        weights = [place[c] for c in u]
        for cw, w in votes_b.items():
            code = sum(map(operator.mul, w, weights))
            overlap[code] = overlap.get(code, 0) + min(counts_a[cu], counts_b[cw])
    most = max(overlap.values())
    return len(codes_a) - most, min(code for code, o in overlap.items() if o == most)


def _iso_discrete(a: Election, b: Election) -> DistanceOutcome:
    m, n = a.m, a.n
    agg_a, agg_b = _discrete_aggregate(a), _discrete_aggregate(b)
    value, best = _discrete_search(agg_a, agg_b)
    place, codes_a, _, votes_a = agg_a
    codes_b = agg_b[1]
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
    return DistanceOutcome(value, sigma, tuple(rho))


def iso_distance(a: Election, b: Election, kind: str) -> DistanceOutcome:
    """Exact isomorphic distance, minimizing over candidate and voter matchings.

    kind is "swap" (inversion counts per matched vote pair; m guarded by
    ``GUARDS["swap"]``) or "discrete" (count of unmatched votes; polynomial).
    """
    _check_same_shape(a, b)
    if kind == "swap":
        check_guard("swap", a.m)
        return DistanceOutcome(*_swap_search(_swap_aggregates(a), _swap_aggregates(b)))
    if kind == "discrete":
        return _iso_discrete(a, b)
    raise ValueError(f"unknown isomorphic kind {kind!r}, expected 'swap' or 'discrete'")


def _positionwise_aggregate(x, variant: str) -> np.ndarray:
    # the position matrix of an election, or a given square position or
    # frequency matrix (Fractions stay an object array), cumulated down each
    # column for EMD: the l1 distance of two cumulated columns is their EMD
    pos = position_matrix(x) if isinstance(x, Election) else np.asarray(x)
    if pos.ndim != 2 or pos.shape[0] != pos.shape[1]:
        raise ValueError(f"position matrix must be square, got shape {pos.shape}")
    if variant == "L1":
        return pos
    if (pos < 0).any():
        raise ValueError("EMD needs nonnegative position matrices")
    return np.cumsum(pos, axis=0)


def _column_costs(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # costs[..., c, d] = l1 distance between column c of x and column d of
    # each matrix in ys
    return np.abs(x[:, :, None] - ys[..., :, None, :]).sum(axis=-3)


def positionwise_distance(a, b, variant: str = "EMD") -> DistanceOutcome:
    """Positionwise distance between elections or position/frequency matrices.

    Each candidate contributes the EMD (or l1, per variant) between its two
    position distributions; the reported value is the minimum total over all
    candidate matchings, and the witness the lexicographically smallest
    optimal matching.  Integer inputs give an int, Fraction inputs a
    Fraction.
    """
    v = variant.upper()
    if v not in ("EMD", "L1"):
        raise ValueError(f"unknown variant {variant!r}, expected 'EMD' or 'L1'")
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
    xa, xb = _positionwise_aggregate(a, v), _positionwise_aggregate(b, v)
    if xa.shape != xb.shape:
        raise ValueError(f"matrices differ in size: {len(xa)} vs {len(xb)}")
    if v == "EMD":
        # the last cumulated row holds the column sums, which EMD needs equal
        sums = np.concatenate([xa[-1:], xb[-1:]]).ravel().tolist()
        if not all(_sums_match(s, sums[0]) for s in sums):
            raise ValueError(f"EMD inputs have different column sums {sums}")
    matching, total = solve_assignment(_column_costs(xa, xb))
    return DistanceOutcome(total, matching)


def _majority_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    # the majority matrices of two same-shape elections, or two given
    # square matrices of one size
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
    ma, mb = (
        majority_matrix(x) if isinstance(x, Election) else np.asarray(x, dtype=np.int64)
        for x in (a, b)
    )
    for x in (ma, mb):
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"majority matrix must be square, got shape {x.shape}")
    if ma.shape != mb.shape:
        raise ValueError(f"matrices differ in shape: {ma.shape} vs {mb.shape}")
    return ma, mb


def pairwise_cost_at(a, b, sigma: Sequence[int]) -> int:
    """Sum over ordered candidate pairs of |M_a(c,d) - M_b(sigma c, sigma d)|."""
    ma, mb = _majority_pair(a, b)
    m = ma.shape[0]
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(m)):
        raise ValueError(f"matching must be a permutation of 0..{m - 1}")
    s = np.array(sigma)
    return int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())


def pairwise_distance(a, b) -> DistanceOutcome:
    """Exact pairwise distance: minimum of pairwise_cost_at over all matchings.

    Enumerates every matching with numpy, in lexicographic order, in blocks
    that fix all but the last (at most 7) candidates' images; the witness is
    the lexicographically smallest optimal matching.  m is guarded by
    ``GUARDS["pairwise"]``.
    """
    ma, mb = _majority_pair(a, b)
    check_guard("pairwise", ma.shape[0])
    return DistanceOutcome(*_pairwise_search(ma, mb))


def _pairwise_search(ma: np.ndarray, mb: np.ndarray) -> tuple[int, tuple[int, ...]]:
    # the search of pairwise_distance on two same-size majority matrices
    m = ma.shape[0]
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
    return best, best_sigma


def _sorted_borda_prefix(election: Election) -> np.ndarray:
    # prefix sums of the nonincreasingly sorted Borda vector: the l1
    # distance of two of them is the EMD of the sorted vectors
    return np.cumsum(np.sort(borda_vector(election))[::-1])


def bordawise_distance(a: Election, b: Election) -> DistanceOutcome:
    """EMD between the nonincreasingly sorted Borda score vectors."""
    _check_same_shape(a, b)
    gap = np.abs(_sorted_borda_prefix(a) - _sorted_borda_prefix(b))
    return DistanceOutcome(int(gap.sum()))


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
    """Exact int64 distances of every pair i < j of same-shape elections, in
    ``itertools.combinations`` order.

    Equal to ``distance(dataset[i], dataset[j], kind).value``.  The kind,
    the shapes and the candidate guard are checked up front, with the errors
    of ``distance``.  All six metrics take each election's aggregates once.
    Positionwise and Bordawise compare one election with all later ones by
    broadcasting, positionwise then solving one value-only assignment per
    pair; swap, discrete and pairwise run one search per pair.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}, expected one of {METRIC_KINDS}")
    if dataset:
        for e in dataset[1:]:
            _check_same_shape(dataset[0], e)
        check_guard(kind, dataset[0].m)
    k = len(dataset)
    if k < 2:
        return np.zeros(0, dtype=np.int64)
    if kind == "bordawise":
        prefix = np.stack([_sorted_borda_prefix(e) for e in dataset])
        rows = [np.abs(prefix[i + 1 :] - prefix[i]).sum(axis=1) for i in range(k - 1)]
    elif kind in ("emdpos", "l1pos"):
        variant = "EMD" if kind == "emdpos" else "L1"
        agg = np.stack([_positionwise_aggregate(e, variant) for e in dataset])
        rows = [
            [_assignment_value(c) for c in _column_costs(agg[i], agg[i + 1 :])]
            for i in range(k - 1)
        ]
    else:
        aggregate, search = {
            "swap": (_swap_aggregates, _swap_search),
            "discrete": (_discrete_aggregate, _discrete_search),
            "pairwise": (majority_matrix, _pairwise_search),
        }[kind]
        aggs = [aggregate(e) for e in dataset]
        rows = [[search(aggs[i], aggs[j])[0] for j in range(i + 1, k)] for i in range(k - 1)]
    return np.concatenate([np.asarray(row, dtype=np.int64) for row in rows])
