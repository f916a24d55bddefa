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

Each metric has one table row: its aggregate of one election and its
search of one aggregate against a list of later ones, (value, *witness)
for each.  ``distance`` and ``distance_values`` both dispatch through it.
The searches keep the lexicographically smallest optimal candidate
matching as witness.  Swap visits relabelings best-first by a
majority-matrix bound, building voter cost matrices a chunk at a time:
each vote's preference bits on the candidate pairs, relabeled, pack into
one word, and the inversions between two votes are the popcount of the
XOR of their words, in integers throughout, with no BLAS call.
Pairwise scans all m! matchings with numpy up to 6 candidates and runs a
best-first branch and bound over candidate prefixes from 7 on; at small m
both take a stack of later elections at once.  Discrete sums, in one sort
per row, the votes shared under each relabeling that maps a distinct vote
onto another, coded in base m: int64 while it fits, Python ints beyond.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .elections import (
    GUARDS,
    Election,
    _check_guard,
    _check_permutation,
    _order_table,
    _place_values,
    _preferences,
    _square_matrix,
    _upper_pairs,
    borda_vector,
    majority_matrix,
    position_matrix,
)


def _load_assignment_solver():
    """Return scipy's ``linear_sum_assignment`` without importing ``scipy.optimize``.

    The solver is one compiled extension, ``scipy/optimize/_lsap``, but the
    ``scipy.optimize`` package also imports linalg, sparse, special and fft,
    about 0.5 s of every start.  The extension is loaded from its file and
    taken out of ``sys.modules`` again, so a later ``import scipy.optimize``
    runs as usual and binds the very same function.  A layout with no such
    file, or one that does not load or lacks the solver, takes the package
    import instead, as does a process that has already imported it.
    """
    if "scipy.optimize" in sys.modules:
        return sys.modules["scipy.optimize"].linear_sum_assignment
    name = "scipy.optimize._lsap"
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module_spec = importlib.util.spec_from_file_location(name, path, loader=loader)
            try:
                module = importlib.util.module_from_spec(module_spec)
                loader.exec_module(module)
            except ImportError:
                continue
            finally:
                sys.modules.pop(name, None)
            solver = getattr(module, "linear_sum_assignment", None)
            if solver is not None:
                return solver
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


# the call sites look this name up when they run, so it can be rebound
linear_sum_assignment = _load_assignment_solver()

__all__ = [
    "METRIC_KINDS",
    "DistanceOutcome",
    "vote_swap_distance",
    "vote_discrete_distance",
    "l1",
    "emd",
    "solve_assignment",
    "positionwise_distance",
    "pairwise_cost_at",
    "pairwise_distance",
    "distance",
    "GUARDS",
    "check_guard",
    "check_kind",
    "distance_values",
]

METRIC_KINDS = ("swap", "discrete", "emdpos", "l1pos", "pairwise", "bordawise")

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
    u, v = _check_permutation(u, m, "vote"), _check_permutation(v, m, "vote")
    # each pair ranked oppositely disagrees at (c, d) and at (d, c)
    prefers = _preferences(np.array([u, v], dtype=np.int64))
    return int((prefers[0] != prefers[1]).sum()) // 2


def vote_discrete_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """0 if the votes are identical, 1 otherwise."""
    if len(u) != len(v):
        raise ValueError(f"votes have different lengths {len(u)} and {len(v)}")
    u, v = _check_permutation(u, len(u), "vote"), _check_permutation(v, len(v), "vote")
    return 0 if u == v else 1


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
    arr = _square_matrix(costs, "cost matrix")
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


def _swap_aggregates(election: Election) -> tuple[np.ndarray, np.ndarray]:
    # the int32 majority margins, cell c * m + d holding the voters who
    # prefer c to d less those who prefer d to c (2 M - n off the diagonal,
    # 0 on it), and the uint8 preferences P[v, c * m + d] = 1 when voter v
    # prefers c to d (0 on the diagonal)
    n, m = election.array.shape
    prefers = _preferences(election.array).reshape(n, m * m).view(np.uint8)
    counts = prefers.sum(axis=0, dtype=np.int32).reshape(m, m)
    return (counts - counts.T).ravel(), prefers


@lru_cache(maxsize=None)
def _swap_cells(m: int) -> np.ndarray:
    # for each relabeling tau of _order_table(m), in its order: the flat
    # cells tau c * m + tau d of an m x m matrix for the pairs c < d, padded
    # to 8 * 2**k columns with the diagonal cell of tau 0, whose preference
    # bit and margin are 0, so that a vote's bits pack into one word; a
    # read-only uint8 table, 1.3 MB at m = 8
    perms = _order_table(m).astype(np.uint8)
    first, second = _upper_pairs(m)
    width = 8
    while width < len(first):
        width *= 2
    cells = np.empty((len(perms), width), dtype=np.uint8)
    cells[:] = perms[:, :1] * (m + 1)
    # a column at a time, so that no second table of cells is held at once
    for p, (c, d) in enumerate(zip(first.tolist(), second.tolist())):
        cells[:, p] = perms[:, c] * m + perms[:, d]
    cells.setflags(write=False)
    return cells


# a uint64 whose eight bytes are each 0 or 1, times this, holds byte k's
# value at bit 56 + k, the bits landing on distinct places without carries
_PACK_BYTES = np.uint64(0x0102040810204080)


def _packed_votes(prefs: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # words[..., v, l]: the preference bits of vote v of prefs (of one or a
    # stack of elections) at the l-th relabeling's cells, packed into one
    # unsigned word as np.packbits(..., bitorder="little") packs them on a
    # little-endian machine (the popcounts hold on any), but eight bytes per
    # multiply: packbits takes one call per short row
    lanes = prefs.take(cells, axis=-1).view(np.uint64)
    lanes *= _PACK_BYTES
    lanes >>= np.uint64(56)
    return lanes.astype(np.uint8).view(f"u{lanes.shape[-1]}")[..., 0]


def _voter_costs(bits_a: np.ndarray, prefs_b: np.ndarray, cells: np.ndarray):
    # costs[..., i, j, l]: the inversions between voter i of a relabeled by
    # the l-th relabeling of cells and voter j of b, the popcount of the XOR
    # of their words, as contiguous uint8, for the words bits_a of a at the
    # identity's cells and the preferences prefs_b of one or a stack of
    # elections; and the int64 bounds of their row minima and column
    # minima, which no voter matching beats.  The relabelings run along the
    # last axis, so every reduction takes whole rows of them at a time
    words_b = _packed_votes(prefs_b, cells)
    costs = np.bitwise_count(words_b[..., None, :, :] ^ bits_a[:, None, None])
    relaxed = np.maximum(
        costs.min(axis=-2).sum(axis=-2, dtype=np.int64),
        costs.min(axis=-3).sum(axis=-2, dtype=np.int64),
    )
    return costs, relaxed


# a swap search chunk gathers, per relabeling, n * pairs preference bytes
# and builds n * n uint8 voter costs, at most this many bytes in all (128
# KB), not counting the padding cells or the n * n words the costs are
# counted from; the majority bound pass and the small-m pairwise scan take
# this many cells at a time
_SWAP_CHUNK_ENTRIES = 1 << 17


def _swap_search(
    a: tuple[np.ndarray, np.ndarray], bs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    # exact swap distance between the election of aggregates a (from
    # _swap_aggregates) and each election of aggregates bs, with the
    # lexicographically smallest optimal relabeling sigma (candidate c of a
    # to sigma[c] of b) and the solver's voter matching for it.  Relabelings
    # are visited best-first by their majority bound, in chunks whose voter
    # cost matrices are built at once and whose bounds are tightened before
    # any assignment is solved.  Only the cells c < d are compared: the
    # cells d > c mirror them.
    margins_a, prefs_a = a
    n = prefs_a.shape[0]
    m = math.isqrt(prefs_a.shape[1])
    perms = _order_table(m)
    cells = _swap_cells(m)
    total, width = cells.shape
    pairs = m * (m - 1) // 2
    # the identity comes first among the relabelings
    margins_upper_a = margins_a.take(cells[0])
    bits_a = _packed_votes(prefs_a, cells[:1])[:, 0]
    chunk = max(1, _SWAP_CHUNK_ENTRIES // (n * (pairs + n)))

    def majority_bounds(margins_b, cells):
        # half the l1 distance of the majority matrices, since every
        # disagreeing voter pair forces an inversion: half the l1 distance
        # of the margins over the cells c < d is the same number (the
        # padding cells add 0)
        gathered = margins_b.take(cells, axis=-1)
        gathered -= margins_upper_a
        return np.abs(gathered, out=gathered).sum(axis=-1) // 2

    def visit(costs, tight, ids, best, best_rho):
        # solve the chunk's assignments by (tight bound, index) while they
        # can beat the incumbent (value, index): the smaller pair wins, so
        # among optimal relabelings the lexicographically smallest does
        visit_order = np.lexsort((ids, tight)).tolist()
        tight, ids = tight.tolist(), ids.tolist()
        for t in visit_order:
            if (tight[t], ids[t]) >= best:
                break
            ri, ci = linear_sum_assignment(costs[..., t])
            value = int(costs[ri, ci, t].sum())
            if (value, ids[t]) < best:
                best = (value, ids[t])
                best_rho = ci
        return best, best_rho

    def outcome(best, rho):
        return best[0], tuple(perms[best[1]].tolist()), tuple(rho.tolist())

    unset = (pairs * n + 1, total)
    if total <= chunk:
        # one chunk per election, in index order, whose cells serve its
        # bounds too; a stack of elections shares the chunk budget
        ids = np.arange(total)
        stack = chunk // total
        out = []
        for s in range(0, len(bs), stack):
            group = bs[s : s + stack]
            bounds = majority_bounds(np.stack([b[0] for b in group]), cells)
            costs, relaxed = _voter_costs(bits_a, np.stack([b[1] for b in group]), cells)
            tight = np.maximum(bounds, relaxed)
            for g in range(len(group)):
                out.append(outcome(*visit(costs[g], tight[g], ids, unset, None)))
        return out
    # the bound pass gathers _SWAP_CHUNK_ENTRIES margins at a time; the
    # bounds stay below unset, in the smallest unsigned type, uint16 at
    # moderate n, which a stable argsort sorts by radix
    step = max(1, _SWAP_CHUNK_ENTRIES // width)
    out = []
    for margins_b, prefs_b in bs:
        bounds = np.empty(total, dtype=np.min_scalar_type(unset[0]))
        for s in range(0, total, step):
            bounds[s : s + step] = majority_bounds(margins_b, cells[s : s + step])
        order = np.argsort(bounds, kind="stable")
        best, rho = unset, None
        for start in range(0, total, chunk):
            ids = order[start : start + chunk]
            lb = bounds[ids]
            # (bound, index) ascends along order: the relabelings that can
            # still beat the incumbent form a prefix, empty for all later
            # chunks, and whole in the first, where every pair is below unset
            open_ = (lb < best[0]) | ((lb == best[0]) & (ids < best[1]))
            stop = len(ids) if open_.all() else int(open_.argmin())
            if stop == 0:
                break
            ids, lb = ids[:stop], lb[:stop]
            costs, relaxed = _voter_costs(bits_a, prefs_b, cells[ids])
            best, rho = visit(costs, np.maximum(lb, relaxed), ids, best, rho)
        out.append(outcome(best, rho))
    return out


def check_kind(kind: str) -> None:
    """Raise ValueError unless kind is one of ``METRIC_KINDS``."""
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}, expected one of {METRIC_KINDS}")


def check_guard(kind: str, m: int) -> None:
    """Raise ValueError when m exceeds ``GUARDS[f"{kind} distance"]``, the
    candidate guard of a search metric; metrics without a guard accept any m."""
    if f"{kind} distance" in GUARDS:
        _check_guard(f"{kind} distance", m=m)


def _check_same_shape(a: Election, b: Election) -> None:
    if a.m != b.m or a.n != b.n:
        raise ValueError(f"elections differ in shape: ({a.m}, {a.n}) vs ({b.m}, {b.n})")


def _check_elections(elections: Sequence[Election], kind: str) -> None:
    # the checks every entry point that takes elections makes before its
    # first aggregate, in this order: the kind, that each input is an
    # Election, that all share the first one's shape, and the kind's guard
    check_kind(kind)
    for e in elections:
        if not isinstance(e, Election):
            raise ValueError(f"expected elections, got {type(e).__name__}")
    if elections:
        for e in elections[1:]:
            _check_same_shape(elections[0], e)
        check_guard(kind, elections[0].m)


def _code_places(m: int, largest: int) -> np.ndarray:
    # the base-m place values for codes below largest: int64 while they fit,
    # Python ints after
    return np.array(_place_values(m), dtype=np.int64 if largest < 2**63 else object)


def _vote_types(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the distinct rows of the (n, m) votes in order, with their counts:
    # base-m codes order like the votes
    m = votes.shape[1]
    place = _code_places(m, m**m)
    _, first, counts = np.unique(votes @ place, return_index=True, return_counts=True)
    return votes[first], counts


def _discrete_search(a: tuple, bs: Sequence[tuple]) -> list[tuple[int, tuple[int, ...]]]:
    # exact discrete distance from the election of distinct votes and counts a
    # to each such one of bs, with the lexicographically smallest optimal
    # relabeling.  Mapping vote u onto w has the base-m code w @ place[u], which
    # orders like it, and overlaps min(count u, count w) summed over its (u, w).
    # bs share one sort, m**m apart
    types_a, counts_a = a
    m = types_a.shape[1]
    place = _code_places(m, len(bs) * m**m)
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


def _discrete_voter_matching(a: Election, b: Election, sigma: tuple[int, ...]) -> tuple[int, ...]:
    # the voter matching of discrete under relabeling sigma: by ascending
    # index, voter i of a takes the smallest free voter of b with its
    # relabeled vote; the rest pair up in order
    free_b: dict[tuple[int, ...], list[int]] = {}
    for j in range(b.n - 1, -1, -1):
        free_b.setdefault(b.votes[j], []).append(j)
    rho = [-1] * a.n
    for i, u in enumerate(a.votes):
        stack = free_b.get(tuple(sigma[c] for c in u))
        if stack:
            rho[i] = stack.pop()
    leftover_b = iter(sorted(j for stack in free_b.values() for j in stack))
    return tuple(j if j >= 0 else next(leftover_b) for j in rho)


def _aggregate_pair(a, b, aggregate) -> tuple[np.ndarray, np.ndarray]:
    # the aggregates of two same-shape elections, or of two given matrices,
    # which must come out of one shape
    if isinstance(a, Election) and isinstance(b, Election):
        _check_same_shape(a, b)
    xa, xb = aggregate(a), aggregate(b)
    if xa.shape != xb.shape:
        raise ValueError(f"matrices differ in shape: {xa.shape} vs {xb.shape}")
    return xa, xb


def _positionwise_aggregate(x, variant: str) -> np.ndarray:
    # the position matrix of an election, or a given square position or
    # frequency matrix (Fractions stay an object array), cumulated down each
    # column for EMD: the l1 distance of two cumulated columns is their EMD
    pos = position_matrix(x) if isinstance(x, Election) else _square_matrix(x, "position matrix")
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
    xa, xb = _aggregate_pair(a, b, lambda x: _positionwise_aggregate(x, v))
    if v == "EMD":
        # the last cumulated row holds the column sums, which EMD needs equal
        sums = np.concatenate([xa[-1:], xb[-1:]]).ravel().tolist()
        if not all(_sums_match(s, sums[0]) for s in sums):
            raise ValueError(f"EMD inputs have different column sums {sums}")
    matching, total = solve_assignment(_column_costs(xa, xb))
    return DistanceOutcome(total, matching)


def _majority_aggregate(x) -> np.ndarray:
    # the majority matrix of an election, or a given square majority matrix
    if isinstance(x, Election):
        return majority_matrix(x)
    return _square_matrix(x, "majority matrix", np.int64)


def pairwise_cost_at(a, b, sigma: Sequence[int]) -> int:
    """Sum over ordered candidate pairs of |M_a(c,d) - M_b(sigma c, sigma d)|."""
    ma, mb = _aggregate_pair(a, b, _majority_aggregate)
    s = np.array(_check_permutation(sigma, ma.shape[0], "matching"))
    return int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())


def pairwise_distance(a, b) -> DistanceOutcome:
    """Exact pairwise distance: minimum of pairwise_cost_at over all matchings.

    Up to 6 candidates every matching is scanned at once with numpy, in
    lexicographic order.  From 7 on, a best-first branch and bound fixes
    the images of candidates 0, 1, ... in turn and bounds each prefix by
    the exact cost among its fixed candidates plus one assignment over the
    free ones.  Either way the witness is the lexicographically smallest
    optimal matching.  m is guarded by ``GUARDS["pairwise distance"]``.
    """
    ma, mb = _aggregate_pair(a, b, _majority_aggregate)
    check_guard("pairwise", ma.shape[0])
    return DistanceOutcome(*_pairwise_search(ma, [mb])[0])


# the pairwise search scans every matching up to this many candidates and
# runs the branch and bound above it
_PAIRWISE_SCAN_MAX = 6


def _pairwise_search(
    ma: np.ndarray, mbs: Sequence[np.ndarray]
) -> list[tuple[int, tuple[int, ...]]]:
    # the search of pairwise_distance of one majority matrix against each of
    # several same-size ones: (value, lexmin optimal matching) per matrix
    m = ma.shape[0]
    if m > _PAIRWISE_SCAN_MAX:
        return [_pairwise_branch_and_bound(ma, mb) for mb in mbs]
    perms = _order_table(m)
    # the flat cells (tau r, tau s) of an m x m matrix, r-major, for every
    # matching tau in lexicographic order; rebuilt per call, since a cached
    # copy would stay resident beside the swap search's tables
    cells = (perms[:, :, None] * m + perms[:, None, :]).reshape(len(perms), m * m)
    # the matrices are scanned in stacks of at most _SWAP_CHUNK_ENTRIES cells
    stack = max(1, _SWAP_CHUNK_ENTRIES // max(1, cells.size))
    out = []
    for s in range(0, len(mbs), stack):
        gathered = np.stack(mbs[s : s + stack]).reshape(-1, m * m).take(cells, axis=1)
        gathered -= ma.ravel()
        costs = np.abs(gathered, out=gathered).sum(axis=2)
        # argmin takes the first optimum, the lexicographically smallest
        best = costs.argmin(axis=1)
        values = costs[np.arange(len(best)), best].tolist()
        out.extend(zip(values, map(tuple, perms[best].tolist())))
    return out


@lru_cache(maxsize=None)
def _minor_cells(f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # for an f x f matrix: others[j], the indices 0..f-1 without j, (f, f-1);
    # rows[r], the flat cells of row r without its diagonal cell, (f, f-1);
    # and minors[j, r], the same cells of row r of the matrix without row
    # and column j, (f, f-1, f-2)
    others = [[t for t in range(f) if t != j] for j in range(f)]
    rows = [[r * f + c for c in others[r]] for r in range(f)]
    minors = [[[r * f + c for c in others[j] if c != r] for r in others[j]] for j in range(f)]
    tables = (
        np.array(others, dtype=np.int64).reshape(f, max(f - 1, 0)),
        np.array(rows, dtype=np.int64).reshape(f, max(f - 1, 0)),
        np.array(minors, dtype=np.int64).reshape(f, max(f - 1, 0), max(f - 2, 0)),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _pairwise_branch_and_bound(ma: np.ndarray, mb: np.ndarray) -> tuple[int, tuple[int, ...]]:
    # exact pairwise distance between two square matrices, majority matrices
    # in practice, with the lexicographically smallest optimal matching
    # sigma, by best-first branch and bound.  A node fixes the images of
    # candidates 0..k-1 (its prefix) and sends the free candidates k..m-1 to
    # its free targets.  Its bound is the exact cost among the fixed
    # candidates plus one assignment over the free ones, where cost[i, t] is
    # the exact cost of free candidate i at target t against the prefix (the
    # cells (i, d) and (d, i), d fixed, and (i, i)) plus the l1 distance
    # between the sorted cells of row i among the free candidates and of row
    # t among the free targets, the least l1 distance of any pairing of
    # those cells.  Each ordered pair (c, d) lies in row c only, so no
    # completion of the prefix costs less, and the assignment's own
    # completion is a candidate incumbent.  Nodes are popped by (bound,
    # prefix) and their children made in ascending target order.  A node
    # whose bound exceeds the incumbent's value is pruned; on a tie only
    # when its prefix lies above the incumbent's prefix of the same length,
    # since an equal prefix may still hold a smaller completion.
    m = ma.shape[0]
    # the free candidates, and so their sorted rows, depend on the depth alone
    rows_a = [np.sort(ma[k:, k:].take(_minor_cells(m - k)[1]), axis=1) for k in range(m)]
    best: tuple = (math.inf, ())
    heap: list = []

    def open_(bound, prefix) -> bool:
        return bound < best[0] or (bound == best[0] and prefix <= best[1][: len(prefix)])

    def add(prefixes, fixed, cross, targets, rows_b):
        # bound and complete the nodes given by their prefixes, fixed costs,
        # cross costs (g, f, f), free targets (g, f) and the sorted rows of
        # those targets (g, f, f - 1); push those that stay open and have
        # two free candidates or more
        nonlocal best
        k = len(prefixes[0])
        costs = cross + np.abs(rows_a[k][None, :, None, :] - rows_b[:, None, :, :]).sum(axis=3)
        for g, prefix in enumerate(prefixes):
            ri, ci = linear_sum_assignment(costs[g])
            bound = int(fixed[g] + costs[g][ri, ci].sum())
            if not open_(bound, prefix):
                continue
            sigma = prefix + tuple(targets[g].take(ci).tolist())
            s = np.array(sigma)
            value = int(np.abs(ma - mb[s[:, None], s]).sum())
            if (value, sigma) < best:
                best = (value, sigma)
            if len(ci) > 1:
                heapq.heappush(heap, (bound, prefix, int(fixed[g]), cross[g], targets[g]))

    diagonal = np.abs(np.diag(ma)[:, None] - np.diag(mb)[None, :])
    add([()], np.zeros(1, dtype=np.int64), diagonal[None], np.arange(m)[None],
        np.sort(mb.take(_minor_cells(m)[1]), axis=1)[None])
    while heap:
        bound, prefix, fixed, cross, targets = heapq.heappop(heap)
        if bound > best[0]:
            break
        if not open_(bound, prefix):
            continue
        # child j sends candidate k to targets[j]; sub[j, t] = mb[targets[j], targets[t]]
        k = len(prefix)
        others, rows, minors = _minor_cells(len(targets))
        sub = mb[targets[:, None], targets]
        # step[j, i, t]: the cells (c, k) and (k, c) of free candidate c =
        # k + 1 + i at the t-th target left by child j
        step = np.abs(ma[k + 1 :, k, None] - sub.T.take(rows)[:, None, :])
        step += np.abs(ma[k, k + 1 :, None] - sub.take(rows)[:, None, :])
        add(
            [prefix + (t,) for t in targets.tolist()],
            fixed + cross[0],
            cross[1:].take(others, axis=1).transpose(1, 0, 2) + step,
            targets[others],
            np.sort(sub.take(minors), axis=2),
        )
    return best


def _positionwise_search(x: np.ndarray, ys: Sequence[np.ndarray]) -> list[tuple[int]]:
    # the positionwise value of the aggregate x against each of ys, by one
    # assignment solve each: no witness, so none of solve_assignment's
    # lexmin solves
    out = []
    for costs in _column_costs(x, np.stack(ys)):
        ri, ci = linear_sum_assignment(costs)
        out.append((int(costs[ri, ci].sum()),))
    return out


def _sorted_borda_prefix(election: Election) -> np.ndarray:
    # prefix sums of the nonincreasingly sorted Borda vector: the l1
    # distance of two of them is the EMD of the sorted vectors
    return np.cumsum(np.sort(borda_vector(election))[::-1])


def _bordawise_search(x: np.ndarray, ys: Sequence[np.ndarray]) -> list[tuple[int]]:
    # the l1 distance of the sorted Borda prefix x to each of ys
    return [(v,) for v in np.abs(np.stack(ys) - x).sum(axis=1).tolist()]


def _row(kind: str):
    # the metric's aggregate of one election and its search of one aggregate
    # against a list of later ones, giving (value, *witness) for each.  Built
    # per call, so a module global rebound after import is the one called
    return {
        "swap": (_swap_aggregates, _swap_search),
        "discrete": (lambda e: _vote_types(e.array), _discrete_search),
        "emdpos": (lambda e: _positionwise_aggregate(e, "EMD"), _positionwise_search),
        "l1pos": (lambda e: _positionwise_aggregate(e, "L1"), _positionwise_search),
        "pairwise": (majority_matrix, _pairwise_search),
        "bordawise": (_sorted_borda_prefix, _bordawise_search),
    }[kind]


def distance(a: Election, b: Election, kind: str) -> DistanceOutcome:
    """Distance between two same-shape elections by one of the six metrics,
    with its witness matchings.

    The kind, the inputs and the candidate guard are checked first, with
    the errors of ``distance_values``.  Swap and discrete minimize over
    candidate and voter matchings jointly; the positionwise metrics and
    pairwise over candidate matchings; Bordawise needs no matching.  The
    metric's row search gives the value and witness, except that the
    positionwise metrics take ``positionwise_distance`` for its lexmin
    matching; discrete then matches voters greedily.
    """
    _check_elections((a, b), kind)
    if kind in ("emdpos", "l1pos"):
        return positionwise_distance(a, b, "EMD" if kind == "emdpos" else "L1")
    aggregate, search = _row(kind)
    value, *witness = search(aggregate(a), [aggregate(b)])[0]
    if kind == "discrete":
        witness.append(_discrete_voter_matching(a, b, witness[0]))
    return DistanceOutcome(value, *witness)


def distance_values(dataset: Sequence[Election], kind: str) -> np.ndarray:
    """Exact int64 distances of every pair i < j of same-shape elections, in
    ``itertools.combinations`` order.

    Equal to ``distance(dataset[i], dataset[j], kind).value``.  The kind,
    the inputs and the candidate guard are checked up front, by the check
    ``distance`` makes.  Every metric then takes each election's aggregate
    once and hands election i's with those of all later elections to its
    row search, the one ``distance`` runs: a broadcast for Bordawise, one
    value-only assignment per pair for the positionwise metrics, and for
    discrete one sort of the row's relabeling codes.  Swap, where
    one chunk holds all m! relabelings, and pairwise up to 6 candidates
    take the later elections in stacks: swap's gathers at most 2**17 bytes
    of preference bits and uint8 voter costs at once, pairwise's 2**17
    int64 cells.  At larger m they search each pair on its own.
    """
    _check_elections(dataset, kind)
    if len(dataset) < 2:
        return np.zeros(0, dtype=np.int64)
    aggregate, search = _row(kind)
    aggs = [aggregate(e) for e in dataset]
    values = [found[0] for i in range(len(aggs) - 1) for found in search(aggs[i], aggs[i + 1 :])]
    return np.array(values, dtype=np.int64)
