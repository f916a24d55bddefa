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

Each metric has one table row: its aggregate of one election, how a list
of them stacks, its search of two pair-aligned stacks of aggregates, left
and right, giving (value, *witness) for each pair, and the bytes that
search holds per pair.  ``distance`` passes its pair as stacks of one;
``distance_values`` walks the pairs i < j in blocks of consecutive pairs,
one search per block.
The searches keep the lexicographically smallest optimal candidate
matching as witness.  With majority margins 2 M - n, a matching's pairwise
cost is the l1 distance of the margins over the pairs c < d, and half of
it bounds swap: one kernel, ``_pair_costs``, sums it for every relabeling
of each pair of a block.  Swap visits relabelings best-first by that
bound up to 6 candidates; at 7 and 8 by a tighter one, which adds, for
each triangle of an edge-disjoint packing, the transport between the two
elections' histograms of their voters' orders of its three candidates.
It builds voter cost matrices a chunk at a time:
each vote's preference bits on the candidate pairs, relabeled, pack into
one word, and the inversions between two votes are the popcount of the
XOR of their words, in integers throughout, with no BLAS call.  The
preferences are held cell-major, so the words are gathered a whole voter
row per cell and transposed once before they are packed.  Up to 6
candidates a chunk reads its relabeled cells from one table of all m!
relabelings; at 7 and 8 no search builds that table: the triangle bound
and each chunk read the m x m! byte table of orders in ``elections``,
and a chunk builds the cells of its own relabelings only.  A chunk's
bounds are tightened by the Hungarian method's row and column reduction
of each voter cost matrix before any of its assignments is solved.
Pairwise takes the least of the kernel's sums up to 6 candidates and runs
a best-first branch and bound over candidate prefixes from 7 on; at small
m both take a whole block at once.  Discrete sums, in one sort per block,
the votes shared under each relabeling that maps a distinct vote onto
another, coded in base m: int64 while it fits, Python ints beyond.
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
    _order_columns,
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


def _margins(majority: np.ndarray, n: int) -> np.ndarray:
    # the flat majority margins of a majority matrix of n voters, cell c * m
    # + d holding the voters who prefer c to d less those who prefer d to c
    # (2 M - n off the diagonal, 0 on it), in the narrowest signed type that
    # holds +-2 n, so that two margins subtract in it
    return (majority - majority.T).ravel().astype(np.min_scalar_type(-2 * n - 1))


def _swap_aggregates(election: Election) -> tuple[np.ndarray, np.ndarray]:
    # the majority margins and the uint8 preferences cell-major, P[c * m +
    # d, v] = 1 when voter v prefers c to d (0 on the diagonal), so that a
    # cell's bytes for all voters are one contiguous row
    n, m = election.array.shape
    prefers = np.ascontiguousarray(_preferences(election.array).reshape(n, m * m).T)
    counts = prefers.sum(axis=1, dtype=np.int32).reshape(m, m)
    return _margins(counts, n), prefers.view(np.uint8)


def _relabeled_cells(columns: np.ndarray) -> np.ndarray:
    # for each relabeling tau of the candidate-major columns (m, L) of
    # _order_columns(m), in their order: the flat cells tau c * m + tau d of
    # an m x m matrix for the pairs c < d of _upper_pairs(m), padded to 8 *
    # 2**k columns with the diagonal cell of tau 0, whose preference bit and
    # margin are 0, so that a vote's bits pack into one word
    m = len(columns)
    first, second = _upper_pairs(m)
    width = 8
    while width < len(first):
        width *= 2
    # the table is allocated before its temporaries, so that they are freed
    # above it and do not raise the heap's peak (0.1 MB on the m6 map)
    cells = np.empty((columns.shape[1], width), dtype=np.uint8)
    upper = columns[first] * m
    upper += columns[second]
    cells[:, : len(first)] = upper.T
    cells[:, len(first) :] = (columns[0] * (m + 1))[:, None]
    return cells


@lru_cache(maxsize=None)
def _swap_cells(m: int) -> np.ndarray:
    # _relabeled_cells of every relabeling, a read-only (m!, width) uint8
    # table.  Searches read it up to 6 candidates, where it holds 720 rows
    # at most; at an m of _TRIANGLES it would hold m! rows (1.3 MB at m =
    # 8), and no search builds it there: see _chunk_cells
    cells = _relabeled_cells(_order_columns(m))
    cells.setflags(write=False)
    return cells


def _chunk_cells(m: int, ids) -> np.ndarray:
    # the _swap_cells rows of the relabelings ids, an index array or a
    # slice: read from the table up to 6 candidates, and at an m of
    # _TRIANGLES built from _order_columns(m) for these relabelings alone
    if m in _TRIANGLES:
        return _relabeled_cells(_order_columns(m)[:, ids])
    return _swap_cells(m)[ids]


# a uint64 whose eight bytes are each 0 or 1, times this, holds byte k's
# value at bit 56 + k, the bits landing on distinct places without carries
_PACK_BYTES = np.uint64(0x0102040810204080)


def _packed_votes(prefs: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # words[..., v, l]: the preference bits of vote v of the cell-major
    # prefs (of one or a stack of elections) at the l-th relabeling's
    # cells, packed into one unsigned word as np.packbits(...,
    # bitorder="little") packs them on a little-endian machine (the
    # popcounts hold on any).  The gather copies a whole row of n voter
    # bytes per cell, one transpose puts each vote's cells side by side,
    # and one multiply packs eight bytes: packbits takes one call per row
    gathered = prefs.take(cells, axis=-2)
    lanes = np.ascontiguousarray(gathered.swapaxes(-1, -3).swapaxes(-1, -2)).view(np.uint64)
    lanes *= _PACK_BYTES
    lanes >>= np.uint64(56)
    return lanes.astype(np.uint8).view(f"u{lanes.shape[-1]}")[..., 0]


def _popcounts(words: np.ndarray) -> np.ndarray:
    # the set bits of each unsigned word, as uint8.  numpy has no fast
    # count of 16-bit words (55 against 18 us on a 12 x 12 x 404 chunk,
    # numpy 2.4 on x86-64), so those are counted a byte at a time and the
    # two counts added by one multiply: the high byte of (low + 256 high) *
    # 0x0101 is low + high, which is below 256
    if words.dtype != np.uint16:
        return np.bitwise_count(words)
    counts = np.bitwise_count(words.view(np.uint8)).view(np.uint16)
    counts *= np.uint16(0x0101)
    counts >>= np.uint16(8)
    return counts.astype(np.uint8)


def _voter_costs(bits_a: np.ndarray, prefs_b: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # costs[..., i, j, l]: the inversions between voter i of a relabeled by
    # the l-th relabeling of cells and voter j of b, the popcount of the XOR
    # of their words, as contiguous uint8, for the words bits_a (..., n) of
    # a at the identity's cells and the cell-major preferences prefs_b of b,
    # one election each or pair-aligned stacks, or one a against a stack of
    # b.  The relabelings run along the last axis, so every reduction of the
    # bounds below takes whole rows of them at a time
    words_b = _packed_votes(prefs_b, cells)
    return _popcounts(words_b[..., None, :, :] ^ bits_a[..., :, None, None])


def _reduced_bounds(costs: np.ndarray) -> np.ndarray:
    # the int64 bound of each of the voter cost matrices costs[..., i, j, l]
    # by the Hungarian method's reduction: the row minima plus the column
    # minima of what is left, or the column minima plus the row minima of
    # what is left, whichever is larger.  Each sum is the value of a
    # feasible dual of the assignment, so no voter matching beats it, and it
    # is never below the larger of the row-minima and column-minima sums.
    # A minimum is at most its cells, so the uint8 differences do not wrap
    bounds = []
    for first, then in ((-2, -3), (-3, -2)):
        minima = costs.min(axis=first, keepdims=True)
        rest = (costs - minima).min(axis=then)
        bounds.append(minima.sum(axis=(-3, -2), dtype=np.int64) + rest.sum(axis=-2, dtype=np.int64))
    return np.maximum(*bounds)


# a swap search chunk gathers, per relabeling, n * pairs preference bytes
# and builds n * n uint8 voter costs, at most this many bytes in all (128
# KB), not counting the padding cells or the n * n words the costs are
# counted from; _pair_costs gathers at most this many margins at a time
_SWAP_CHUNK_ENTRIES = 1 << 17


def _pair_costs(margins_a: np.ndarray, margins_b: np.ndarray) -> np.ndarray:
    # costs[..., l]: the sum over the pairs c < d of |margin_a(c, d) -
    # margin_b(tau c, tau d)| for the l-th relabeling tau, column l of
    # _order_columns(m), for the flat margins (from _margins) of elections a
    # and b of as many voters, one each or pair-aligned stacks, or one a
    # against a stack of b.  As M(d, c) = n - M(c, d), it is the pairwise
    # cost of tau, and twice swap's majority bound: every disagreeing voter
    # pair forces an inversion.  The margins are gathered
    # pair-major, so that the sum over the pairs adds whole rows, in slices
    # of at most _SWAP_CHUNK_ENTRIES margins, and summed in int32 while they
    # fit int16, in int64 beyond
    m = math.isqrt(margins_a.shape[-1])
    pairs = m * (m - 1) // 2
    cells = _swap_cells(m)[:, :pairs].T
    upper_a = margins_a.take(cells[:, :1], axis=-1)
    total = np.int32 if margins_a.itemsize <= 2 else np.int64
    sums = np.empty(margins_b.shape[:-1] + (cells.shape[1],), dtype=total)
    elections = margins_b.size // margins_b.shape[-1]
    step = max(1, _SWAP_CHUNK_ENTRIES // max(1, pairs * elections))
    for s in range(0, cells.shape[1], step):
        gathered = margins_b.take(cells[:, s : s + step], axis=-1)
        gathered -= upper_a
        sums[..., s : s + step] = np.abs(gathered, out=gathered).sum(axis=-2, dtype=total)
    return sums


# edge-disjoint packings of candidate triangles x < y < z, by m, for swap's
# triangle bound: the Fano plane at m = 7, and at m = 8 eight triangles
# that leave the pairs 07, 16, 23 and 45
_TRIANGLES = {
    7: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
    8: ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 7), (2, 4, 6), (2, 5, 7), (3, 6, 7)),
}

# a vote's preference bits on the pairs (x, y), (x, z) and (y, z), read as
# 4 xy + 2 xz + yz, name its order of x, y, z (2 and 5 are cyclic, no
# order).  Around this cycle each step flips one bit, an adjacent
# transposition, so swap distance on three candidates is distance on it
_HEXAGON = (7, 6, 4, 0, 1, 3)


def _triple_histograms(prefs: np.ndarray, x, y, z) -> np.ndarray:
    # hist[..., k, t]: the voters of the cell-major prefs (of one or a stack
    # of elections) whose order of the candidates x[t], y[t], z[t] is the
    # k-th of _HEXAGON, in int32, for index arrays x, y, z of one length
    m = math.isqrt(prefs.shape[-2])
    slots = prefs.take(x * m + y, axis=-2) << 2
    slots |= prefs.take(x * m + z, axis=-2) << 1
    slots |= prefs.take(y * m + z, axis=-2)
    return np.stack([(slots == k).sum(axis=-1, dtype=np.int32) for k in _HEXAGON], axis=-2)


@lru_cache(maxsize=None)
def _packing(m: int) -> tuple[np.ndarray, np.ndarray]:
    # _TRIANGLES[m] as its candidates x, y, z (3, triangles), and the pairs
    # c < d it leaves, in _upper_pairs order, as c, d (2, pairs left)
    first, second = _upper_pairs(m)
    triangles = np.array(_TRIANGLES[m]).T
    covered = {pair for x, y, z in _TRIANGLES[m] for pair in ((x, y), (x, z), (y, z))}
    leftover = [pair for pair in zip(first.tolist(), second.tolist()) if pair not in covered]
    leftover = np.array(leftover, dtype=np.intp).reshape(-1, 2).T
    for arr in (triangles, leftover):
        arr.setflags(write=False)
    return triangles, leftover


def _sorted_three(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the least, middle and most of the three entries along axis -3 of x
    least, most = x.min(axis=-3), x.max(axis=-3)
    return least, x.sum(axis=-3) - least - most, most


def _triangle_bounds(a: tuple[np.ndarray, np.ndarray], margins_b: np.ndarray,
                     prefs_b: np.ndarray) -> np.ndarray:
    # bounds[..., l]: swap's triangle bound of the l-th relabeling tau,
    # column l of _order_columns(m), from the election of aggregates a (from
    # _swap_aggregates) to the election of margins margins_b and cell-major
    # preferences prefs_b, one each or pair-aligned stacks, or one a against
    # a stack of b, at an m of _TRIANGLES, in the
    # narrowest unsigned type that holds pairs * n + 1.  For each triangle
    # x, y, z of the packing it adds the earth mover's distance between a's
    # histogram of its voters' orders of x, y, z and b's of tau x, tau y,
    # tau z on the hexagon, which every voter matching pays at least on the
    # triangle's three pairs; each pair the packing leaves adds its majority
    # term, half its margin difference.  On a cycle the transport is the
    # least over c of the sum of |F_k - c| over the cumulative differences
    # F_k around it: the three largest less the three smallest.  With F_0..2
    # and F_3..5 each sorted, the pairs (k-th of the first, (2 - k)-th of
    # the second) split the six into those two halves, so it is the sum of
    # the pairs' absolute differences.  The transports of b's ordered
    # triples p, q, r form one table, cell p m m + q m + r, which each
    # triangle reads at tau x m m + tau y m + tau z, from the rows of
    # _order_columns(m)
    margins_a, prefs_a = a
    n = prefs_a.shape[-1]
    m = math.isqrt(prefs_a.shape[-2])
    dtype = np.min_scalar_type(m * (m - 1) // 2 * n + 1)
    triangles, leftover = _packing(m)
    every = np.arange(m**3)
    cum_a = np.cumsum(_triple_histograms(prefs_a, *triangles), axis=-2, dtype=np.int32)
    hist_b = _triple_histograms(prefs_b, every // (m * m), every // m % m, every % m)
    flows = np.cumsum(hist_b, axis=-2, dtype=np.int32)[..., None, :] - cum_a[..., None]
    first, second = _sorted_three(flows[..., :3, :, :]), _sorted_three(flows[..., 3:, :, :])
    transports = sum(np.abs(x - y) for x, y in zip(first, second[::-1])).astype(dtype)
    upper_a = margins_a.take(leftover[0] * m + leftover[1], axis=-1)
    terms = (np.abs(margins_b[..., None, :] - upper_a[..., None]) // 2).astype(dtype)
    columns = _order_columns(m)
    bounds = np.zeros(margins_b.shape[:-1] + (columns.shape[1],), dtype=dtype)
    for t, (x, y, z) in enumerate(triangles.T.tolist()):
        index = columns[x].astype(np.uint16)
        index *= m
        index += columns[y]
        index *= m
        index += columns[z]
        bounds += transports[..., t, :].take(index, axis=-1)
    for k, (c, d) in enumerate(leftover.T.tolist()):
        index = columns[c] * m
        index += columns[d]
        bounds += terms[..., k, :].take(index, axis=-1)
    return bounds


def _swap_bounds(a: tuple[np.ndarray, np.ndarray], margins_b: np.ndarray,
                 prefs_b: np.ndarray) -> np.ndarray:
    # swap's bound of every relabeling from the election of aggregates a to
    # the election of margins_b and prefs_b, as _triangle_bounds takes them:
    # the triangle bound over _TRIANGLES[m] at an m of _TRIANGLES, else the
    # majority bound, half the _pair_costs
    if math.isqrt(a[0].shape[-1]) in _TRIANGLES:
        return _triangle_bounds(a, margins_b, prefs_b)
    return _pair_costs(a[0], margins_b) // 2


def _swap_search(
    left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    # exact swap distance between the elections of aggregates (from
    # _swap_aggregates) left and right, stacked pair by pair, with the
    # lexicographically smallest optimal relabeling sigma (candidate c of
    # the left election to sigma[c] of the right one) and the solver's
    # voter matching for it.  Relabelings are visited best-first by
    # _swap_bounds: at an m of _TRIANGLES the triangle bound over the
    # packing _TRIANGLES[m], below it the majority bound.  Every voter
    # matching pays at least each triangle's transport on its three pairs,
    # and each transport is at least its pairs' majority terms, so both lie
    # between the majority bound and the optimum and the values and
    # witnesses do not depend on which is taken.  The relabelings go in
    # chunks whose voter cost matrices are built at once and whose bounds
    # are tightened by _reduced_bounds before any assignment is solved.
    # Only the cells c < d are compared: the cells d > c mirror them.
    margins_a, prefs_a = left
    margins_b, prefs_b = right
    n = prefs_a.shape[-1]
    m = math.isqrt(prefs_a.shape[-2])
    columns = _order_columns(m)
    total = columns.shape[1]
    pairs = m * (m - 1) // 2
    # the identity comes first among the relabelings
    bits_a = _packed_votes(prefs_a, _chunk_cells(m, slice(1)))[..., 0]
    chunk = max(1, _SWAP_CHUNK_ENTRIES // (n * (pairs + n)))

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
            ri, ci = linear_sum_assignment(costs[..., cols[t]])
            value = int(costs[ri, ci, cols[t]].sum())
            if (value, ids[t]) < best:
                best, best_rho = (value, ids[t]), ci
        return best, best_rho

    def outcomes(found, rhos):
        # the (value, sigma, rho) of each incumbent (value, index) and its
        # voter matching, the witness rows read in one pass
        sigmas = columns[:, [index for _, index in found]].T.tolist()
        return [(value, tuple(sigma), tuple(rho))
                for (value, _), sigma, rho in zip(found, sigmas, rhos)]

    unset = (pairs * n + 1, total)
    if total <= chunk:
        # one chunk per pair, in index order, whose cells serve its bounds
        # too, for all the pairs at once.  Each pair's first relabeling by
        # (tight bound, index), its first least bound, is solved in one pass
        # over the pairs.  A pair whose value meets its bound is settled;
        # for the rest that bound becomes the value, so that the incumbent
        # is not solved again, and the chunk is visited
        ids, voters = np.arange(total), np.arange(n)
        bounds = _swap_bounds(left, margins_b, prefs_b)
        costs = _voter_costs(bits_a, prefs_b, _chunk_cells(m, slice(None)))
        tight = np.maximum(bounds, _reduced_bounds(costs))
        rows = np.arange(len(tight))
        firsts = tight.argmin(axis=-1)
        first_costs = costs[rows, :, :, firsts]
        rho = np.array([linear_sum_assignment(c)[1] for c in first_costs])
        values = first_costs[rows[:, None], voters, rho].sum(axis=1, dtype=np.int64)
        found = list(zip(values.tolist(), firsts.tolist()))
        rhos = rho.tolist()
        for g in (values > tight[rows, firsts]).nonzero()[0].tolist():
            tight[g, firsts[g]] = values[g]
            found[g], best_rho = visit(costs[g], tight[g], ids, found[g], rho[g])
            rhos[g] = best_rho.tolist()
        return outcomes(found, rhos)
    # the bounds stay below unset, in the smallest unsigned type, uint16 at
    # moderate n, which a stable argsort sorts by radix
    found, rhos = [], []
    for p in range(len(margins_a)):
        bounds = _swap_bounds((margins_a[p], prefs_a[p]), margins_b[p], prefs_b[p])
        bounds = bounds.astype(np.min_scalar_type(unset[0]), copy=False)
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
            costs = _voter_costs(bits_a[p], prefs_b[p], _chunk_cells(m, ids))
            best, rho = visit(costs, np.maximum(lb, _reduced_bounds(costs)), ids, best, rho)
        found.append(best)
        rhos.append(rho.tolist())
    return outcomes(found, rhos)


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


def _discrete_search(left: np.ndarray, right: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    # exact discrete distance between the elections of distinct votes and
    # counts (from _vote_types) left and right, object arrays of them
    # stacked pair by pair, with the lexicographically smallest optimal
    # relabeling.  Mapping vote u onto w has the base-m code w @ place[u],
    # which orders like it, and overlaps min(count u, count w) summed over
    # its (u, w).  The pairs share one sort, pair p's codes offset by p
    # m**m; a run of pairs with one left election takes one product, as the
    # rows of a distance matrix do.  All the elections have n voters
    m = left[0][0].shape[1]
    place = _code_places(m, len(left) * m**m)
    starts = [p for p in range(len(left)) if p == 0 or left[p] is not left[p - 1]]
    # per run: its pairs p..q-1, its left aggregate, the right ones, and its
    # codes' (rows, columns) cut of one flat array, rows of the right votes
    runs, size = [], 0
    for p, q in zip(starts, starts[1:] + [len(left)]):
        rows = sum(len(b[1]) for b in right[p:q])
        width = len(left[p][1])
        runs.append((p, q, left[p], right[p:q], slice(size, size + rows * width), (rows, width)))
        size += rows * width
    codes = np.empty(size, dtype=place.dtype)
    for p, q, (types_a, _), bs, cut, shape in runs:
        out = codes[cut].reshape(shape)
        np.matmul(np.concatenate([b[0] for b in bs]), place[types_a].T, out=out)
        out += np.repeat(np.arange(p, q).astype(place.dtype) * m**m, [len(b[1]) for b in bs])[:, None]
    keys, inverse = np.unique(codes, return_inverse=True)
    del codes
    pairs = np.empty(size, dtype=np.int64)
    for _, _, (_, counts_a), bs, cut, shape in runs:
        np.minimum.outer(np.concatenate([b[1] for b in bs]), counts_a, out=pairs[cut].reshape(shape))
    overlap = np.bincount(inverse, pairs).astype(np.int64)
    owner = (keys // m**m).astype(np.int64)
    most = np.maximum.reduceat(overlap, np.searchsorted(owner, np.arange(len(left))))
    # the least code of most overlap: each pair's first among its ties
    ties = np.flatnonzero(overlap == most[owner])
    best = ties[np.searchsorted(owner[ties], np.arange(len(left)))]
    sigmas = keys[best, None] % m**m // place % m
    n = left[0][1].sum()
    return list(zip((n - most).tolist(), map(tuple, sigmas.tolist())))


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
    # ys, one matrix each or pair-aligned stacks, or one x against a stack
    # of ys
    differences = x[..., None] - ys[..., None, :]
    return np.abs(differences, out=differences).sum(axis=-3)


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
    s = np.array(_check_permutation(sigma, ma.shape[0], "matching"), dtype=np.int64)
    return int(np.abs(ma - mb[s[:, None], s[None, :]]).sum())


def pairwise_distance(a, b) -> DistanceOutcome:
    """Exact pairwise distance: minimum of pairwise_cost_at over all matchings.

    A best-first branch and bound fixes the images of candidates 0, 1, ...
    in turn and bounds each prefix by the exact cost among its fixed
    candidates plus one assignment over the free ones.  It takes any square
    integer matrices, at every m; its witness is the lexicographically
    smallest optimal matching.  m is guarded by ``GUARDS["pairwise
    distance"]``.
    """
    ma, mb = _aggregate_pair(a, b, _majority_aggregate)
    check_guard("pairwise", ma.shape[0])
    return DistanceOutcome(*_pairwise_branch_and_bound(ma, mb))


# the pairwise search scans every matching up to this many candidates and
# runs the branch and bound above it
_PAIRWISE_SCAN_MAX = 6


def _pairwise_search(left: np.ndarray, right: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    # the pairwise distance between the elections of flat margins (from
    # _margins) left and right, stacked pair by pair: (value, lexmin optimal
    # matching) per pair.  A matching's pairwise cost is its _pair_costs,
    # whose first least entry gives the lexmin witness.  Above
    # _PAIRWISE_SCAN_MAX the branch and bound runs on the m x m margins of
    # each pair, where every cost and bound is twice the one on the majority
    # matrices, so that it solves the same assignments to the same witness
    m = math.isqrt(left.shape[-1])
    if m > _PAIRWISE_SCAN_MAX:
        squares = zip(*(x.reshape(-1, m, m).astype(np.int64) for x in (left, right)))
        found = [_pairwise_branch_and_bound(ma, mb) for ma, mb in squares]
        return [(value // 2, sigma) for value, sigma in found]
    costs = _pair_costs(left, right)
    best = costs.argmin(axis=1)
    values = costs[np.arange(len(best)), best].tolist()
    return list(zip(values, map(tuple, _order_columns(m)[:, best].T.tolist())))


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
    # or margins in practice, with the lexicographically smallest optimal
    # matching sigma, by best-first branch and bound.  A node fixes the
    # images of candidates 0..k-1 (its prefix) and sends the free candidates
    # k..m-1 to its free targets.  Its bound is the exact cost among the fixed
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
    if m == 0:
        return 0, ()
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


def _positionwise_search(left: np.ndarray, right: np.ndarray) -> list[tuple[int]]:
    # the positionwise value of each pair of the pair-aligned stacks of
    # aggregates left and right, by one assignment solve each: no witness,
    # so none of solve_assignment's lexmin solves.  A square solve gives its
    # rows in order, so each pair's columns are all it keeps, and the
    # values are one gather
    costs = _column_costs(left, right)
    columns = np.array([linear_sum_assignment(c)[1] for c in costs])
    values = np.take_along_axis(costs, columns[:, :, None], axis=2).sum(axis=(1, 2))
    return [(v,) for v in values.tolist()]


def _sorted_borda_prefix(election: Election) -> np.ndarray:
    # prefix sums of the nonincreasingly sorted Borda vector: the l1
    # distance of two of them is the EMD of the sorted vectors
    return np.cumsum(np.sort(borda_vector(election))[::-1])


def _bordawise_search(left: np.ndarray, right: np.ndarray) -> list[tuple[int]]:
    # the l1 distance of each pair of the pair-aligned stacks of sorted Borda
    # prefixes left and right
    return [(v,) for v in np.abs(left - right).sum(axis=1).tolist()]


def _stack_parts(aggregates: list) -> tuple:
    # tuple aggregates, swap's, as one stack per part
    return tuple(map(np.stack, zip(*aggregates)))


def _object_stack(aggregates: list) -> np.ndarray:
    # aggregates whose shapes differ between elections, discrete's, as an
    # object array: a block takes them by index as the same objects
    return np.fromiter(aggregates, dtype=object, count=len(aggregates))


def _swap_pair_bytes(stack, first, second) -> int:
    # the voter costs and gathered preference bits of all m! relabelings,
    # the measure of a swap chunk
    n = stack[1].shape[-1]
    m = math.isqrt(stack[1].shape[-2])
    return math.factorial(m) * n * (m * (m - 1) // 2 + n)


def _discrete_pair_bytes(stack, first, second) -> np.ndarray:
    # one int64 relabeling code per pair of distinct votes
    types = np.array([len(counts) for _, counts in stack])
    return 8 * types[first] * types[second]


def _positionwise_pair_bytes(stack, first, second) -> int:
    # the pair's two int64 matrices and their m**3 column differences
    m = stack.shape[-1]
    return 8 * (m**3 + 2 * m * m)


def _row(kind: str):
    # the metric's aggregate of one election; how a list of them stacks;
    # its search of two pair-aligned stacks, left and right, giving (value,
    # *witness) for each pair; and the bytes of the arrays that search
    # builds per pair, its stacks included, from the stack of a dataset and
    # the pairs' indices into it (pairwise: the sums of all m! matchings;
    # Bordawise: two prefixes and their difference).  Built per call, so a
    # module global rebound after import is the one called
    return {
        "swap": (_swap_aggregates, _stack_parts, _swap_search, _swap_pair_bytes),
        "discrete": (lambda e: _vote_types(e.array), _object_stack, _discrete_search,
                     _discrete_pair_bytes),
        "emdpos": (lambda e: _positionwise_aggregate(e, "EMD"), np.stack, _positionwise_search,
                   _positionwise_pair_bytes),
        "l1pos": (lambda e: _positionwise_aggregate(e, "L1"), np.stack, _positionwise_search,
                  _positionwise_pair_bytes),
        "pairwise": (lambda e: _margins(majority_matrix(e), e.n), np.stack, _pairwise_search,
                     lambda stack, *_: 4 * math.factorial(math.isqrt(stack.shape[-1]))),
        "bordawise": (_sorted_borda_prefix, np.stack, _bordawise_search,
                      lambda stack, *_: 24 * stack.shape[-1]),
    }[kind]


def _take(stack, ids):
    # the entries ids of a stack, of each part of a tuple stack
    if isinstance(stack, tuple):
        return tuple(part[ids] for part in stack)
    return stack[ids]


def _pair_blocks(sizes, first: np.ndarray) -> list[slice]:
    # the pairs i < j, whose first elections are first, cut into blocks of
    # consecutive pairs, at least one each, whose bytes (sizes, per pair or
    # one for all) sum to at most the larger of _SWAP_CHUNK_ENTRIES and the
    # largest row's, the pairs of one first election
    sizes = np.broadcast_to(np.asarray(sizes, dtype=np.int64), first.shape)
    ends = np.cumsum(sizes)
    limit = max(_SWAP_CHUNK_ENTRIES, int(np.bincount(first, sizes).max()))
    blocks, start = [], 0
    while start < len(ends):
        reach = (ends[start - 1] if start else 0) + limit
        stop = max(start + 1, int(np.searchsorted(ends, reach, side="right")))
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def distance(a: Election, b: Election, kind: str) -> DistanceOutcome:
    """Distance between two same-shape elections by one of the six metrics,
    with its witness matchings.

    The kind, the inputs and the candidate guard are checked first, with
    the errors of ``distance_values``.  Swap and discrete minimize over
    candidate and voter matchings jointly; the positionwise metrics and
    pairwise over candidate matchings; Bordawise needs no matching.  The
    metric's search, handed the pair as stacks of one, gives the value and
    witness, except that the positionwise metrics take
    ``positionwise_distance`` for its lexmin matching; discrete then
    matches voters greedily.
    """
    _check_elections((a, b), kind)
    if kind in ("emdpos", "l1pos"):
        return positionwise_distance(a, b, "EMD" if kind == "emdpos" else "L1")
    aggregate, stack, search, _ = _row(kind)
    value, *witness = search(stack([aggregate(a)]), stack([aggregate(b)]))[0]
    if kind == "discrete":
        witness.append(_discrete_voter_matching(a, b, witness[0]))
    return DistanceOutcome(value, *witness)


def distance_values(dataset: Sequence[Election], kind: str) -> np.ndarray:
    """Exact int64 distances of every pair i < j of same-shape elections, in
    ``itertools.combinations`` order.

    Equal to ``distance(dataset[i], dataset[j], kind).value``.  The kind,
    the inputs and the candidate guard are checked up front, by the check
    ``distance`` makes.  Every metric then takes each election's aggregate
    once, stacks them, and walks the pairs in order, in blocks of
    consecutive pairs: each block's left and right aggregates, taken from
    the stack pair by pair, go to the metric's search, the one ``distance``
    runs, in one call.  A block holds as many pairs as the search's
    temporaries for them fit in 2**17 bytes, or in the largest row's, the
    pairs of one first election, when that is more: k - 1 pairs at least
    where all pairs weigh the same, as all but discrete's do.  In one pass
    over a block Bordawise takes a broadcast, the positionwise metrics one
    cost build and one value-only assignment per pair, and discrete one
    sort of the pairs' relabeling codes.  Swap, where one chunk holds all m!
    relabelings, and pairwise up to 6 candidates search a block at once:
    swap gathers preference bits and builds uint8 voter costs for all its
    pairs, and pairwise gathers at most 2**17 majority margins at a time.
    At larger m they search each pair on its own.  Swap visits relabelings
    by a lower bound on each one's voter assignment: up to 6 candidates
    the majority bound, half the pairwise cost; at 7 and 8 the sum, over
    an edge-disjoint packing of candidate triangles, of the least
    inversions any voter matching makes on each triangle's three pairs,
    plus the majority term of each pair left.  Up to 6 candidates swap
    reads each chunk's cells from one cached table of all m! relabelings
    (720 rows at most); at 7 and 8 it reads only the m x m! table of the
    orders (322 KB at m = 8), from which the bound reads and each chunk
    builds its own cells.
    """
    _check_elections(dataset, kind)
    k = len(dataset)
    values = np.zeros(k * (k - 1) // 2, dtype=np.int64)
    if k < 2:
        return values
    aggregate, stack, search, pair_bytes = _row(kind)
    aggregates = stack([aggregate(e) for e in dataset])
    first, second = _upper_pairs(k)
    for block in _pair_blocks(pair_bytes(aggregates, first, second), first):
        found = search(_take(aggregates, first[block]), _take(aggregates, second[block]))
        values[block] = [outcome[0] for outcome in found]
    return values
