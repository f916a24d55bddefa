"""Equivalence-class census, correlations, compass closed forms,
realizability checks, and intrinsic path constructions."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .elections import (
    COMPASS_KINDS,
    Election,
    _anchored_codes,
    _check_compass,
    _check_guard,
    _check_positive,
    _integers,
    _order_columns,
    _positions,
    _preferences,
    _square_matrix,
    _upper_pairs,
    all_orders,
    compass_election,
    position_matrix,
)
from .mapping import DistanceMatrix, distance_matrix
from .metrics import (
    METRIC_KINDS,
    _check_elections,
    check_kind,
    distance_values,
    linear_sum_assignment,
    positionwise_distance,
)

@dataclass(frozen=True)
class CensusReport:
    """Counts of equivalence classes among all ANECs of a given shape."""

    m: int
    n: int
    anec_count: int
    positionwise_classes: int
    pairwise_classes: int
    bordawise_classes: int

    def to_csv_row(self) -> str:
        return (
            f"{self.m},{self.n},{self.anec_count},{self.positionwise_classes},"
            f"{self.pairwise_classes},{self.bordawise_classes}"
        )


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson and Spearman coefficients between two metrics on a dataset.

    A coefficient is None when one side has zero variance, which makes it
    undefined rather than NaN.
    """

    pair: tuple[str, str]
    pearson: Optional[float]
    spearman: Optional[float]
    pair_count: int

    def to_csv_row(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return "undefined" if v is None else f"{v:.6f}"

        return (
            f"{self.pair[0]},{self.pair[1]},{fmt(self.pearson)},"
            f"{fmt(self.spearman)},{self.pair_count}"
        )


@dataclass(frozen=True)
class IntrinsicPath:
    """A chain of position matrices whose consecutive distances are all the
    metric's smallest nonzero value."""

    steps: tuple[np.ndarray, ...]
    step_distance: int
    total: int

    def elections(self) -> list[Election]:
        return [recover_election(p) for p in self.steps]


def check_census_guard(m: int, n: int) -> None:
    """Raise ValueError unless m and n are positive and within the census guard."""
    _check_positive(m, n)
    _check_guard("census", m=m, n=n)


def _anec_rows(m: int, n: int) -> np.ndarray:
    # one row per ANEC, in lexicographic order: the representative's votes
    # as nondecreasing indices into all_orders(m).
    #
    # The smallest relabeled multiset of a class contains the identity
    # order, index 0, so every representative starts with it.  A relabeling
    # keeps index 0 first only if it sends some vote u to the identity, so
    # the inverses of the row's own votes are the only relabelings that can
    # produce a smaller multiset: n checks per row instead of m!.
    check_census_guard(m, n)
    table = _order_columns(m).T
    k = len(table)
    rows = np.zeros((1, 1), dtype=np.int64)
    for _ in range(n - 1):
        # extend each row by every index from its last one up to k - 1
        last = rows[:, -1]
        counts = k - last
        offsets = np.repeat(last - np.cumsum(counts) + counts, counts)
        rows = np.column_stack(
            (np.repeat(rows, counts, axis=0), np.arange(counts.sum()) + offsets)
        )
    # codes[r, i] is row r's multiset relabeled by the inverse of its vote
    # i; vote 0, the identity, gives the row's own multiset.  Keep the rows
    # that no anchored relabeling makes lexicographically smaller (int32
    # holds the codes in half the memory of int64)
    pos = _positions(table).astype(np.int32)[rows]
    codes = _anchored_codes(pos, pos)
    diff = codes - codes[:, :1]
    first = (diff != 0).argmax(axis=2)
    lead = np.take_along_axis(diff, first[..., None], axis=2)
    return rows[(lead >= 0).all(axis=(1, 2))]


def enumerate_anecs(m: int, n: int) -> Iterator[Election]:
    """A generator of one representative per anonymous-neutral equivalence
    class, each the lexicographically smallest vote multiset of its class,
    in lexicographic order; the guard is checked, and the classes found, on
    the call."""
    rows = _anec_rows(m, n)
    table = _order_columns(m).T
    return (Election(m, table[row]) for row in rows)


def count_equivalence_classes(m: int, n: int) -> CensusReport:
    """Census of ANECs and of the coarser positionwise, pairwise, and
    Bordawise equivalence classes."""
    rows = _anec_rows(m, n)
    table = _order_columns(m).T.astype(np.int64)
    # per-order tables summed over each row's votes: each vote adds
    # (n+1)**position to a candidate's column code (its position counts as
    # base-(n+1) digits) and the indicator of c above d to the majority
    # matrix, whose row sums are the Borda scores
    columns = ((n + 1) ** _positions(table))[rows].sum(axis=1)
    majority = _preferences(table).reshape(len(table), m * m)[rows].sum(axis=1)
    borda = majority.reshape(len(rows), m, m).sum(axis=2)
    # the cells c < d fix a majority matrix, as cells[c, d] + cells[d, c]
    # = n; their base-(n+1) code, minimized over relabelings, names its
    # class.  digits[s] weighs the cells (s c, s d) of relabeling s
    first, second = _upper_pairs(m)
    relabeled = table[:, first] * m + table[:, second]
    digits = np.zeros((len(table), m * m), dtype=np.int64)
    np.put_along_axis(digits, relabeled, (n + 1) ** np.arange(relabeled.shape[1]), axis=1)
    pair_keys = (majority @ digits.T).min(axis=1)

    def distinct(keys: np.ndarray) -> int:
        return len(set(map(tuple, np.sort(keys, axis=1).tolist())))

    return CensusReport(
        m, n, len(rows), distinct(columns), len(set(pair_keys.tolist())), distinct(borda)
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks in float64, tied values sharing the mean of their
    ranks, as ``scipy.stats.rankdata`` gives them.

    A tie group holding sorted places start..end - 1 gets
    (start + 1 + end) / 2, an exact half.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def _pearson(xs, ys) -> Optional[float]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.std() == 0.0 or y.std() == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def matrix_correlation(dm_a: DistanceMatrix, dm_b: DistanceMatrix) -> CorrelationReport:
    """Correlation between two distance matrices over the same labeled
    elections, taken over the cells above the diagonal in
    ``itertools.combinations`` order.

    Equal labels imply equal shapes: a DistanceMatrix has one row per label.
    The coefficients are symmetric in the two matrices bit for bit: they
    are taken with the matrices in one order, by ``METRIC_KINDS`` (other
    metric names after them, by name), then by cells.
    """
    if dm_a.labels != dm_b.labels:
        raise ValueError("distance matrices have different labels")
    if len(dm_a.labels) < 2:
        raise ValueError("need at least two elections")
    upper = _upper_pairs(len(dm_a.labels))

    def order(dm):
        rank = METRIC_KINDS.index(dm.metric) if dm.metric in METRIC_KINDS else len(METRIC_KINDS)
        return rank, dm.metric, dm.cells[upper].tobytes()

    xs, ys = (dm.cells[upper] for dm in sorted((dm_a, dm_b), key=order))
    spearman = _pearson(_average_ranks(xs), _average_ranks(ys))
    return CorrelationReport((dm_a.metric, dm_b.metric), _pearson(xs, ys), spearman, len(xs))


# The last dataset given to `correlation`, as a tuple, and its distance
# matrices by kind.  They never leave this module, so no caller can alias
# or change one.
_correlated: tuple[tuple[Election, ...], dict[str, DistanceMatrix]] = ((), {})


def correlation(dataset: Sequence[Election], kind_a: str, kind_b: str) -> CorrelationReport:
    """Correlation between two metrics over all unordered pairs of distinct
    dataset elections.  Both kinds, the inputs and both guards are checked
    before the first distance.

    The distance matrices of the last dataset are kept, one per kind, and
    reused while the next call's dataset is equal (elections compare by
    value), so correlating swap with five metrics builds swap's matrix
    once.  A different dataset replaces them: one dataset is held at most.
    """
    global _correlated
    check_kind(kind_a)
    check_kind(kind_b)
    if len(dataset) < 2:
        raise ValueError("need at least two elections")
    for kind in (kind_a, kind_b):
        _check_elections(dataset, kind)
    key = tuple(dataset)
    # one read of the slot: a call from another thread that replaces it
    # cannot hand this call the other dataset's matrices
    held, matrices = _correlated
    if held != key:
        matrices = {}
        _correlated = (key, matrices)
    for kind in (kind_a, kind_b):
        if kind not in matrices:
            matrices[kind] = distance_matrix(dataset, kind)
    return matrix_correlation(matrices[kind_a], matrices[kind_b])


ExactOrBounds = Union[int, Fraction, tuple[Union[int, Fraction], Union[int, Fraction]]]


def _compass_swap_bounds(m: int, n: int, low_quadratic: int) -> tuple[Fraction, Fraction]:
    return Fraction(n * low_quadratic, 8), Fraction(n * (m * m - m), 4)


def _compass_formula_value(kind: str, pair: tuple[str, str], m: int, n: int):
    s = math.factorial(m // 2) ** 2
    f = math.factorial(m)
    table = {
        ("discrete", ("ID", "AN")): Fraction(n, 2),
        ("discrete", ("ID", "UN")): Fraction(n * (f - 1), f),
        ("discrete", ("ID", "ST")): Fraction(n * (s - 1), s),
        ("discrete", ("AN", "UN")): Fraction(n * (f - 2), f),
        ("discrete", ("AN", "ST")): Fraction(n * (s - 1), s),
        ("discrete", ("UN", "ST")): Fraction(n * (f - s), f),
        ("swap", ("ID", "AN")): Fraction(n * (m * m - m), 4),
        ("swap", ("ID", "UN")): Fraction(n * (m * m - m), 4),
        ("swap", ("ID", "ST")): Fraction(n * (m * m - 2 * m), 8),
        ("swap", ("AN", "UN")): _compass_swap_bounds(m, n, m * m - 3 * m + 2),
        ("swap", ("AN", "ST")): _compass_swap_bounds(m, n, m * m - 2 * m),
        ("swap", ("UN", "ST")): Fraction(n * m * m, 8),
        ("pairwise", ("ID", "AN")): Fraction(n * (m * m - m), 2),
        ("pairwise", ("ID", "UN")): Fraction(n * (m * m - m), 2),
        ("pairwise", ("ID", "ST")): Fraction(n * (m * m - 2 * m), 4),
        ("pairwise", ("AN", "UN")): Fraction(0),
        ("pairwise", ("AN", "ST")): Fraction(n * m * m, 4),
        ("pairwise", ("UN", "ST")): Fraction(n * m * m, 4),
        ("l1pos", ("ID", "AN")): Fraction(n * m),
        ("l1pos", ("ID", "UN")): Fraction(2 * n * (m - 1)),
        ("l1pos", ("ID", "ST")): Fraction(2 * n * (m - 2)),
        ("l1pos", ("AN", "UN")): Fraction(2 * n * (m - 2)),
        ("l1pos", ("AN", "ST")): Fraction(2 * n * (m - 2)),
        ("l1pos", ("UN", "ST")): Fraction(n * m),
        ("emdpos", ("ID", "AN")): Fraction(n * m * m, 4),
        ("emdpos", ("ID", "UN")): Fraction(n * (m * m - 1), 3),
        ("emdpos", ("ID", "ST")): Fraction(n * (m * m - 4), 6),
        ("emdpos", ("AN", "UN")): Fraction(n * (m * m - 4), 6),
        ("emdpos", ("AN", "ST")): Fraction(n * (13 * m * m - 16), 48),
        ("emdpos", ("UN", "ST")): Fraction(n * m * m, 4),
        ("bordawise", ("ID", "AN")): Fraction(n * (m**3 - m), 12),
        ("bordawise", ("ID", "UN")): Fraction(n * (m**3 - m), 12),
        ("bordawise", ("ID", "ST")): Fraction(n * m * (m * m - 4), 48),
        ("bordawise", ("AN", "UN")): Fraction(0),
        ("bordawise", ("AN", "ST")): Fraction(n * m**3, 16),
        ("bordawise", ("UN", "ST")): Fraction(n * m**3, 16),
    }
    return table[(kind, pair)]


def _as_exact(v: Fraction) -> Union[int, Fraction]:
    return int(v) if v.denominator == 1 else v


def compass_distance_formula(
    kind: str, pair: Sequence[str], m: int, n: int
) -> ExactOrBounds:
    """Closed-form distance between two compass elections.

    Swap on (UN, AN) and on (AN, ST) has no known closed form; those return
    an exact (lower, upper) bounds pair instead of a single value.  All
    formulas are verified against direct metric computation on the compass
    elections in the test suite.
    """
    check_kind(kind)
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError(f"compass pair must be two compass kinds, got {pair!r}")
    a, b = pair
    for k in (a, b):
        _check_compass(k)
    _check_positive(m, n)
    if m < 2 or m % 2:
        raise ValueError(f"compass formulas need an even m >= 2, got m={m}")
    if "ST" in (a, b) and m < 4:
        raise ValueError(
            "stratification formulas need m >= 4; at m=2 ST coincides with ID"
        )
    for k in (a, b):
        _check_compass(k, m, n)
    if a == b:
        return 0
    canon = tuple(sorted((a, b), key=COMPASS_KINDS.index))
    value = _compass_formula_value(kind, canon, m, n)
    if isinstance(value, tuple):
        return (_as_exact(value[0]), _as_exact(value[1]))
    return _as_exact(value)


def check_diameter(dataset: Sequence[Election], kind: str):
    """Pairs of dataset elections whose distance exceeds d(ID, UN).

    Returns a list of (i, j, value) triples, value an int taken from
    ``distance_values``; an empty list means the diameter bound held for
    every pair.  The kind, the inputs, the guard and the compass divisors
    of n are checked before the first distance.
    """
    _check_elections(dataset, kind)
    if not dataset:
        return []
    m, n = dataset[0].m, dataset[0].n
    compass = [compass_election("ID", m, n), compass_election("UN", m, n)]
    values = distance_values(dataset, kind)
    bound = int(distance_values(compass, kind)[0])
    pairs = itertools.combinations(range(len(dataset)), 2)
    return [(i, j, int(value)) for (i, j), value in zip(pairs, values) if value > bound]


def recover_election(pos) -> Election:
    """An election whose position matrix equals the given matrix.

    Peels off one vote type at a time: find a perfect matching on the
    strictly positive cells and subtract its minimum entry as that many
    identical votes.
    """
    arr = _square_matrix(pos, "position matrix")
    m = arr.shape[0]
    entries = _integers(arr, "position matrix entries", nonnegative=True)
    work = np.array(entries, dtype=np.int64).reshape(m, m)
    n = int(work[0].sum())
    row_sums = work.sum(axis=1)
    col_sums = work.sum(axis=0)
    if not (np.all(row_sums == n) and np.all(col_sums == n)):
        raise ValueError(
            f"rows and columns must all sum to the same count; got row sums "
            f"{row_sums.tolist()} and column sums {col_sums.tolist()}"
        )
    if n == 0:
        raise ValueError("need at least one voter")
    votes: list[np.ndarray] = []
    idx = np.arange(m)
    while work.any():
        rows_idx, cols_idx = linear_sum_assignment(work == 0)
        cols = cols_idx[np.argsort(rows_idx)]
        picked = work[idx, cols]
        if picked.min() == 0:
            raise ValueError("matrix has no positive-cell perfect matching")
        t = int(picked.min())
        votes.extend([cols] * t)
        work[idx, cols] -= t
    return Election(m, votes)


def borda_realizable(x: Sequence[int], n: int) -> Optional[Election]:
    """An n-voter election whose Borda vector equals x, or None.

    Exhaustive depth-first search over counts of each of the m! vote types,
    pruning branches whose remaining votes cannot reach the target scores.
    """
    scores = _integers(x, "Borda scores")
    m = len(scores)
    _check_positive(m, n)
    _check_guard("Borda realizability", m=m)
    if any(v < 0 for v in scores):
        return None
    if sum(scores) != n * m * (m - 1) // 2:
        return None
    # an order's Borda points to c count the candidates it ranks c above
    contrib = _preferences(_order_columns(m).T).sum(axis=2).tolist()
    return _realize_by_counts(all_orders(m), contrib, scores, n)


def _realize_by_counts(
    orders: Sequence[tuple[int, ...]], contrib: Sequence[Sequence[int]], target: list[int], n: int
) -> Optional[Election]:
    # n votes from orders whose nonnegative contributions (one tuple per
    # order) sum to target, or None; counts are tried largest first, so the
    # multiset found is the lexicographically first one
    k, d = len(orders), len(target)
    # the least and the greatest contribution to each entry among orders i..k-1
    suff_min, suff_max = [None] * k, [None] * k
    lo = hi = contrib[k - 1]
    for i in range(k - 1, -1, -1):
        lo = suff_min[i] = list(map(min, lo, contrib[i]))
        hi = suff_max[i] = list(map(max, hi, contrib[i]))

    def dfs(i: int, remaining: int, cur: list[int]) -> Optional[list[tuple[int, int]]]:
        if remaining == 0:
            return [] if cur == target else None
        # at the last order the bounds below admit only its count = remaining
        for c in range(d):
            need = target[c] - cur[c]
            if need < remaining * suff_min[i][c] or need > remaining * suff_max[i][c]:
                return None
        for cnt in range(remaining, -1, -1):
            nxt = [cur[c] + cnt * contrib[i][c] for c in range(d)]
            if all(nxt[c] <= target[c] for c in range(d)):
                rest = dfs(i + 1, remaining - cnt, nxt)
                if rest is not None:
                    return ([(i, cnt)] if cnt else []) + rest
        return None

    found = dfs(0, n, [0] * d)
    if found is None:
        return None
    return Election(len(orders[0]), [orders[i] for i, cnt in found for _ in range(cnt)])


def majority_realizable_bruteforce(M, n: int) -> Optional[Election]:
    """An n-voter election whose majority matrix equals M, or None.

    The depth-first search of ``borda_realizable`` on the cells c < d,
    guarded to tiny shapes; the witness is the lexicographically first
    vote multiset.
    """
    arr = _square_matrix(M, "majority matrix")
    m = arr.shape[0]
    _check_positive(m, n)
    _check_guard("majority realizability", m=m, n=n)
    entries = _integers(arr, "majority matrix entries")
    target = np.array(entries, dtype=np.int64).reshape(m, m)
    if np.any(np.diag(target) != 0):
        return None
    off = ~np.eye(m, dtype=bool)
    if np.any((target + target.T)[off] != n) or np.any(target < 0):
        return None
    # with M + M^T = n off the diagonal, the cells c < d fix the matrix
    first, second = _upper_pairs(m)
    contrib = _preferences(_order_columns(m).T)[:, first, second].astype(np.int64).tolist()
    return _realize_by_counts(all_orders(m), contrib, target[first, second].tolist(), n)


def _matched_position_matrices(a: Election, b: Election, variant: str):
    if not isinstance(a, Election) or not isinstance(b, Election):
        raise ValueError("intrinsic paths take two elections")
    # positionwise_distance rejects elections of differing shapes
    outcome = positionwise_distance(a, b, variant)
    x = position_matrix(a)
    y = position_matrix(b)[:, list(outcome.candidate_matching)]
    return x, y


def _column_multiset(x: np.ndarray):
    return tuple(sorted(map(tuple, x.T.tolist())))


def _shift(x: np.ndarray, c: int, cp: int, r: int, rp: int) -> None:
    # one unit moves from row r to row rp in column c, and back in column cp
    x[r, c] -= 1
    x[rp, c] += 1
    x[rp, cp] -= 1
    x[r, cp] += 1


def _walk(x: np.ndarray, y: np.ndarray, advance, step_distance: int) -> IntrinsicPath:
    # the path from x to y that advance(x, y, record) walks, changing x in
    # place and calling record() after each change
    steps = [x.copy()]

    def record() -> None:
        # a change that only permutes columns leaves the election unchanged,
        # so it extends the working matrix without adding a step
        if _column_multiset(x) != _column_multiset(steps[-1]):
            steps.append(x.copy())

    while not np.array_equal(x, y):
        advance(x, y, record)
    # the last step holds y's columns, perhaps in another order
    if not np.array_equal(steps[-1], x):
        steps[-1] = x.copy()
    return IntrinsicPath(tuple(steps), step_distance, step_distance * (len(steps) - 1))


def _l1_cell_choices(x: np.ndarray, y: np.ndarray):
    m = x.shape[0]
    for c in range(m):
        if np.array_equal(x[:, c], y[:, c]):
            continue
        for r in range(m):
            if x[r, c] > y[r, c]:
                for rp in range(m):
                    if x[rp, c] < y[rp, c]:
                        for cp in range(m):
                            if cp != c and x[rp, cp] > y[rp, cp]:
                                yield c, cp, r, rp


def l1pos_intrinsic_path(a: Election, b: Election) -> IntrinsicPath:
    """A chain of position matrices from A to (column-matched) B in which
    every step is a valid position matrix at l1-positionwise distance 4."""

    def advance(x: np.ndarray, y: np.ndarray, record) -> None:
        chosen = None
        for choice in _l1_cell_choices(x, y):
            trial = x.copy()
            _shift(trial, *choice)
            # a shift can collide with an existing equal column, making the
            # matched distance smaller than 4; prefer a collision-free shift
            if positionwise_distance(x, trial, "L1").value == 4:
                chosen = choice
                break
            chosen = chosen or choice
        _shift(x, *chosen)
        record()

    return _walk(*_matched_position_matrices(a, b, "L1"), advance, 4)


def _emd_cell_choice(x: np.ndarray, y: np.ndarray):
    m = x.shape[0]
    hx = np.cumsum(x, axis=0)
    hy = np.cumsum(y, axis=0)
    for r in range(1, m):
        for c in range(m):
            if x[r, c] <= y[r, c] or hx[r - 1, c] >= hy[r - 1, c]:
                continue
            # scan candidate donor rows downward while both prefix windows
            # keep their strict signs, so the shift lowers both column EMDs
            # by exactly r - rp
            window_ok = np.ones(m, dtype=bool)
            for rp in range(r - 1, -1, -1):
                if hx[rp, c] >= hy[rp, c]:
                    break
                window_ok &= hx[rp] > hy[rp]
                for cp in range(m):
                    if cp != c and window_ok[cp] and x[rp, cp] > y[rp, cp]:
                        return c, r, rp, cp
    raise RuntimeError("no valid cell choice; matrices should already be equal")


def emdpos_intrinsic_path(a: Election, b: Election) -> IntrinsicPath:
    """A chain of position matrices from A to (column-matched) B in which
    every step is a valid position matrix at EMD-positionwise distance 2."""

    def advance(x: np.ndarray, y: np.ndarray, record) -> None:
        def link(ca: int, cb: int, r: int) -> None:
            # one unit moves up from row r in column ca and down in column cb
            _shift(x, ca, cb, r, r - 1)
            record()

        def chain(c: int, cp: int, r: int, rp: int) -> None:
            # realize the four-cell shift between rows r > rp as unit-row links
            if r - rp == 1:
                link(c, cp, r)
                return
            if x[r - 1, c] >= 1:
                mid = c
            elif x[r - 1, cp] >= 1:
                mid = cp
            else:
                mid = int(np.flatnonzero(x[r - 1] >= 1)[0])
            if mid != c:
                link(c, mid, r)
            chain(c, cp, r - 1, rp)
            if mid != cp:
                link(mid, cp, r)

        c, r, rp, cp = _emd_cell_choice(x, y)
        chain(c, cp, r, rp)

    return _walk(*_matched_position_matrices(a, b, "EMD"), advance, 2)
