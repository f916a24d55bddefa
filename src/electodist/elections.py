"""Ordinal elections and their aggregate representations.

An election is a multiset of votes over m candidates; every vote ranks all
candidates.  Candidates are 0-based integers throughout; human-readable names
belong in file comments, not in the data model.  The aggregate views
(position matrix, weighted majority matrix, Borda score vector) are plain
numpy integer arrays; the normalized frequency matrix uses exact Fractions
because the downstream diameter identities must hold exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Election",
    "COMPASS_KINDS",
    "all_orders",
    "position_of",
    "position_matrix",
    "majority_matrix",
    "borda_vector",
    "frequency_matrix",
    "apply_matchings",
    "compass_election",
    "compass_matrix",
    "canonical_anec_key",
    "parse_election",
    "serialize_election",
]

COMPASS_KINDS = ("ID", "AN", "UN", "ST")


def _as_vote(raw: Sequence[int], m: int) -> tuple[int, ...]:
    vote = tuple(int(c) for c in raw)
    if len(vote) != m:
        raise ValueError(f"vote {vote} has length {len(vote)}, expected {m}")
    if sorted(vote) != list(range(m)):
        raise ValueError(f"vote {vote} is not a permutation of 0..{m - 1}")
    return vote


class Election:
    """An (m, n) election: n total-order votes over candidates 0..m-1.

    Votes are stored most-preferred first, as tuples, and are immutable.
    ``election.array`` exposes the same data as an (n, m) read-only numpy
    array for vectorized consumers.
    """

    __slots__ = ("m", "votes", "_array")

    def __init__(self, m: int, votes: Iterable[Sequence[int]]):
        m = int(m)
        if m < 1:
            raise ValueError("need at least one candidate")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "votes", tuple(_as_vote(v, m) for v in votes))
        if not self.votes:
            raise ValueError("need at least one voter")
        object.__setattr__(self, "_array", None)

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def array(self) -> np.ndarray:
        arr = self._array
        if arr is None:
            arr = np.array(self.votes, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_array", arr)
        return arr

    def __setattr__(self, name, value):
        raise AttributeError("Election is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Election)
            and self.m == other.m
            and self.votes == other.votes
        )

    def __hash__(self) -> int:
        return hash((self.m, self.votes))

    def __repr__(self) -> str:
        return f"Election(m={self.m}, n={self.n})"


@lru_cache(maxsize=None)
def all_orders(m: int) -> tuple[tuple[int, ...], ...]:
    """All m! total orders of 0..m-1 in lexicographic order."""
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def _order_table(m: int) -> np.ndarray:
    # all_orders(m) as a read-only (m!, m) int64 array, built prefix by
    # prefix: the orders of k candidates are each first candidate f
    # followed by the orders of k - 1 candidates with every one >= f moved
    # up by one, which keeps them lexicographic
    table = np.zeros((1, 0), dtype=np.int64)
    for k in range(1, m + 1):
        first = np.repeat(np.arange(k), len(table))
        rest = np.tile(table, (k, 1))
        rest += rest >= first[:, None]
        table = np.column_stack((first, rest))
    table.setflags(write=False)
    return table


def position_of(vote: Sequence[int], c: int) -> int:
    """1-based position of candidate c in a vote (1 = most preferred)."""
    if not 0 <= c < len(vote):
        raise ValueError(f"candidate {c} out of range for m={len(vote)}")
    return tuple(vote).index(c) + 1


def _positions(election: Election) -> np.ndarray:
    # pos[v, c] = 0-based position of candidate c in vote v
    arr = election.array
    n, m = arr.shape
    pos = np.empty((n, m), dtype=np.int64)
    pos[np.arange(n)[:, None], arr] = np.arange(m)
    return pos


def position_matrix(election: Election) -> np.ndarray:
    """The m x m position matrix: cell [i, c] counts voters ranking c at i+1.

    Every row and every column sums to n.
    """
    m = election.m
    flat = (np.arange(m) * m + election.array).ravel()
    return np.bincount(flat, minlength=m * m).reshape(m, m).astype(np.int64, copy=False)


def majority_matrix(election: Election) -> np.ndarray:
    """The weighted majority matrix: cell [c, d] counts voters preferring c to d.

    The diagonal is zero by convention; off-diagonal cells satisfy
    cells[c, d] + cells[d, c] = n.
    """
    pos = _positions(election)
    return (pos[:, :, None] < pos[:, None, :]).sum(axis=0, dtype=np.int64)


def borda_vector(election: Election) -> np.ndarray:
    """Borda scores: each vote gives m - 1 - i points to the candidate at
    0-based position i."""
    return (election.m - 1 - _positions(election)).sum(axis=0)


def frequency_matrix(election: Election) -> np.ndarray:
    """Position matrix normalized by n: a bistochastic matrix of Fractions."""
    counts = position_matrix(election)
    n = election.n
    out = np.empty(counts.shape, dtype=object)
    for i in range(election.m):
        for c in range(election.m):
            out[i, c] = Fraction(int(counts[i, c]), n)
    return out


def _check_permutation(perm: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if len(perm) != size or sorted(perm) != list(range(size)):
        raise ValueError(f"{what} must be a permutation of 0..{size - 1}")
    return perm


def apply_matchings(
    election: Election, sigma: Sequence[int], rho: Sequence[int]
) -> Election:
    """Relabel candidates by sigma and reorder voters by rho.

    Vote i of the result is sigma applied to vote rho(i) of the input.  All
    six metrics are invariant under this operation.
    """
    sigma = _check_permutation(sigma, election.m, "candidate matching")
    rho = _check_permutation(rho, election.n, "voter matching")
    votes = [
        tuple(sigma[c] for c in election.votes[rho[i]]) for i in range(election.n)
    ]
    return Election(election.m, votes)


def _require_divisible(n: int, divisor: int, condition: str) -> None:
    if n % divisor != 0:
        raise ValueError(f"compass election requires {condition} (got n={n})")


def compass_election(kind: str, m: int, n: int) -> Election:
    """One of the four reference elections ID, AN, UN, ST.

    ID: n copies of the canonical order.  AN: half canonical, half reversed
    (2 | n).  UN: every order equally often (m! | n).  ST: every order
    ranking the first m/2 candidates wholly above the rest, equally often
    (even m, ((m/2)!)^2 | n).
    """
    if kind not in COMPASS_KINDS:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {COMPASS_KINDS}")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    canonical = tuple(range(m))
    if kind == "ID":
        return Election(m, [canonical] * n)
    if kind == "AN":
        _require_divisible(n, 2, "2 | n")
        half = n // 2
        return Election(m, [canonical] * half + [canonical[::-1]] * half)
    if kind == "UN":
        fact = len(all_orders(m))
        _require_divisible(n, fact, f"m! = {fact} divides n")
        copies = n // fact
        return Election(m, [v for v in all_orders(m) for _ in range(copies)])
    # ST
    if m % 2 != 0:
        raise ValueError("ST compass election requires even m")
    half_m = m // 2
    block_a = list(range(half_m))
    block_b = list(range(half_m, m))
    orders = [
        tuple(pa) + tuple(pb)
        for pa in itertools.permutations(block_a)
        for pb in itertools.permutations(block_b)
    ]
    _require_divisible(n, len(orders), f"((m/2)!)^2 = {len(orders)} divides n")
    copies = n // len(orders)
    return Election(m, [v for v in orders for _ in range(copies)])


def compass_matrix(kind: str, m: int) -> np.ndarray:
    """Exact frequency matrix of a compass election, independent of n."""
    if kind not in COMPASS_KINDS:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {COMPASS_KINDS}")
    if kind == "ST" and m % 2 != 0:
        raise ValueError("ST compass matrix requires even m")
    zero, one, half = Fraction(0), Fraction(1), Fraction(1, 2)
    out = np.empty((m, m), dtype=object)
    for i in range(m):
        for c in range(m):
            if kind == "ID":
                out[i, c] = one if i == c else zero
            elif kind == "UN":
                out[i, c] = Fraction(1, m)
            elif kind == "AN":
                out[i, c] = half * ((i == c) + (i == m - 1 - c))
            else:  # ST: two diagonal blocks of size m/2
                same_block = (i < m // 2) == (c < m // 2)
                out[i, c] = Fraction(2, m) if same_block else zero
    return out


def canonical_anec_key(election: Election) -> bytes:
    """Canonical byte key of the anonymous-neutral equivalence class.

    Two elections get the same key exactly when one is the other with
    candidates renamed and voters reordered.  Computed as the lexicographic
    minimum, over all m! candidate relabelings, of the sorted vote multiset.
    That minimum contains the identity order, the smallest of all, so only
    the relabelings sending some vote to the identity can reach it: the
    inverses of the d <= n distinct votes.  Cost is d * n * (m + log n);
    m is guarded at 8.
    """
    m = election.m
    if m > 8:
        raise ValueError(f"canonical key guarded at m <= 8 (got m={m})")
    votes = election.array
    # inverse[j, c] = position of candidate c in distinct vote j, the
    # relabeling that sends vote j to the identity
    inverse = np.unique(votes, axis=0).argsort(axis=1)
    relabeled = inverse[:, votes]
    # base-m codes order like the votes
    codes = relabeled @ (m ** np.arange(m - 1, -1, -1))
    order = codes.argsort(axis=1)
    multisets = np.take_along_axis(codes, order, axis=1).tolist()
    best = multisets.index(min(multisets))
    body = relabeled[best, order[best]].astype(np.uint8).tobytes()
    return bytes([m]) + election.n.to_bytes(4, "big") + body


def parse_election(text: str) -> Election:
    """Parse the plain election file format.

    Line 1 is "m n"; each of the following n lines is one vote, m
    space-separated 0-based candidate indices, most-preferred first.  Lines
    starting with '#' and blank lines are ignored.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty election file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}, expected integers") from None
    if m < 1 or n < 1:
        raise ValueError(f"header requires positive m and n, got {m} {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} vote lines, found {len(lines) - 1}")
    votes = []
    for line in lines[1:]:
        try:
            votes.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"non-integer token in vote line {line!r}") from None
    return Election(m, votes)


def serialize_election(election: Election) -> str:
    """Inverse of parse_election; output re-parses to an equal election."""
    lines = [f"{election.m} {election.n}"]
    lines.extend(" ".join(str(c) for c in vote) for vote in election.votes)
    return "\n".join(lines) + "\n"
