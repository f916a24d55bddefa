"""Ordinal elections, their aggregate representations and vote encodings.

An election is a multiset of votes over m candidates; every vote ranks all
candidates.  It is stored as one read-only (n, m) int64 array, copied from
the input and checked in one pass; the per-vote check runs only to name the
first bad vote, and the tuple ``votes`` are a view built on first use.
Candidates are 0-based integers throughout; human-readable names belong in
file comments, not in the data model.  The aggregate views (position
matrix, weighted majority matrix, Borda score vector) are plain numpy
integer arrays; the normalized frequency matrix uses exact Fractions
because the downstream diameter identities must hold exactly.

The other modules encode votes through this one: one permutation check; the
m! orders; a vote's positions, its inverse; its preference table, c above d;
the pairs c < d, of candidates or of a dataset's elections (the pair
triangle); a vote's base-m code, which orders like the vote; and the
anchored codes whose least row is the canonical form of the census and of
``canonical_anec_key``.

``GUARDS`` is the one table of size guards, read by one check before any work.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Election",
    "COMPASS_KINDS",
    "GUARDS",
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

# the largest shape each computation exponential in m accepts, by message name
GUARDS = {
    "swap distance": {"m": 8},
    "pairwise distance": {"m": 12},
    "canonical key": {"m": 8},
    "census": {"m": 4, "n": 6},
    "Borda realizability": {"m": 5},
    "majority realizability": {"m": 4, "n": 4},
}


def _check_guard(name: str, **shape: int) -> None:
    # ValueError when a dimension GUARDS[name] bounds exceeds its bound
    bounds = GUARDS[name]
    if any(shape[k] > bound for k, bound in bounds.items()):
        limit = " and ".join(f"{k} <= {bound}" for k, bound in bounds.items())
        got = ", ".join(f"{k}={shape[k]}" for k in bounds)
        raise ValueError(f"{name} guarded at {limit} (got {got})")


def _integers(values: Iterable, what: str, nonnegative: bool = False) -> list[int]:
    # the values as ints, an array's in row-major order; ValueError names
    # the first one that is not an integer, or with nonnegative not >= 0,
    # as a Python scalar
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    out = []
    for v in values:
        iv = int(v)
        if iv != v:
            raise ValueError(f"{what} must be integers, got {v!r}")
        if nonnegative and iv < 0:
            raise ValueError(f"{what} must be nonnegative, got {v!r}")
        out.append(iv)
    return out


def _check_permutation(perm: Iterable, size: int, what: str) -> tuple[int, ...]:
    # perm as a tuple of ints if it is a permutation of 0..size-1; ValueError
    # names the first non-integer entry, or the sequence and the rule it breaks
    perm = tuple(_integers(perm, f"{what} entries"))
    if len(perm) != size:
        raise ValueError(f"{what} {perm} has length {len(perm)}, expected {size}")
    if sorted(perm) != list(range(size)):
        raise ValueError(f"{what} {perm} is not a permutation of 0..{size - 1}")
    return perm


class Election:
    """An (m, n) election: n total-order votes over candidates 0..m-1.

    ``election.array`` holds the votes, most-preferred first, as a read-only
    (n, m) int64 array copied from the input; ``election.votes`` is a tuple
    view of it, built on first use.  Each vote must be a permutation of
    0..m-1 with integer entries; a non-integer m or entry such as 0.5 is
    rejected, not truncated.
    """

    __slots__ = ("m", "array", "_votes")

    def __init__(self, m: int, votes: Iterable[Sequence[int]]):
        _check_integer(m, "m")
        if m < 1:
            raise ValueError("need at least one candidate")
        if not isinstance(votes, np.ndarray):
            votes = list(votes)
        try:
            arr = np.asarray(votes)
        except (ValueError, TypeError, OverflowError):  # ragged, or refused by numpy
            arr = np.empty(0)
        # an integer (n, m) array whose rows each sort to 0..m-1 is checked in
        # one pass; any other input goes vote by vote, to name the first bad one
        if not (arr.dtype.kind in "iu" and arr.ndim == 2 and arr.shape[1] == m
                and (np.sort(arr, axis=1) == np.arange(m)).all()):
            arr = np.array([_check_permutation(v, m, "vote") for v in votes]).reshape(-1, m)
        if not len(arr):
            raise ValueError("need at least one voter")
        arr = arr.astype(np.int64, order="C")  # always a copy
        arr.setflags(write=False)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "_votes", None)

    @property
    def n(self) -> int:
        return len(self.array)

    @property
    def votes(self) -> tuple[tuple[int, ...], ...]:
        if self._votes is None:
            object.__setattr__(self, "_votes", tuple(map(tuple, self.array.tolist())))
        return self._votes

    def __setattr__(self, name, value):
        raise AttributeError("Election is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Election)
            and self.m == other.m
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self) -> int:
        return hash((self.m, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Election(m={self.m}, n={self.n})"


@lru_cache(maxsize=None)
def all_orders(m: int) -> tuple[tuple[int, ...], ...]:
    """All m! total orders of 0..m-1 in lexicographic order."""
    return tuple(map(tuple, _order_table(m).tolist()))


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


def _positions(orders: np.ndarray) -> np.ndarray:
    # pos[..., c] = 0-based position of candidate c in each order of an
    # (..., m) integer array of permutations of 0..m-1: the inverse of each
    # order, the relabeling that sends it to the identity
    return orders.argsort(axis=-1)


def _preferences(orders: np.ndarray) -> np.ndarray:
    # prefers[..., c, d]: whether each order of an (..., m) stack ranks c above
    # d, False on the diagonal; every majority, swap and crossing count reads it
    pos = _positions(orders)
    return pos[..., :, None] < pos[..., None, :]


@lru_cache(maxsize=None)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    # the pairs i < j of 0..k-1 in itertools.combinations order, two index arrays
    pairs = np.triu_indices(k, 1)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def _place_values(m: int) -> tuple[int, ...]:
    # the base-m place value of each position, most significant first: a
    # vote's code, the sum of place[k] * vote[k], orders like the vote
    return tuple(m ** (m - 1 - k) for k in range(m))


def _anchored_codes(anchors: np.ndarray, pos: np.ndarray) -> np.ndarray:
    # for the positions (..., a, m) of anchor votes and (..., n, m) of votes:
    # row i holds the sorted codes of the votes relabeled by the inverse of
    # anchor i, c to anchors[i, c], which sends that anchor to the identity.
    # Vote v's code becomes the sum over c of anchors[i, c] * place[pos[v, c]]
    place = np.array(_place_values(pos.shape[-1]), dtype=pos.dtype)
    return np.sort(anchors @ place[pos].swapaxes(-1, -2), axis=-1)


def position_of(vote: Sequence[int], c: int) -> int:
    """1-based position of candidate c in a vote (1 = most preferred)."""
    vote = _check_permutation(vote, len(vote), "vote")
    if not 0 <= c < len(vote):
        raise ValueError(f"candidate {c} out of range for m={len(vote)}")
    return int(_positions(np.array(vote))[c]) + 1


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
    return _preferences(election.array).sum(axis=0, dtype=np.int64)


def borda_vector(election: Election) -> np.ndarray:
    """Borda scores: each vote gives m - 1 - i points to the candidate at
    0-based position i."""
    return (election.m - 1 - _positions(election.array)).sum(axis=0)


def frequency_matrix(election: Election) -> np.ndarray:
    """Position matrix normalized by n: a bistochastic matrix of Fractions."""
    rows = position_matrix(election).tolist()
    return np.array([[Fraction(count, election.n) for count in row] for row in rows], dtype=object)


def _square_matrix(x, what: str, dtype=None) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=dtype)
    except ValueError:
        # numpy refuses rows of different lengths, a row without a length
        # (None) among them; any other fault keeps its message
        lengths = [len(row) if hasattr(row, "__len__") else None for row in x]
        if len(set(lengths)) < 2:
            raise
        raise ValueError(f"{what} must be square, got rows of lengths {lengths}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square, got shape {arr.shape}")
    return arr


def apply_matchings(
    election: Election, sigma: Sequence[int], rho: Sequence[int]
) -> Election:
    """Relabel candidates by sigma and reorder voters by rho.

    Vote i of the result is sigma applied to vote rho(i) of the input.  All
    six metrics are invariant under this operation.
    """
    sigma = np.array(_check_permutation(sigma, election.m, "candidate matching"))
    rho = np.array(_check_permutation(rho, election.n, "voter matching"))
    return Election(election.m, sigma[election.array[rho]])


def _check_positive(m: int, n: Optional[int] = None) -> None:
    # m, and n when given, are integers >= 1: a bool, float or string is
    # rejected before it reaches any arithmetic
    _check_integer(m, "m")
    if n is None:
        if m < 1:
            raise ValueError(f"need m >= 1, got m={m}")
        return
    _check_integer(n, "n")
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")


def _is_real(value) -> bool:
    # a real number: an int, float or Fraction, or a numpy integer or
    # float, but no bool (numpy's bool is no Real) and no string
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_integer(value, name: str) -> None:
    # a bool, float or string is rejected, not truncated
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_natural(value, name: str) -> int:
    # value as an int if it is an integer >= 0
    _check_integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return int(value)


def _compass_divisor(kind: str, m: int) -> int:
    # the voter counts n of a compass election are the multiples of this
    if kind == "ID":
        return 1
    if kind == "AN":
        return 2
    if kind == "UN":
        return math.factorial(m)
    return math.factorial(m // 2) ** 2


def _check_compass(kind: str, m: Optional[int] = None, n: Optional[int] = None) -> None:
    # the rules for a compass election to exist, in this order: the kind, and
    # with m (and n) given, integer m and n >= 1, an even m for ST, the divisor of n
    if kind not in COMPASS_KINDS:
        raise ValueError(f"unknown compass kind {kind!r}, expected one of {COMPASS_KINDS}")
    if m is not None:
        _check_positive(m, n)
    if m is not None and kind == "ST" and m % 2 != 0:
        raise ValueError("ST compass election requires even m")
    if n is not None:
        divisor = _compass_divisor(kind, m)
        if n % divisor != 0:
            rule = {"AN": "2 | n", "UN": "m! = {} divides n", "ST": "((m/2)!)^2 = {} divides n"}
            raise ValueError(f"compass election requires {rule[kind].format(divisor)} (got n={n})")


def compass_election(kind: str, m: int, n: int) -> Election:
    """One of the four reference elections ID, AN, UN, ST.

    ID: n copies of the canonical order.  AN: half canonical, half reversed
    (2 | n).  UN: every order equally often (m! | n).  ST: every order
    ranking the first m/2 candidates wholly above the rest, equally often
    (even m, ((m/2)!)^2 | n).
    """
    # the divisor is checked before any of the m! or ((m/2)!)^2 orders is built
    _check_compass(kind, m, n)
    canonical = np.arange(m)
    if kind == "ID":
        orders = canonical[None]
    elif kind == "AN":
        orders = np.stack([canonical, canonical[::-1]])
    elif kind == "UN":
        orders = _order_table(m)
    else:  # ST: each order of the first m/2 candidates, then each of the rest
        half = _order_table(m // 2)
        k = len(half)
        orders = np.column_stack((np.repeat(half, k, axis=0), np.tile(half + m // 2, (k, 1))))
    # the kind's divisor of n is its number of orders; each comes n / divisor times
    return Election(m, np.repeat(orders, n // len(orders), axis=0))


def compass_matrix(kind: str, m: int) -> np.ndarray:
    """Exact frequency matrix of a compass election, independent of n."""
    _check_compass(kind, m)
    # cell [i, c] is counts[i, c] / total
    eye = np.eye(m, dtype=np.int64)
    if kind == "ID":
        counts, total = eye, 1
    elif kind == "AN":
        counts, total = eye + eye[::-1], 2
    elif kind == "UN":
        counts, total = np.ones((m, m), dtype=np.int64), m
    else:  # ST: two diagonal blocks of size m/2
        block = np.arange(m) < m // 2
        counts, total = (block[:, None] == block).astype(np.int64), m // 2
    return np.array([[Fraction(k, total) for k in row] for row in counts.tolist()], dtype=object)


def canonical_anec_key(election: Election) -> bytes:
    """Canonical byte key of the anonymous-neutral equivalence class.

    Two elections get the same key exactly when one is the other with
    candidates renamed and voters reordered.  Computed as the lexicographic
    minimum, over all m! candidate relabelings, of the sorted vote multiset.
    That minimum contains the identity order, the smallest of all, so only
    the relabelings sending some vote to the identity can reach it: the
    inverses of the d <= n distinct votes.  Cost is d * n * (m + log n);
    m is guarded by ``GUARDS["canonical key"]``.
    """
    m = election.m
    _check_guard("canonical key", m=m)
    pos = _positions(election.array)
    place = _place_values(m)
    # the distinct votes are the anchors; rows of codes are multisets, and
    # each code's base-m digits are its relabeled vote; only the least is read
    codes = _anchored_codes(np.unique(pos, axis=0), pos)
    least = codes[np.lexsort(codes.T[::-1])[0]].tolist()
    body = bytes(code // p % m for code in least for p in place)
    return bytes([m]) + election.n.to_bytes(4, "big") + body


def _content_lines(text: str) -> list[str]:
    # the stripped lines of text, without blank lines and '#' comments
    stripped = (line.strip() for line in text.splitlines())
    return [line for line in stripped if line and not line.startswith("#")]


def parse_election(text: str) -> Election:
    """Parse the plain election file format.

    Line 1 is "m n"; each of the following n lines is one vote, m
    space-separated 0-based candidate indices, most-preferred first.  Lines
    starting with '#' and blank lines are ignored.
    """
    lines = _content_lines(text)
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
    votes = [_integer_tokens(line.split(), f"vote line {line!r}") for line in lines[1:]]
    return Election(m, votes)


def _integer_tokens(tokens: Sequence[str], where: str) -> list[int]:
    # the tokens as ints; ValueError says where a non-integer one came from
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"non-integer token in {where}") from None


def serialize_election(election: Election) -> str:
    """Inverse of parse_election; output re-parses to an equal election."""
    lines = [f"{election.m} {election.n}"]
    lines.extend(" ".join(str(c) for c in vote) for vote in election.array.tolist())
    return "\n".join(lines) + "\n"
