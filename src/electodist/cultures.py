"""Seeded generators for thirteen statistical vote distributions.

Every sampler is a pure function of (parameters, m, n, seed): the same seed
always reproduces the same election, independent of platform or thread
count.  Batch generation derives one child stream per election with a
counter-based split, so elections keep their identity when generated in
parallel or in any order.

IC shuffles all its votes in one call.  Mallows, SPWalsh, Euclidean and
GroupSeparable, whose votes each take a fixed number k of uniforms, draw
them as one (n, k) array: the same doubles in the same order as one draw
per step.  Urn, SPConitzer, SPOC and SingleCrossing draw step by step,
since the draws a vote takes depend on earlier ones or are bounded
integers, whose use of the stream varies.

The structure checkers at the bottom (single-peaked, single-peaked on a
circle, single-crossing) validate the combinatorial guarantees the
restricted-domain samplers advertise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .elections import (
    Election, _check_natural, _check_permutation, _check_positive, _is_real,
    _preferences, _upper_pairs,
)

__all__ = [
    "CultureSpec",
    "DEFAULT_CULTURES",
    "EUCLIDEAN_SHAPES",
    "GROUP_SEPARABLE_TREES",
    "check_spec",
    "sample",
    "sample_many",
    "sample_ic",
    "sample_urn",
    "sample_mallows",
    "mallows_phi_from_norm",
    "sample_sp_walsh",
    "sample_sp_conitzer",
    "sample_spoc",
    "sample_single_crossing",
    "sample_euclidean",
    "sample_group_separable",
    "is_single_peaked",
    "is_spoc_vote",
    "is_single_crossing",
]

EUCLIDEAN_SHAPES = ("interval_1d", "sphere_2d", "disc_2d", "cube_3d")
GROUP_SEPARABLE_TREES = ("balanced", "caterpillar")

SeedLike = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class CultureSpec:
    """A vote distribution: a model name plus its parameters.

    Models and parameters:
      IC                                  no parameters
      Urn             alpha: float >= 0, or "gamma" (fresh draw per election)
      Mallows         phi: float in [0, 1], or "norm-uniform"
      SPWalsh, SPConitzer, SPOC, SingleCrossing    no parameters
      Euclidean       shape: interval_1d | sphere_2d | disc_2d | cube_3d
      GroupSeparable  tree: balanced | caterpillar
    """

    model: str
    params: Mapping = field(default_factory=dict)

    def label(self) -> str:
        if not self.params:
            return self.model
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.model}({inner})"

    def to_json(self) -> dict:
        return {"model": self.model, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "CultureSpec":
        return cls(str(obj["model"]), dict(obj.get("params", {})))


DEFAULT_CULTURES = (
    CultureSpec("IC"),
    CultureSpec("Urn", {"alpha": "gamma"}),
    CultureSpec("Mallows", {"phi": "norm-uniform"}),
    CultureSpec("SPWalsh"),
    CultureSpec("SPConitzer"),
    CultureSpec("SPOC"),
    CultureSpec("SingleCrossing"),
    CultureSpec("Euclidean", {"shape": "interval_1d"}),
    CultureSpec("Euclidean", {"shape": "sphere_2d"}),
    CultureSpec("Euclidean", {"shape": "disc_2d"}),
    CultureSpec("Euclidean", {"shape": "cube_3d"}),
    CultureSpec("GroupSeparable", {"tree": "balanced"}),
    CultureSpec("GroupSeparable", {"tree": "caterpillar"}),
)


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(_check_natural(seed, "seed")))


def sample_ic(m: int, n: int, seed: SeedLike) -> Election:
    """Impartial culture: every vote drawn uniformly at random."""
    return Election(m, _rng(seed).permuted(np.tile(np.arange(m), (n, 1)), axis=1))


def _check_alpha(alpha):
    # "gamma", or a fixed urn alpha as a finite real number >= 0
    if isinstance(alpha, str) and alpha == "gamma":
        return alpha
    if not _is_real(alpha):
        raise ValueError(f"urn alpha must be a number, got {alpha!r}")
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"urn alpha must be finite, got {alpha}")
    if alpha < 0:
        raise ValueError(f"urn alpha must be nonnegative, got {alpha}")
    return alpha


def sample_urn(m: int, n: int, seed: SeedLike, alpha) -> Election:
    """Polya urn: vote k copies a uniform earlier vote with probability
    (k-1)*alpha / (1 + (k-1)*alpha), else is fresh uniform.

    alpha="gamma" draws alpha ~ Gamma(shape 0.8, scale 10) once per election.
    """
    alpha = _check_alpha(alpha)
    rng = _rng(seed)
    if alpha == "gamma":
        alpha = float(rng.gamma(0.8, 10.0))
    votes: list[np.ndarray] = []
    for k in range(1, n + 1):
        weight = (k - 1) * alpha
        if k > 1 and rng.random() < weight / (1.0 + weight):
            votes.append(votes[int(rng.integers(0, k - 1))])
        else:
            votes.append(rng.permutation(m))
    return Election(m, np.array(votes))


def _mallows_expected_swaps(phi: float, m: int) -> float:
    # sum over insertion steps of the expected displacement from the bottom,
    # in running sums added left to right: the same bits on every Python
    total = z = moment = 0.0
    for i in range(m):
        p = phi**i
        z += p
        moment += i * p
        total += moment / z
    return total


def mallows_phi_from_norm(norm_phi: float, m: int) -> float:
    """Dispersion phi whose expected swap distance from the central vote is
    norm_phi/2 of the maximum m(m-1)/2, found by bisection; m >= 1, and
    one candidate gives 0.0."""
    if not _is_real(norm_phi):
        raise ValueError(f"norm-phi must be a number, got {norm_phi!r}")
    _check_positive(m)
    if not 0.0 <= norm_phi <= 1.0:
        raise ValueError(f"norm-phi must lie in [0, 1], got {norm_phi}")
    if m < 2 or norm_phi == 0.0:
        return 0.0
    if norm_phi == 1.0:
        return 1.0
    target = (norm_phi / 2.0) * (m * (m - 1) / 2.0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _mallows_expected_swaps(mid, m) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _check_phi(phi):
    # "norm-uniform", or a fixed Mallows phi as a real number in [0, 1]
    if isinstance(phi, str) and phi == "norm-uniform":
        return phi
    if not _is_real(phi):
        raise ValueError(f"mallows phi must be a number, got {phi!r}")
    phi = float(phi)
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"mallows phi must lie in [0, 1], got {phi}")
    return phi


def sample_mallows(m: int, n: int, seed: SeedLike, phi) -> Election:
    """Mallows model around the identity order via repeated insertion:
    candidate i - 1 goes to position j in {1..i} with probability
    proportional to phi^(i-j).

    phi="norm-uniform" draws norm-phi ~ Uniform[0,1] once per election and
    converts it through mallows_phi_from_norm.
    """
    phi = _check_phi(phi)
    rng = _rng(seed)
    if phi == "norm-uniform":
        phi = mallows_phi_from_norm(float(rng.uniform(0.0, 1.0)), m)
    # column i of the draws places candidate i among positions 0..i in every
    # vote, through the cumulative distribution built exactly as
    # Generator.choice(i + 1, p=p) builds it, so each place is choice's
    votes: list[list[int]] = [[] for _ in range(n)]
    for i, column in enumerate(rng.random((n, m)).T):
        w = np.array([phi ** (i - j) for j in range(i + 1)])
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        for vote, j in zip(votes, cdf.searchsorted(column, side="right").tolist()):
            vote.insert(j, i)
    return Election(m, np.array(votes))


def sample_sp_walsh(m: int, n: int, seed: SeedLike) -> Election:
    """Uniform single-peaked votes on the canonical axis: the vote is built
    from least preferred upward, taking the leftmost or rightmost remaining
    axis candidate with probability 1/2 each."""
    # step t of a row fills place m - 1 - t: a draw below 0.5 takes the
    # leftmost remaining candidate, the count of left steps before it, else
    # the rightmost, m - 1 less the count of right steps before it; the
    # candidate left over, the count of all left steps, is the peak
    left = _rng(seed).random((n, m - 1)) < 0.5
    lefts, rights = left.cumsum(axis=1), (~left).cumsum(axis=1)
    bottom_up = np.where(left, lefts - 1, m - rights)
    return Election(m, np.column_stack([left.sum(axis=1), bottom_up[:, ::-1]]))


def _grown_votes(m: int, n: int, seed: SeedLike, circle: bool) -> Election:
    # each vote grows from a uniform top candidate by the next candidate left
    # or right of the arc so far, with probability 1/2; on a line, once one
    # side has reached an end, the other is taken without a draw
    rng = _rng(seed)
    votes = []
    for _ in range(n):
        top = int(rng.integers(0, m))
        left, right = top - 1, top + 1
        vote = [top]
        while len(vote) < m:
            open_left, open_right = circle or left >= 0, circle or right < m
            if open_left and (not open_right or rng.random() < 0.5):
                vote.append(left % m)
                left -= 1
            else:
                vote.append(right % m)
                right += 1
        votes.append(vote)
    return Election(m, np.array(votes))


def sample_sp_conitzer(m: int, n: int, seed: SeedLike) -> Election:
    """Single-peaked votes with a uniform peak, grown by extending the
    current axis interval left or right with probability 1/2 each."""
    return _grown_votes(m, n, seed, circle=False)


def sample_spoc(m: int, n: int, seed: SeedLike) -> Election:
    """Single-peaked-on-a-circle votes: uniform top candidate, then extend
    the preferred arc clockwise or counterclockwise with probability 1/2."""
    return _grown_votes(m, n, seed, circle=True)


def sample_single_crossing(m: int, n: int, seed: SeedLike) -> Election:
    """Votes drawn uniformly from one random maximal single-crossing domain.

    The domain is a path of adjacent transpositions from the canonical
    order to its reverse; every candidate pair crosses exactly once, so the
    path has m(m-1)/2 + 1 orders.
    """
    rng = _rng(seed)
    current = list(range(m))
    path = [tuple(current)]
    reverse = list(range(m - 1, -1, -1))
    while current != reverse:
        # adjacent pairs still in original order; swapping one keeps the
        # path inside a single-crossing domain
        options = [
            i for i in range(m - 1) if current[i] < current[i + 1]
        ]
        i = options[int(rng.integers(0, len(options)))]
        current[i], current[i + 1] = current[i + 1], current[i]
        path.append(tuple(current))
    picks = rng.integers(0, len(path), size=n)
    return Election(m, np.array(path)[picks])


def _check_choice(value, what: str, options: tuple[str, ...]) -> None:
    if value not in options:
        raise ValueError(f"unknown {what} {value!r}, expected one of {options}")


_check_shape = functools.partial(_check_choice, what="shape", options=EUCLIDEAN_SHAPES)
_check_tree = functools.partial(_check_choice, what="tree", options=GROUP_SEPARABLE_TREES)


def _euclidean_points(rng: np.random.Generator, count: int, shape: str) -> np.ndarray:
    if shape == "interval_1d":
        return rng.random((count, 1))
    if shape == "disc_2d":
        radius = np.sqrt(rng.random(count))
        angle = rng.random(count) * 2.0 * np.pi
        return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    if shape == "sphere_2d":
        raw = rng.normal(size=(count, 3))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # cube_3d
    return rng.random((count, 3))


def sample_euclidean(m: int, n: int, seed: SeedLike, shape: str) -> Election:
    """Candidates and voters drawn uniformly from the shape; each voter
    ranks candidates by increasing distance, ties broken by index."""
    _check_shape(shape)
    rng = _rng(seed)
    candidates = _euclidean_points(rng, m, shape)
    voters = _euclidean_points(rng, n, shape)
    sq = ((candidates - voters[:, None, :]) ** 2).sum(axis=2)
    return Election(m, np.argsort(sq, axis=1, kind="stable"))


def _balanced_tree(candidates: Sequence[int]):
    if len(candidates) == 1:
        return candidates[0]
    half = (len(candidates) + 1) // 2
    return (_balanced_tree(candidates[:half]), _balanced_tree(candidates[half:]))


def _caterpillar_tree(candidates: Sequence[int]):
    if len(candidates) == 1:
        return candidates[0]
    return (candidates[0], _caterpillar_tree(candidates[1:]))


def _read_leaves(node, draws: Iterator[float]) -> list[int]:
    if isinstance(node, int):
        return [node]
    left, right = node
    if next(draws) < 0.5:
        left, right = right, left
    return _read_leaves(left, draws) + _read_leaves(right, draws)


def sample_group_separable(m: int, n: int, seed: SeedLike, tree: str) -> Election:
    """Group-separable votes from an ordered binary tree over the
    candidates: each internal node swaps its children with probability 1/2,
    and the vote reads the leaves left to right."""
    _check_tree(tree)
    build = _balanced_tree if tree == "balanced" else _caterpillar_tree
    root = build(tuple(range(m)))
    # each vote visits the tree's m - 1 internal nodes, one draw each
    draws = _rng(seed).random((n, m - 1)).tolist()
    return Election(m, np.array([_read_leaves(root, iter(row)) for row in draws]))


# each model's sampler and the parameters it takes, in order, each with the
# check of its values that the sampler calls too
_SAMPLERS = {
    "IC": (sample_ic, {}),
    "Urn": (sample_urn, {"alpha": _check_alpha}),
    "Mallows": (sample_mallows, {"phi": _check_phi}),
    "SPWalsh": (sample_sp_walsh, {}),
    "SPConitzer": (sample_sp_conitzer, {}),
    "SPOC": (sample_spoc, {}),
    "SingleCrossing": (sample_single_crossing, {}),
    "Euclidean": (sample_euclidean, {"shape": _check_shape}),
    "GroupSeparable": (sample_group_separable, {"tree": _check_tree}),
}


def check_spec(spec: CultureSpec) -> None:
    """Raise ValueError unless the spec names a known model and exactly the
    parameters it takes, each with a value in its domain; draws nothing."""
    if spec.model not in _SAMPLERS:
        raise ValueError(f"unknown culture model {spec.model!r}")
    checks = _SAMPLERS[spec.model][1]
    for key in checks:
        if key not in spec.params:
            raise ValueError(f"{spec.model} requires parameter {key!r}")
    unexpected = set(spec.params) - set(checks)
    if unexpected:
        raise ValueError(f"unexpected parameters for {spec.model}: {sorted(unexpected)}")
    for key, check in checks.items():
        check(spec.params[key])


def sample(spec: CultureSpec, m: int, n: int, seed: SeedLike) -> Election:
    """Draw one election from the given culture; deterministic in the seed."""
    _check_positive(m, n)
    check_spec(spec)
    sampler, names = _SAMPLERS[spec.model]
    return sampler(m, n, seed, *(spec.params[key] for key in names))


def sample_many(
    spec: CultureSpec, m: int, n: int, seed: int, count: int, start: int = 0
) -> list[Election]:
    """Draw count elections; election i uses the child stream (seed, start+i),
    so batches can be re-generated in any split without changing results."""
    seed = _check_natural(seed, "seed")
    count = _check_natural(count, "count")
    start = _check_natural(start, "start")
    return [
        sample(spec, m, n, np.random.SeedSequence(seed, spawn_key=(start + i,)))
        for i in range(count)
    ]


def _prefixes_contiguous(votes, axis: Sequence[int], m: int, span: int) -> bool:
    # True when every top-k prefix of every vote holds consecutive places of
    # the axis, a permutation of 0..m-1, counted modulo span: m on a circle,
    # m + 1 on a line, whose place m is empty, so no prefix wraps round
    place = {c: i for i, c in enumerate(_check_permutation(axis, m, "axis"))}
    for vote in votes:
        lo = hi = place[vote[0]]
        for c in vote[1:]:
            p = place[c]
            if p == (lo - 1) % span:
                lo = p
            elif p == (hi + 1) % span:
                hi = p
            else:
                return False
    return True


def is_single_peaked(election: Election, axis: Sequence[int]) -> bool:
    """True when every vote's top-k candidates form an interval of the axis
    for all k, which is the single-peakedness condition."""
    return _prefixes_contiguous(election.array.tolist(), axis, election.m, election.m + 1)


def is_spoc_vote(vote: Sequence[int], circle: Sequence[int]) -> bool:
    """True when every top-k prefix of the vote is a contiguous arc of the
    circle."""
    vote = _check_permutation(vote, len(vote), "vote")
    return _prefixes_contiguous([vote], circle, len(vote), len(vote))


def is_single_crossing(election: Election) -> bool:
    """True when the votes, ordered by swap distance to the canonical
    order, cross each candidate pair at most once.

    This ordering recovers a witness order for profiles sampled from one
    maximal domain (path position equals swap distance); it is a sufficient
    check, not a complete single-crossing recognizer.
    """
    first, second = _upper_pairs(election.m)
    prefers = _preferences(election.array)[:, first, second]
    # a vote's swap distance to the canonical order counts the pairs c < d
    # it ranks d above c; equal distances go in lexicographic vote order
    distances = (~prefers).sum(axis=1)
    ordered = prefers[np.lexsort((*election.array.T[::-1], distances))]
    changes = (ordered[1:] != ordered[:-1]).sum(axis=0)
    return bool((changes <= 1).all())
