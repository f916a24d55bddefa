"""Seeded generators for thirteen statistical vote distributions.

Every sampler is a pure function of (parameters, m, n, seed): the same seed
always reproduces the same election, independent of platform or thread
count.  Batch generation derives one child stream per election with a
counter-based split, so elections keep their identity when generated in
parallel or in any order.

The structure checkers at the bottom (single-peaked, single-peaked on a
circle, single-crossing) validate the combinatorial guarantees the
restricted-domain samplers advertise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .elections import Election
from .metrics import vote_swap_distance

__all__ = [
    "CultureSpec",
    "DEFAULT_CULTURES",
    "EUCLIDEAN_SHAPES",
    "GROUP_SEPARABLE_TREES",
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
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def _fresh_votes(rng: np.random.Generator, m: int, n: int) -> list[tuple[int, ...]]:
    base = np.tile(np.arange(m), (n, 1))
    return [tuple(int(c) for c in row) for row in rng.permuted(base, axis=1)]


def sample_ic(m: int, n: int, seed: SeedLike) -> Election:
    """Impartial culture: every vote drawn uniformly at random."""
    return Election(m, _fresh_votes(_rng(seed), m, n))


def sample_urn(m: int, n: int, seed: SeedLike, alpha) -> Election:
    """Polya urn: vote k copies a uniform earlier vote with probability
    (k-1)*alpha / (1 + (k-1)*alpha), else is fresh uniform.

    alpha="gamma" draws alpha ~ Gamma(shape 0.8, scale 10) once per election.
    """
    rng = _rng(seed)
    if alpha == "gamma":
        alpha = float(rng.gamma(0.8, 10.0))
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(f"urn alpha must be nonnegative, got {alpha}")
    votes: list[tuple[int, ...]] = []
    for k in range(1, n + 1):
        weight = (k - 1) * alpha
        if k > 1 and rng.random() < weight / (1.0 + weight):
            votes.append(votes[int(rng.integers(0, k - 1))])
        else:
            votes.append(tuple(int(c) for c in rng.permutation(m)))
    return Election(m, votes)


def _mallows_expected_swaps(phi: float, m: int) -> float:
    # sum over insertion steps of the expected displacement from the bottom
    total = 0.0
    for i in range(1, m + 1):
        powers = [phi**t for t in range(i)]
        z = sum(powers)
        total += sum(t * p for t, p in enumerate(powers)) / z
    return total


def mallows_phi_from_norm(norm_phi: float, m: int) -> float:
    """Dispersion phi whose expected swap distance from the central vote is
    norm_phi/2 of the maximum m(m-1)/2, found by bisection."""
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


def sample_mallows(m: int, n: int, seed: SeedLike, phi) -> Election:
    """Mallows model around the identity order via repeated insertion:
    candidate i - 1 goes to position j in {1..i} with probability
    proportional to phi^(i-j).

    phi="norm-uniform" draws norm-phi ~ Uniform[0,1] once per election and
    converts it through mallows_phi_from_norm.
    """
    rng = _rng(seed)
    if phi == "norm-uniform":
        phi = mallows_phi_from_norm(float(rng.uniform(0.0, 1.0)), m)
    phi = float(phi)
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"mallows phi must lie in [0, 1], got {phi}")
    votes = []
    for _ in range(n):
        vote: list[int] = []
        for i in range(1, m + 1):
            weights = np.array([phi ** (i - j) for j in range(1, i + 1)])
            j = int(rng.choice(i, p=weights / weights.sum()))
            vote.insert(j, i - 1)
        votes.append(tuple(vote))
    return Election(m, votes)


def sample_sp_walsh(m: int, n: int, seed: SeedLike) -> Election:
    """Uniform single-peaked votes on the canonical axis: the vote is built
    from least preferred upward, taking the leftmost or rightmost remaining
    axis candidate with probability 1/2 each."""
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


def sample_sp_conitzer(m: int, n: int, seed: SeedLike) -> Election:
    """Single-peaked votes with a uniform peak, grown by extending the
    current axis interval left or right with probability 1/2 each."""
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


def sample_spoc(m: int, n: int, seed: SeedLike) -> Election:
    """Single-peaked-on-a-circle votes: uniform top candidate, then extend
    the preferred arc clockwise or counterclockwise with probability 1/2."""
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
    return Election(m, [path[int(p)] for p in picks])


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
    if shape == "cube_3d":
        return rng.random((count, 3))
    raise ValueError(f"unknown shape {shape!r}, expected one of {EUCLIDEAN_SHAPES}")


def sample_euclidean(m: int, n: int, seed: SeedLike, shape: str) -> Election:
    """Candidates and voters drawn uniformly from the shape; each voter
    ranks candidates by increasing distance, ties broken by index."""
    rng = _rng(seed)
    candidates = _euclidean_points(rng, m, shape)
    voters = _euclidean_points(rng, n, shape)
    votes = []
    for voter in voters:
        sq = ((candidates - voter) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        votes.append(tuple(int(c) for c in order))
    return Election(m, votes)


def _balanced_tree(candidates: Sequence[int]):
    if len(candidates) == 1:
        return candidates[0]
    half = (len(candidates) + 1) // 2
    return (_balanced_tree(candidates[:half]), _balanced_tree(candidates[half:]))


def _caterpillar_tree(candidates: Sequence[int]):
    if len(candidates) == 1:
        return candidates[0]
    return (candidates[0], _caterpillar_tree(candidates[1:]))


def _read_leaves(node, rng: np.random.Generator, out: list[int]) -> None:
    if isinstance(node, int):
        out.append(node)
        return
    left, right = node
    if rng.random() < 0.5:
        left, right = right, left
    _read_leaves(left, rng, out)
    _read_leaves(right, rng, out)


def sample_group_separable(m: int, n: int, seed: SeedLike, tree: str) -> Election:
    """Group-separable votes from an ordered binary tree over the
    candidates: each internal node swaps its children with probability 1/2,
    and the vote reads the leaves left to right."""
    if tree == "balanced":
        root = _balanced_tree(tuple(range(m)))
    elif tree == "caterpillar":
        root = _caterpillar_tree(tuple(range(m)))
    else:
        raise ValueError(
            f"unknown tree {tree!r}, expected one of {GROUP_SEPARABLE_TREES}"
        )
    rng = _rng(seed)
    votes = []
    for _ in range(n):
        leaves: list[int] = []
        _read_leaves(root, rng, leaves)
        votes.append(tuple(leaves))
    return Election(m, votes)


def sample(spec: CultureSpec, m: int, n: int, seed: SeedLike) -> Election:
    """Draw one election from the given culture; deterministic in the seed."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    model = spec.model
    params = dict(spec.params)

    def take(key, default=None):
        if key in params:
            return params.pop(key)
        if default is None:
            raise ValueError(f"{model} requires parameter {key!r}")
        return default

    if model == "IC":
        result = sample_ic(m, n, seed)
    elif model == "Urn":
        result = sample_urn(m, n, seed, take("alpha"))
    elif model == "Mallows":
        result = sample_mallows(m, n, seed, take("phi"))
    elif model == "SPWalsh":
        result = sample_sp_walsh(m, n, seed)
    elif model == "SPConitzer":
        result = sample_sp_conitzer(m, n, seed)
    elif model == "SPOC":
        result = sample_spoc(m, n, seed)
    elif model == "SingleCrossing":
        result = sample_single_crossing(m, n, seed)
    elif model == "Euclidean":
        result = sample_euclidean(m, n, seed, str(take("shape")))
    elif model == "GroupSeparable":
        result = sample_group_separable(m, n, seed, str(take("tree")))
    else:
        raise ValueError(f"unknown culture model {spec.model!r}")
    if params:
        raise ValueError(f"unexpected parameters for {model}: {sorted(params)}")
    return result


def sample_many(
    spec: CultureSpec, m: int, n: int, seed: int, count: int, start: int = 0
) -> list[Election]:
    """Draw count elections; election i uses the child stream (seed, start+i),
    so batches can be re-generated in any split without changing results."""
    return [
        sample(spec, m, n, np.random.SeedSequence(int(seed), spawn_key=(start + i,)))
        for i in range(count)
    ]


def _check_axis(axis: Sequence[int], m: int) -> tuple[int, ...]:
    axis = tuple(int(a) for a in axis)
    if sorted(axis) != list(range(m)):
        raise ValueError(f"axis must be a permutation of 0..{m - 1}")
    return axis


def is_single_peaked(election: Election, axis: Sequence[int]) -> bool:
    """True when every vote's top-k candidates form an interval of the axis
    for all k, which is the single-peakedness condition."""
    axis = _check_axis(axis, election.m)
    place = {c: i for i, c in enumerate(axis)}
    for vote in election.votes:
        lo = hi = place[vote[0]]
        for c in vote[1:]:
            p = place[c]
            if p == lo - 1:
                lo = p
            elif p == hi + 1:
                hi = p
            else:
                return False
    return True


def is_spoc_vote(vote: Sequence[int], circle: Sequence[int]) -> bool:
    """True when every top-k prefix of the vote is a contiguous arc of the
    circle."""
    m = len(vote)
    circle = _check_axis(circle, m)
    place = {c: i for i, c in enumerate(circle)}
    lo = hi = place[vote[0]]
    for c in vote[1:]:
        p = place[c]
        if p == (lo - 1) % m:
            lo = p
        elif p == (hi + 1) % m:
            hi = p
        else:
            return False
    return True


def is_single_crossing(election: Election) -> bool:
    """True when the votes, ordered by swap distance to the canonical
    order, cross each candidate pair at most once.

    This ordering recovers a witness order for profiles sampled from one
    maximal domain (path position equals swap distance); it is a sufficient
    check, not a complete single-crossing recognizer.
    """
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
