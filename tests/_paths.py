"""Unit-step election paths for the isomorphic metrics.

Both builders morph election a into a relabeled copy of b one minimal change
at a time: an adjacent transposition inside one vote for swap, a whole-vote
replacement for discrete.  The relabeling comes from the metric's optimal
matchings, so the number of steps equals the distance; the triangle
inequality then forces every consecutive distance to be exactly 1.
"""

from __future__ import annotations

from electodist import Election, apply_matchings, distance


def _inverse(p):
    inv = [0] * len(p)
    for i, c in enumerate(p):
        inv[c] = i
    return tuple(inv)


def _aligned_target(a: Election, b: Election, kind: str) -> Election:
    out = distance(a, b, kind)
    return apply_matchings(b, _inverse(out.candidate_matching), out.voter_matching)


def swap_unit_path(a: Election, b: Election) -> list[Election]:
    """Elections from a to a relabeling of b, one adjacent swap per step."""
    target = _aligned_target(a, b, "swap")
    votes = [list(v) for v in a.votes]
    steps = [a]
    for i in range(a.n):
        rank = _inverse(target.votes[i])
        work = votes[i]
        changed = True
        while changed:
            changed = False
            for j in range(len(work) - 1):
                if rank[work[j]] > rank[work[j + 1]]:
                    work[j], work[j + 1] = work[j + 1], work[j]
                    steps.append(Election(a.m, [tuple(v) for v in votes]))
                    changed = True
    return steps


def discrete_unit_path(a: Election, b: Election) -> list[Election]:
    """Elections from a to a relabeling of b, one vote replacement per step."""
    target = _aligned_target(a, b, "discrete")
    votes = [list(v) for v in a.votes]
    steps = [a]
    for i in range(a.n):
        if tuple(votes[i]) != target.votes[i]:
            votes[i] = list(target.votes[i])
            steps.append(Election(a.m, [tuple(v) for v in votes]))
    return steps
