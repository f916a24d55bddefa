"""A fixed job that measures how fast the machine runs at the moment.

The benchmark was built on a few virtual CPUs of a shared host whose speed
changes by half from minute to minute, and between a fast and a slower
state every few seconds.  The job is timed in slices next to every set-up
and every measured run, and the measured time is divided by the median
slice: the quotient follows the program, not the host.  ``REFERENCE_S``
turns it back into seconds: the times the benchmark reports are those of
a machine on which a slice takes ``REFERENCE_S``.

The slices run in children forked like the measured runs, so they meet
the same copy-on-write faults and cold caches.  In a 300 s test on the
m6 and m10 maps, slices timed that way followed the runs' times (log
correlation 0.64) where slices in the long-lived parent did not (0.31).

The job does the kinds of work a run does: Python loops over permutations
with tuples and dicts, small numpy array operations, scipy's
``linear_sum_assignment`` on small matrices, and allocation of many small
objects over a working set larger than the caches.  It calls nothing of
electodist, so a change to the program leaves it as it is.

Run as a script, it prints the median of 50 slices.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

# near the median slice on a 2-vCPU Xeon VM (Intel family 6 model 143):
# 0.034 s over the runs of BENCH_seed.json, whose slices ranged from 0.022
# to 0.095 s
REFERENCE_S = 0.03
SLICES = 4  # before and after each pass


def _inputs() -> tuple:
    rng = np.random.default_rng(0)
    costs = [rng.integers(0, 60, (12, 12)) for _ in range(150)]
    votes = rng.permuted(np.tile(np.arange(6), (12, 1)), axis=1)
    return costs, votes, list(itertools.permutations(range(6)))


def _job(costs, votes, perms) -> int:
    acc = 0
    for cost in costs:
        rows, cols = linear_sum_assignment(cost)
        acc += int(cost[rows, cols].sum())
    seen: dict[tuple, int] = {}
    vote = votes[0].tolist()
    for perm in perms:
        relabeled = tuple(perm[c] for c in vote)
        key = tuple(sorted(relabeled[:3]))
        seen[key] = seen.get(key, 0) + sum(i * c for i, c in enumerate(relabeled))
    acc += len(seen)
    for perm in perms[::4]:
        moved = votes[:, list(perm)]
        acc += int(np.abs(np.cumsum(np.bincount(moved[:, 0], minlength=6) - 2)).sum())
    # allocation and a working set larger than the caches, as in a run
    records = [(i % 97, str(i), i * 0.5) for i in range(20_000)]
    groups: dict[int, list] = {}
    for key, _, value in records:
        groups.setdefault(key, []).append(value)
    records.sort(key=lambda row: row[1])
    acc += len(groups) + int(np.cumsum(np.arange(500_000) % 7)[-1])
    return acc


def slices(count: int = SLICES) -> list[float]:
    """Times of ``count`` runs of the job, in seconds.

    Call it in a child process: what the job allocates stays out of the
    parent, whose resident memory its children inherit.
    """
    inputs = _inputs()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        _job(*inputs)
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    print(f"{statistics.median(slices(50)):.6f} s per slice (reference {REFERENCE_S} s)")
