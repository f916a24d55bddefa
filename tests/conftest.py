"""Shared fixtures: hand-checked elections, hypothesis strategies, and an
empty correlation slot for every test."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from electodist import Election, analysis

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def fresh_correlation_slot():
    # `correlation` keeps the last dataset's matrices; each test starts
    # without them, so none was built under another test's patches
    analysis._correlated = ((), {})


# 3x3 pair with known distances: discrete 1, swap 1 (2 at the identity
# matching), EMD-positionwise 2 (4 at identity), pairwise 2, Bordawise 1
SMALL_A = Election(3, [(0, 1, 2), (1, 2, 0), (1, 0, 2)])
SMALL_B = Election(3, [(0, 1, 2), (0, 1, 2), (1, 0, 2)])

# all six orders once: position and majority matrices are flat
ALL_ORDERS_3 = Election(
    3, [(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1), (1, 2, 0), (2, 1, 0)]
)
# the three cyclic shifts, twice each: same position matrix as ALL_ORDERS_3
# but a different majority matrix
CYCLIC_DOUBLED = Election(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)] * 2)
# half canonical, half reversed: same majority matrix as ALL_ORDERS_3 but a
# different position matrix
SPLIT_REVERSED = Election(3, [(0, 1, 2)] * 3 + [(2, 1, 0)] * 3)


@st.composite
def elections(draw, min_m=2, max_m=4, min_n=1, max_n=4):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    votes = [draw(st.permutations(range(m))) for _ in range(n)]
    return Election(m, votes)


@st.composite
def election_pairs(draw, min_m=2, max_m=4, min_n=1, max_n=4):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    first = [draw(st.permutations(range(m))) for _ in range(n)]
    second = [draw(st.permutations(range(m))) for _ in range(n)]
    return Election(m, first), Election(m, second)


@st.composite
def election_triples(draw, min_m=2, max_m=4, min_n=1, max_n=4):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    profiles = [
        [draw(st.permutations(range(m))) for _ in range(n)] for _ in range(3)
    ]
    return tuple(Election(m, votes) for votes in profiles)


@st.composite
def matchings(draw, size):
    return tuple(draw(st.permutations(range(size))))
