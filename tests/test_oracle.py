"""Tests for the brute-force partition oracle."""

import random
import tracemalloc

import pytest

from rbell.bell import rbell_number
from rbell.errors import DomainError
from rbell.oracle import (
    GridCounts,
    PartitionCounts,
    enumerate_grid,
    enumerate_restricted_partitions,
)
from rbell.stirling import stirling2r, stirling_row


def brute_force_counts(n, r, order):
    """Independent enumerator: blocks as explicit lists, free elements placed
    one at a time in the given order, each into an existing block or a new one.
    Anchors get negative sentinels so the r pinned blocks always exist."""
    histogram = {}

    def place(idx, blocks):
        if idx == len(order):
            histogram[len(blocks)] = histogram.get(len(blocks), 0) + 1
            return
        e = order[idx]
        for b in blocks:
            b.append(e)
            place(idx + 1, blocks)
            b.pop()
        blocks.append([e])
        place(idx + 1, blocks)
        blocks.pop()

    place(0, [[-a] for a in range(1, r + 1)])
    return histogram


def test_oracle_examples():
    got = enumerate_restricted_partitions(2, 2)
    assert got.by_blocks == {2: 4, 3: 5, 4: 1}
    assert got.total == 10
    assert isinstance(got, PartitionCounts)
    assert (got.n, got.r) == (2, 2)


def test_oracle_small_cases():
    assert enumerate_restricted_partitions(0, 5).by_blocks == {5: 1}
    assert enumerate_restricted_partitions(0, 5).total == 1
    assert enumerate_restricted_partitions(0, 0).by_blocks == {0: 1}
    assert enumerate_restricted_partitions(3, 0).by_blocks == {1: 1, 2: 3, 3: 1}
    assert enumerate_restricted_partitions(1, 4).by_blocks == {4: 4, 5: 1}


def test_oracle_totals_are_consistent():
    for r in range(0, 6):
        for n in range(0, 7):
            got = enumerate_restricted_partitions(n, r)
            assert got.total == sum(got.by_blocks.values())


def test_oracle_guard():
    with pytest.raises(DomainError):
        enumerate_restricted_partitions(14, 0)
    with pytest.raises(DomainError):
        enumerate_restricted_partitions(10, 4)
    with pytest.raises(DomainError):
        enumerate_restricted_partitions(2, -1)


def test_oracle_matches_explicit_blocks():
    # natural placement order, so the explicit-blocks enumerator and the walk
    # place the same element last; n <= 2 is where the bulk-counted last
    # element and the deepest prefix level meet the base cases, r = 0 included;
    # (2, 12) is past the n + r <= 13 guard
    points = {(n, r) for r in range(0, 10) for n in range(0, 10 - r)}
    points |= {(n, r) for r in range(0, 13) for n in range(0, min(3, 14 - r))}
    for n, r in sorted(points):
        got = enumerate_restricted_partitions(n, r).by_blocks
        nonzero = {k: v for k, v in got.items() if v}
        assert nonzero == brute_force_counts(n, r, list(range(1, n + 1))), (n, r)


def test_oracle_matches_recurrence():
    for r in range(0, 7):
        for n in range(0, 10 - r):
            got = enumerate_restricted_partitions(n, r)
            assert got.total == rbell_number(n, r)
            for k in range(n + 1):
                expected = stirling2r(n + r, k + r, r)
                assert got.by_blocks.get(k + r, 0) == expected


def test_oracle_insensitive_to_element_order():
    # partitions are sets of sets: enumerating with shuffled placement order
    # must reproduce the histogram
    rng = random.Random(2718)
    for r in range(0, 4):
        for n in range(0, 8 - r):
            expected = enumerate_restricted_partitions(n, r).by_blocks
            for _ in range(3):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                got = brute_force_counts(n, r, order)
                trimmed = {k: v for k, v in expected.items() if v}
                assert got == trimmed


def test_oracle_monotonicity():
    for r in range(0, 6):
        totals = [enumerate_restricted_partitions(n, r).total for n in range(0, 7)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        if r >= 1:
            assert all(a < b for a, b in zip(totals, totals[1:]))
    for n in range(1, 6):
        by_r = [enumerate_restricted_partitions(n, r).total for r in range(0, 6)]
        assert all(a < b for a, b in zip(by_r, by_r[1:]))


def _grid(nmax, rmax):
    """The oracle suite's points, in its scan order."""
    return [(n, r) for r in range(rmax + 1) for n in range(nmax + 1) if n + r <= 12]


def test_grid_walk_matches_explicit_blocks():
    # one walk for every point with n + r <= 9, against the explicit-blocks
    # enumerator in natural and shuffled placement order
    rng = random.Random(1618)
    points = [(n, r) for r in range(0, 10) for n in range(0, 10 - r)]
    walk = enumerate_grid(points)
    assert set(walk.counts) == set(points)
    for n, r in points:
        got = walk.counts[n, r]
        assert (got.n, got.r) == (n, r)
        nonzero = {k: v for k, v in got.by_blocks.items() if v}
        order = list(range(1, n + 1))
        assert nonzero == brute_force_counts(n, r, order), (n, r)
        rng.shuffle(order)
        assert nonzero == brute_force_counts(n, r, order), (n, r, order)


def test_grid_walk_matches_the_per_point_walks():
    points = _grid(12, 12)
    walk = enumerate_grid(points)
    assert list(walk.counts) == points
    for n, r in points:
        assert walk.counts[n, r] == enumerate_restricted_partitions(n, r), (n, r)


def test_default_grid_visits_every_short_string_once():
    # every nonempty restricted growth string of length 1..11, sum B_l
    prefixes = enumerate_grid(_grid(12, 12)).prefixes
    assert prefixes == sum(rbell_number(length, 0) for length in range(1, 12)) == 820_987


@pytest.mark.parametrize("nmax, rmax, prefixes", [
    # the staircases of length 1..11, then below the staircase of length L
    # (L <= 10) its L children: sum L = 55, so 66
    (2, 12, 66),
    # every string below length 12, as on the default grid
    (12, 0, 820_987),
])
def test_grid_walk_visits_no_more_than_the_per_point_walks(nmax, rmax, prefixes):
    points = _grid(nmax, rmax)
    walk = enumerate_grid(points)
    assert walk.prefixes == prefixes
    assert walk.prefixes <= sum(enumerate_grid([point]).prefixes for point in points)


def test_grid_walk_edge_cases():
    assert enumerate_grid([]) == GridCounts({}, 0)
    # n = 0: the staircase alone, whose shorter prefixes are visited
    assert enumerate_grid([(0, 5)]) == GridCounts({(0, 5): PartitionCounts(0, 5, {5: 1}, 1)}, 4)
    with pytest.raises(DomainError):
        enumerate_grid([(1, 1), (14, 0)])
    with pytest.raises(DomainError):
        enumerate_grid([(1, -1)])


def test_grid_walk_at_the_guard_edge():
    # n + r = 13, the largest the guard admits: the walk expands prefixes of
    # up to 11 elements and 10 blocks, so it reads every entry of the child
    # table, the last one only at this size
    points = [(13 - r, r) for r in range(14)]
    walk = enumerate_grid(points)
    for n, r in points:
        got = walk.counts[n, r]
        assert got.total == rbell_number(n, r), (n, r)
        row = stirling_row(2, 13, r)
        assert got.by_blocks == {k: row[k - r] for k in range(max(r, 1), 14)}, (n, r)


@pytest.mark.parametrize("walk", [
    pytest.param(lambda: enumerate_grid(_grid(12, 12)), id="default-grid"),
    pytest.param(lambda: enumerate_restricted_partitions(13, 0), id="13-0"),
])
def test_walk_memory_stays_bounded(walk):
    # the frontier is cut into fixed-size chunks: a few hundred KB at any
    # grid, where a whole level held at once peaks at 3.2 MB on the default
    # grid and 18 MB at (13, 0)
    tracemalloc.start()
    try:
        walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
