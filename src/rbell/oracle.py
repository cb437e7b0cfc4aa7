"""Brute-force ground truth: enumerate every partition of {1, ..., n+r} whose
first r elements lie in distinct blocks, histogrammed by block count.

Partitions are walked as restricted growth strings (Knuth, TAOCP 4A,
7.2.1.5): element i takes a label from 0 to m+1, where m is the largest label
so far, and the string has m+1 blocks.  A partition keeps its first r
elements apart exactly when its string starts with the staircase 0, 1, ...,
r-1.  Call the length of a string's longest staircase start its staircase
length L.  Point (n, r) counts the strings of length n+r with L >= r, so the
prefix tree of every point is a subtree of one tree: the strings below the
staircase of length r.  One walk therefore serves a whole grid of points.

The walk goes down the staircase.  The staircase of length L has L children
that repeat a label; they root the subtree of strings whose staircase length
is exactly L.  That subtree is walked down to T_L, the longest string that
any requested point with r <= L counts, so the walk is pruned to the union of
the requested points' trees.  Every prefix shorter than T_L is visited one
by one and tallied by (length, L, block count).  The strings of length T_L
are counted in bulk from the visited (T_L - 1)-prefixes: a prefix with j
blocks has j children that join a block (j blocks) and one that opens one
(j+1 blocks).  Point (n, r) reads the tallies at length n+r, summed over
L >= r.  On the oracle suite's default grid, every point with n + r <= 12,
each nonempty string of length up to 11 is visited once: sum B_l over
l = 1..11, that is 820,987 prefixes.

Sharing the walk does not re-derive the recurrence of the r-Stirling
numbers.  Every tally below T_L counts visits, one per prefix, and no tally
is computed from another.  Only a point's last element is counted in bulk,
and only from prefixes that were visited.  The walk keeps no memo on (length,
block count) and counts no two trailing elements in closed form, so this
module stays an independent check on the Stirling recurrences.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .errors import DomainError
from .stirling import _check_natural

_MAX_ELEMENTS = 13


class PartitionCounts(NamedTuple):
    """Histogram of restricted partitions by total block count."""

    n: int
    r: int
    by_blocks: dict[int, int]
    total: int


class GridCounts(NamedTuple):
    """The counts at every requested point, and the number of nonempty
    prefixes the one walk visited one by one."""

    counts: dict[tuple[int, int], PartitionCounts]
    prefixes: int


def enumerate_restricted_partitions(n: int, r: int) -> PartitionCounts:
    """Counts of partitions of an (n+r)-set keeping the first r elements apart.

    Contract: by_blocks[k+r] = stirling2r(n+r, k+r, r) and total = B_{n,r}.
    Guarded at n + r <= 13 (about 27.6M partitions in the worst case).
    The walk of enumerate_grid over the one point (n, r).
    """
    return enumerate_grid([(n, r)]).counts[n, r]


def enumerate_grid(points: Iterable[tuple[int, int]]) -> GridCounts:
    """Counts at every requested (n, r) from one walk of the tree of
    restricted growth strings; each point is guarded as in
    enumerate_restricted_partitions."""
    points = list(points)
    for n, r in points:
        _check_natural(n=n, r=r)
        if n + r > _MAX_ELEMENTS:
            raise DomainError(f"enumeration guard: n + r must stay <= {_MAX_ELEMENTS}")

    top = max((n + r for n, r in points), default=0)
    limit = [0] * (top + 1)  # limit[L] = T_L
    for n, r in points:
        for stair in range(r, top + 1):
            limit[stair] = max(limit[stair], n + r)

    # tally[l][L][k]: strings of length l, staircase length L, k blocks;
    # tally[l][l] holds the staircase of length l alone
    tally = [[[0] * (size + 2) for _ in range(size + 1)] for size in range(top + 1)]
    for size in range(top + 1):
        tally[size][size][size] = 1
    prefixes = max(top - 1, 0)  # the staircases of length 1 .. top-1
    for stair in range(1, top):
        rows = [tally[size][stair] for size in range(stair + 1, limit[stair] + 1)]
        if rows:
            _walk(stair, rows)
            prefixes += sum(sum(row) for row in rows[:-1])  # one count per visit

    counts = {}
    for n, r in points:
        size = n + r
        lo = max(r, 1) if size >= 1 else 0
        by_blocks = {
            k: sum(tally[size][stair][k] for stair in range(r, size + 1))
            for k in range(lo, size + 1)
        }
        counts[n, r] = PartitionCounts(n, r, by_blocks, sum(by_blocks.values()))
    return GridCounts(counts, prefixes)


def _walk(stair: int, rows: list[list[int]]) -> None:
    """Walk the subtree below the staircase of length stair.  rows[d] tallies
    by block count the strings at depth d below the staircase; the prefixes at
    depths up to len(rows) - 2 are visited one by one, and the last row is
    counted in bulk from the row just above it."""
    last = rows[-1]
    deepest = len(rows) - 2

    def below(d: int, j: int, opening: bool) -> None:
        # the children at depth d of a prefix with j blocks: j join one of its
        # blocks, and one opens a new block unless the prefix is the staircase
        row = rows[d]
        if d == deepest:
            # each iteration is one visited prefix with j blocks: its last
            # element joins one of j blocks, or opens one more
            seen = joined = 0
            for _ in range(j):
                seen += 1
                joined += j
            row[j] += seen
            last[j] += joined
            last[j + 1] += seen
            if opening:
                k = j + 1
                row[k] += 1
                last[k] += k
                last[k + 1] += 1
            return
        d += 1
        for _ in range(j):
            row[j] += 1
            below(d, j, True)
        if opening:
            row[j + 1] += 1
            below(d, j + 1, True)

    if deepest < 0:  # the staircase's children are the last row
        last[stair] += stair
    else:
        below(0, stair, False)
