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
the requested points' trees.  It goes a level at a time.  A level is a bytes
string with one byte per visited prefix, the byte being the prefix's block
count; a visited prefix is shorter than n + r <= 13, so the count fits a
byte.  A prefix with j blocks has j children that join a block (j blocks)
and one that opens one (j+1 blocks), so the next level is each byte replaced
by its children's bytes.  Levels are cut into chunks of _CHUNK bytes on an
explicit stack, so the frontier stays a few hundred KB at any grid.  Each
visited level is tallied by (length, L, block count), one count per byte,
and the strings of length T_L are counted in bulk from the visited
(T_L - 1)-prefixes.  Point (n, r) reads the tallies at length n+r, summed
over L >= r.  On the oracle suite's default grid, every point with
n + r <= 12, each nonempty string of length up to 11 is visited once: sum B_l
over l = 1..11, that is 820,987 prefixes.

Sharing the walk does not re-derive the recurrence of the r-Stirling
numbers.  Every prefix below T_L is one byte of its level, every tally counts
bytes, and no tally is computed from another.  Only a point's last element
is counted in bulk, and only from prefixes that were visited.  The walk keeps
no memo on (length, block count) and counts no two trailing elements in
closed form, so this module stays an independent check on the Stirling
recurrences.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .errors import DomainError
from .stirling import _check_natural

_MAX_ELEMENTS = 13
# the bytes of a prefix's children, by the prefix's block count j: j that
# join a block, then one that opens block j+1.  Only prefixes of at most
# _MAX_ELEMENTS - 2 elements are expanded, and below a staircase a prefix
# has fewer blocks than elements, so j stays below _MAX_ELEMENTS - 2.
_CHILDREN = tuple(bytes([j]) * j + bytes([j + 1]) for j in range(_MAX_ELEMENTS - 2))
# the most prefixes a level's chunk holds; a chunk expands to at most 11
# times as many, so the stack holds a few hundred KB
_CHUNK = 1024


class PartitionCounts(NamedTuple):
    """Histogram of restricted partitions by total block count."""

    n: int
    r: int
    by_blocks: dict[int, int]
    total: int


class GridCounts(NamedTuple):
    """The counts at every requested point, and the number of nonempty
    prefixes the one walk visited, one byte each."""

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
    depths up to len(rows) - 2 are visited as chunks of their levels, one
    byte each, and the last row is counted in bulk from the row just above
    it."""
    last = rows[-1]
    deepest = len(rows) - 2
    if deepest < 0:  # the staircase's children are the last row
        last[stair] += stair
        return
    # the staircase's children repeat a label: none opens a block
    stack = [(0, bytes([stair]) * stair)]
    while stack:
        d, level = stack.pop()
        row = rows[d]
        for j in range(stair, stair + d + 1):  # the block counts at depth d
            seen = level.count(j)
            row[j] += seen
            if d == deepest:
                # each last element joins one of j blocks, or opens one more
                last[j] += j * seen
                last[j + 1] += seen
        if d < deepest:
            level = b"".join(map(_CHILDREN.__getitem__, level))
            stack += ((d + 1, level[i:i + _CHUNK]) for i in range(0, len(level), _CHUNK))
