"""Brute-force ground truth: enumerate every partition of {1, ..., n+r} whose
first r elements lie in distinct blocks, histogrammed by block count.

Partitions are walked as restricted growth strings (Knuth, TAOCP 4A,
7.2.1.5): free element i may join any block used so far or open block m+1,
where m is the largest label so far, with the first r elements pre-pinned to
blocks 0..r-1.  Every restricted growth string of the first n-1 free
elements (every (n-1)-prefix) is visited one by one; the last free element
is counted in bulk, since after a prefix with largest label m it has m+1
blocks to join (m+1 partitions with m+1 blocks) and one block to open (one
partition with m+2 blocks).

Nothing deeper may be folded.  Memoizing the walk on (i, m), or counting two
or more trailing elements in closed form, would re-derive the row recurrence
of the r-Stirling numbers, and the oracle check would then compare that
recurrence with itself.  No counting shortcut shared with the Stirling
recurrences is used, so this module stays an independent check on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .stirling import _check_natural

_MAX_ELEMENTS = 13


@dataclass(frozen=True)
class PartitionCounts:
    """Histogram of restricted partitions by total block count."""

    n: int
    r: int
    by_blocks: dict[int, int]
    total: int


def enumerate_restricted_partitions(n: int, r: int) -> PartitionCounts:
    """Counts of partitions of an (n+r)-set keeping the first r elements apart.

    Contract: by_blocks[k+r] = stirling2r(n+r, k+r, r) and total = B_{n,r}.
    Guarded at n + r <= 13 (about 27.6M partitions in the worst case).

    Visits each of the B_{n-1,r} restricted growth strings of the first n-1
    free elements once; the deepest prefix level is a loop in its parent's
    frame, not a call.  A prefix with largest label m adds m+1 to counts[m+1]
    (the last element joins one of its blocks) and 1 to counts[m+2] (it opens
    one).
    """
    _check_natural(n=n, r=r)
    if n + r > _MAX_ELEMENTS:
        raise DomainError(f"enumeration guard: n + r must stay <= {_MAX_ELEMENTS}")

    counts = [0] * (n + r + 2)
    deepest = n - 2  # index of the last prefix element

    def walk(i: int, m: int) -> None:
        # m is the largest block label used so far; element i may take 0..m+1.
        if i == deepest:
            c = counts
            j, k = m + 1, m + 2
            for _ in range(j):  # element i joins a block: the prefix keeps m
                c[j] += j
                c[k] += 1
            c[k] += k  # element i opens block m+1
            c[k + 1] += 1
            return
        i += 1
        for _ in range(m + 1):
            walk(i, m)
        walk(i, m + 1)

    if n == 0:
        counts[r] = 1
    elif n == 1:  # the empty prefix, largest label r-1
        counts[r] += r
        counts[r + 1] += 1
    else:
        walk(0, r - 1)

    lo = max(r, 1) if n + r >= 1 else 0
    by_blocks = {k: counts[k] for k in range(lo, n + r + 1)}
    return PartitionCounts(n, r, by_blocks, sum(by_blocks.values()))
