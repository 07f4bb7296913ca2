"""Indexing combinatorics: set partitions, subsets, partial isomorphisms.

All enumeration orders are deterministic so that formula sums and test
output are reproducible; the sums themselves are order-independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import IndexOutOfRange


@dataclass(frozen=True)
class SetPartition:
    """Unordered partition of [n] = {1..n}; blocks sorted by minimum."""

    blocks: tuple  # tuple of sorted int tuples
    n: int

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __str__(self):
        if not self.blocks:
            return "empty"
        return "|".join("".join(map(str, b)) for b in self.blocks)


def _canon(blocks, n) -> SetPartition:
    blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    return SetPartition(blocks, n)


# partitions(n) per n, built once; callers get a fresh list each time
_PARTITIONS: dict[int, list[SetPartition]] = {}


def partitions(n: int) -> list[SetPartition]:
    """All unordered partitions of [n]; n = 0 gives the empty partition."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n not in _PARTITIONS:
        out = [[]]
        for k in range(1, n + 1):
            nxt = []
            for p in out:
                for i in range(len(p)):
                    nxt.append(p[:i] + [p[i] + (k,)] + p[i + 1:])
                nxt.append(p + [(k,)])
            out = nxt
        _PARTITIONS[n] = [_canon(p, n) for p in out]
    return list(_PARTITIONS[n])


def subsets(n: int) -> list[tuple[int, ...]]:
    """All 2^n subsets of [n], ordered by bitmask (bit i-1 = element i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for mask in range(1 << n):
        out.append(tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1))
    return out


@dataclass(frozen=True)
class PartialIso:
    """Bijection between a subset of [m] and a subset of [n], as its graph."""

    pairs: tuple  # tuple of (i, j), increasing in i
    m: int
    n: int

    @property
    def size(self) -> int:
        """|theta| = m + n - |graph|."""
        return self.m + self.n - len(self.pairs)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.pairs)

    def __str__(self):
        body = ",".join(f"{i}->{j}" for i, j in self.pairs)
        return f"[{self.m}]=~[{self.n}]{{{body}}}"


def partial_isos(m: int, n: int) -> list[PartialIso]:
    """Every partial bijection [m] =~ [n], each exactly once."""
    if m < 0 or n < 0:
        raise ValueError("arities must be nonnegative")
    out = []
    for k in range(min(m, n) + 1):
        for dom in itertools.combinations(range(1, m + 1), k):
            for img in itertools.combinations(range(1, n + 1), k):
                for perm in itertools.permutations(img):
                    out.append(PartialIso(tuple(zip(dom, perm)), m, n))
    return out


def arrange(theta: PartialIso, grid) -> list:
    """Arrange a doubly indexed family x_ij per a partial isomorphism.

    Returns [x00, matched x_{i theta(i)} by increasing i, unmatched-row
    x_{i'0} by increasing i', unmatched-column x_{0j'} by increasing j'];
    length is always |theta| + 1.  `grid` is indexed as grid[i, j] with
    0 <= i <= m and 0 <= j <= n.
    """
    def at(i, j):
        try:
            return grid[i, j]
        except (KeyError, IndexError) as exc:
            raise IndexOutOfRange(f"grid lacks index ({i},{j})") from exc

    matched_rows = set(theta.domain)
    matched_cols = set(theta.image)
    out = [at(0, 0)]
    for i, j in sorted(theta.pairs):
        out.append(at(i, j))
    for i in range(1, theta.m + 1):
        if i not in matched_rows:
            out.append(at(i, 0))
    for j in range(1, theta.n + 1):
        if j not in matched_cols:
            out.append(at(0, j))
    return out
