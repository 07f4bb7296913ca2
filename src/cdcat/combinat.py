"""Indexing combinatorics: set partitions and partial isomorphisms.

All enumeration orders are deterministic so that formula sums and test
output are reproducible; the sums themselves are order-independent.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import Table
from .errors import IndexOutOfRange, nonnegative


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


def partitions(n: int) -> list[SetPartition]:
    """All unordered partitions of [n]; n = 0 gives the empty partition."""
    return list(_PARTITIONS[n])


def _partitions(n: int) -> list[SetPartition]:
    nonnegative(n, "n")
    out = [[]]
    for k in range(1, n + 1):
        nxt = []
        for p in out:
            for i in range(len(p)):
                nxt.append(p[:i] + [p[i] + (k,)] + p[i + 1:])
            nxt.append(p + [(k,)])
        out = nxt
    return [_canon(p, n) for p in out]


# partitions(n) per n, built once; callers get a fresh list each time
_PARTITIONS = Table(_partitions)


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

    @functools.cached_property
    def free_rows(self) -> tuple[int, ...]:
        """The rows of [m] outside the domain, increasing."""
        rows = set(self.domain)
        return tuple(i for i in range(1, self.m + 1) if i not in rows)

    @functools.cached_property
    def free_cols(self) -> tuple[int, ...]:
        """The columns of [n] outside the image, increasing."""
        cols = set(self.image)
        return tuple(j for j in range(1, self.n + 1) if j not in cols)

    @functools.cached_property
    def cells(self) -> tuple:
        """The grid indices `arrange` reads, in its order."""
        return (((0, 0),) + tuple(sorted(self.pairs))
                + tuple((i, 0) for i in self.free_rows)
                + tuple((0, j) for j in self.free_cols))

    def __str__(self):
        body = ",".join(f"{i}->{j}" for i, j in self.pairs)
        return f"[{self.m}]=~[{self.n}]{{{body}}}"


def partial_isos(m: int, n: int) -> list[PartialIso]:
    """Every partial bijection [m] =~ [n], each exactly once."""
    return list(_PARTIAL_ISOS[m, n])


def _partial_isos(key) -> list[PartialIso]:
    m, n = key
    nonnegative(min(m, n), "arity")
    out = []
    for k in range(min(m, n) + 1):
        for dom in itertools.combinations(range(1, m + 1), k):
            for img in itertools.combinations(range(1, n + 1), k):
                for perm in itertools.permutations(img):
                    out.append(PartialIso(tuple(zip(dom, perm)), m, n))
    return out


# partial_isos(m, n) per (m, n), built once; callers get a fresh list each time
_PARTIAL_ISOS = Table(_partial_isos)


def arrange(theta: PartialIso, grid) -> list:
    """Arrange a doubly indexed family x_ij per a partial isomorphism.

    Returns [x00, matched x_{i theta(i)} by increasing i, unmatched-row
    x_{i'0} by increasing i', unmatched-column x_{0j'} by increasing j'];
    length is always |theta| + 1.  `grid` is indexed as grid[i, j] with
    0 <= i <= m and 0 <= j <= n.
    """
    out = []
    for i, j in theta.cells:
        try:
            out.append(grid[i, j])
        except (KeyError, IndexError) as exc:
            raise IndexOutOfRange(f"grid lacks index ({i},{j})") from exc
    return out
