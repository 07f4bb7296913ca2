"""Set partitions and partial isomorphisms against closed forms."""

import itertools
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from cdcat.combinat import PartialIso, arrange, partial_isos, partitions
from cdcat.errors import IndexOutOfRange


def bell(n):
    # Bell recurrence B_{n+1} = sum_k C(n,k) B_k
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def test_partitions_of_zero():
    assert partitions(0) == [partitions(0)[0]]
    assert partitions(0)[0].blocks == ()
    assert partitions(0)[0].block_count == 0


@pytest.mark.parametrize("n", range(9))
def test_partition_counts_are_bell_numbers(n):
    parts = partitions(n)
    assert len(parts) == bell(n)
    assert len(set(parts)) == len(parts)


def test_partitions_hands_out_a_fresh_list_each_call():
    first = partitions(4)
    first.pop()
    assert len(partitions(4)) == bell(4)
    assert partitions(4) is not partitions(4)


def test_partial_isos_hands_out_a_fresh_list_each_call():
    first = partial_isos(2, 3)
    first.pop()
    assert len(partial_isos(2, 3)) == iso_count(2, 3)
    assert partial_isos(2, 3) is not partial_isos(2, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_partitions_cover_the_ground_set(n):
    for p in partitions(n):
        elems = sorted(x for b in p.blocks for x in b)
        assert elems == list(range(1, n + 1))


def iso_count(m, n):
    return sum(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))


def test_partial_iso_small_counts():
    assert len(partial_isos(0, 0)) == 1
    assert len(partial_isos(1, 1)) == 2
    assert len(partial_isos(2, 2)) == 7


@pytest.mark.parametrize("m,n", list(itertools.product(range(6), repeat=2)))
def test_partial_iso_counts_match_formula(m, n):
    isos = partial_isos(m, n)
    assert len(isos) == iso_count(m, n)
    assert len(set(isos)) == len(isos)


@pytest.mark.parametrize("m,n", list(itertools.product(range(5), repeat=2)))
def test_partial_iso_counts_match_brute_force(m, n):
    # every injective partial function, counted directly
    count = 0
    for dom_size in range(min(m, n) + 1):
        for dom in itertools.combinations(range(1, m + 1), dom_size):
            for img in itertools.permutations(range(1, n + 1), dom_size):
                count += 1
    assert len(partial_isos(m, n)) == count


def test_partial_iso_graphs_are_bijections():
    for theta in partial_isos(3, 4):
        assert len(set(theta.domain)) == len(theta.pairs)
        assert len(set(theta.image)) == len(theta.pairs)
        assert theta.size == theta.m + theta.n - len(theta.pairs)


class Grid:
    """grid[i, j] = the label x<i><j>."""

    def __init__(self, m, n):
        self.m, self.n = m, n

    def __getitem__(self, idx):
        i, j = idx
        if not (0 <= i <= self.m and 0 <= j <= self.n):
            raise KeyError(idx)
        return f"x{i}{j}"


def test_arrange_worked_example():
    theta = PartialIso(((1, 2), (3, 4)), 3, 4)
    got = arrange(theta, Grid(3, 4))
    assert got == ["x00", "x12", "x34", "x20", "x01", "x03"]


def test_arrange_empty_iso():
    theta = PartialIso((), 1, 1)
    assert arrange(theta, Grid(1, 1)) == ["x00", "x10", "x01"]


def test_arrange_length_is_size_plus_one():
    for m in range(4):
        for n in range(4):
            for theta in partial_isos(m, n):
                assert len(arrange(theta, Grid(m, n))) == theta.size + 1


def test_arrange_reports_missing_grid_entries():
    theta = PartialIso(((1, 1),), 2, 1)
    with pytest.raises(IndexOutOfRange):
        arrange(theta, Grid(1, 1))


@pytest.mark.parametrize("m,n", list(itertools.product(range(4), repeat=2)))
def test_free_rows_and_columns_are_the_cells_outside_the_graph(m, n):
    for theta in partial_isos(m, n):
        assert theta.free_rows == tuple(i for i, j in theta.cells[1:] if j == 0)
        assert theta.free_cols == tuple(j for i, j in theta.cells[1:] if i == 0)
        # the graph, the free rows and the free columns cover [m] and [n] once
        assert sorted(theta.domain + theta.free_rows) == list(range(1, m + 1))
        assert sorted(theta.image + theta.free_cols) == list(range(1, n + 1))
        assert list(theta.free_rows) == sorted(theta.free_rows)
        assert list(theta.free_cols) == sorted(theta.free_cols)
        assert len(theta.pairs) + len(theta.free_rows) + len(theta.free_cols) == theta.size


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        partitions(-1)
    with pytest.raises(ValueError):
        partial_isos(-1, 2)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_partial_isos_symmetric_in_m_n(m, n):
    assert len(partial_isos(m, n)) == len(partial_isos(n, m))
