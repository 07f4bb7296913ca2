"""Hash-consed values: one object per distinct monomial, generator, point,
tensored pair of points and Mat backend result.

Interning is a fast path only.  Equality and hashing stay by value, so a
value built outside the tables, or after they were emptied, still compares
correctly, and no report changes with the state of the tables.
"""

import json

import pytest
from hypothesis import given, strategies as st

from cdcat import algebra, combinat, matcat, qmodality as qm, suites
from cdcat.algebra import (Free, Memo, ModuleElement, Monomial, QGenerator, Table,
                           basis_elem, zmod)
from cdcat.errors import InvalidArgument
from cdcat.matcat import MatBackend, MatMap, trusted_matmap

Z2 = zmod(2)
A = Free(("a1", "a2"))
TABLES = ("_TOKENS", "_MONOMIALS", "_SORTED_MONOMIALS", "_GENERATORS", "_POINTS",
          "_TENSOR_POINTS")
COMBINAT_TABLES = ("_PARTITIONS", "_PARTIAL_ISOS")


def empty_tables():
    for name in TABLES:
        getattr(algebra, name).clear()
    for name in COMBINAT_TABLES:
        getattr(combinat, name).clear()
    matcat._MATS.clear()


@pytest.fixture(autouse=True)
def _fresh_tables():
    # each test starts from empty tables and leaves none behind it
    empty_tables()
    yield
    empty_tables()


def inject(keys):
    point = basis_elem(Z2, A, "a1") + basis_elem(Z2, A, "a2")
    return qm.q_inject(point, [basis_elem(Z2, A, k) for k in keys])


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# one object per value

def test_equal_generators_built_separately_are_one_object():
    (g,) = inject(("a2", "a1")).coeffs
    (h,) = inject(("a1", "a2")).coeffs
    assert g is h and g.point is h.point and g.tail is h.tail
    for x, y in zip(qm.enum_generators(Z2, A, 2), qm.enum_generators(Z2, A, 2)):
        assert x is y


@given(st.lists(st.sampled_from(["a1", "a2", "a3"]), max_size=4), st.randoms())
def test_a_monomial_is_interned_whatever_the_order_of_its_keys(keys, rnd):
    shuffled = keys[:]
    rnd.shuffle(shuffled)
    mono = Monomial.of(keys)
    assert Monomial.of(shuffled) is mono
    assert mono == Monomial(tuple(sorted(keys))) and hash(mono) == hash(Monomial(mono.keys))


def test_structure_maps_share_their_generators():
    q = inject(("a1",))
    (outer,) = [g for g in qm.comult(q).coeffs if g.degree == 1]
    (inner,) = outer.tail.keys
    (g,) = q.coeffs
    assert inner is g
    # the outer point <<x0>> is one object across calls
    (again,) = [g for g in qm.comult(q).coeffs if g.degree == 1]
    assert again is outer and again.point is outer.point


# ---------------------------------------------------------------------------
# equality stays by value

def test_values_built_after_the_tables_are_emptied_compare_by_value():
    q = qm.comult(inject(("a1", "a2")))
    gens = list(q.coeffs)
    empty_tables()
    r = qm.comult(inject(("a1", "a2")))
    assert not set(map(id, gens)) & set(map(id, r.coeffs))
    assert r == q and hash(r) == hash(q)
    for g, h in zip(gens, r.coeffs):
        assert g is not h and g == h and hash(g) == hash(h)
    assert {g: 1 for g in gens}.keys() == {h: 1 for h in r.coeffs}.keys()


def test_values_never_interned_compare_by_value():
    point = ModuleElement(Z2, A, {"a1": 1})
    raw = QGenerator(point, Monomial(("a1", "a2")))
    (g,) = qm.q_inject(point, [basis_elem(Z2, A, "a2"), basis_elem(Z2, A, "a1")]).coeffs
    assert raw is not g and raw == g and hash(raw) == hash(g)
    # an unsorted raw tail is another value
    assert QGenerator(point, Monomial(("a2", "a1"))) != g


def test_a_small_bound_keeps_every_table_within_it(monkeypatch):
    monkeypatch.setattr(algebra, "_TOKENS_MAX", 4)

    def images():
        gens = [qm.q_gen_elem(Z2, g) for g in qm.enum_generators(Z2, A, 2)]
        return ([qm.comult(p) for p in gens]
                + [qm.monoidal_mult(p, q) for p in gens[::3] for q in gens[::4]])

    first = images()
    for name in TABLES:
        assert len(getattr(algebra, name)) <= 4, name
    for name in COMBINAT_TABLES:
        assert len(getattr(combinat, name)) <= 4, name
    assert [len(combinat.partitions(n)) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert len(combinat._PARTITIONS) <= 4
    again = images()
    assert again == first
    assert [hash(x) for x in again] == [hash(x) for x in first]
    for x, y in zip(first, again):
        for g, h in zip(x.coeffs, y.coeffs):
            assert g == h and hash(g) == hash(h)


def test_a_point_tensored_after_the_table_was_emptied_equals_the_interned_one():
    x = algebra._point(basis_elem(Z2, A, "a1") + basis_elem(Z2, A, "a2"))
    y = algebra._point(basis_elem(Z2, A, "a2"))
    point = algebra.tensor_point(x, y)
    assert algebra.tensor_point(x, y) is point
    assert point == algebra.tensor_elem(x, y) and algebra._point(point) is point
    empty_tables()
    again = algebra.tensor_point(x, y)
    assert again is not point and again == point and hash(again) == hash(point)
    assert {point: 1}.keys() == {again: 1}.keys()


def test_a_second_product_of_the_same_points_tensors_nothing(monkeypatch):
    calls = []
    tensor_elem = algebra.tensor_elem

    def counted(a, b):
        calls.append((a, b))
        return tensor_elem(a, b)

    monkeypatch.setattr(algebra, "tensor_elem", counted)
    p, q = inject(("a1",)), inject(("a2", "a2"))
    first = qm.monoidal_mult(p, q)
    assert len(calls) == 1
    # another generator pair on the same two points
    again = qm.monoidal_mult(inject(("a2",)), inject(()))
    assert len(calls) == 1
    assert len({id(g.point) for g in (*first.coeffs, *again.coeffs)}) == 1


# ---------------------------------------------------------------------------
# reports do not see the tables

def test_warm_and_emptied_tables_give_the_same_report(monkeypatch):
    warm = report_json(suites.modality_suite(2, dim=1, maxdeg=2))
    assert json.loads(warm)["passed"]
    assert report_json(suites.modality_suite(2, dim=1, maxdeg=2)) == warm
    empty_tables()
    assert report_json(suites.modality_suite(2, dim=1, maxdeg=2)) == warm
    monkeypatch.setattr(algebra, "_TOKENS_MAX", 4)
    assert report_json(suites.modality_suite(2, dim=1, maxdeg=2)) == warm


def test_unsorted_tails_still_fail_after_a_clean_run(monkeypatch):
    assert suites.modality_suite(2, dim=2, maxdeg=2, pair_total_degree=2).passed
    monkeypatch.setattr(qm, "_make_tail", lambda keys: Monomial(tuple(keys)))
    assert not suites.modality_suite(2, dim=2, maxdeg=2, pair_total_degree=2).passed


def test_tails_go_through_the_module_seam(monkeypatch):
    seen = []

    def tail(keys):
        seen.append(tuple(keys))
        return Monomial.of(keys)

    monkeypatch.setattr(qm, "_make_tail", tail)
    q = inject(("a1", "a2"))
    qm.comult(q)
    # one tail per generator built: <x0; a1, a2>, then comult's <x0> and,
    # for the partitions {12} and {1}{2}, one tail per block and the outer one
    assert seen[0] == ("a1", "a2") and len(seen) == 1 + 1 + (1 + 1) + (2 + 1)


# ---------------------------------------------------------------------------
# Mat backend results

def test_a_public_mat_map_equals_the_interned_one():
    be = MatBackend(2)
    f = be.identity(2)
    assert be.compose(f, f) is f and trusted_matmap(be.rig, 2, 2, f.rows) is f
    public = MatMap(be.rig, 2, 2, ((3, 0), (-2, 1)))  # unreduced entries
    assert public is not f and public == f and f == public and hash(public) == hash(f)
    assert {f: 1}.keys() == {public: 1}.keys()
    assert MatBackend(2).identity(2) is f  # another backend over an equal rig
    # the same rows over another rig are another value
    other = MatBackend(3).identity(2)
    assert other != f and other.rig == zmod(3) and f.rig == zmod(2)


def test_mat_results_built_after_the_table_is_emptied_compare_by_value():
    be = MatBackend(2)
    maps = list(be.all_maps(1, 2))
    empty_tables()
    again = list(be.all_maps(1, 2))
    assert not set(map(id, maps)) & set(map(id, again))
    for f, g in zip(maps, again):
        assert f is not g and f == g and hash(f) == hash(g)
    assert {f: 1 for f in maps}.keys() == {g: 1 for g in again}.keys()


def test_a_small_bound_keeps_the_mat_table_within_it(monkeypatch):
    monkeypatch.setattr(algebra, "_TOKENS_MAX", 4)
    be = MatBackend(2)
    maps = list(be.all_maps(2, 2))
    assert len(matcat._MATS) <= 4
    again = [be.compose(f, be.identity(2)) for f in maps]
    assert len(matcat._MATS) <= 4
    assert again == maps == [MatMap(be.rig, 2, 2, f.rows) for f in maps]
    assert [hash(f) for f in again] == [hash(f) for f in maps]


def test_warm_and_emptied_mat_tables_give_the_same_reports(monkeypatch):
    def reports():
        return (report_json(suites.yoneda_suite(2, max_dim=2)),
                report_json(suites.presheaf_suite(2, max_dim=2, q_bound=2, map_budget=4)))

    warm = reports()
    assert all(json.loads(r)["passed"] for r in warm)
    assert reports() == warm
    empty_tables()
    assert reports() == warm
    monkeypatch.setattr(algebra, "_TOKENS_MAX", 4)
    assert reports() == warm


# ---------------------------------------------------------------------------
# the memo types

def test_a_memo_builds_each_key_once():
    built = []
    memo = Memo(lambda k: built.append(k) or 2 * k)
    assert [memo[k] for k in (1, 2, 1, 3, 2)] == [2, 4, 2, 6, 4]
    assert built == [1, 2, 3] and memo == {1: 2, 2: 4, 3: 6}


@pytest.mark.parametrize("kind", [Memo, Table])
def test_a_build_that_raises_stores_nothing(kind):
    def build(k):
        if k < 0:
            raise InvalidArgument("negative key")
        return k

    memo = kind(build)
    with pytest.raises(InvalidArgument):
        memo[-1]
    assert memo == {} and memo[1] == 1 and memo == {1: 1}
    with pytest.raises(InvalidArgument):
        memo[-1]
    assert memo == {1: 1}


def test_a_table_empties_at_the_bound_and_a_memo_never(monkeypatch):
    monkeypatch.setattr(algebra, "_TOKENS_MAX", 3)
    table, memo = Table(lambda k: k), Memo(lambda k: k)
    for k in range(3):
        assert table[k] == memo[k] == k
    assert list(table) == [0, 1, 2]
    assert table[2] == 2 and len(table) == 3  # a hit does not empty it
    assert table[3] == memo[3] == 3
    assert list(table) == [3]
    assert list(memo) == [0, 1, 2, 3]  # a memo dies with its owner instead
