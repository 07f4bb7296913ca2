"""Derived differential calculus and the axiom checker over Poly and Mat."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cdcat.algebra import INT, NAT, RAT, zmod
from cdcat.cdc import (
    PolyBackend,
    PolySampler,
    check_axioms,
    decompose_iterated,
    derivative_on_subset,
    is_D_linear,
    is_k_linear,
    iterated_D,
    nth_derivative,
    partial_derivative,
    reconstruct_from_iterated,
)
from cdcat.errors import ArityError, ObjectMismatch, SpecMismatch
from cdcat.dpsh import FiniteCdcBase, representable
from cdcat.matcat import MatBackend, MatMap, MatSampler
from cdcat.poly import parse_poly_map, substitute

BE = PolyBackend(INT)


def p(src, arity=1):
    return parse_poly_map(src, INT, arity)


# ---------------------------------------------------------------------------
# partial and nth derivatives

def test_partial_of_product():
    # D_1(x y) = v y on (x, y, v)
    f = p("[x1*x2]", arity=2)
    assert partial_derivative(BE, f, [1, 1], 1) == p("[x2*x3]", arity=3)
    assert partial_derivative(BE, f, [1, 1], 2) == p("[x1*x3]", arity=3)


def test_partial_index_out_of_range():
    with pytest.raises(ArityError):
        partial_derivative(BE, p("[x1]"), [1], 2)


def test_nth_derivatives_of_cubic():
    f = p("[x1^3]")
    assert nth_derivative(BE, f, 1, 1) == p("[3*x1^2*x2]", arity=2)
    assert nth_derivative(BE, f, 1, 2) == p("[6*x1*x2*x3]", arity=3)
    assert nth_derivative(BE, f, 1, 3) == p("[6*x2*x3*x4]", arity=4)
    assert nth_derivative(BE, f, 1, 4).is_zero


def test_derivative_on_subset():
    # f^({2}) at n = 2 feeds slots 0 and 2 into f^(1)
    f = p("[x1^3]")
    assert derivative_on_subset(BE, f, 1, [2], 2) == p("[3*x1^2*x3]", arity=3)
    assert derivative_on_subset(BE, f, 1, [], 2) == p("[x1^3]", arity=3)
    with pytest.raises(ArityError):
        derivative_on_subset(BE, f, 1, [3], 2)


def test_nth_derivative_is_symmetric_and_additive_in_directions():
    from cdcat.faa import hom_action, validate_family

    f = p("[x1^3 + 2*x1^2]")
    family = [nth_derivative(BE, f, 1, n) for n in range(4)]
    assert validate_family(BE, 1, family, hom_action(BE)) is None


# ---------------------------------------------------------------------------
# iterated D and its partition-sum decomposition

def test_decompose_cubic_second_order():
    # D^2(x^3) on slots (x, r, s, v) is 6 x r s + 3 x^2 v
    f = p("[x1^3]")
    expected = p("[6*x1*x2*x3 + 3*x1^2*x4]", arity=4)
    assert decompose_iterated(BE, f, 1, 2) == expected
    assert iterated_D(BE, f, 2) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=3))
def test_decompose_matches_iterated_D(seed, n):
    sampler = PolySampler(INT, seed=seed, max_arity=2, max_degree=3)
    A = sampler.random_object()
    f = sampler.random_morphism(A, sampler.random_object())
    assert decompose_iterated(BE, f, A, n) == iterated_D(BE, f, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=3))
def test_reconstruct_recovers_nth_derivative(seed, n):
    sampler = PolySampler(INT, seed=seed, max_arity=2, max_degree=3)
    A = sampler.random_object()
    f = sampler.random_morphism(A, sampler.random_object())
    got = reconstruct_from_iterated(BE, iterated_D(BE, f, n), A, n)
    assert got == nth_derivative(BE, f, A, n)


def test_chain_rule_for_partials():
    # D_i(g f) = Dg (f pi, D_i f)
    sampler = PolySampler(INT, seed=3, max_arity=2, max_degree=3)
    for _ in range(10):
        blocks = [1, 1]
        A = sum(blocks)
        B = sampler.random_object()
        f = sampler.random_morphism(A, B)
        g = sampler.random_morphism(B, 1)
        for i in (1, 2):
            lhs = partial_derivative(BE, substitute(g, f), blocks, i)
            ext = blocks + [blocks[i - 1]]
            orig = BE.pairing([BE.proj(ext, j) for j in range(len(blocks))])
            rhs = BE.compose(
                BE.D(g),
                BE.pairing([BE.compose(f, orig), partial_derivative(BE, f, blocks, i)]),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# linearity predicates

def test_is_k_linear():
    sampler = PolySampler(INT, seed=0)
    ok, _ = is_k_linear(BE, p("[2*x1 + 3*x2]", arity=2), sampler)
    assert ok
    bad, witness = is_k_linear(BE, p("[x1^2]"), sampler)
    assert not bad and witness is not None


def test_is_D_linear():
    ok, _ = is_D_linear(BE, p("[2*x1]"))
    assert ok
    bad, witness = is_D_linear(BE, p("[x1^2]"))
    assert not bad and witness is not None


def test_every_mat_map_is_D_linear():
    mat = MatBackend(5)
    for f in mat.all_maps(2, 1):
        ok, _ = is_D_linear(mat, f)
        assert ok


# ---------------------------------------------------------------------------
# the axiom suite

@pytest.mark.parametrize("rig", [NAT, INT, RAT, zmod(5)])
def test_poly_axioms_pass(rig):
    backend = PolyBackend(rig)
    sampler = PolySampler(rig, seed=1, max_arity=2, max_degree=2)
    report = check_axioms(backend, sampler, samples=25)
    assert report.passed, report.render()
    assert len(report.checks) == 7


def test_mat_compose_matches_the_index_formula():
    mat = MatBackend(3)
    rng = random.Random(5)

    def rand(cod, dom):
        return MatMap(mat.rig, dom, cod, tuple(
            tuple(rng.randrange(3) for _ in range(dom)) for _ in range(cod)))

    for a, b, c in itertools.product(range(4), repeat=3):  # zero dims included
        g, f = rand(a, b), rand(b, c)
        expected = tuple(
            tuple(sum(g.rows[i][k] * f.rows[k][j] for k in range(b)) % 3
                  for j in range(c))
            for i in range(a))
        assert mat.compose(g, f) == MatMap(mat.rig, c, a, expected)



# ---------------------------------------------------------------------------
# the public MatMap checks its input; the backend's results skip the checks

def test_public_mat_map_refuses_bad_shapes_and_rigs():
    rig = zmod(3)
    with pytest.raises(ArityError):
        MatMap(rig, 2, 2, ((1, 0), (1,)))  # ragged row
    with pytest.raises(ArityError):
        MatMap(rig, 2, 2, ((1, 0),))  # one row short
    with pytest.raises(ArityError):
        MatMap(rig, 1, 0, ((1,),))  # a row too many
    with pytest.raises(SpecMismatch):
        MatMap(INT, 1, 1, ((1,),))


def test_mat_backend_refuses_mismatched_objects():
    mat = MatBackend(3)
    with pytest.raises(ObjectMismatch):
        mat.compose(mat.identity(2), mat.identity(1))
    with pytest.raises(ObjectMismatch):
        mat.pairing([mat.identity(1), mat.zero(2, 1)])
    with pytest.raises(ObjectMismatch):
        mat.add(mat.identity(1), mat.identity(2))
    with pytest.raises(ObjectMismatch):
        mat.add(mat.zero(1, 2), mat.zero(2, 1))


def mat_maps(m, dom, cod):
    entries = st.lists(st.integers(0, m - 1), min_size=dom * cod, max_size=dom * cod)
    return entries.map(lambda flat: MatMap(
        zmod(m), dom, cod, tuple(tuple(flat[i * dom:(i + 1) * dom]) for i in range(cod))))


def internal_results(draw, m):
    """Every kind of result MatBackend and ReprPresheaf build without the
    public constructor, on drawn dims 0..3 over Z/m."""
    mat = MatBackend(m)
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    f, f2, g = (draw(mat_maps(m, a, b)), draw(mat_maps(m, a, b)),
                draw(mat_maps(m, b, c)))
    objs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    yield mat.compose(g, f)
    yield mat.pairing([f, f2])
    yield mat.proj(objs, draw(st.integers(0, len(objs) - 1)))
    yield mat.D(f)
    yield mat.zero(a, b)
    yield mat.add(f, f2)
    yield mat.scale(draw(st.integers(0, 2)), f)
    yield mat.identity(a)
    if a * b <= 4:
        yield from mat.all_maps(a, b)
    y = representable(FiniteCdcBase(m, [1]), b)
    yield from y.basis(a)
    yield y.from_coords(a, y.coords(a, f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_internal_mat_results_equal_their_public_rebuild(data):
    m = data.draw(st.sampled_from([1, 3]))  # Z/1 has 1 = 0
    for r in internal_results(data.draw, m):
        assert all(x in range(m) for row in r.rows for x in row)
        assert r == MatMap(r.rig, r.dom, r.cod, r.rows)

def test_mat_axioms_pass():
    backend = MatBackend(4)
    sampler = MatSampler(backend, seed=2)
    report = check_axioms(backend, sampler, samples=40)
    assert report.passed, report.render()


def test_axiom_checker_catches_a_broken_differential():
    class Broken(PolyBackend):
        def D(self, f):
            df = super().D(f)
            return self.add(df, df)  # doubled derivative

    backend = Broken(INT)
    sampler = PolySampler(INT, seed=0, max_arity=2, max_degree=2)
    report = check_axioms(backend, sampler, samples=20)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.counterexample for c in failing)
