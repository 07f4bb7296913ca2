"""Faa di Bruno families: chain rule, differential, and the co-Kleisli view."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import faa
from cdcat.algebra import INT, RAT, Product, basis_elem, zmod
from cdcat.cdc import PolyBackend, PolySampler, check_axioms, iterated_D, nth_derivative
from cdcat.errors import (
    DegreeBoundExceeded,
    NoFiniteSupport,
    ObjectMismatch,
    SizeLimit,
    SpaceMismatch,
)
from cdcat.matcat import MatBackend
from cdcat.poly import FinFnBackend, parse_poly_map, poly_D, substitute, table_from_poly

BE = PolyBackend(INT)
FAA = faa.FaaBackend(BE)


def p(src, arity=1):
    return parse_poly_map(src, INT, arity)


def tower(f):
    return faa.coalgebra(BE, f)


# ---------------------------------------------------------------------------
# families and validation

def test_identity_family():
    ident = FAA.identity(1)
    assert ident.family == (p("[x1]"), p("[x2]", arity=2))
    assert ident.component(2).is_zero
    assert ident.support == 1


def test_coalgebra_of_square():
    fam = tower(p("[x1^2]"))
    assert fam.family == (
        p("[x1^2]"),
        p("[2*x1*x2]", arity=2),
        p("[2*x2*x3]", arity=3),
    )


@pytest.mark.parametrize("max_support", range(-1, 5))
@pytest.mark.parametrize("src, support", [
    ("[x1^2]", 2), ("[x1^3]", 3), ("[0]", -1), ("[5]", 0)])
def test_coalgebra_support_bound(src, support, max_support):
    # support s needs max_support >= s + 1; max_support <= 0 refuses even the zero map
    if max_support > max(support, 0):
        assert faa.coalgebra(BE, p(src), max_support=max_support).support == support
    else:
        with pytest.raises(NoFiniteSupport):
            faa.coalgebra(BE, p(src), max_support=max_support)


def test_counit_splits_coalgebra():
    f = p("[x1^3 + x1]")
    assert faa.faa_counit(tower(f)) == f


def test_validate_family_rejects_nonlinear_entries():
    bad = [p("[x1]"), p("[x2^2]", arity=2)]
    problem = faa.validate_family(BE, 1, bad, faa.hom_action(BE))
    assert problem is not None and "component 1" in problem


def test_validate_family_rejects_asymmetry():
    # f^(2)(x, r, s) = r s^2 is not symmetric in (r, s)
    bad = [p("[0]"), p("[0]", arity=2), p("[x2*x3^2]", arity=3)]
    problem = faa.validate_family(BE, 1, bad, faa.hom_action(BE))
    assert problem is not None and "not symmetric" in problem


def test_coalgebra_families_validate():
    sampler = PolySampler(INT, seed=5, max_arity=2, max_degree=3)
    for _ in range(5):
        A, B = sampler.random_object(), sampler.random_object()
        fam = faa.coalgebra(BE, sampler.random_morphism(A, B))
        assert faa.validate_family(BE, A, fam.family, faa.hom_action(BE)) is None


def test_validate_family_over_rat():
    be = PolyBackend(RAT)
    f = parse_poly_map("[1/2*x1^3 + x1*x2; 3*x2]", RAT, 2)
    action = faa.hom_action(be)
    assert faa.validate_family(be, 2, faa.coalgebra(be, f).family, action) is None
    bad = [f, parse_poly_map("[x1*x3^2; 0]", RAT, 4)]
    problem = faa.validate_family(be, 2, bad, action)
    assert problem is not None and problem.startswith("component 1 not additive")


@pytest.mark.parametrize("backend, A", [
    (MatBackend(2), 1), (MatBackend(3), 1), (FinFnBackend(2), None)])
def test_multilinear_maps_filter_all_maps_in_order(backend, A):
    A = backend.module(1) if A is None else A
    for n in range(3):
        dom = backend.product([A] * (n + 1))
        problem = faa.multilinearity_test(backend, A, n, faa.hom_action(backend))
        expected = [f for f in backend.all_maps(dom, A) if problem(f) is None]
        assert faa.multilinear_maps(backend, A, A, n) == expected
    # over Mat(Z/m) at dim 1 the level-1 maps are (x, v) -> c v
    if isinstance(backend, MatBackend):
        assert [f.rows for f in faa.multilinear_maps(backend, 1, 1, 1)] == [
            ((0, c),) for c in range(backend.modulus)]


def test_multilinear_maps_refuse_past_max_candidates_tables_per_slot(monkeypatch):
    be = FinFnBackend(2)
    A = be.module(1)
    # level 1 has 2^4 = 16 tables on its 2 slots
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 8)
    assert len(faa.multilinear_maps(be, A, A, 1)) == 4
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 7)
    with pytest.raises(SizeLimit):
        faa.multilinear_maps(be, A, A, 1)


def test_all_families_refuses_a_huge_level_while_filtering(monkeypatch):
    # over Z/3 at dim 1, level 2 has 3^27 tables: filtering them all would
    # take years; the filter now stops after 3 * MAX_CANDIDATES of them
    be = FinFnBackend(3)
    A = be.module(1)
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 10_000)  # level 1: 3^9 tables
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        list(faa.all_families(be, A, A, 2))
    assert time.perf_counter() - start < 30


# ---------------------------------------------------------------------------
# composition: the higher-order chain rule

def test_compose_square_after_cube():
    comp = faa.faa_compose(tower(p("[x1^2]")), tower(p("[x1^3]")))
    assert comp.component(0) == p("[x1^6]")
    assert comp.component(1) == p("[6*x1^5*x2]", arity=2)
    assert comp == tower(p("[x1^6]"))


def test_second_component_partition_sum():
    # (g f)'' = g'(f; f'') + g''(f; f', f'')-free term, spelled out by hand
    f, g = p("[x1^3]"), p("[x1^2]")
    tf = tower(f)
    comp = faa.faa_compose(tower(g), tf)
    g1, g2 = nth_derivative(BE, g, 1, 1), nth_derivative(BE, g, 1, 2)
    blocks = [1, 1, 1]
    pr = [BE.proj(blocks, j) for j in range(3)]
    f0 = BE.compose(f, pr[0])
    term1 = BE.compose(g1, BE.pairing([f0, BE.compose(tf.component(2), BE.pairing(pr))]))
    f1_1 = BE.compose(tf.component(1), BE.pairing([pr[0], pr[1]]))
    f1_2 = BE.compose(tf.component(1), BE.pairing([pr[0], pr[2]]))
    term2 = BE.compose(g2, BE.pairing([f0, f1_1, f1_2]))
    assert comp.component(2) == BE.add(term1, term2)


def test_compose_object_mismatch():
    into_pairs = tower(p("[x1; x1]", arity=1))  # 1 -> 2
    with pytest.raises(ObjectMismatch):
        faa.faa_compose(tower(p("[x1]")), into_pairs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compose_matches_substitution(seed):
    sampler = PolySampler(INT, seed=seed, max_arity=2, max_degree=2)
    A, B, C = (sampler.random_object() for _ in range(3))
    f = sampler.random_morphism(A, B)
    g = sampler.random_morphism(B, C)
    assert faa.faa_compose(tower(g), tower(f)) == tower(substitute(g, f))


def test_compose_unital_and_associative():
    sampler = PolySampler(INT, seed=9, max_arity=2, max_degree=2)
    for _ in range(5):
        A, B, C, D = (sampler.random_object() for _ in range(4))
        f = tower(sampler.random_morphism(A, B))
        g = tower(sampler.random_morphism(B, C))
        h = tower(sampler.random_morphism(C, D))
        assert faa.faa_compose(f, FAA.identity(A)) == f
        assert faa.faa_compose(FAA.identity(B), f) == f
        assert faa.faa_compose(h, faa.faa_compose(g, f)) == faa.faa_compose(
            faa.faa_compose(h, g), f
        )


# ---------------------------------------------------------------------------
# the differential on families

def test_faa_D_of_identity():
    d = faa.faa_D(FAA.identity(1))
    assert d.component(0) == p("[x2]", arity=2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_faa_D_matches_poly_D(seed):
    sampler = PolySampler(INT, seed=seed, max_arity=2, max_degree=3)
    A, B = sampler.random_object(), sampler.random_object()
    f = sampler.random_morphism(A, B)
    assert faa.faa_D(tower(f)) == tower(poly_D(f))


def test_faa_higher_mixed_derivative_oracle():
    sampler = PolySampler(INT, seed=11, max_arity=1, max_degree=3)
    for _ in range(4):
        f = sampler.random_morphism(1, 1)
        fam = tower(f)
        for m in range(3):
            for n in range(3):
                got = faa.faa_higher(fam, m, n)
                oracle = nth_derivative(BE, nth_derivative(BE, f, 1, m), m + 1, n)
                assert got == oracle


def test_faa_higher_one_one_formula():
    # f^(1,1) = f^(2)(x00, x10, x01) + f^(1)(x00, x11)
    f = p("[x1^3]")
    got = faa.faa_higher(tower(f), 1, 1)
    assert got == p("[6*x1*x2*x3 + 3*x1^2*x4]", arity=4)


def test_faa_backend_satisfies_the_axioms():
    backend = faa.FaaBackend(BE)
    sampler = faa.FaaSampler(BE, PolySampler(INT, seed=4, max_arity=2, max_degree=2))
    report = check_axioms(backend, sampler, samples=5)
    assert report.passed, report.render()


# ---------------------------------------------------------------------------
# co-Kleisli reading over FinFn

def finite_pair(src_f, src_g, modulus=2):
    rig = zmod(modulus)
    backend = FinFnBackend(modulus)
    poly_backend = PolyBackend(rig)

    def lift(src):
        pm = parse_poly_map(src, rig, 1)
        fam = faa.coalgebra(poly_backend, pm)
        tables = [table_from_poly(fam.component(n)) for n in range(fam.support + 1)]
        return faa.kleisli_from_family(
            backend, faa.FaaMap(backend, backend.module(1), backend.module(1), tables)
        )

    return backend, lift(src_f), lift(src_g)


def test_kleisli_eval_on_a_point_generator():
    from cdcat.qmodality import q_inject

    backend, kf, kg = finite_pair("[x1^2]", "[x1 + 1]")
    comp = faa.kleisli_compose(kg, kf)
    space = faa.fin_space(backend.module(1))
    for x in (0, 1):
        q = q_inject(faa.vec_to_elem(backend.rig, space, (x,)), [])
        got = faa.elem_to_vec(comp.eval_q(q), space)
        assert got == ((x * x + 1) % 2,)


def test_kleisli_reading_refuses_coordinates_of_another_space():
    from cdcat.qmodality import q_inject

    backend, kf, _ = finite_pair("[x1^2]", "[x1]")
    rig = backend.rig
    plane = faa.fin_space(backend.module(2))
    with pytest.raises(SpaceMismatch):
        kf.eval_q(q_inject(faa.vec_to_elem(rig, plane, (1, 0)), []))
    for vec in ((1, 0, 1), (1,)):
        with pytest.raises(SpaceMismatch):
            faa.vec_to_elem(rig, plane, vec)


def test_a_product_space_reads_the_coordinates_of_the_product():
    from cdcat.qmodality import q_inject

    backend, kf, _ = finite_pair("[x1^2 + x1]", "[x1]")
    rig = backend.rig
    line = faa.fin_space(backend.module(1))
    prod = Product((line, line))
    assert faa.vec_to_elem(rig, prod, (0, 1)) == basis_elem(rig, prod, (1, "e1"))
    assert faa.elem_to_vec(basis_elem(rig, prod, (0, "e1")), prod) == (1, 0)
    df = faa.kleisli_D(kf)
    plane = faa.fin_space(backend.module(2))
    for vec in ((1, 0), (1, 1)):
        for space in (prod, plane):
            x = faa.vec_to_elem(rig, space, vec)
            got = faa.elem_to_vec(df.eval_q(q_inject(x, [x])), line)
            assert got == df.family[1].table[vec + vec]


def test_kleisli_compose_matches_faa():
    _, kf, kg = finite_pair("[x1^2 + x1]", "[x1^2]")
    via_q = faa.kleisli_compose(kg, kf)
    direct = faa.faa_compose(kg, kf)
    assert list(via_q.family) == list(direct.family)


def test_kleisli_D_matches_faa():
    _, kf, _ = finite_pair("[x1^2 + x1]", "[x1]")
    assert list(faa.kleisli_D(kf).family) == list(faa.faa_D(kf).family)


def test_kleisli_identity_composes_trivially():
    backend, kf, _ = finite_pair("[x1^2]", "[x1]")
    ident = faa.kleisli_identity(backend, backend.module(1))
    assert list(faa.kleisli_compose(kf, ident).family) == list(kf.family)


def test_kleisli_refuses_to_truncate():
    _, kf, kg = finite_pair("[x1^2]", "[x1^2]", modulus=3)
    with pytest.raises(DegreeBoundExceeded):
        faa.kleisli_compose(kg, kf, degree_bound=3)
    with pytest.raises(DegreeBoundExceeded):
        faa.kleisli_D(kf, degree_bound=2)


def test_a_builder_serves_every_family_up_to_its_top_and_refuses_the_rest():
    # one build at the largest support; each family reads its own levels
    backend, kf, kg = finite_pair("[x1^2]", "[x1^2 + x1]", modulus=3)
    A = backend.module(1)
    ident = faa.kleisli_identity(backend, A)
    derive = faa.build_kleisli_D(backend, A, 2)
    compose = faa.build_kleisli_compose(backend, A, 4)
    for f in (kf, kg, ident):
        assert derive(f) == faa.kleisli_D(f)
        for g in (kf, kg, ident):
            assert compose(g, f) == faa.kleisli_compose(g, f)
    with pytest.raises(DegreeBoundExceeded):
        faa.build_kleisli_D(backend, A, 1)(kf)
    with pytest.raises(DegreeBoundExceeded):
        faa.build_kleisli_compose(backend, A, 3)(kg, kf)
    plane = faa.kleisli_identity(backend, backend.module(2))
    with pytest.raises(ObjectMismatch):
        derive(plane)
    with pytest.raises(ObjectMismatch):
        compose(plane, plane)
    with pytest.raises(ObjectMismatch):
        compose(kf, plane)


def test_zero_family_support():
    z = FAA.zero(1, 1)
    assert z.support == -1
    assert z.component(3).is_zero


def test_faa_backend_refuses_mismatched_objects():
    with pytest.raises(ObjectMismatch):
        FAA.add(FAA.zero(1, 1), FAA.zero(1, 2))
    with pytest.raises(ObjectMismatch):
        FAA.pairing([FAA.identity(1), FAA.identity(2)])
