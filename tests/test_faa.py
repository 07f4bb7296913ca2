"""Faa di Bruno families: chain rule, differential, and the co-Kleisli view."""

import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import faa, qmodality, suites
from cdcat.algebra import INT, RAT, Product, basis_elem, zmod
from cdcat.cdc import PolyBackend, PolySampler, check_axioms, iterated_D, nth_derivative
from cdcat.combinat import partitions
from cdcat.errors import (
    ArityError,
    DegreeBoundExceeded,
    NoFiniteSupport,
    ObjectMismatch,
    SizeLimit,
    SpaceMismatch,
)
from cdcat.matcat import MatBackend
from cdcat.poly import (
    FinFnBackend,
    _trusted_tablemap,
    parse_poly_map,
    poly_D,
    substitute,
    table_from_poly,
)

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
    assert tower(f).component(0) == f


def test_component_on_subset_feeds_slot_0_and_the_subset():
    # f^({2}) at n = 2 feeds slots 0 and 2 into f^(1)
    fam = tower(p("[x1^3]"))
    assert faa.component_on_subset(fam, [2], 2) == p("[3*x1^2*x3]", arity=3)
    assert faa.component_on_subset(fam, [], 2) == p("[x1^3]", arity=3)


@pytest.mark.parametrize("slots", [[3], [0], [2, 2], [-1, 1]])
def test_component_on_subset_refuses_slots_that_are_not_a_subset(slots):
    with pytest.raises(ArityError):
        faa.component_on_subset(tower(p("[x1^3]")), slots, 2)


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


# ---------------------------------------------------------------------------
# the levels by coordinates, against the table filter they replaced

def all_tables(backend, dom, cod):
    """Every map dom -> cod, in the order of the value sequences on dom's
    points (Mat's all_maps order)."""
    if isinstance(backend, MatBackend):
        return list(backend.all_maps(dom, cod))
    xs = dom.elements()
    return [_trusted_tablemap(dom, cod, dict(zip(xs, values)))
            for values in itertools.product(cod.elements(), repeat=len(xs))]


def filtered_level(backend, A, B, n):
    """The maps A x A^n -> B symmetric and k-linear in their last n slots,
    found by filtering every table through exact identities, with the test
    maps built once: the generic search the backends' levels replace."""
    act, add, scale = faa.hom_action(backend)
    blocks = [A] * (n + 1)
    projs = [backend.proj(blocks, j) for j in range(n + 1)]
    swaps = [backend.pairing(projs[:j] + [projs[j + 1], projs[j]] + projs[j + 2:])
             for j in range(1, n)]
    ext = [A] * (n + 2)
    eprojs = [backend.proj(ext, j) for j in range(n + 2)]
    one = backend.pairing(eprojs[:n + 1])
    sums = [(backend.pairing(eprojs[:j] + [backend.add(eprojs[j], eprojs[n + 1])]
                             + eprojs[j + 1:n + 1]),
             backend.pairing(eprojs[:j] + [eprojs[n + 1]] + eprojs[j + 1:n + 1]))
            for j in range(1, n + 1)]
    scalings = [(c, backend.pairing(projs[:j] + [backend.scale(c, projs[j])] + projs[j + 1:]))
                for j in range(1, n + 1) for c in backend.rig.elements]

    def passes(x):
        return (all(act(swap, x) == x for swap in swaps)
                and all(act(both, x) == add(act(one, x), act(other, x))
                        for both, other in sums)
                and all(act(scaled, x) == scale(c, x) for c, scaled in scalings))

    return [f for f in all_tables(backend, backend.product(blocks), B) if passes(f)]


def assert_level_is_the_filtered_one(backend, A, B, n):
    level = backend.multilinear_maps(A, B, n)
    assert level == filtered_level(backend, A, B, n)
    assert len(level) == backend.multilinear_count(A, B, n)


@pytest.mark.parametrize("backend, A", [
    (MatBackend(2), 1), (MatBackend(3), 1), (FinFnBackend(2), None)])
def test_multilinear_maps_filter_all_maps_in_order(backend, A):
    A = backend.module(1) if A is None else A
    for n in range(3):
        assert_level_is_the_filtered_one(backend, A, A, n)
    # over Mat(Z/m) at dim 1 the level-1 maps are (x, v) -> c v
    if isinstance(backend, MatBackend):
        assert [f.rows for f in backend.multilinear_maps(1, 1, 1)] == [
            ((0, c),) for c in backend.rig.elements]


# every (modulus, A, B, n) whose filter reads at most 3^8 tables
MAT_LEVELS = [(m, A, B, n) for m in (1, 2, 3) for A in range(3) for B in range(3)
              for n in range(3) if m ** ((n + 1) * A * B) <= 3 ** 8]


@pytest.mark.parametrize("m, A, B, n", MAT_LEVELS)
def test_mat_level_is_the_filtered_one(m, A, B, n):
    assert_level_is_the_filtered_one(MatBackend(m), A, B, n)


@pytest.mark.parametrize("m, dim_A, dim_B, n", [
    (2, 1, 1, 0), (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 1, 3),
    (2, 2, 1, 0), pytest.param(2, 2, 1, 1, marks=pytest.mark.slow),
    (2, 1, 2, 1), (3, 1, 1, 0), (3, 1, 1, 1),
    (2, 0, 1, 0), (2, 0, 1, 1), (2, 0, 1, 2), (2, 1, 0, 1), (3, 0, 0, 2)])
def test_finfn_level_is_the_filtered_one(m, dim_A, dim_B, n):
    be = FinFnBackend(m)
    assert_level_is_the_filtered_one(be, be.module(dim_A), be.module(dim_B), n)


def test_finfn_levels_by_coordinates_reach_zmod3():
    # 27 maps per level: a value of Z/3 at each point x and at the one
    # multiset of n indices; the filter would read 3^27 tables at level 2
    be = FinFnBackend(3)
    A = be.module(1)
    start = time.perf_counter()
    fams = suites.enumerate_families(be, A, A, 2)
    assert time.perf_counter() - start < 1
    assert len(fams) == 27 ** 3
    for n in range(3):
        assert len({fm.component(n) for fm in fams}) == 27
    # the level-2 map of g(x) = (x + 1) % 3 is (x, v, w) -> (x + 1) v w
    level = be.multilinear_maps(A, A, 2)
    cubic = next(f for f in level if f.table[(0, 1, 1)] == (1,) and f.table[(1, 1, 1)] == (2,)
                 and f.table[(2, 1, 1)] == (0,))
    assert all(cubic.table[x, v, w] == ((x + 1) * v * w % 3,)
               for x, v, w in itertools.product(range(3), repeat=3))


def test_all_families_refuses_a_huge_level_before_building_it():
    # over Z/3 at dim 2, level 2 has 3^27 maps: its size is read from
    # closed form, so the refusal builds no table
    be = FinFnBackend(3)
    A = be.module(2)
    assert be.multilinear_count(A, be.module(1), 2) == 3 ** 27
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        next(faa.all_families(be, A, be.module(1), 2))
    assert time.perf_counter() - start < 1


def test_all_families_refuses_a_huge_rig_before_listing_its_scalars():
    # over Z/10^6, levels 0 and 1 at 1 -> 1 have 10^6 maps each; the
    # refusal reads both counts from the rig and allocates no scalar list
    be = MatBackend(10 ** 6)
    tracemalloc.start()
    try:
        assert be.multilinear_count(1, 1, 0) == 10 ** 6
        with pytest.raises(SizeLimit):
            next(faa.all_families(be, 1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_all_families_refuses_a_huge_level_while_filtering(monkeypatch):
    # over Z/3 at dim 1 the levels have 27 maps each, so 27^3 families
    # pass 10,000 only at level 2
    be = FinFnBackend(3)
    A = be.module(1)
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 10_000)
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
    A = backend.module(1)
    ident = faa.kleisli_from_family(backend, faa.FaaBackend(backend).identity(A))
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
    identity = faa.FaaBackend(backend).identity
    ident = faa.kleisli_from_family(backend, identity(A))
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
    plane = faa.kleisli_from_family(backend, identity(backend.module(2)))
    with pytest.raises(ObjectMismatch):
        derive(plane)
    with pytest.raises(ObjectMismatch):
        compose(plane, plane)
    with pytest.raises(ObjectMismatch):
        compose(kf, plane)


def _counted(monkeypatch, name):
    # the builders call the Q structure maps through qmodality, so a map
    # patched there, as criterion 8 patches its seams, is the one they run
    calls = []
    fn = getattr(qmodality, name)

    def counted(q):
        calls.append(q)
        return fn(q)

    monkeypatch.setattr(qmodality, name, counted)
    return calls


@pytest.mark.parametrize("modulus, dim, top", [(2, 1, 2), (3, 1, 2), (2, 2, 1)])
def test_a_builder_maps_each_distinct_generator_once(monkeypatch, modulus, dim, top):
    # the cells are sums sharing generators: each generator goes through
    # storage (or comult) once per build, not once per cell
    backend = FinFnBackend(modulus)
    A = backend.module(dim)
    A_space = faa.fin_space(A)
    for space, name, build in (
            (Product((A_space, A_space)), "storage", faa.build_kleisli_D),
            (A_space, "comult", faa.build_kleisli_compose)):
        _, _, qs = faa._generator_cells(backend, space, top)
        gens = {g for q in qs for g in q.coeffs}
        calls = _counted(monkeypatch, name)
        build(backend, A, top)
        assert len(calls) == len(gens) < len(qs)
        assert all(len(q.coeffs) == 1 for q in calls)
        assert {g for q in calls for g in q.coeffs} == gens


def test_the_d_builder_reads_the_counit_seam(monkeypatch):
    backend = FinFnBackend(2)
    calls = _counted(monkeypatch, "counit")
    faa.build_kleisli_D(backend, backend.module(1), 1)
    assert len(calls) == 12


# ---------------------------------------------------------------------------
# the backend's reindexing memo holds maps of objects only, so a criterion-8
# seam patched between two calls on the same backend object is still read

SEAMS = {  # seam -> (sabotage, the operation it reaches)
    "_composition_partitions": (lambda n: partitions(n)[:-1], "compose"),
    "_substitution_terms": (lambda backend, fn, xs, ys: [], "D"),
}


def _results(g, f):
    return {"compose": faa.faa_compose(g, f), "D": faa.faa_D(f)}


@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_the_reindexing_memo_hides_no_seam(monkeypatch, seam):
    _, kf, kg = finite_pair("[x1^2 + x1]", "[x1^2]", modulus=3)
    be = PolyBackend(INT)
    pf, pg = (faa.coalgebra(be, p(src)) for src in ("[x1^2 + x1]", "[x1^3]"))
    pairs = [(kg, kf), (pg, pf)]
    clean = [_results(g, f) for g, f in pairs]
    assert all(f.backend.reindexing for _, f in pairs)
    sabotage, reached = SEAMS[seam]
    monkeypatch.setattr(faa, seam, sabotage)
    for (g, f), before in zip(pairs, clean):
        after = _results(g, f)
        assert after[reached] != before[reached]
        assert all(after[op] == before[op] for op in after if op != reached)


@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_the_kleisli_oracle_still_sees_a_seam_patched_between_calls(monkeypatch, seam):
    # as the benchmark's kleisli loop: single-call kleisli_* against faa_*
    _, kf, kg = finite_pair("[x1^2 + x1]", "[x1^2]", modulus=3)

    def agree():
        return {"compose": faa.kleisli_compose(kg, kf) == faa.faa_compose(kg, kf),
                "D": faa.kleisli_D(kf) == faa.faa_D(kf)}

    assert agree() == {"compose": True, "D": True}
    sabotage, reached = SEAMS[seam]
    monkeypatch.setattr(faa, seam, sabotage)
    assert agree() == {op: op != reached for op in ("compose", "D")}


def test_zero_family_support():
    z = FAA.zero(1, 1)
    assert z.support == -1
    assert z.component(3).is_zero


def test_faa_backend_refuses_mismatched_objects():
    with pytest.raises(ObjectMismatch):
        FAA.add(FAA.zero(1, 1), FAA.zero(1, 2))
    with pytest.raises(ObjectMismatch):
        FAA.pairing([FAA.identity(1), FAA.identity(2)])
