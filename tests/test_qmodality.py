"""Structure maps of the free monoidal differential modality Q."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import qmodality as qm
from cdcat.algebra import (
    INT,
    Free,
    ModuleElement,
    Monomial,
    Product,
    QGenerator,
    QSpace,
    Tensor,
    basis_elem,
    rig_value,
    tensor_elem,
    zero_elem,
    zmod,
)
from cdcat.combinat import arrange, partial_isos, partitions
from cdcat.errors import SpaceMismatch

A = Free(("e1", "e2"))
B = Free(("f1", "f2"))
E1 = basis_elem(INT, A, "e1")
E2 = basis_elem(INT, A, "e2")
F1 = basis_elem(INT, B, "f1")


def gen(point, *keys):
    return QGenerator(point, Monomial.of(keys))


def one_gen(point, *keys):
    return qm.q_gen_elem(INT, gen(point, *keys))


# ---------------------------------------------------------------------------
# injection and normal form

def test_q_inject_pulls_out_tail_coefficients():
    got = qm.q_inject(E2, [E1.scale(2), E1.scale(3)])
    assert got == one_gen(E2, "e1", "e1").scale(6)


def test_q_inject_is_multilinear_in_tails():
    got = qm.q_inject(E1, [E1 + E2])
    assert got == one_gen(E1, "e1") + one_gen(E1, "e2")


def test_q_inject_is_not_linear_in_the_point():
    # the point stays opaque: <e1 + e2> is a single generator
    got = qm.q_inject(E1 + E2, [])
    assert list(got.coeffs) == [gen(E1 + E2)]


def test_q_inject_checks_spaces():
    with pytest.raises(SpaceMismatch):
        qm.q_inject(E1, [F1])


def test_q_map_acts_on_point_and_tail():
    f = qm.LinearMap(INT, A, B, lambda k: F1.scale(2))
    got = qm.q_map(f, one_gen(E1, "e2"))
    assert got == one_gen(F1.scale(2), "f1").scale(2)


def test_point_images_belong_to_their_map():
    # each LinearMap keeps the images of the points it has mapped, so two
    # maps with different on_basis send the same point to different images
    double = qm.LinearMap(INT, A, B, lambda k: F1.scale(2))
    triple = qm.LinearMap(INT, A, B, lambda k: F1.scale(3))
    q = one_gen(E1 + E2, "e1")
    for _ in range(2):
        assert qm.q_map(double, q) == one_gen(F1.scale(4), "f1").scale(2)
        assert qm.q_map(triple, q) == one_gen(F1.scale(6), "f1").scale(3)


def test_linear_map_rejects_images_outside_its_codomain():
    f = qm.LinearMap(INT, A, B, lambda k: E1)
    with pytest.raises(SpaceMismatch):
        f.apply(E2)
    with pytest.raises(SpaceMismatch):
        qm.q_map(f, one_gen(E1, "e2"))


@pytest.mark.parametrize("rig", [INT, zmod(2), zmod(3)])
def test_relabel_sends_each_key_to_its_image_and_none_to_zero(rig):
    prod = Product((A, B))
    images = {(0, "e1"): "f2", (0, "e2"): None, (1, "f1"): "f1", (1, "f2"): None}
    f = qm.relabel(rig, prod, B, images.get)
    for key, image in images.items():
        expected = zero_elem(rig, B) if image is None else basis_elem(rig, B, image)
        assert f.on_basis(key) == expected
    x = basis_elem(rig, prod, (0, "e1")).scale(2) + basis_elem(rig, prod, (1, "f1"))
    assert f.apply(x) == basis_elem(rig, B, "f2").scale(2) + basis_elem(rig, B, "f1")
    y = basis_elem(rig, A, "e1") + basis_elem(rig, A, "e2").scale(2)
    assert qm.relabel(rig, A, A, lambda k: k).apply(y) == y


def test_relabel_refuses_an_image_outside_the_codomain():
    f = qm.relabel(INT, A, B, lambda k: "e1")
    with pytest.raises(SpaceMismatch):
        f.on_basis("e1")
    with pytest.raises(SpaceMismatch):
        f.apply(E2)
    swap = qm.relabel(INT, Tensor((A, B)), Tensor((A, B)), lambda key: (key[1], key[0]))
    with pytest.raises(SpaceMismatch):
        swap.apply(tensor_elem(E1, F1))


def test_q_functor_preserves_identity_and_composition():
    rig = zmod(3)
    a = Free(("e1", "e2"))
    f = qm.LinearMap(rig, a, a, lambda k: basis_elem(rig, a, "e1"))
    ident = qm.relabel(rig, a, a, lambda k: k)
    for g in qm.enum_generators(rig, a, 2):
        q = qm.q_gen_elem(rig, g)
        assert qm.q_map(ident, q) == q
        assert qm.q_map(f, qm.q_map(f, q)) == qm.q_map(
            qm.LinearMap(rig, a, a, lambda k: f.apply(f.on_basis(k))), q
        )


@pytest.mark.parametrize("modulus", [2, 3])
def test_q_functor_is_a_functor(modulus):
    rig = zmod(modulus)
    a = Free(("e1", "e2"))
    f = qm.LinearMap(rig, a, a, lambda k: basis_elem(rig, a, "e1").scale(2))
    g = qm.LinearMap(rig, a, a, lambda k: basis_elem(rig, a, "e2") + basis_elem(rig, a, k))
    fg = qm.LinearMap(rig, a, a, lambda k: f.apply(g.on_basis(k)))
    ident, qf, qg = (qm.q_functor(h) for h in (qm.relabel(rig, a, a, lambda k: k), f, g))
    qfg = qm.q_functor(fg)
    for gen_key in qm.enum_generators(rig, a, 2):
        q = qm.q_gen_elem(rig, gen_key)
        assert ident.apply(q) == q
        assert qfg.apply(q) == qf.apply(qg.apply(q))


# ---------------------------------------------------------------------------
# linear extension from generators

def _explicit_sum(t, space, term):
    total = zero_elem(t.rig, space)
    for (k1, k2), c in t.coeffs.items():
        total = total + term(k1, k2).scale(c)
    return total


@pytest.mark.parametrize("modulus", [2, 3])
def test_sum_terms_is_the_explicit_sum_over_delta(modulus):
    rig = zmod(modulus)
    a = Free(("e1",))
    QA = QSpace(a)

    def term(g1, g2):
        p, q = qm.q_gen_elem(rig, g1), qm.q_gen_elem(rig, g2)
        return tensor_elem(qm.comult(p), q).scale(2) + tensor_elem(qm.comult(q), p)

    space = Tensor((QSpace(QA), QA))
    gens = [qm.q_gen_elem(rig, g) for g in qm.enum_generators(rig, a, 3)]
    for q in gens + [gens[1].scale(2) + gens[-1]]:
        delta = qm.comonoid_comult(q)
        assert qm.sum_terms(delta, space, term) == _explicit_sum(delta, space, term)


@pytest.mark.parametrize("modulus", [2, 3])
def test_sum_terms_is_the_explicit_sum_over_storage(modulus):
    rig = zmod(modulus)
    a, b = Free(("e1",)), Free(("f1",))

    def term(g1, g2):
        return tensor_elem(qm.counit(qm.q_gen_elem(rig, g2)),
                           qm.counit(qm.q_gen_elem(rig, g1)))

    space = Tensor((b, a))
    for g in qm.enum_generators(rig, Product((a, b)), 2):
        chi = qm.storage(qm.q_gen_elem(rig, g).scale(modulus - 1))
        assert qm.sum_terms(chi, space, term) == _explicit_sum(chi, space, term)


def test_sum_terms_needs_a_binary_tensor():
    with pytest.raises(SpaceMismatch):
        qm.sum_terms(one_gen(E1, "e2"), A, lambda k1, k2: E1)
    triple = Tensor((A, A, A))
    with pytest.raises(SpaceMismatch):
        qm.sum_terms(basis_elem(INT, triple, ("e1", "e1", "e2")), A, lambda k1, k2: E1)


@pytest.mark.parametrize("modulus", [2, 3])
def test_on_generators_extends_fn_from_generator_elements(modulus):
    rig = zmod(modulus)
    a, b = Free(("e1", "e2")), Free(("f1",))
    eps = qm.on_generators(rig, a, a, qm.counit)
    delta = qm.on_generators(rig, a, QSpace(QSpace(a)), qm.comult)
    mult = qm.on_generator_pairs(rig, a, b, QSpace(Tensor((a, b))), qm.monoidal_mult)
    gens = qm.enum_generators(rig, a, 2)
    for g in gens:
        q = qm.q_gen_elem(rig, g)
        assert eps.on_basis(g) == qm.counit(q)
        assert delta.on_basis(g) == qm.comult(q)
    for g, h in zip(gens, qm.enum_generators(rig, b, 2)):
        p, q = qm.q_gen_elem(rig, g), qm.q_gen_elem(rig, h)
        assert mult.on_basis((g, h)) == qm.monoidal_mult(p, q)
        assert mult.apply(tensor_elem(p.scale(2), q)) == qm.monoidal_mult(p, q).scale(2)


# ---------------------------------------------------------------------------
# comonad structure

def test_counit_by_degree():
    assert qm.counit(one_gen(E1.scale(5))) == E1.scale(5)
    assert qm.counit(one_gen(E1, "e2")) == E2
    assert qm.counit(one_gen(E1, "e1", "e2")).is_zero


def test_comult_of_low_degrees():
    QQ = QSpace(QSpace(A))

    def outer(point_gen, *tail_gens):
        shell = QGenerator(
            basis_elem(INT, QSpace(A), point_gen), Monomial.of(tail_gens)
        )
        return qm.q_gen_elem(INT, shell)

    pt = gen(E1)
    assert qm.comult(one_gen(E1)) == outer(pt)
    assert qm.comult(one_gen(E1, "e2")) == outer(pt, gen(E1, "e2"))
    # degree 2: the two set partitions of {1, 2}
    got = qm.comult(one_gen(E1, "e1", "e2"))
    expected = outer(pt, gen(E1, "e1", "e2")) + outer(pt, gen(E1, "e1"), gen(E1, "e2"))
    assert got == expected
    assert got.space == QQ


def test_comonoid_counit_keeps_degree_zero():
    q = one_gen(E1).scale(3) + one_gen(E1, "e1").scale(7)
    assert qm.comonoid_counit(q) == 3


def test_comonoid_comult_subset_sum():
    got = qm.comonoid_comult(one_gen(E1, "e2"))
    lhs = tensor_elem(one_gen(E1), one_gen(E1, "e2"))
    rhs = tensor_elem(one_gen(E1, "e2"), one_gen(E1))
    assert got == lhs + rhs


def test_comonoid_comult_degree_two_multiplicities():
    got = qm.comonoid_comult(one_gen(E1, "e1", "e1"))
    middle = tensor_elem(one_gen(E1, "e1"), one_gen(E1, "e1"))
    assert got.coeffs[next(iter(middle.coeffs))] == 2


# ---------------------------------------------------------------------------
# monoidal structure

def test_monoidal_unit():
    mi = qm.monoidal_unit(INT)
    one = basis_elem(INT, qm.UNIT_SPACE, "1")
    assert mi == qm.q_inject(one, [])


def test_monoidal_mult_partial_iso_sum():
    p = one_gen(E1, "e2")
    q = qm.q_inject(F1, [basis_elem(INT, B, "f2")])
    got = qm.monoidal_mult(p, q)
    T = Tensor((A, B))
    x0y0 = tensor_elem(E1, F1)
    x1 = E2
    y1 = basis_elem(INT, B, "f2")
    matched = qm.q_inject(x0y0, [tensor_elem(x1, y1)])
    unmatched = qm.q_inject(x0y0, [tensor_elem(x1, F1), tensor_elem(E1, y1)])
    assert got == matched + unmatched
    assert got.space == QSpace(T)


def test_deriving_appends_to_the_tail():
    got = qm.deriving(one_gen(E1, "e1"), E2.scale(2) + E1)
    assert got == one_gen(E1, "e1", "e2").scale(2) + one_gen(E1, "e1", "e1")


def test_deriving_checks_spaces():
    with pytest.raises(SpaceMismatch):
        qm.deriving(one_gen(E1), F1)


def test_fusion_on_points():
    p = one_gen(E1)
    q = one_gen(F1)
    got = qm.fusion(p, q)
    point = tensor_elem(E1, basis_elem(INT, QSpace(B), gen(F1)))
    assert got == qm.q_inject(point, [])


def test_fusion_factors_through_comult_small():
    rig = zmod(3)
    a = Free(("e1",))
    b = Free(("f1",))
    for g1 in qm.enum_generators(rig, a, 2):
        for g2 in qm.enum_generators(rig, b, 2):
            p, q = qm.q_gen_elem(rig, g1), qm.q_gen_elem(rig, g2)
            assert qm.fusion(p, q) == qm.monoidal_mult(p, qm.comult(q))


# ---------------------------------------------------------------------------
# the partial-isomorphism kernel against the grid-and-arrange formula

def _grid(rows, cols):
    """grid[i, j] = rows[i] (x) cols[j], as coefficient dicts."""
    return {(i, j): {(ka, kb): va * vb for ka, va in x.items() for kb, vb in y.items()}
            for i, x in enumerate(rows) for j, y in enumerate(cols)}


def _arranged_sum(out, c, point, xs, ys):
    """out += c * sum over theta of <point; arrange(theta, grid)[1:]>, each
    tail expanded over its cells' terms and made by the module's seam."""
    grid = _grid(xs, ys)
    for theta in partial_isos(len(xs) - 1, len(ys) - 1):
        for choice in itertools.product(*(d.items() for d in arrange(theta, grid)[1:])):
            coeff = c
            for _, v in choice:
                coeff *= v
            key = QGenerator(point, qm._make_tail(tuple(k for k, _ in choice)))
            out[key] = out.get(key, 0) + coeff


def oracle_monoidal_mult(p, q):
    one = p.rig.one
    out = {}
    for g, cg in p.coeffs.items():
        for h, ch in q.coeffs.items():
            _arranged_sum(out, cg * ch, tensor_elem(g.point, h.point),
                          [g.point.coeffs] + [{k: one} for k in g.tail.keys],
                          [h.point.coeffs] + [{k: one} for k in h.tail.keys])
    return ModuleElement(p.rig, QSpace(Tensor((p.space.inner, q.space.inner))), out)


def oracle_fusion(p, q):
    rig, one = p.rig, p.rig.one
    QB = q.space
    out = {}
    for g, cg in p.coeffs.items():
        for h, ch in q.coeffs.items():
            keys = h.tail.keys
            y0 = {QGenerator(h.point, qm._make_tail(())): one}
            point = tensor_elem(g.point, ModuleElement(rig, QB, y0))
            for part in partitions(h.degree):
                ys = [y0] + [{QGenerator(h.point, qm._make_tail(tuple(keys[i - 1] for i in b))): one}
                             for b in part.blocks]
                _arranged_sum(out, cg * ch, point,
                              [g.point.coeffs] + [{k: one} for k in g.tail.keys], ys)
    return ModuleElement(rig, QSpace(Tensor((p.space.inner, QB))), out)


Z3 = zmod(3)
A2 = Free(("a1", "a2"))
B2 = Free(("b1", "b2"))


def test_monoidal_mult_is_the_arranged_grid_sum_on_every_generator_pair():
    for g in qm.enum_generators(Z3, A2, 2):
        p = qm.q_gen_elem(Z3, g)
        for h in qm.enum_generators(Z3, B2, 2):
            q = qm.q_gen_elem(Z3, h)
            assert qm.monoidal_mult(p, q) == oracle_monoidal_mult(p, q), (g, h)


def test_fusion_is_the_arranged_grid_sum_on_every_generator_pair():
    for g in qm.enum_generators(Z3, A2, 2):
        p = qm.q_gen_elem(Z3, g)
        for h in qm.enum_generators(Z3, B2, 2):
            q = qm.q_gen_elem(Z3, h)
            assert qm.fusion(p, q) == oracle_fusion(p, q), (g, h)


@given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 2)), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 80), st.integers(1, 2)), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_the_kernel_is_the_arranged_grid_sum_on_sums(left, right):
    def total(space, terms):
        gens = qm.enum_generators(Z3, space, 2)
        return sum((qm.q_gen_elem(Z3, gens[i % len(gens)]).scale(c) for i, c in terms),
                   zero_elem(Z3, QSpace(space)))

    p, q = total(A2, left), total(B2, right)
    assert qm.monoidal_mult(p, q) == oracle_monoidal_mult(p, q)
    assert qm.fusion(p, q) == oracle_fusion(p, q)


def test_the_kernel_keeps_the_arranged_tail_order(monkeypatch):
    # unsorted tails keep their keys in the order they were made, so the
    # kernel must make them in arrange's order
    rig = zmod(2)
    gens = qm.enum_generators(rig, A2, 2)
    pairs = [(qm.q_gen_elem(rig, g), qm.q_gen_elem(rig, h)) for g in gens for h in gens]
    sorted_tails = [qm.monoidal_mult(p, q) for p, q in pairs]
    monkeypatch.setattr(qm, "_make_tail", lambda keys: Monomial(tuple(keys)))
    moved = 0
    for (p, q), before in zip(pairs, sorted_tails):
        got = qm.monoidal_mult(p, q)
        assert got == oracle_monoidal_mult(p, q)
        assert qm.fusion(p, q) == oracle_fusion(p, q)
        moved += got != before
    assert moved  # the seam is seen


# ---------------------------------------------------------------------------
# storage

def prod_gen(x, y, *tail):
    prod = Product((A, B))
    point = qm.inject_elem(x, prod, 0) + qm.inject_elem(y, prod, 1)
    return qm.q_gen_elem(INT, QGenerator(point, Monomial.of(tail)))


def test_storage_splits_a_mixed_generator():
    # <(x0, y0), (x1, 0)> -> <x0, x1> (x) <y0>
    q = prod_gen(E1, F1, (0, "e2"))
    got = qm.storage(q)
    assert got == tensor_elem(one_gen(E1, "e2"), qm.q_inject(F1, []))


def test_storage_inv_formula():
    t = tensor_elem(one_gen(E1, "e1"), qm.q_inject(F1, [basis_elem(INT, B, "f2")]))
    got = qm.storage_inv(t)
    assert got == prod_gen(E1, F1, (0, "e1"), (1, "f2"))


def test_storage_round_trips():
    rig = zmod(2)
    prod = Product((Free(("e1",)), Free(("f1",))))
    for g in qm.enum_generators(rig, prod, 2):
        q = qm.q_gen_elem(rig, g)
        assert qm.storage_inv(qm.storage(q)) == q


def test_storage_maps_each_distinct_generator_once(monkeypatch):
    # a sum whose subset terms share generators on both sides
    q = (prod_gen(E1, F1, (0, "e2")) + prod_gen(E1, F1, (1, "f1"))
         + prod_gen(E1, F1, (0, "e2"), (1, "f1")))
    terms = qm.comonoid_comult(q).coeffs
    lefts, rights = {g1 for g1, _ in terms}, {g2 for _, g2 in terms}
    calls = {"comonoid_comult": 0, "q_map": 0}
    real_comult, real_map = qm.comonoid_comult, qm.q_map

    def comonoid_comult(q):
        calls["comonoid_comult"] += 1
        return real_comult(q)

    def q_map(f, q):
        calls["q_map"] += 1
        return real_map(f, q)

    monkeypatch.setattr(qm, "comonoid_comult", comonoid_comult)
    monkeypatch.setattr(qm, "q_map", q_map)
    got = qm.storage(q)
    assert calls == {"comonoid_comult": 1, "q_map": len(lefts) + len(rights)}
    assert len(lefts) + len(rights) < 2 * len(terms)
    assert qm.storage_inv(got) == q


def test_storage_needs_a_binary_product():
    with pytest.raises(SpaceMismatch):
        qm.storage(one_gen(E1))


# ---------------------------------------------------------------------------
# bialgebra and codereliction

def test_bialg_unit_is_the_zero_point():
    u = qm.bialg_unit(INT, A)
    assert u == qm.q_inject(zero_elem(INT, A), [])


def test_bialg_mult_adds_points_and_joins_tails():
    got = qm.bialg_mult(one_gen(E1, "e1"), one_gen(E2, "e2"))
    assert got == qm.q_gen_elem(INT, gen(E1 + E2, "e1", "e2"))


def test_codereliction():
    assert qm.codereliction(E1) == qm.q_inject(zero_elem(INT, A), [E1])
    # eta is linear, unlike the point bracket
    assert qm.codereliction(E1 + E2) == qm.codereliction(E1) + qm.codereliction(E2)


def test_deriving_is_multiplication_by_a_codereliction():
    q = one_gen(E1, "e2").scale(3)
    y = E1.scale(2) + E2
    assert qm.deriving(q, y) == qm.bialg_mult(q, qm.codereliction(y))


def test_enum_generators_count():
    rig = zmod(2)
    a = Free(("e1", "e2"))
    gens = qm.enum_generators(rig, a, 2)
    # 4 points x (1 + 2 + 3) tails of degree <= 2
    assert len(gens) == 4 * 6
    assert len(set(gens)) == len(gens)
