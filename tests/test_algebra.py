"""Rig arithmetic, free modules, and the generator normal form."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cdcat.algebra import (
    INT,
    NAT,
    RAT,
    Free,
    ModuleElement,
    Monomial,
    Product,
    QGenerator,
    RigSpec,
    Tensor,
    RigValue,
    add_into,
    basis_elem,
    basis_keys,
    enum_elements,
    key_token,
    monomial_mul,
    rig_op,
    rig_value,
    tensor_elem,
    valid_key,
    zero_elem,
    zmod,
)
from cdcat.errors import InvalidArgument, NegationUnsupported, SpaceMismatch, SpecMismatch


# ---------------------------------------------------------------------------
# rigs

def test_rig_op_examples():
    assert rig_op(INT, "add", 2, 3) == 5
    assert rig_op(INT, "mul", 2, 3) == 6
    assert rig_op(INT, "neg", 2) == -2
    assert rig_op(zmod(5), "add", 3, 4) == 2
    assert rig_op(RAT, "mul", Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)


def test_nat_has_no_negatives():
    with pytest.raises(NegationUnsupported):
        rig_op(NAT, "neg", 1)
    with pytest.raises(NegationUnsupported):
        rig_value(NAT, -1)
    assert rig_op(NAT, "neg", 0) == 0


def test_zmod_normalizes():
    assert rig_value(zmod(5), 7) == 2
    assert rig_value(zmod(5), -1) == 4


def test_rig_spec_validation():
    with pytest.raises(ValueError):
        RigSpec("field")
    with pytest.raises(ValueError):
        RigSpec("zmod", 0)
    with pytest.raises(ValueError):
        RigSpec("int", 5)


def test_spec_mismatch_is_rejected():
    with pytest.raises(SpecMismatch):
        RigValue(INT, 1) + RigValue(NAT, 1)


@pytest.mark.parametrize("spec, raw", [
    (RAT, 0.1), (RAT, 0.5), (RAT, True), (RAT, "abc"), (RAT, "1/0"), (RAT, None),
    (INT, True), (INT, 2.0), (INT, "2"), (NAT, False), (zmod(3), 1.0),
    (zmod(3), Fraction(1)),
])
def test_inexact_scalars_are_rejected(spec, raw):
    with pytest.raises(SpecMismatch):
        rig_value(spec, raw)


def test_exact_scalars_are_kept_exactly():
    assert rig_value(RAT, "0.1") == Fraction(1, 10)
    assert rig_value(RAT, Fraction(1, 3)) == Fraction(1, 3)
    assert type(rig_value(INT, 7)) is int


def test_rig_one_is_built_once_per_spec():
    # Fraction(1) is a fresh object on every call, so identity holds only
    # if the spec builds its one once and keeps it.
    assert RAT.one is RAT.one
    assert zmod(1).one == 0
    assert RAT.one == Fraction(1)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_a_finite_rig_lists_its_payloads_in_order(m):
    assert tuple(zmod(m).elements) == tuple(range(m))


@pytest.mark.parametrize("spec", [NAT, INT, RAT], ids=str)
def test_an_infinite_rig_has_no_element_list(spec):
    with pytest.raises(InvalidArgument):
        spec.elements


@pytest.mark.parametrize("m", range(1, 8))
def test_zmod_rig_laws_exhaustive(m):
    spec = zmod(m)
    vals = range(m)
    zero, one = 0, spec.one

    def add(a, b):
        return rig_op(spec, "add", a, b)

    def mul(a, b):
        return rig_op(spec, "mul", a, b)

    for a in vals:
        assert add(a, zero) == a
        assert mul(a, one) == a
        assert add(a, rig_op(spec, "neg", a)) == 0
        for b in vals:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in vals:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


small_ints = st.integers(min_value=-50, max_value=50)


@given(small_ints, small_ints, small_ints)
def test_int_rig_laws(a, b, c):
    def add(x, y):
        return rig_op(INT, "add", x, y)

    def mul(x, y):
        return rig_op(INT, "mul", x, y)

    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(st.fractions(), st.fractions())
def test_rat_rig_commutes(p, q):
    assert rig_op(RAT, "add", p, q) == rig_op(RAT, "add", q, p)
    assert rig_op(RAT, "mul", p, q) == rig_op(RAT, "mul", q, p)


SPECS = [NAT, INT, RAT, zmod(2), zmod(5)]


@given(st.sampled_from(SPECS), st.integers(0, 40), st.integers(0, 40))
def test_direct_arithmetic_matches_rig_value(spec, a, b):
    x, y = rig_value(spec, a), rig_value(spec, b)
    assert rig_op(spec, "add", x, y) == rig_value(spec, a + b)
    assert rig_op(spec, "mul", x, y) == rig_value(spec, a * b)
    if spec.kind == "zmod":
        assert 0 <= rig_op(spec, "add", x, y) < spec.modulus
        assert 0 <= rig_op(spec, "mul", x, y) < spec.modulus


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_nat_is_closed_and_non_negative(a, b):
    for z, expected in ((rig_op(NAT, "add", a, b), a + b),
                        (rig_op(NAT, "mul", a, b), a * b)):
        assert type(z) is int and z == expected >= 0


@given(st.sampled_from(SPECS), st.sampled_from(SPECS), st.integers(0, 9))
def test_arithmetic_across_specs_is_rejected(s1, s2, a):
    x, y = RigValue(s1, rig_value(s1, a)), RigValue(s2, rig_value(s2, a))
    if s1 == s2:
        assert x + y == rig_value(s1, 2 * a)
        return
    with pytest.raises(SpecMismatch):
        x + y
    with pytest.raises(SpecMismatch):
        x * y


def test_equal_specs_built_separately_still_combine():
    x, y = RigValue(zmod(3), 2), RigValue(zmod(3), 2)
    assert x.spec is not y.spec
    assert x + y == 1 and x * y == 1


# ---------------------------------------------------------------------------
# spaces and basis keys

A = Free(("e1", "e2"))
B = Free(("f1",))


def test_basis_keys_for_compound_spaces():
    assert basis_keys(A) == ["e1", "e2"]
    assert basis_keys(Product((A, B))) == [(0, "e1"), (0, "e2"), (1, "f1")]
    assert basis_keys(Tensor((A, B))) == [("e1", "f1"), ("e2", "f1")]


def test_valid_key():
    assert valid_key(A, "e1")
    assert not valid_key(A, "f1")
    assert valid_key(Product((A, B)), (1, "f1"))
    assert not valid_key(Product((A, B)), (2, "f1"))
    assert valid_key(Tensor((A, B)), ("e2", "f1"))
    assert not valid_key(Tensor((A, B)), ("f1", "e2"))


def test_free_basis_names_must_be_unique():
    with pytest.raises(ValueError):
        Free(("a", "a"))


def test_key_token_orders_mixed_keys():
    keys = [(0, "e2"), (0, "e1"), (1, "f1")]
    assert sorted(keys, key=key_token) == [(0, "e1"), (0, "e2"), (1, "f1")]


# ---------------------------------------------------------------------------
# module elements

def test_basis_elem_rejects_foreign_keys():
    with pytest.raises(SpaceMismatch):
        basis_elem(INT, A, "f1")


def test_zero_and_negation():
    e1 = basis_elem(INT, A, "e1")
    assert (e1 + (-e1)).is_zero
    assert zero_elem(INT, A).is_zero
    assert str(zero_elem(INT, A)) == "0"


def test_space_mismatch_on_add():
    with pytest.raises(SpaceMismatch):
        basis_elem(INT, A, "e1") + basis_elem(INT, B, "f1")


coeffs = st.integers(min_value=-9, max_value=9)


def elem(c1, c2):
    return basis_elem(INT, A, "e1").scale(c1) + basis_elem(INT, A, "e2").scale(c2)


@given(coeffs, coeffs, coeffs, coeffs, coeffs)
def test_module_laws(a1, a2, b1, b2, c):
    x, y = elem(a1, a2), elem(b1, b2)
    assert x + y == y + x
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x.scale(0).is_zero


def test_tensor_elem_oracle():
    e1, e2 = basis_elem(INT, A, "e1"), basis_elem(INT, A, "e2")
    f1 = basis_elem(INT, B, "f1")
    t = tensor_elem(e1.scale(2) + e2, f1.scale(3))
    assert t.coeffs[("e1", "f1")] == 6
    assert t.coeffs[("e2", "f1")] == 3


@given(coeffs, coeffs, coeffs, coeffs, coeffs)
def test_tensor_elem_bilinear(a1, a2, b1, b2, c):
    x, y = elem(a1, a2), elem(b1, b2)
    w = basis_elem(INT, B, "f1").scale(c)
    assert tensor_elem(x + y, w) == tensor_elem(x, w) + tensor_elem(y, w)
    assert tensor_elem(x.scale(c), w) == tensor_elem(x, w).scale(c)


def test_enum_elements_counts():
    assert len(list(enum_elements(zmod(3), A))) == 9
    assert len(list(enum_elements(zmod(2), Product((A, B))))) == 8


# ---------------------------------------------------------------------------
# monomials and generators

def test_monomial_of_sorts():
    assert Monomial.of(("e2", "e1", "e1")).keys == ("e1", "e1", "e2")


def test_monomial_mul_is_multiset_union():
    mu = Monomial.of(("e1", "e2"))
    nu = Monomial.of(("e1",))
    assert monomial_mul(mu, nu).keys == ("e1", "e1", "e2")
    assert monomial_mul(mu, nu) == monomial_mul(nu, mu)


@given(st.lists(st.sampled_from(["e1", "e2"]), max_size=4),
       st.lists(st.sampled_from(["e1", "e2"]), max_size=4))
def test_monomial_mul_degree_adds(ks1, ks2):
    mu, nu = Monomial.of(ks1), Monomial.of(ks2)
    assert monomial_mul(mu, nu).degree == mu.degree + nu.degree


def test_qgenerator_degree_and_str():
    gen = QGenerator(basis_elem(INT, A, "e1"), Monomial.of(("e2", "e1")))
    assert gen.degree == 2
    assert str(gen) == "<1*e1; e1,e2>"


# ---------------------------------------------------------------------------
# order-free hashing and the accumulator

keyed_coeffs = st.dictionaries(st.sampled_from(["e1", "e2"]), st.integers(-9, 9))


@given(keyed_coeffs, st.randoms())
def test_equal_elements_hash_equal_whatever_the_insertion_order(raw, rnd):
    items = list(raw.items())
    shuffled = items[:]
    rnd.shuffle(shuffled)
    x = ModuleElement(INT, A, {k: rig_value(INT, v) for k, v in items})
    y = ModuleElement(INT, A, {k: rig_value(INT, v) for k, v in shuffled})
    assert x == y and hash(x) == hash(y)


@given(keyed_coeffs, st.lists(st.sampled_from(["e1", "e2"]), max_size=3))
def test_equal_generators_collapse_to_one_dict_key(raw, tail):
    def build():
        point = ModuleElement(INT, A, dict(raw))
        return QGenerator(point, Monomial.of(tail))

    g, h = build(), build()
    assert g is not h and g.point is not h.point
    assert g == h and hash(g) == hash(h)
    out = {}
    add_into(out, g, 2)
    add_into(out, h, 3)
    assert len(out) == 1 and out[g] == 5


@given(keyed_coeffs)
def test_cancelling_sums_leave_no_zero_coefficient(raw):
    z2 = zmod(2)
    x = ModuleElement(z2, A, {k: rig_value(z2, v) for k, v in raw.items()})
    y = ModuleElement(INT, A, {k: rig_value(INT, v) for k, v in raw.items()})
    for total in (x + x, y + (-y)):
        assert total.is_zero and total.coeffs == {}
    out = {}
    for k, v in x.coeffs.items():
        add_into(out, k, v)
        add_into(out, k, v)
    assert ModuleElement(z2, A, out).coeffs == {}
