"""One scalar representation: every coefficient dict holds raw payloads.

A coefficient of a ModuleElement or a Polynomial is an int (nat, int,
zmod) or a Fraction (rat), normalised: in range(m) for zmod, non-negative
for nat, never zero.  Both constructors refuse a float, a bool and a
RigValue of another rig.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import qmodality as qm
from cdcat.algebra import (
    INT,
    NAT,
    RAT,
    Free,
    ModuleElement,
    QGenerator,
    RigValue,
    tensor_elem,
    zmod,
)
from cdcat.errors import CdcatError
from cdcat.poly import Polynomial, PolyMap, poly_D, substitute

RIGS = [NAT, INT, RAT, zmod(2), zmod(5)]
A = Free(("e1", "e2"))
B = Free(("f1",))


def raw_scalars(rig):
    """Unnormalised inputs a constructor accepts: out-of-range and
    negative ints for zmod, ints for rat, and the rig's own RigValues."""
    ints = st.integers(min_value=0 if rig is NAT else -6, max_value=6)
    if rig is RAT:
        fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
        plain = ints | fractions
    else:
        plain = ints
    return plain | plain.map(lambda v: RigValue(rig, v))


def payload_ok(rig, v) -> bool:
    if rig.kind == "rat":
        return type(v) is Fraction and v != 0
    if type(v) is not int or v == 0:
        return False
    if rig.kind == "zmod":
        return 0 < v < rig.modulus
    return v > 0 or rig.kind == "int"


def check_coeffs(rig, coeffs: dict):
    for key, v in coeffs.items():
        assert payload_ok(rig, v), (rig, key, v)
        for part in key if isinstance(key, tuple) else (key,):
            if isinstance(part, QGenerator):
                check_coeffs(rig, part.point.coeffs)


@st.composite
def rigs_and_elems(draw, space=A, count=2):
    rig = draw(st.sampled_from(RIGS))
    elems = [ModuleElement(rig, space, draw(st.dictionaries(
        st.sampled_from(list(space.basis)), raw_scalars(rig), max_size=len(space.basis))))
        for _ in range(count)]
    return rig, elems, draw(raw_scalars(rig))


@settings(max_examples=60, deadline=None)
@given(rigs_and_elems())
def test_module_operations_hold_only_payloads(case):
    rig, (x, y), c = case
    for elem in (x, y, x + y, x.scale(c), tensor_elem(x, y)):
        check_coeffs(rig, elem.coeffs)


@settings(max_examples=40, deadline=None)
@given(rigs_and_elems(count=4))
def test_q_structure_maps_hold_only_payloads(case):
    rig, (x0, x1, y0, image), c = case
    p = qm.q_inject(x0, [x1]).scale(c)
    q = qm.q_inject(y0, [x1, x0])
    f = qm.LinearMap(rig, A, B, lambda k: ModuleElement(
        rig, B, {"f1": image.coeffs.get(k, 0)}))
    for elem in (p, q, p + q, qm.q_map(f, q), qm.monoidal_mult(p, q)):
        check_coeffs(rig, elem.coeffs)


@st.composite
def rigs_and_maps(draw):
    rig = draw(st.sampled_from(RIGS))

    def poly_map(dom, cod):
        return PolyMap(rig, dom, cod, [Polynomial(rig, dom, draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * dom), raw_scalars(rig), max_size=4)))
            for _ in range(cod)])

    return rig, poly_map(2, 2), poly_map(2, 1)


@settings(max_examples=60, deadline=None)
@given(rigs_and_maps())
def test_poly_operations_hold_only_payloads(case):
    rig, f, g = case
    for h in (f, g, substitute(g, f), poly_D(f), poly_D(substitute(g, f))):
        for p in h.components:
            check_coeffs(rig, p.terms)


def foreign(rig):
    return RigValue(zmod(3) if rig == INT else INT, 1)


@pytest.mark.parametrize("rig", RIGS, ids=str)
@pytest.mark.parametrize("bad", [1.0, 0.0, True, False, "foreign"])
def test_constructors_refuse_non_scalars(rig, bad):
    if bad == "foreign":
        bad = foreign(rig)
    with pytest.raises(CdcatError):
        ModuleElement(rig, A, {"e1": bad})
    with pytest.raises(CdcatError):
        Polynomial(rig, 1, {(1,): bad})
    with pytest.raises(CdcatError):
        ModuleElement(rig, A, {"e1": 1}).scale(bad)


def test_constructors_accept_other_scalars_as_payloads():
    assert ModuleElement(zmod(5), A, {"e1": -1, "e2": RigValue(zmod(5), 10)}).coeffs == {
        "e1": 4}
    assert Polynomial(RAT, 1, {(1,): 2, (0,): RigValue(RAT, Fraction(1, 2))}).terms == {
        (1,): Fraction(2), (0,): Fraction(1, 2)}
    with pytest.raises(CdcatError):
        ModuleElement(NAT, A, {"e1": -1})
    with pytest.raises(CdcatError):
        Polynomial(NAT, 1, {(1,): -1})
