"""sympy as an independent oracle for Poly substitution and derivatives.

sympy is a test-only dependency: without it this module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import cdc, faa, poly
from cdcat.algebra import INT, RAT
from cdcat.poly import Polynomial, PolyMap, poly_D, substitute

sympy = pytest.importorskip("sympy")

RIGS = {"int": INT, "rat": RAT}


def symbols(n):
    return sympy.symbols(f"x1:{n + 1}") if n else ()


def rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p: Polynomial):
    xs = symbols(p.arity)
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = rational(c)
        for x, k in zip(xs, e):
            term *= x ** k
        out += term
    return sympy.expand(out)


def same(p: Polynomial, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def coefficients(rig):
    ints = st.integers(min_value=-5, max_value=5)
    if rig is INT:
        return ints
    return st.builds(Fraction, ints, st.integers(min_value=1, max_value=4))


@st.composite
def poly_maps(draw, rig, dom, cod, max_exp=3):
    comps = []
    for _ in range(cod):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * dom),
            coefficients(rig), max_size=4))
        comps.append(Polynomial(rig, dom, terms))
    return PolyMap(rig, dom, cod, comps)


@st.composite
def selections(draw, rig, dom, cod):
    """Maps whose components are zero or a variable, repeated or not, so
    that some variables may be dropped: the renaming path of substitute."""
    picks = draw(st.lists(st.none() | st.integers(min_value=0, max_value=dom - 1),
                          min_size=cod, max_size=cod))
    return PolyMap(rig, dom, cod, [Polynomial.zero(rig, dom) if i is None
                                   else Polynomial.var(rig, dom, i) for i in picks])


@st.composite
def composable(draw, rig, inner=poly_maps):
    a, b, c = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    return draw(poly_maps(rig, b, c)), draw(inner(rig, a, b))


def to_sympy_poly(p: Polynomial):
    """p as a sympy.Poly over QQ in x1..x<arity>, built from its term dict."""
    return sympy.Poly.from_dict({e: rational(c) for e, c in p.terms.items()},
                                *symbols(p.arity), domain=sympy.QQ)


def sympy_substitute(p: Polynomial, images):
    """sum c x^e with x_i replaced by images[i], in sympy.Poly arithmetic."""
    out = sympy.Poly(0, *images[0].gens, domain=sympy.QQ)
    for e, c in p.terms.items():
        term = sympy.Poly(rational(c), *images[0].gens, domain=sympy.QQ)
        for image, k in zip(images, e):
            term = term * image ** k
        out = out + term
    return out


def assert_substitute_matches_sympy(g, f):
    images = [to_sympy_poly(p) for p in f.components]
    composite = substitute(g, f)
    for p, q in zip(g.components, composite.components):
        assert to_sympy_poly(q) == sympy_substitute(p, images)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RIGS)), st.data())
def test_substitute_matches_sympy(rig_name, data):
    assert_substitute_matches_sympy(*data.draw(composable(RIGS[rig_name])))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RIGS)), st.data())
def test_renaming_substitute_matches_sympy(rig_name, data):
    g, f = data.draw(composable(RIGS[rig_name], selections))
    assert poly._selection(f.components) is not None
    assert_substitute_matches_sympy(g, f)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RIGS)), st.integers(min_value=0, max_value=3),
       st.data())
def test_poly_D_matches_sympy(rig_name, n, data):
    f = data.draw(poly_maps(RIGS[rig_name], n, 2))
    xs = symbols(2 * n)
    x, v = xs[:n], xs[n:]
    for p, q in zip(f.components, poly_D(f).components):
        expected = sum((sympy.diff(to_sympy(p), x[j]) * v[j] for j in range(n)),
                       sympy.Integer(0))
        assert same(q, expected)


def sympy_nth_derivative(p: Polynomial, n: int):
    """f^(n)(x, v1..vn): the sum over j1..jn of d^n f / dx_j1..dx_jn times
    v1_j1 ... vn_jn, in variables x1.. of n + 1 blocks of p.arity."""
    a = p.arity
    xs = symbols(a * (n + 1))
    expected = to_sympy(p)
    for k in range(1, n + 1):
        v = xs[a * k:a * (k + 1)]
        expected = sum((sympy.diff(expected, xs[j]) * v[j] for j in range(a)),
                       sympy.Integer(0))
    return expected


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(RIGS)), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=3), st.data())
def test_nth_derivative_matches_sympy(rig_name, a, n, data):
    rig = RIGS[rig_name]
    f = data.draw(poly_maps(rig, a, 1))
    got = cdc.nth_derivative(cdc.PolyBackend(rig), f, a, n)
    assert same(got.components[0], sympy_nth_derivative(f.components[0], n))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(RIGS)), st.integers(min_value=1, max_value=2),
       st.data())
def test_coalgebra_tower_matches_sympy(rig_name, a, data):
    rig = RIGS[rig_name]
    f = data.draw(poly_maps(rig, a, 1, max_exp=2))
    tower = faa.coalgebra(cdc.PolyBackend(rig), f)
    # the tower holds f^(0), f^(1), ... up to the last nonzero derivative
    for n, component in enumerate(tower.family):
        assert same(component.components[0], sympy_nth_derivative(f.components[0], n))
    assert sympy_nth_derivative(f.components[0], len(tower.family)) == 0
