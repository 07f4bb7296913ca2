"""Polynomial maps, the map grammar, and the finite table world."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import poly
from cdcat.algebra import INT, NAT, RAT, rig_value, zmod
from cdcat.cdc import PolyBackend, PolySampler
from cdcat.errors import (
    ArityError,
    NegationUnsupported,
    ObjectMismatch,
    ParseError,
    SizeLimit,
    SpecMismatch,
    UnknownVariable,
)
from cdcat.poly import (
    MAX_ARITY,
    MAX_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    FinFnBackend,
    FinModule,
    Polynomial,
    PolyMap,
    TableMap,
    parse_poly_map,
    poly_D,
    substitute,
    table_from_poly,
)


def p(src, rig=INT, arity=1):
    return parse_poly_map(src, rig, arity)


# ---------------------------------------------------------------------------
# arithmetic and substitution

def test_substitution_oracle():
    # x^2 after x+1 is x^2 + 2x + 1
    assert substitute(p("[x1^2]"), p("[x1 + 1]")) == p("[x1^2 + 2*x1 + 1]")


def test_binomial_expansion_via_parser():
    assert p("[(x1 + 1)^3]") == p("[x1^3 + 3*x1^2 + 3*x1 + 1]")


def test_poly_D_oracle():
    # D(xy)(x, v) = v1*y + x*v2, direction variables are x3, x4
    assert poly_D(p("[x1*x2]", arity=2)) == p("[x2*x3 + x1*x4]", arity=4)


def test_poly_D_of_linear_map():
    assert poly_D(p("[x1 + x2]", arity=2)) == p("[x3 + x4]", arity=4)


def test_partial_multiplicity_lands_in_the_rig():
    # d/dx x^3 = 3x^2 vanishes over Z/3
    cubic = parse_poly_map("[x1^3]", zmod(3), 1)
    assert cubic.components[0].partial(0).is_zero
    assert poly_D(cubic).is_zero


def test_identity_and_projections():
    be = PolyBackend(INT)
    assert be.identity(2) == p("[x1; x2]", arity=2)
    assert be.proj([2, 1], 1) == p("[x3]", arity=3)
    assert be.proj([2, 1], 0) == p("[x1; x2]", arity=3)


def test_eval():
    f = p("[x1^2 + x2]", arity=2)
    vals = f.eval((rig_value(INT, 3), rig_value(INT, 4)))
    assert list(vals) == [13]


def test_composition_mismatch():
    with pytest.raises(ArityError):
        substitute(p("[x1]", arity=1), p("[x1; x2]", arity=2))


def test_substitute_refuses_bad_arguments():
    poly = p("[x1*x2 + 1]", arity=2).components[0]
    x, y = p("[x1; x2]", arity=2).components
    with pytest.raises(ArityError):
        poly.substitute([x])
    with pytest.raises(ArityError):
        poly.substitute([x, Polynomial.var(INT, 3, 0)])
    with pytest.raises(SpecMismatch):
        poly.substitute([x, Polynomial.var(RAT, 2, 1)])
    # a constant polynomial still checks the arguments it never multiplies
    with pytest.raises(SpecMismatch):
        Polynomial.const(INT, 1, 3).substitute([Polynomial.var(RAT, 1, 0)])
    assert poly.substitute([y, x]) == poly


def test_arithmetic_and_maps_refuse_mixed_rigs_and_arities():
    x = Polynomial.var(INT, 2, 0)
    for op in (lambda a, b: a + b, lambda a, b: a * b):
        with pytest.raises(SpecMismatch):
            op(x, Polynomial.var(RAT, 2, 0))
        with pytest.raises(ArityError):
            op(x, Polynomial.var(INT, 3, 0))
    with pytest.raises(ArityError):
        PolyMap(INT, 1, 1, [x])
    with pytest.raises(ArityError):
        PolyMap(RAT, 2, 1, [x])
    with pytest.raises(ArityError):
        PolyMap(INT, 2, 2, [x])


def test_public_polymap_checks_what_trusted_results_guarantee():
    x = Polynomial.var(INT, 2, 0)
    with pytest.raises(ArityError):  # a component of the wrong arity
        PolyMap(INT, 3, 1, [x])
    with pytest.raises(ArityError):  # one component for two outputs
        PolyMap(INT, 2, 2, [x])
    with pytest.raises(ArityError):  # a component over another rig
        PolyMap(zmod(5), 2, 1, [x])
    # substitute, poly_D and the backend's structure maps skip those checks;
    # each of their results passes them
    be = PolyBackend(INT)
    f, g = p("[x1*x2 + 3; x2^2]", arity=2), p("[x1 - x2]", arity=2)
    results = [substitute(g, f), poly_D(f), be.identity(2), be.proj([2, 1], 1),
               be.pairing([f, g]), be.zero(2, 3), be.add(f, f), be.scale(-2, f),
               be.compose(g, be.pairing([be.proj([1, 1], 0), be.proj([1, 1], 1)]))]
    for h in results:
        assert type(h.components) is tuple
        assert PolyMap(h.rig, h.dom, h.cod, h.components) == h
    with pytest.raises(ArityError):  # pairing still refuses mixed rigs
        be.pairing([f, PolyMap(RAT, 2, 1, [Polynomial.var(RAT, 2, 0)])])


def test_cancelled_terms_leave_no_zero_coefficient():
    rig = zmod(5)
    a, b = parse_poly_map("[x1 + 4*x2; x1 + x2]", rig, 2).components
    product = a * b
    assert product == parse_poly_map("[x1^2 + 4*x2^2]", rig, 2).components[0]
    assert all(c != 0 for c in product.terms.values())
    composite = substitute(parse_poly_map("[x1*x2]", rig, 2),
                           parse_poly_map("[x1 + 4*x2; x1 + x2]", rig, 2))
    assert composite.components[0] == product
    assert all(c != 0 for c in composite.components[0].terms.values())
    assert all(c != 0 for c in (a ** 5).terms.values())


# ---------------------------------------------------------------------------
# the rename path: every component of f is zero or a variable

@pytest.fixture
def general_path(monkeypatch):
    """Counts the calls of the general substitution kernel."""
    calls = []
    kernel = poly._substitute

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(poly, "_substitute", counting)
    return calls


def by_general_path(g, f):
    return PolyMap(g.rig, f.dom, g.cod, [q.substitute(list(f.components))
                                         for q in g.components])


@pytest.mark.parametrize("rig, g", [(INT, "[x1 - x2]"), (zmod(2), "[x1 + x2]")])
def test_renaming_cancels_merged_terms(rig, g, general_path):
    g = parse_poly_map(g, rig, 2)
    f = parse_poly_map("[x1; x1]", rig, 1)
    composite = substitute(g, f)
    assert general_path == []
    # equal term dicts: no zero coefficient is left behind
    assert composite == PolyBackend(rig).zero(1, 1)


def test_renaming_adds_exponents_of_merged_variables(general_path):
    g = p("[x1^2*x2 + 3*x3*x1 + x3^2]", arity=3)
    f = p("[x2; x1; x2]", arity=2)
    composite = substitute(g, f)
    assert general_path == []
    assert composite == p("[x1*x2^2 + 3*x2^2 + x2^2]", arity=2)


def test_renaming_over_zmod_1(general_path):
    rig = zmod(1)
    be = PolyBackend(rig)
    g = parse_poly_map("[x1 + x2 + 1; 0]", rig, 2)
    f = be.pairing([be.proj([1, 1, 1], 2), be.zero(3, 1)])
    assert f.is_zero and g.is_zero
    assert substitute(g, f) == be.zero(3, 2)
    assert general_path == []


def test_renaming_drops_positive_powers_of_a_zero_component(general_path):
    g = p("[x1^2 + 2*x2*x1 + x2^3 + 5]", arity=2)
    f = PolyBackend(INT).pairing([p("[x1]"), PolyBackend(INT).zero(1, 1)])
    composite = substitute(g, f)
    assert general_path == []
    # power 0 of the zero component keeps x1^2 and 5
    assert composite == p("[x1^2 + 5]")
    assert composite == by_general_path(g, f)


@pytest.mark.parametrize("f", ["[2*x1; x2]", "[x1 + x2; x1]", "[x1; x2 + 1]",
                               "[x1*x2; x2]", "[x1; 0 - x2]"])
def test_other_components_take_the_general_path(f, general_path):
    g = p("[x1^2*x2 + x2]", arity=2)
    f = p(f, arity=2)
    composite = substitute(g, f)
    assert len(general_path) == 1
    assert composite == by_general_path(g, f)


def test_renaming_refuses_mismatched_arity_and_rig():
    g = p("[x1*x2]", arity=2)
    with pytest.raises(ArityError):
        substitute(g, PolyBackend(INT).proj([1, 1, 1], 0))
    with pytest.raises(ArityError):
        substitute(g, PolyBackend(RAT).identity(2))


def test_projections_are_built_once_per_backend():
    be = PolyBackend(INT)
    pi = be.proj([2, 1], 1)
    assert be.proj((2, 1), 1) is pi
    assert pi == p("[x3]", arity=3)
    assert be.proj([2, 1], 0) == p("[x1; x2]", arity=3)
    assert PolyBackend(INT).proj([2, 1], 1) is not pi


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([INT, RAT, zmod(5), zmod(4)]))
def test_shared_power_tables_match_componentwise_substitution(seed, rig):
    sampler = PolySampler(rig, seed=seed, max_arity=3, max_degree=3)
    a, b, c = (sampler.random_object() for _ in range(3))
    f = sampler.random_morphism(a, b)
    g = sampler.random_morphism(b, c)
    expected = PolyMap(rig, a, c, [q.substitute(list(f.components))
                                   for q in g.components])
    assert substitute(g, f) == expected


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=9))
def test_power_by_squaring_matches_repeated_products(seed, n):
    q = PolySampler(INT, seed=seed, max_arity=2, max_degree=2).random_poly(2)
    expected = Polynomial.const(INT, 2, 1)
    for _ in range(n):
        expected = expected * q
    assert q ** n == expected


def test_negative_power_is_refused():
    with pytest.raises(ValueError):
        Polynomial.var(INT, 1, 0) ** -1


def test_poly_D_of_arity_zero():
    f = PolyMap(INT, 0, 2, [Polynomial.const(INT, 0, 3), Polynomial.zero(INT, 0)])
    assert poly_D(f) == PolyBackend(INT).zero(0, 2)


# ---------------------------------------------------------------------------
# parser

def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        p("[x3]", arity=2)


def test_parse_minus_needs_negatives():
    with pytest.raises(NegationUnsupported):
        p("[x1 - x1]", rig=NAT)
    assert p("[x1 - x1]", rig=INT).is_zero


def test_rational_literals_need_rat():
    assert p("[1/2]", rig=RAT).components[0] == Polynomial.const(RAT, 1, "1/2")
    with pytest.raises(ParseError):
        p("[1/2]", rig=INT)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        p("[x1 +]")
    assert "position" in str(info.value)


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        p("[x1] junk")


def test_term_limit():
    quartic = p("[(x1 + x2 + x3 + x4)^20]", arity=4)
    assert len(quartic.components[0].terms) == 1771  # C(23, 3) monomials
    assert MAX_TERMS < 969 * 969  # the square of the ^16 power of that sum
    with pytest.raises(SizeLimit):
        p("[(x1 + x2 + x3 + x4)^32]", arity=4)
    with pytest.raises(SizeLimit):
        p("[(x1 + x2 + x3 + x4)^16 * (x1 + x2 + x3 + x4)^16]", arity=4)
    assert p("[x1^1000000000]").components[0].terms == {
        (1_000_000_000,): 1}


def test_nesting_limit():
    def nested(depth):
        return "[" + "(" * depth + "x1" + ")" * depth + "]"

    assert p(nested(MAX_NESTING)) == p("[x1]")
    with pytest.raises(ParseError) as info:
        p(nested(MAX_NESTING + 1))
    assert "nested deeper" in str(info.value)


def test_zmod_literals_reduce():
    assert p("[5]", rig=zmod(3)) == p("[2]", rig=zmod(3))


def test_render_without_unary_minus():
    f = p("[0 - x1 + 2]")
    text = f.to_str()
    assert "-" not in text or text.startswith("[0 - ")
    assert p(f"{text}") == f


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_print_parse_round_trip(seed, arity):
    sampler = PolySampler(INT, seed=seed, max_arity=arity, max_degree=3)
    f = sampler.random_morphism(arity, 2)
    assert parse_poly_map(f.to_str(), INT, arity) == f


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_print_parse_round_trip_rat(seed):
    sampler = PolySampler(RAT, seed=seed, max_arity=2, max_degree=2)
    f = sampler.random_morphism(2, 1)
    assert parse_poly_map(f.to_str(), RAT, 2) == f


# ---------------------------------------------------------------------------
# finite tables

def test_fermat_tables_coincide():
    # x^3 = x pointwise over Z/3
    cube = table_from_poly(parse_poly_map("[x1^3]", zmod(3), 1))
    ident = table_from_poly(parse_poly_map("[x1]", zmod(3), 1))
    assert cube == ident


def test_table_functoriality():
    rig = zmod(5)
    f = parse_poly_map("[x1^2 + 1; 2*x1]", rig, 1)
    g = parse_poly_map("[x1*x2; x1 + x2]", rig, 2)
    assert table_from_poly(substitute(g, f)) == FinFnBackend(5).compose(
        table_from_poly(g), table_from_poly(f)
    )



def test_coefficient_digit_limit():
    # 2^3000 has 904 digits and parses; 2^3400 (1024 digits) is refused
    assert p("[2^3000*x1]").components[0].terms == {(1,): 2 ** 3000}
    with pytest.raises(SizeLimit):
        p("[2^3400*x1]")
    with pytest.raises(SizeLimit):
        p("[2^3000*x1 * 2^3000]")
    # the bound is on coefficients, so a residue mod 5 stays small
    assert p("[7^30000000*x1]", rig=zmod(5)).components[0].terms == {
        (1,): pow(7, 30000000, 5)}
    # numerals: MAX_DIGITS digits parse, one more is refused before int()
    assert p("[" + "9" * MAX_DIGITS + "]").components[0].terms == {
        (0,): 10 ** MAX_DIGITS - 1}
    with pytest.raises(SizeLimit):
        p("[" + "9" * (MAX_DIGITS + 1) + "]")
    with pytest.raises(SizeLimit):
        p("[1/" + "7" * (MAX_DIGITS + 1) + "]", rig=RAT)


def test_arity_limit():
    assert p("[x1*x%d]" % MAX_ARITY, arity=MAX_ARITY).dom == MAX_ARITY
    with pytest.raises(SizeLimit):
        p("[x1]", arity=MAX_ARITY + 1)

def test_table_from_poly_size_limit(monkeypatch):
    f = parse_poly_map("[x1]", zmod(7), 1)
    big = PolyMap(zmod(7), 8, 1, [Polynomial.var(zmod(7), 8, 0)])
    monkeypatch.setattr(poly, "MAX_TABLE_POINTS", 100)
    with pytest.raises(SizeLimit):
        table_from_poly(big)
    assert table_from_poly(f).table[(3,)] == (3,)


def test_table_from_poly_refuses_a_huge_rig_before_listing_its_scalars():
    # the line over Z/10^6 has more points than MAX_TABLE_POINTS; the
    # refusal reads the count from the rig and allocates no scalar list
    rig = zmod(10 ** 6)
    f = PolyMap(rig, 1, 1, [Polynomial.var(rig, 1, 0)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            table_from_poly(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_table_pairing_and_proj():
    be = FinFnBackend(3)
    A = be.module(1)
    f = TableMap.from_callable(A, A, lambda x: ((x[0] * 2) % 3,))
    g = be.identity(A)
    paired = be.pairing([f, g])
    assert paired.table[(2,)] == (1, 2)
    assert be.compose(be.proj([A, A], 0), paired) == f
    assert be.compose(be.proj([A, A], 1), paired) == g


def test_fin_backend_module_structure():
    be = FinFnBackend(2)
    A = be.module(2)
    f = TableMap.from_callable(A, A, lambda x: (x[1], x[0]))
    assert be.add(f, f).is_zero
    assert be.scale(0, f).is_zero
    assert len(be.multilinear_maps(be.module(1), be.module(1), 0)) == 4


def test_fin_backend_refuses_mismatched_objects():
    be = FinFnBackend(2)
    A, B = be.module(1), be.module(2)
    with pytest.raises(ObjectMismatch):
        be.pairing([be.identity(A), be.identity(B)])
    with pytest.raises(ObjectMismatch):
        be.add(be.zero(A, A), be.zero(A, B))
    with pytest.raises(ObjectMismatch):
        be.compose(be.identity(A), be.identity(B))


def test_fin_module_needs_zmod():
    with pytest.raises(SpecMismatch):
        FinModule(INT, 2)
