"""Refusals: every public entry point raises a CdcatError on bad input."""

import pytest

from cdcat import cdc, dpsh, faa, qmodality, suites
from cdcat.algebra import (
    INT,
    Free,
    Product,
    QSpace,
    RigSpec,
    RigValue,
    basis_elem,
    basis_keys,
    enum_elements,
    key_token,
    rig_op,
    rig_value,
    tensor_elem,
    zero_elem,
    zmod,
)
from cdcat.combinat import partial_isos, partitions
from cdcat.errors import (
    ArityError,
    CdcatError,
    IndexOutOfRange,
    InvalidArgument,
    ObjectMismatch,
    ParseError,
    SpaceMismatch,
    SpecMismatch,
)
from cdcat.matcat import MatBackend
from cdcat.poly import (
    FinFnBackend,
    Polynomial,
    PolyMap,
    TableMap,
    fin_product,
    parse_poly_map,
    table_from_poly,
)
from cdcat.qmodality import (
    bialg_mult,
    deriving,
    fusion,
    inject_elem,
    q_inject,
    q_map,
    relabel,
)

A = Free(("a",))
B = Free(("b",))
SQUARE = parse_poly_map("[x1^2]", INT, 1)
X1_X2_SQUARED = parse_poly_map("[x1*x2^2]", INT, 2)
Z2, Z3 = zmod(2), zmod(3)
BASE = dpsh.FiniteCdcBase(2, (1,))
MAT = MatBackend(2)
POLY = cdc.PolyBackend(INT)
FINFN = FinFnBackend(2)
FAA = faa.FaaBackend(MAT)
TWICE_Z3 = MatBackend(3).scale(2, MatBackend(3).identity(1))  # 2 id over Z/3
FIN_Z3 = FinFnBackend(3)
TWICE_FIN_Z3 = FIN_Z3.scale(2, FIN_Z3.identity(FIN_Z3.module(1)))  # 2 id over Z/3
HALF_X = parse_poly_map("[1/2*x1]", RigSpec("rat"), 1)  # a map over rat
Y1 = dpsh.ReprPresheaf(BASE, 1)
M1 = FinFnBackend(2).module(1)
TENSOR = dpsh.TensorPresheaf(Y1, dpsh.UnitPresheaf(BASE))
NOT_Q = basis_elem(INT, A, "a")  # an element of A, not of QA
P2 = q_inject(basis_elem(Z2, A, "a"), [basis_elem(Z2, A, "a")])


@pytest.mark.parametrize("call", [
    lambda: RigSpec("foo"),
    lambda: RigSpec("int", 3),
    lambda: zmod(0),
    lambda: FinFnBackend(0),
    lambda: suites.modality_suite(0),
    lambda: suites.parse_rig("foo"),
    lambda: suites.parse_rig("zmod:x"),
    lambda: Free(("a", "a")),
    lambda: partitions(-1),
    lambda: partial_isos(-1, 0),
    lambda: Polynomial.var(INT, 1, 0) ** -1,
    lambda: list(enum_elements(INT, A)),
    lambda: basis_keys(QSpace(A)),
    lambda: rig_op(INT, "div", 1, 2),
    lambda: key_token(1.5),
    lambda: cdc.nth_derivative(cdc.PolyBackend(INT), SQUARE, 1, -1),
    lambda: cdc.iterated_D(cdc.PolyBackend(INT), SQUARE, -1),
    lambda: cdc.decompose_iterated(cdc.PolyBackend(INT), SQUARE, 1, -1),
    lambda: cdc.decompose_iterated(cdc.PolyBackend(INT), SQUARE, 1, -2),
    lambda: cdc.reconstruct_from_iterated(cdc.PolyBackend(INT), SQUARE, 1, -1),
    lambda: dpsh.full_fidelity(BASE, 1, 1, degree_bound=-1),
    lambda: dpsh.full_fidelity(BASE, 1, 1, support_bound=-1),
    lambda: suites.presheaf_suite(max_dim=1, q_bound=-1),
    lambda: dpsh.check_presheaf(dpsh.ReprPresheaf(BASE, 1), map_budget=-1),
    lambda: suites.presheaf_suite(max_dim=1, map_budget=-1),
    lambda: suites.cdc_suite(max_arity=0),
    lambda: suites.cdc_suite(samples=-1),
    lambda: suites.cdc_suite(samples=0),
    lambda: suites.modality_suite(2, dim=-1),
    lambda: suites.modality_suite(2, dim=0),
    lambda: suites.modality_suite(2, dim=1, maxdeg=-1),
    lambda: suites.modality_suite(2, dim=1, pair_total_degree=-1),
    lambda: suites.kleisli_suite(2, max_dim=1, samples=-1),
    lambda: suites.kleisli_suite(2, max_dim=1, samples=0),
    lambda: suites.kleisli_suite(2, max_dim=1, degree_bound=-1),
    lambda: suites.kleisli_suite(2, max_dim=1, degree_bound=0),
    lambda: suites.kleisli_suite(2, max_dim=0),
    lambda: suites.yoneda_suite(max_dim=0),
    lambda: suites.presheaf_suite(max_dim=0),
    lambda: faa.build_kleisli_D(FinFnBackend(2), FinFnBackend(2).module(1), -1),
    lambda: parse_poly_map("[1]", INT, -1),
    lambda: PolyMap(INT, -1, 1, [Polynomial.zero(INT, -1)]),
    lambda: FinFnBackend(2).module(-1).elements(),
    lambda: dpsh.check_presheaf(dpsh.ReprPresheaf(dpsh.FiniteCdcBase(2, [-1]), 1)),
    lambda: MatBackend(2).identity(-1),
    lambda: MatBackend(2).zero(-1, 2),
    lambda: MatBackend(2).zero(2, -1),
    lambda: MatBackend(2).proj([1, -1], 0),
    lambda: next(MatBackend(2).all_maps(1, -1)),
    lambda: TableMap(M1, M1, {(0,): (0,)}),
    lambda: TableMap(M1, M1, {(0,): (0,), (2,): (1,)}),
    lambda: TableMap(M1, M1, {(0,): (0.5,), (1,): ("x",)}),
    lambda: TableMap(M1, M1, {(0,): (0,), (1,): (2,)}),
    lambda: TableMap(M1, M1, {(0,): (0,), (1,): (True,)}),
    lambda: TableMap(M1, M1, {(0,): (0, 1), (1,): (1,)}),
    lambda: TableMap(M1, M1, {(0,): 0, (1,): 1}),
    lambda: TableMap(1, 1, {(0,): (0,), (1,): (1,)}),
    lambda: TableMap.from_callable(M1, M1, lambda x: (0.5,)),
    lambda: TableMap.from_callable(M1, M1, lambda x: (x[0] + 1,)),
    lambda: TableMap.from_callable(1, 1, lambda x: x),
    lambda: next(faa.all_families(MatBackend(2), -1, 1, 1)),
    lambda: next(faa.all_families(cdc.PolyBackend(INT), 1, 1, 1)),
    lambda: suites.enumerate_families(cdc.PolyBackend(INT), 1, 1, 1),
    lambda: dpsh.QPresheaf(dpsh.QPresheaf(Y1)).spanning(1),
    lambda: dpsh.TensorPresheaf(dpsh.QPresheaf(Y1), Y1).basis(1),
    lambda: dpsh.TensorPresheaf(Y1, dpsh.QPresheaf(Y1)).basis(1),
    lambda: dpsh.QPresheaf(BASE),
    lambda: dpsh.TensorPresheaf(Y1, None),
    lambda: MAT.pairing([]),
    lambda: POLY.pairing([]),
    lambda: FINFN.pairing([]),
    lambda: FAA.pairing([]),
    lambda: fin_product([]),
    lambda: MAT.multilinear_count(1, 1, -1),
    lambda: MAT.multilinear_maps(1, 1, -1),
    lambda: FINFN.multilinear_count(M1, M1, -1),
    lambda: FINFN.multilinear_maps(M1, M1, -1),
    lambda: POLY.identity(-1),
    lambda: POLY.zero(-1, 2),
    lambda: POLY.zero(2, -1),
    lambda: POLY.proj([2, -1], 1),
    lambda: POLY.partial(X1_X2_SQUARED, [3, -1], 1),
    lambda: cdc.partial_derivative(POLY, X1_X2_SQUARED, [3, -1], 1),
], ids=["rig-kind", "rig-modulus", "zmod-0", "finfn-0", "modality-0", "parse-rig",
        "parse-zmod", "free-repeat", "partitions", "partial-isos", "power",
        "enum-elements", "basis-keys", "rig-op", "key-token", "nth-derivative-order",
        "iterated-D-order", "decompose-order", "decompose-order-2",
        "reconstruct-order", "fidelity-degree", "fidelity-support", "presheaf-q-bound",
        "presheaf-budget", "presheaf-suite-budget", "cdc-arity", "cdc-samples",
        "cdc-samples-0", "modality-dim", "modality-dim-0", "modality-maxdeg",
        "modality-pair-degree", "kleisli-samples", "kleisli-samples-0",
        "kleisli-degree", "kleisli-degree-0", "kleisli-max-dim", "yoneda-max-dim",
        "presheaf-max-dim", "kleisli-build-top", "parse-arity", "polymap-dom",
        "finfn-dim", "presheaf-base-object", "mat-identity", "mat-zero-dom",
        "mat-zero-cod", "mat-proj", "mat-all-maps", "table-missing-point",
        "table-stray-point", "table-non-residue", "table-out-of-range",
        "table-bool", "table-wrong-length", "table-bare-value", "table-not-modules",
        "from-callable-float", "from-callable-out-of-range", "from-callable-not-modules",
        "families-negative-size", "families-without-levels",
        "enumerate-without-levels", "presheaf-q-of-q", "presheaf-tensor-q-left",
        "presheaf-tensor-q-right", "q-presheaf-of-a-base", "tensor-presheaf-of-none",
        "mat-pairing-empty", "poly-pairing-empty", "finfn-pairing-empty",
        "faa-pairing-empty", "fin-product-empty", "mat-level-count", "mat-level-maps",
        "finfn-level-count", "finfn-level-maps", "poly-identity", "poly-zero-dom",
        "poly-zero-cod", "poly-proj", "poly-partial-block", "partial-derivative-block"])
def test_bad_arguments_raise_a_cdcat_error_that_is_a_value_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, CdcatError) and isinstance(info.value, ValueError)


def _kleisli_mismatch():
    backend = FinFnBackend(2)
    identity = faa.FaaBackend(backend).identity
    one = faa.kleisli_from_family(backend, identity(backend.module(1)))
    two = faa.kleisli_from_family(backend, identity(backend.module(2)))
    return faa.kleisli_compose(one, two)


@pytest.mark.parametrize("call, error", [
    (lambda: rig_value(INT, RigValue(zmod(2), 1)), SpecMismatch),
    (lambda: tensor_elem(basis_elem(INT, A, "a"), basis_elem(zmod(2), B, "b")),
     SpecMismatch),
    (lambda: relabel(INT, A, A, lambda k: k).apply(basis_elem(INT, B, "b")), SpaceMismatch),
    (lambda: relabel(Z3, A, A, lambda k: k).apply(basis_elem(Z2, A, "a")), SpecMismatch),
    (lambda: q_map(relabel(Z3, A, A, lambda k: k), q_inject(basis_elem(Z2, A, "a"), [])),
     SpecMismatch),
    (lambda: deriving(q_inject(basis_elem(Z2, A, "a"), []), basis_elem(Z3, A, "a")),
     SpecMismatch),
    (lambda: fusion(q_inject(basis_elem(Z2, A, "a"), []),
                    q_inject(basis_elem(Z3, B, "b"), [])), SpecMismatch),
    (lambda: inject_elem(basis_elem(INT, A, "a"), Product((A, B)), 1), SpaceMismatch),
    (lambda: bialg_mult(q_inject(basis_elem(INT, A, "a"), []),
                        q_inject(basis_elem(INT, B, "b"), [])), SpaceMismatch),
    (_kleisli_mismatch, ObjectMismatch),
    (lambda: Polynomial.var(INT, 1, 1), ArityError),
    (lambda: parse_poly_map("[1/0]", RigSpec("rat"), 1), ParseError),
    (lambda: table_from_poly(parse_poly_map("[x1]", INT, 1)), SpecMismatch),
    (lambda: TableMap(M1, FinFnBackend(3).module(1), {(0,): (0,), (1,): (1,)}),
     SpecMismatch),
    (lambda: FINFN.proj([M1, FinFnBackend(3).module(1)], 1), SpecMismatch),
    (lambda: fin_product([M1, FinFnBackend(3).module(1)]), SpecMismatch),
    (lambda: qmodality.sum_terms(q_inject(basis_elem(INT, A, "a"), []), A, tensor_elem),
     SpaceMismatch),
    (lambda: MAT.proj([1, 2], -1), IndexOutOfRange),
    (lambda: MAT.proj([1, 2], 2), IndexOutOfRange),
    (lambda: POLY.proj([1, 2], -1), IndexOutOfRange),
    (lambda: POLY.proj([1, 2], 2), IndexOutOfRange),
    (lambda: FINFN.proj([M1, M1], -1), IndexOutOfRange),
    (lambda: FINFN.proj([M1, M1], 2), IndexOutOfRange),
    (lambda: FAA.proj([1, 2], -1), IndexOutOfRange),
    (lambda: FAA.proj([1, 2], 2), IndexOutOfRange),
    (lambda: qmodality.tensor_map(relabel(Z2, A, A, lambda k: k), relabel(Z3, B, B, lambda k: k)),
     SpecMismatch),
    (lambda: TENSOR.act(MAT.identity(1), TENSOR.basis(2)[0]), SpaceMismatch),
    (lambda: TENSOR.act(MAT.identity(1), basis_elem(Z3, TENSOR.space(1), ("b1", "b1"))),
     SpecMismatch),
    (lambda: qmodality.counit(NOT_Q), SpaceMismatch),
    (lambda: qmodality.comult(NOT_Q), SpaceMismatch),
    (lambda: qmodality.comonoid_counit(NOT_Q), SpaceMismatch),
    (lambda: qmodality.comonoid_comult(NOT_Q), SpaceMismatch),
    (lambda: qmodality.storage(NOT_Q), SpaceMismatch),
    (lambda: qmodality.storage_inv(NOT_Q), SpaceMismatch),
    (lambda: q_map(relabel(INT, A, A, lambda k: k), NOT_Q), SpaceMismatch),
    (lambda: deriving(NOT_Q, NOT_Q), SpaceMismatch),
    (lambda: fusion(NOT_Q, NOT_Q), SpaceMismatch),
    (lambda: qmodality.monoidal_mult(NOT_Q, NOT_Q), SpaceMismatch),
    (lambda: bialg_mult(NOT_Q, NOT_Q), SpaceMismatch),
    # a zero factor has no term whose tensor or sum would meet the other rig
    (lambda: qmodality.monoidal_mult(P2, zero_elem(Z3, QSpace(A))), SpecMismatch),
    (lambda: bialg_mult(P2, zero_elem(Z3, QSpace(A))), SpecMismatch),
    (lambda: cdc.partial_derivative(POLY, X1_X2_SQUARED, [2, -1], 1), ArityError),
    (lambda: cdc.partial_derivative(MAT, MAT.identity(2), [1, 2], 1), ArityError),
    (lambda: MAT.add(TWICE_Z3, TWICE_Z3), SpecMismatch),
    (lambda: MAT.compose(TWICE_Z3, TWICE_Z3), SpecMismatch),
    (lambda: MAT.compose(MAT.identity(1), TWICE_Z3), SpecMismatch),
    (lambda: MAT.scale(1, TWICE_Z3), SpecMismatch),
    (lambda: MAT.pairing([MAT.identity(1), TWICE_Z3]), SpecMismatch),
    (lambda: MAT.D(TWICE_Z3), SpecMismatch),
    (lambda: POLY.compose(HALF_X, HALF_X), SpecMismatch),
    (lambda: POLY.add(HALF_X, HALF_X), SpecMismatch),
    (lambda: POLY.scale(1, HALF_X), SpecMismatch),
    (lambda: POLY.pairing([HALF_X]), SpecMismatch),
    (lambda: POLY.D(HALF_X), SpecMismatch),
    (lambda: FINFN.add(TWICE_FIN_Z3, TWICE_FIN_Z3), SpecMismatch),
    (lambda: FINFN.scale(1, TWICE_FIN_Z3), SpecMismatch),
    (lambda: FINFN.compose(TWICE_FIN_Z3, TWICE_FIN_Z3), SpecMismatch),
    (lambda: FINFN.pairing([TWICE_FIN_Z3]), SpecMismatch),
], ids=["rig-value", "tensor-elem", "linear-apply", "linear-apply-rig", "q-map-rig",
        "deriving-rig", "fusion-rig", "inject-elem", "bialg-mult",
        "kleisli-compose", "poly-var", "zero-denominator", "table-over-int",
        "table-rigs", "finfn-proj-rigs", "fin-product-rigs", "sum-terms-not-a-tensor",
        "mat-proj-negative", "mat-proj-past-end",
        "poly-proj-negative", "poly-proj-past-end", "finfn-proj-negative",
        "finfn-proj-past-end", "faa-proj-negative", "faa-proj-past-end",
        "tensor-map-rigs", "tensor-act-wrong-stage", "tensor-act-rig",
        "counit-not-q", "comult-not-q", "comonoid-counit-not-q",
        "comonoid-comult-not-q", "storage-not-q", "storage-inv-not-q", "q-map-not-q",
        "deriving-not-q", "fusion-not-q", "monoidal-mult-not-q", "bialg-mult-not-q",
        "monoidal-mult-rig", "bialg-mult-rig", "partial-blocks-not-the-domain",
        "mat-partial-blocks-not-the-domain", "mat-add-rig", "mat-compose-rig",
        "mat-compose-rig-right", "mat-scale-rig", "mat-pairing-rig", "mat-D-rig",
        "poly-compose-rig", "poly-add-rig", "poly-scale-rig", "poly-pairing-rig",
        "poly-D-rig", "finfn-add-rig", "finfn-scale-rig", "finfn-compose-rig",
        "finfn-pairing-rig"])
def test_mismatched_inputs_are_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_full_table_of_residues_is_accepted():
    backend = FinFnBackend(3)
    A = backend.module(1)
    table = {(0,): (0,), (1,): (2,), (2,): (1,)}
    f = TableMap(A, A, table)
    table[(0,)] = (1,)  # the map keeps its own copy
    assert f == backend.scale(2, backend.identity(A))


def test_a_product_over_equal_rigs_built_apart_is_accepted():
    other = FinFnBackend(2).module(2)
    assert other.rig is not M1.rig
    assert fin_product([M1, other]) == FinFnBackend(2).module(3)


def test_mat_maps_over_equal_rigs_built_apart_are_accepted():
    other = MatBackend(3)
    assert other.rig is not TWICE_Z3.rig and other.rig == TWICE_Z3.rig
    # 2 * 2 = 2 + 2 = 1 in Z/3
    assert other.compose(TWICE_Z3, TWICE_Z3) == other.identity(1)
    assert other.add(TWICE_Z3, TWICE_Z3) == other.identity(1)
    assert other.scale(2, TWICE_Z3) == other.identity(1)


def test_poly_and_finfn_maps_over_equal_rigs_built_apart_are_accepted():
    int_apart = RigSpec("int")
    assert int_apart is not POLY.rig and int_apart == POLY.rig
    f = parse_poly_map("[2*x1]", int_apart, 1)
    assert POLY.add(f, f) == POLY.scale(2, f) == parse_poly_map("[4*x1]", INT, 1)
    assert POLY.compose(f, f) == parse_poly_map("[4*x1]", INT, 1)
    assert POLY.pairing([f]) == f
    assert POLY.D(f) == parse_poly_map("[2*x2]", INT, 2)
    other = FinFnBackend(3)
    assert other.rig is not TWICE_FIN_Z3.cod.rig and other.rig == TWICE_FIN_Z3.cod.rig
    one = other.identity(other.module(1))  # 2 * 2 = 2 + 2 = 1 in Z/3
    assert other.compose(TWICE_FIN_Z3, TWICE_FIN_Z3) == one
    assert other.add(TWICE_FIN_Z3, TWICE_FIN_Z3) == one
    assert other.scale(2, TWICE_FIN_Z3) == one
    assert other.pairing([TWICE_FIN_Z3]) == TWICE_FIN_Z3


def test_a_refused_projection_is_not_remembered():
    # PolyBackend memoises its projections; a refused index leaves no entry
    with pytest.raises(IndexOutOfRange):
        POLY.proj([1, 2], -1)
    assert POLY.proj([1, 2], 1) == cdc.PolyBackend(INT).proj([1, 2], 1)
    projs = [key[1:] for key in POLY.reindexing if key[0] is cdc._projection]
    assert all(0 <= i < len(objs) for objs, i in projs)
