"""Refusals: every public entry point raises a CdcatError on bad input."""

import pytest

from cdcat import faa, suites
from cdcat.algebra import (
    INT,
    Free,
    Product,
    QSpace,
    RigSpec,
    all_rig_values,
    basis_elem,
    basis_keys,
    key_token,
    rig_op,
    rig_value,
    tensor_elem,
    zmod,
)
from cdcat.combinat import partial_isos, partitions
from cdcat.errors import (
    ArityError,
    CdcatError,
    InvalidArgument,
    ObjectMismatch,
    ParseError,
    SpaceMismatch,
    SpecMismatch,
)
from cdcat.poly import FinFnBackend, Polynomial, parse_poly_map, table_from_poly
from cdcat.qmodality import bialg_mult, identity_map, inject_elem, q_inject

A = Free(("a",))
B = Free(("b",))


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
    lambda: all_rig_values(INT),
    lambda: basis_keys(QSpace(A)),
    lambda: rig_op(INT, "div", 1, 2),
    lambda: key_token(1.5),
], ids=["rig-kind", "rig-modulus", "zmod-0", "finfn-0", "modality-0", "parse-rig",
        "parse-zmod", "free-repeat", "partitions", "partial-isos", "power",
        "all-values", "basis-keys", "rig-op", "key-token"])
def test_bad_arguments_raise_a_cdcat_error_that_is_a_value_error(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, CdcatError) and isinstance(info.value, ValueError)


def _kleisli_mismatch():
    backend = FinFnBackend(2)
    one = faa.kleisli_identity(backend, backend.module(1))
    two = faa.kleisli_identity(backend, backend.module(2))
    return faa.kleisli_compose(one, two)


@pytest.mark.parametrize("call, error", [
    (lambda: rig_value(INT, rig_value(zmod(2), 1)), SpecMismatch),
    (lambda: tensor_elem(basis_elem(INT, A, "a"), basis_elem(zmod(2), B, "b")),
     SpecMismatch),
    (lambda: identity_map(INT, A).apply(basis_elem(INT, B, "b")), SpaceMismatch),
    (lambda: inject_elem(basis_elem(INT, A, "a"), Product((A, B)), 1), SpaceMismatch),
    (lambda: bialg_mult(q_inject(basis_elem(INT, A, "a"), []),
                        q_inject(basis_elem(INT, B, "b"), [])), SpaceMismatch),
    (_kleisli_mismatch, ObjectMismatch),
    (lambda: Polynomial.var(INT, 1, 1), ArityError),
    (lambda: parse_poly_map("[1/0]", RigSpec("rat"), 1), ParseError),
    (lambda: table_from_poly(parse_poly_map("[x1]", INT, 1)), SpecMismatch),
], ids=["rig-value", "tensor-elem", "linear-apply", "inject-elem", "bialg-mult",
        "kleisli-compose", "poly-var", "zero-denominator", "table-over-int"])
def test_mismatched_inputs_are_refused(call, error):
    with pytest.raises(error):
        call()
