"""The scalar boundary: payloads in, payloads out.

`rig_value` is the one coercion.  Every public function that returns a
scalar returns the rig's payload (an int in range(m) for zmod, a
non-negative int for nat, an int for int, a Fraction for rat), and every
public function that takes one refuses a float, a bool, a string, None and,
off rat, a Fraction, each with a CdcatError.
"""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cdcat
from cdcat import dpsh, qmodality as qm
from cdcat.algebra import INT, NAT, RAT, Free, ModuleElement, rig_op, rig_value, zmod
from cdcat.cdc import PolyBackend
from cdcat.errors import CdcatError
from cdcat.faa import FaaBackend
from cdcat.matcat import MatBackend, MatMap
from cdcat.poly import FinFnBackend, Polynomial, PolyMap

RIGS = [NAT, INT, RAT, zmod(2), zmod(5)]
ZMODS = [r for r in RIGS if r.kind == "zmod"]
A = Free(("e1", "e2"))
SRC = Path(cdcat.__file__).resolve().parent


def is_payload(rig, v) -> bool:
    if rig.kind == "rat":
        return type(v) is Fraction
    if type(v) is not int:
        return False
    if rig.kind == "zmod":
        return 0 <= v < rig.modulus
    return v >= 0 or rig.kind == "int"


def scalars(rig):
    ints = st.integers(min_value=0 if rig is NAT else -6, max_value=6)
    if rig is RAT:
        return ints | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return ints


@st.composite
def rig_and_scalars(draw, count):
    rig = draw(st.sampled_from(RIGS))
    return rig, [draw(scalars(rig)) for _ in range(count)]


# ---------------------------------------------------------------------------
# payloads out

@settings(max_examples=60, deadline=None)
@given(rig_and_scalars(4))
def test_scalars_leave_as_payloads(case):
    rig, (a, b, c, d) = case
    out = [rig_value(rig, a), rig.one, rig_op(rig, "add", a, b),
           rig_op(rig, "mul", a, b)]
    if rig.has_negatives:
        out.append(rig_op(rig, "neg", a))
    x0 = ModuleElement(rig, A, {"e1": a, "e2": b})
    x1 = ModuleElement(rig, A, {"e1": c})
    out.append(qm.comonoid_counit(qm.q_inject(x0, []).scale(d)))
    out.append(qm.comonoid_counit(qm.q_inject(x0, [x1])))  # no degree-0 term
    p = Polynomial(rig, 2, {(2, 0): a, (0, 1): b, (0, 0): c})
    out.append(p.eval((c, d)))
    out.append(Polynomial.zero(rig, 2).eval((c, d)))
    out.extend(PolyMap(rig, 2, 2, [p, p.scale(d)]).eval((a, b)))
    for v in out:
        assert is_payload(rig, v), (rig, v)


# ---------------------------------------------------------------------------
# scalars in: one row per public function that takes a scalar

def _faa(base):
    be = FaaBackend(base)
    return lambda c: be.scale(c, be.zero(1, 1))  # an empty family


def _presheaf_rows(rig):
    base = dpsh.FiniteCdcBase(rig.modulus, [1])
    y1, unit = dpsh.representable(base, 1), dpsh.unit_presheaf(base)
    tensor, q = dpsh.presheaf_tensor(y1, y1), dpsh.QPresheaf(y1, 1)
    return {
        "dpsh.ReprPresheaf.scale": lambda c: y1.scale(c, y1.spanning(1)[1]),
        "dpsh.FinitePresheaf.scale": lambda c: unit.scale(c, unit.basis(1)[0]),
        "dpsh.FinitePresheaf.scale[tensor]": lambda c: tensor.scale(c, tensor.basis(1)[0]),
        "dpsh.QPresheaf.scale": lambda c: q.scale(c, q.spanning(1)[0]),
    }


def _rows(rig):
    """name -> a call taking one scalar, for the public functions over rig."""
    poly = PolyBackend(rig)
    rows = {
        "algebra.rig_value": lambda c: rig_value(rig, c),
        "algebra.ModuleElement.scale": lambda c: ModuleElement(rig, A, {"e1": 1}).scale(c),
        "poly.Polynomial.scale": lambda c: Polynomial.var(rig, 1, 0).scale(c),
        "poly.Polynomial.const": lambda c: Polynomial.const(rig, 1, c),
        "cdc.PolyBackend.scale": lambda c: poly.scale(c, poly.zero(1, 0)),
        "faa.FaaBackend.scale[poly]": _faa(poly),
    }
    if rig.kind == "zmod":
        mat, fin = MatBackend(rig.modulus), FinFnBackend(rig.modulus)
        rows.update({
            "matcat.MatMap": lambda c: MatMap(rig, 1, 1, ((c,),)),
            "matcat.MatBackend.scale": lambda c: mat.scale(c, mat.identity(2)),
            "poly.FinFnBackend.scale": lambda c: fin.scale(c, fin.identity(fin.module(1))),
            "faa.FaaBackend.scale[mat]": _faa(mat),
            **_presheaf_rows(rig),
        })
    return rows


BAD = [0.5, True, "x", None, Fraction(1, 2)]
CASES = [(rig, name, bad) for rig in RIGS for name in _rows(rig) for bad in BAD
         if not (rig is RAT and bad == Fraction(1, 2))]


@pytest.mark.parametrize("rig, name, bad", CASES,
                         ids=[f"{r}-{n}-{b!r}" for r, n, b in CASES])
def test_scalars_enter_through_rig_value(rig, name, bad):
    with pytest.raises(CdcatError):
        _rows(rig)[name](bad)


@pytest.mark.parametrize("rig", ZMODS, ids=str)
def test_scalars_that_enter_are_reduced(rig):
    m = rig.modulus
    for name, call in _rows(rig).items():
        call(m + 1)  # an out-of-range int is accepted everywhere
    mat = MatBackend(m)
    assert MatMap(rig, 1, 1, ((m + 1,),)) == MatMap(rig, 1, 1, ((1,),))
    assert mat.scale(m + 1, mat.identity(2)) == mat.identity(2)


# Public functions that take a parameter named c or raw but are not
# boundaries: add_scaled is a payload kernel whose callers pass payloads.
EXEMPT = {"algebra.add_scaled"}


def _scalar_parameters():
    """Qualified names of the public functions and methods of cdcat with a
    parameter named c or raw."""
    out = set()
    for info in pkgutil.iter_modules(cdcat.__path__):
        module = importlib.import_module(f"cdcat.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                fns = [(f"{info.name}.{name}", obj)]
            elif inspect.isclass(obj):
                fns = [(f"{info.name}.{name}.{attr}", getattr(fn, "__func__", fn))
                       for attr, fn in vars(obj).items() if not attr.startswith("_")]
            else:
                continue
            for qualname, fn in fns:
                if inspect.isfunction(fn) and {"c", "raw"} & set(
                        inspect.signature(fn).parameters):
                    out.add(qualname)
    return out


def test_every_scalar_parameter_is_in_the_table():
    tabled = {name.split("[")[0] for rig in RIGS for name in _rows(rig)}
    assert _scalar_parameters() == (tabled - {"matcat.MatMap"}) | EXEMPT


# ---------------------------------------------------------------------------
# the boxed RigValue stays in algebra

def _sources():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _calls(tree, name):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == name]


def test_only_algebra_names_rig_value_and_nothing_builds_one():
    for path, tree in _sources():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        if path.name != "algebra.py":
            assert "RigValue" not in names, path.name
        assert not _calls(tree, "RigValue"), path.name


# Q generators and monomials are built in algebra only, through its
# interning constructors (Monomial.of, _generator)

def test_only_algebra_calls_the_q_value_constructors():
    for path, tree in _sources():
        if path.name != "algebra.py":
            for name in ("QGenerator", "Monomial"):
                assert not _calls(tree, name), f"{path.name} calls {name}(...)"


# a renaming of basis keys is built once, by qmodality.relabel: outside
# qmodality no LinearMap is given a lambda whose body is a basis_elem call

def _is_renaming(arg) -> bool:
    body = arg.body if isinstance(arg, ast.Lambda) else None
    return (isinstance(body, ast.Call)
            and getattr(body.func, "id", getattr(body.func, "attr", None)) == "basis_elem")


def test_renamings_are_built_by_relabel_only():
    for path, tree in _sources():
        if path.name != "qmodality.py":
            for call in _calls(tree, "LinearMap"):
                args = call.args + [k.value for k in call.keywords]
                assert not any(map(_is_renaming, args)), f"{path.name}:{call.lineno}"


# a law with one equation and one message is a row of reports.equation, not
# a function whose only text is `if a != b: return <text>` before `return
# None`, nor a lambda `None if a == b else <text>`

def _is_text(node) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _compares(node, op) -> bool:
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], op))


def _own_texts(fn):
    """The return statements of text in fn, not in the functions it nests."""
    stack, texts = list(fn.body), []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return) and _is_text(node.value):
            texts.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return texts


def _is_single_message_law(fn) -> bool:
    if isinstance(fn, ast.Lambda):
        body = fn.body
        return (isinstance(body, ast.IfExp) and _compares(body.test, ast.Eq)
                and _is_none(body.body) and _is_text(body.orelse))
    test, last = ([None, None] + fn.body)[-2:]
    return (isinstance(last, ast.Return) and _is_none(last.value)
            and isinstance(test, ast.If) and _compares(test.test, ast.NotEq)
            and not test.orelse and test.body == _own_texts(fn))


def test_single_message_laws_are_equation_rows():
    for path, tree in _sources():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                assert not _is_single_message_law(fn), f"{path.name}:{fn.lineno}"
