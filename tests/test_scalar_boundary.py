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
    y1, unit = dpsh.ReprPresheaf(base, 1), dpsh.UnitPresheaf(base)
    tensor, q = dpsh.TensorPresheaf(y1, y1), dpsh.QPresheaf(y1, 1)
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


# the hom-set codec's from_coords is a boundary too: its entries are reduced
# or refused as MatMap's are

@pytest.mark.parametrize("rig", ZMODS, ids=str)
def test_coordinates_enter_through_rig_value(rig):
    m = rig.modulus
    mat = MatBackend(m)
    one = mat.identity(1)
    assert mat.from_coords(1, 1, (m + 1,)) is one
    assert mat.from_coords(1, 1, (1 - m,)) is one
    assert mat.from_coords(1, 2, [0, m]) == mat.zero(1, 2)
    for bad in BAD:
        with pytest.raises(CdcatError):
            mat.from_coords(1, 1, (bad,))


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


# one finite rig: outside algebra nothing keeps a copy of a modulus (assigns
# an attribute or defines a property of that name), and no range(...) or **
# reads a .modulus, so a finite rig's scalars, their order and their number
# come from RigSpec.elements

def _reads_modulus(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "modulus" for n in ast.walk(node))


def _modulus_copies_and_ranges(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "modulus"
                   for target in targets for t in ast.walk(target)):
                yield node
        elif isinstance(node, ast.FunctionDef) and node.name == "modulus":
            yield node
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _reads_modulus(node):
                yield node
    yield from (call for call in _calls(tree, "range") if _reads_modulus(call))


def test_finite_scalars_come_from_the_rig_alone():
    found = [f"{path.name}:{node.lineno}" for path, tree in _sources()
             if path.name != "algebra.py" for node in _modulus_copies_and_ranges(tree)]
    assert found == []


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


# presheaves reach their matrix base only through MatBackend: dpsh names no
# trusted_matmap, reads no .rows and slices no window out of a vector, and
# in matcat only the codec's from_coords splits a vector into rows

def _windows(node):
    """The slices with both bounds under node, such as vec[i * n:(i + 1) * n]."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Slice)
            and n.lower is not None and n.upper is not None]


def test_presheaves_reach_mat_through_the_backend_codec_only():
    trees = {path.name: tree for path, tree in _sources()}
    dpsh_tree = trees["dpsh.py"]
    names = {n.id for n in ast.walk(dpsh_tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(dpsh_tree) if isinstance(n, ast.ImportFrom)
              for a in n.names}
    attrs = {n.attr for n in ast.walk(dpsh_tree) if isinstance(n, ast.Attribute)}
    assert "trusted_matmap" not in names | attrs
    assert "rows" not in attrs
    assert _windows(dpsh_tree) == []
    backend = next(n for n in trees["matcat.py"].body
                   if isinstance(n, ast.ClassDef) and n.name == "MatBackend")
    from_coords = next(n for n in backend.body
                       if isinstance(n, ast.FunctionDef) and n.name == "from_coords")
    assert _windows(from_coords)
    assert len(_windows(trees["matcat.py"])) == len(_windows(from_coords))


# one memo type: a get-or-build block (`x = d.get(k)`, then `if x is None:`
# storing into d, or `if k not in d:` storing into d) is an algebra.Memo,
# whose missing entries build themselves.  Two keep their own probe:
# matcat.trusted_matmap, whose build reads the caller's rig besides the key,
# and LinearMap's two tables, since a Memo's build would add a closure or a
# reference cycle to each of the many short-lived maps.  A Memo at module
# level is a bounded algebra.Table of values.

PROBED_BY_HAND = {"matcat.trusted_matmap", "qmodality.LinearMap.on_basis",
                  "qmodality.LinearMap._point_image"}

def _stores_into(body, table) -> bool:
    """Whether the statements store into the dict `table` (an AST dump)."""
    for node in (n for stmt in body for n in ast.walk(stmt)):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Subscript) and ast.dump(t.value) == table
               for t in targets):
            return True
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_remember"
                and node.args and ast.dump(node.args[0]) == table):
            return True
    return False


def _own_nodes(fn):
    """The nodes of fn's body, not of the functions it nests."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _probed(fn) -> dict:
    """name -> the dict (an AST dump) it was read from by `name = d.get(k)`."""
    return {a.targets[0].id: ast.dump(a.value.func.value) for a in _own_nodes(fn)
            if isinstance(a, ast.Assign) and len(a.targets) == 1
            and isinstance(a.targets[0], ast.Name) and isinstance(a.value, ast.Call)
            and isinstance(a.value.func, ast.Attribute) and a.value.func.attr == "get"
            and len(a.value.args) == 1}


def _missing_tests(test):
    """(name, None) for each `name is None`, (None, dict) for each `k not in
    d` in an if-test (alone or joined by `or`)."""
    for t in test.values if isinstance(test, ast.BoolOp) else [test]:
        if _compares(t, ast.Is) and _is_none(t.comparators[0]) and isinstance(
                t.left, ast.Name):
            yield t.left.id, None
        elif _compares(t, ast.NotIn):
            yield None, ast.dump(t.comparators[0])


def _get_or_build_blocks():
    """Qualified names of the functions in src that hold a get-or-build block."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = path + [child.name]
                if isinstance(child, ast.FunctionDef):
                    probed = _probed(child)
                    for block in _own_nodes(child):
                        if not isinstance(block, ast.If):
                            continue
                        for name, table in _missing_tests(block.test):
                            table = probed.get(name) if name else table
                            if table and _stores_into(block.body, table):
                                found.add(".".join(inner))
                visit(child, inner)
            else:
                visit(child, path)

    for path, tree in _sources():
        visit(tree, [path.stem])
    return found


def test_memos_are_memo_objects():
    assert _get_or_build_blocks() == PROBED_BY_HAND


def _module_level_calls(tree, name):
    """Calls of `name` outside every function body of the module."""
    stack, out = list(tree.body), []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == name:
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_module_level_memos_are_bounded_tables():
    tables = 0
    for path, tree in _sources():
        assert not _module_level_calls(tree, "Memo"), path.name
        tables += len(_module_level_calls(tree, "Table"))
    assert tables == 8  # algebra's six value tables and combinat's two


# a law with one equation and one message is a row of reports.equation, not
# a function whose only text is `if a != b: return <text>` before `return
# None` (with tuple or list sides, `if a != b or c != d`, or that test last
# in a loop whose message reads no loop variable), nor a lambda `None if
# a == b else <text>` (or `a == b and c == d`)

def _is_text(node) -> bool:
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _compares(node, op) -> bool:
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], op))


def _all_compare(node, op) -> bool:
    """a op b, or several joined by `or` (op !=) or by `and` (op ==)."""
    if isinstance(node, ast.BoolOp):
        joint = ast.Or if op is ast.NotEq else ast.And
        return isinstance(node.op, joint) and all(_compares(v, op) for v in node.values)
    return _compares(node, op)


def _own_texts(fn):
    """The return statements of text in fn, not in the functions it nests."""
    return [n for n in _own_nodes(fn) if isinstance(n, ast.Return) and _is_text(n.value)]


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_single_message_law(fn) -> bool:
    if isinstance(fn, ast.Lambda):
        body = fn.body
        return (isinstance(body, ast.IfExp) and _all_compare(body.test, ast.Eq)
                and _is_none(body.body) and _is_text(body.orelse))
    test, last = ([None, None] + fn.body)[-2:]
    texts = _own_texts(fn)
    if isinstance(test, ast.For) and not test.orelse:
        if any(_names(t) & _names(test.target) for t in texts):
            return False  # the message names the loop's case
        test = test.body[-1]
    return (isinstance(last, ast.Return) and _is_none(last.value)
            and isinstance(test, ast.If) and _all_compare(test.test, ast.NotEq)
            and not test.orelse and test.body == texts)


def _single_message_laws():
    return [f"{path.name}:{fn.lineno}" for path, tree in _sources() for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and _is_single_message_law(fn)]


def test_single_message_laws_are_equation_rows():
    assert _single_message_laws() == []
