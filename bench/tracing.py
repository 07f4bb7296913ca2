"""Binding patches, spans and counters wrapped around cdcat from outside.

Nothing in `src/` is edited.  A `Patcher` replaces a name wherever it is
bound (every cdcat module that imported it, or a class attribute) and puts
the original objects back on `restore()`; `verify()` then checks that each
binding is the original object again.  The `Tracer` uses it to wrap the
public functions of each module in spans and the hot algebra dunders in
plain counters.

Spans hold name, start, end and parent in flat arrays kept in memory and
written once at the end.  A span's self time is its duration minus the
part its child spans cover.  Repeat ratios are calls whose argument value
was already seen in the run, divided by calls; argument values are reduced
to plain tuples first, so the bookkeeping never calls back into the
counted cdcat dunders.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

MODULES = ("combinat", "poly", "cdc", "faa", "qmodality", "matcat", "dpsh",
           "suites")


class Patcher:
    """Install replacements for named bindings and restore the originals."""

    def __init__(self):
        self._saved = []  # (owner, attr, original object)

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, value):
        """Replace `original` under every name a cdcat module binds it to."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("cdcat."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self.set(module, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def verify(self) -> list[str]:
        """Bindings that are not the original object after restore()."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._saved
                if vars(owner).get(attr) is not original]


def freeze(x):
    """A hashable value-level key built from plain tuples and numbers."""
    if isinstance(x, (str, int, Fraction, type(None))):
        return x
    if isinstance(x, tuple):
        return tuple(freeze(v) for v in x)
    if isinstance(x, dict):
        return frozenset((freeze(k), freeze(v)) for k, v in x.items())
    kind = type(x).__name__
    if kind == "ModuleElement":
        return ("M", freeze(x.space), frozenset(
            (freeze(k), freeze(v)) for k, v in x.coeffs.items()))
    if kind == "RigValue":
        return x.payload
    if kind == "QGenerator":
        return ("Q", freeze(x.point), freeze(x.tail.keys))
    if kind == "Monomial":
        return ("m", freeze(x.keys))
    if kind == "MatMap":
        return ("mat", x.dom, x.cod, x.rows)
    if kind == "PolyMap":
        return ("pm", x.dom, x.cod, tuple(freeze(p) for p in x.components))
    if kind == "Polynomial":
        return ("p", x.arity, frozenset((e, freeze(c)) for e, c in x.terms.items()))
    if kind in ("Free", "Product", "Tensor", "QSpace"):
        return x  # frozen dataclasses of strings, ints and other spaces
    return ("id", id(x))


# repeat-ratio keys for module functions; the arguments a memo would key on
REPEAT_KEYS = {
    "qmodality.comult": lambda args: freeze(args[0]),
    "poly.substitute": lambda args: (freeze(args[0]), freeze(args[1])),
    "combinat.partitions": lambda args: ("partitions",) + args,
    "combinat.partial_isos": lambda args: ("partial_isos",) + args,
}


class Tracer:
    def __init__(self):
        self.patcher = Patcher()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, list] = {}
        self.seen: dict[str, set] = {}
        self.repeats: dict[str, list] = {}
        self._keep = {}  # objects whose id() is part of a repeat key, kept alive

    # -- wrappers

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _repeat_cell(self, name):
        return (self.seen.setdefault(name, set()),
                self.repeats.setdefault(name, [0, 0]))

    def span(self, name, fn, key=None):
        """Wrap fn in a span; key(args) gives the repeat-ratio key, if any."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        if key is not None:
            seen, cell = self._repeat_cell(name)

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(args)
                cell[0] += 1
                if k in seen:
                    cell[1] += 1
                else:
                    seen.add(k)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn, key=None):
        """Count calls only: timing a dunder would mostly time the wrapper."""
        cell = self.counts.setdefault(name, [0])
        if key is not None:
            seen, rcell = self._repeat_cell(name)

            def wrapper(*args, **kwargs):
                cell[0] += 1
                k = key(args)
                rcell[0] += 1
                if k in seen:
                    rcell[1] += 1
                else:
                    seen.add(k)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self, cd):
        """Wrap every layer of cdcat; `cd` is a namespace of its modules."""
        p = self.patcher
        for modname in MODULES:
            module = getattr(cd, modname)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{modname}.{attr}"
                key = REPEAT_KEYS.get(name)
                if inspect.isgeneratorfunction(obj):
                    wrapped = self.counter(name, obj)
                else:
                    wrapped = self.span(name, obj, key)
                p.rebind(obj, wrapped)

        def method(cls, attr, name, kind="span", key=None):
            raw = vars(cls)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            make = self.span if kind == "span" else self.counter
            wrapped = make(name, fn, key)
            p.set(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod)
                  else wrapped)

        keep = self._keep

        def on_basis_key(args):
            keep[id(args[0])] = args[0]
            return (id(args[0]), freeze(args[1]))

        def act_key(args):
            keep[id(args[0])] = args[0]
            return (id(args[0]), freeze(args[1]), freeze(args[2]))

        method(cd.qmodality.LinearMap, "on_basis", "qmodality.on_basis", "count",
               on_basis_key)
        method(cd.poly.TableMap, "from_callable", "poly.table_from_callable")
        method(cd.cdc.PolyBackend, "compose", "cdc.poly_compose")
        for attr, obj in list(vars(cd.matcat.MatBackend).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            kind = "count" if inspect.isgeneratorfunction(obj) else "span"
            method(cd.matcat.MatBackend, attr, f"matcat.{attr}", kind)
        for cls in (cd.dpsh.ReprPresheaf, cd.dpsh.UnitPresheaf,
                    cd.dpsh.TensorPresheaf, cd.dpsh.QPresheaf):
            method(cls, "act", "dpsh.act", key=act_key)
            method(cls, "diff", "dpsh.diff")

        alg = cd.algebra
        for cls, attr, name in (
                (alg.ModuleElement, "__add__", "algebra.elem_add"),
                (alg.ModuleElement, "scale", "algebra.elem_scale"),
                (alg.ModuleElement, "__eq__", "algebra.elem_eq"),
                (alg.RigValue, "__add__", "algebra.rig_op"),
                (alg.RigValue, "__mul__", "algebra.rig_op"),
                (alg.QGenerator, "__hash__", "algebra.key_hash"),
                (alg.Monomial, "__hash__", "algebra.key_hash")):
            method(cls, attr, name, "count")
        for fn, name in ((alg.rig_value, "algebra.rig_op"),
                         (alg.rig_op, "algebra.rig_op"),
                         (alg.key_token, "algebra.key_token")):
            p.rebind(fn, self.counter(name, fn))

    def uninstall(self) -> list[str]:
        self.patcher.restore()
        return self.patcher.verify()

    # -- results

    def self_times(self):
        """(calls, self seconds) per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        out = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (ends[i] - starts[i]) - child[i])
        return out

    def repeat_ratio(self, *names):
        calls = sum(self.repeats.get(n, [0, 0])[0] for n in names)
        hits = sum(self.repeats.get(n, [0, 0])[1] for n in names)
        return (hits / calls if calls else 0.0), calls

    def write(self, path):
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
