"""Matrices over Z/m with the trivial differential Df = f pi1.

A k-linear category with biproducts; every morphism is D-linear.  Serves
as the finite carrier for exhaustive presheaf and embedding checks, which
reach a map's entries only through the backend's hom-set codec: coords(f)
is f's rows concatenated in order, and from_coords(dom, cod, vec) is the
one place a vector is split back into rows.

Every backend result is interned: trusted_matmap returns the one MatMap of
each value from a value table under algebra's one bound and policy
(_remember), with its hash computed at build.  So a probe of the memos of
a presheaf check, which key on maps, usually meets the stored object itself
and skips __eq__.  Interning is only a fast path: equality and hashing stay
by value, so a MatMap from the public constructor, or one built after the
table was emptied, compares and hashes equal to the interned one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .algebra import RigSpec, _remember, rig_value, zmod
from .cdc import partial_by_precomposition
from .errors import ArityError, ObjectMismatch, SpecMismatch, in_range, nonempty, nonnegative


@dataclass(frozen=True)
class MatMap:
    """cod x dom matrix of residues; objects are dimensions.  Each entry is
    reduced through rig_value, which refuses a non-integer.  The hash of
    (dom, cod, rows) is computed once, at build, so a MatMap is its own memo
    key; equality and hashing are by value, whichever way a map was built."""

    rig: RigSpec
    dom: int
    cod: int
    rows: tuple  # tuple of cod tuples, each of length dom
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rig.kind != "zmod":
            raise SpecMismatch("MatMap needs a zmod rig")
        if len(self.rows) != self.cod or any(len(r) != self.dom for r in self.rows):
            raise ArityError("matrix shape mismatch")
        object.__setattr__(self, "rows", tuple(
            tuple(rig_value(self.rig, a) for a in r) for r in self.rows))
        object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.rows)))

    def __hash__(self):
        return self._hash

    @property
    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.rows)

    def __str__(self):
        return "[" + "; ".join(",".join(map(str, r)) for r in self.rows) + "]"


# (modulus, dom, cod, rows) -> the interned MatMap of that value
_MATS: dict = {}


def trusted_matmap(rig: RigSpec, dom: int, cod: int, rows: tuple) -> MatMap:
    """The interned MatMap of a value, built without MatMap's rig and shape
    checks, for results whose shape the caller already guarantees (the
    backend's own outputs)."""
    key = (rig.modulus, dom, cod, rows)
    f = _MATS.get(key)
    if f is None:
        f = object.__new__(MatMap)
        f.__dict__.update(rig=rig, dom=dom, cod=cod, rows=rows,
                          _hash=hash((dom, cod, rows)))
        _remember(_MATS, key, f)
    return f


class MatBackend:
    """CDC backend: objects are dimensions, morphisms MatMaps, Df = f pi1.
    identity, proj, zero, all_maps and multilinear_count refuse a negative
    size, both multilinear functions a negative level, and proj an index
    outside its factors (through a plain comparison first: zero and
    identity run thousands of times in one presheaf check).  compose, add,
    scale, pairing and D refuse a map over another rig with SpecMismatch."""

    def __init__(self, modulus: int):
        self.rig = zmod(modulus)

    def _own(self, *maps):
        # every MatMap is over a zmod, so equal moduli are equal rigs; an
        # `is` test of the rigs would miss on most maps of a presheaf check,
        # since an interned map carries the rig of the backend that built it
        m = self.rig.modulus
        for f in maps:
            if f.rig.modulus != m:
                raise SpecMismatch(f"a map over {f.rig} in a backend over {self.rig}")

    # -- category structure

    def identity(self, n: int) -> MatMap:
        if n < 0:
            nonnegative(n, "matrix size")
        one = self.rig.one  # Z/1 has 1 = 0
        return trusted_matmap(
            self.rig, n, n,
            tuple(tuple(one if i == j else 0 for j in range(n)) for i in range(n)),
        )

    def compose(self, g: MatMap, f: MatMap) -> MatMap:
        if g.dom != f.cod:
            raise ObjectMismatch(f"{g.dom} vs {f.cod}")
        m = self.rig.modulus
        if g.rig.modulus != m or f.rig.modulus != m:
            self._own(g, f)
        cols = list(zip(*f.rows)) or [()] * f.dom  # f.cod == 0 has no rows
        rows = tuple(
            tuple(sum(map(operator.mul, row, col)) % m for col in cols)
            for row in g.rows
        )
        return trusted_matmap(self.rig, f.dom, g.cod, rows)

    # -- products

    def product(self, objs) -> int:
        return sum(objs)

    def proj(self, objs, i: int) -> MatMap:
        if not 0 <= i < len(objs):
            in_range(i, len(objs), "projection index")
        if min(objs, default=0) < 0:
            nonnegative(min(objs), "matrix size")
        total = sum(objs)
        lo = sum(objs[:i])
        one = self.rig.one
        rows = tuple(
            tuple(one if j == lo + r else 0 for j in range(total))
            for r in range(objs[i])
        )
        return trusted_matmap(self.rig, total, objs[i], rows)

    def pairing(self, maps) -> MatMap:
        maps = list(maps)
        if not maps:
            nonempty(maps, "a pairing")
        dom = maps[0].dom
        if any(f.dom != dom for f in maps):
            raise ObjectMismatch("pairing needs a common domain")
        self._own(*maps)
        rows = tuple(r for f in maps for r in f.rows)
        return trusted_matmap(self.rig, dom, sum(f.cod for f in maps), rows)

    # -- hom module structure

    def zero(self, dom: int, cod: int) -> MatMap:
        if dom < 0 or cod < 0:
            nonnegative(min(dom, cod), "matrix size")
        return trusted_matmap(self.rig, dom, cod, tuple((0,) * dom for _ in range(cod)))

    def add(self, f: MatMap, g: MatMap) -> MatMap:
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ObjectMismatch(f"{f.cod}x{f.dom} vs {g.cod}x{g.dom}")
        m = self.rig.modulus
        if f.rig.modulus != m or g.rig.modulus != m:
            self._own(f, g)
        rows = tuple(
            tuple((a + b) % m for a, b in zip(r1, r2))
            for r1, r2 in zip(f.rows, g.rows)
        )
        return trusted_matmap(self.rig, f.dom, f.cod, rows)

    def scale(self, c, f: MatMap) -> MatMap:
        self._own(f)
        c, m = rig_value(self.rig, c), self.rig.modulus
        rows = tuple(tuple((c * a) % m for a in r) for r in f.rows)
        return trusted_matmap(self.rig, f.dom, f.cod, rows)

    # -- differential (trivial: biproduct instance)

    def D(self, f: MatMap) -> MatMap:
        self._own(f)
        rows = tuple((0,) * f.dom + r for r in f.rows)
        return trusted_matmap(self.rig, 2 * f.dom, f.cod, rows)

    def partial(self, f: MatMap, blocks, i: int) -> MatMap:
        return partial_by_precomposition(self, f, blocks, i)

    # -- the coordinate codec of a hom-set: a map's rows concatenated in order

    def coords(self, f: MatMap) -> tuple:
        return sum(f.rows, ())

    def from_coords(self, dom: int, cod: int, vec) -> MatMap:
        """The map dom -> cod whose rows are the coordinates vec, in order.
        An entry that is not a residue goes through rig_value, as in MatMap."""
        if min(dom, cod) < 0 or len(vec) != dom * cod:
            raise ArityError(f"{len(vec)} coordinates for a {cod}x{dom} matrix")
        m = self.rig.modulus
        if not all(type(a) is int and 0 <= a < m for a in vec):
            vec = [rig_value(self.rig, a) for a in vec]
        return trusted_matmap(self.rig, dom, cod,
                              tuple(tuple(vec[i * dom:(i + 1) * dom]) for i in range(cod)))

    # -- finite enumeration

    def all_maps(self, dom: int, cod: int):
        """Every map dom -> cod, its coordinates in itertools.product order."""
        if dom < 0 or cod < 0:
            nonnegative(min(dom, cod), "matrix size")
        for vec in itertools.product(self.rig.elements, repeat=dom * cod):
            yield self.from_coords(dom, cod, vec)

    def multilinear_count(self, A: int, B: int, n: int) -> int:
        """How many maps multilinear_maps(A, B, n) returns."""
        nonnegative(min(A, B), "matrix size")
        nonnegative(n, "level")
        return len(self.rig.elements) ** (A * B) if n < 2 else 1

    def multilinear_maps(self, A: int, B: int, n: int) -> list:
        """Every map A x A^n -> B symmetric and k-linear in its last n
        slots, in all_maps order.  Additivity in slot j kills every other
        block, so level 0 is every map, level 1 the maps reading only the
        direction block, and each level from 2 only zero."""
        nonnegative(n, "level")
        if n >= 2:
            return [self.zero((n + 1) * A, B)]
        return [trusted_matmap(self.rig, (n + 1) * A, B,
                               tuple((0,) * (n * A) + r for r in f.rows))
                for f in self.all_maps(A, B)]


class MatSampler:
    """Seeded random matrices for the axiom checker."""

    def __init__(self, backend: MatBackend, seed: int = 0, max_dim: int = 3):
        import random

        self.backend = backend
        self.rng = random.Random(seed)
        self.max_dim = max_dim

    def random_object(self) -> int:
        return self.rng.randint(1, self.max_dim)

    def random_scalar(self) -> int:
        return self.rng.randrange(self.backend.rig.modulus)

    def random_morphism(self, dom: int, cod: int) -> MatMap:
        m = self.backend.rig.modulus
        rows = tuple(
            tuple(self.rng.randrange(m) for _ in range(dom)) for _ in range(cod)
        )
        return MatMap(self.backend.rig, dom, cod, rows)
