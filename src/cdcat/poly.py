"""Polynomial maps over a rig: the objects-are-arities category Poly_k.

Morphisms n -> m are m-tuples of polynomials in x1..xn, composition is
substitution, and the differential doubles the arity and dots the gradient
against fresh direction variables.  Also provides FinFn: finite modules
over Z/m with arbitrary set maps stored as full tables, the exhaustive
oracle world for the co-Kleisli checks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import RigSpec, add_into, reindexing_memo, rig_value, zmod
from .errors import (
    ArityError,
    InvalidArgument,
    NegationUnsupported,
    ObjectMismatch,
    ParseError,
    SizeLimit,
    SpecMismatch,
    UnknownVariable,
    in_range,
    nonempty,
    nonnegative,
)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse multivariate polynomial: exponent vectors -> nonzero
    normalised payloads (see the algebra module), normalised here."""

    __slots__ = ("rig", "arity", "terms")

    def __init__(self, rig: RigSpec, arity: int, terms: dict):
        self.rig = rig
        self.arity = arity
        self.terms = rig.normal(terms)

    # -- constructors

    @staticmethod
    def zero(rig, arity) -> "Polynomial":
        return Polynomial(rig, arity, {})

    @staticmethod
    def const(rig, arity, c) -> "Polynomial":
        return Polynomial(rig, arity, {(0,) * arity: c})

    @staticmethod
    def var(rig, arity, i) -> "Polynomial":
        """The variable x_i, 0-based."""
        if not 0 <= i < arity:
            raise ArityError(f"variable index {i} out of range for arity {arity}")
        e = (0,) * i + (1,) + (0,) * (arity - i - 1)
        return Polynomial(rig, arity, {e: rig.one})

    # -- arithmetic

    def _check(self, other):
        if self.rig != other.rig:
            raise SpecMismatch(f"{self.rig} vs {other.rig}")
        if self.arity != other.arity:
            raise ArityError(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            add_into(out, e, c)
        return Polynomial(self.rig, self.arity, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.rig, self.arity, _times(self.terms, other.terms, {}))

    def scale(self, c) -> "Polynomial":
        c = rig_value(self.rig, c)
        return Polynomial(self.rig, self.arity, {e: c * v for e, v in self.terms.items()})

    def __neg__(self) -> "Polynomial":
        # over nat the normaliser refuses the negated payloads
        return Polynomial(self.rig, self.arity, {e: -v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        nonnegative(n, "exponent")
        return _power(self, n, Polynomial.__mul__)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative in x_i (0-based); the multiplicity is
        cast into k when the result is normalised."""
        return Polynomial(self.rig, self.arity, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items() if e[i]})

    def substitute(self, args) -> "Polynomial":
        """Plug the i-th arg polynomial in for x_i."""
        if len(args) != self.arity:
            raise ArityError(f"need {self.arity} arguments, got {len(args)}")
        inner = args[0].arity if args else 0
        for a in args:
            if a.rig != self.rig:
                raise SpecMismatch(f"{a.rig} vs {self.rig}")
            if a.arity != inner:
                raise ArityError(f"argument arity {a.arity} vs {inner}")
        terms = _substitute(self.terms, _power_tables(args), inner, self.rig.normal)
        return Polynomial(self.rig, inner, terms)

    def eval(self, point):
        """The payload of self at a point of scalars that rig_value accepts."""
        consts = [Polynomial.const(self.rig, 0, v) for v in point]
        terms = self.substitute(consts).terms
        return terms[()] if terms else rig_value(self.rig, 0)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.rig == other.rig
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rig, self.arity, tuple(sorted(self.terms.items()))))

    def to_str(self, namer=None) -> str:
        """Render in the CLI grammar; namer maps 0-based index -> variable name."""
        if namer is None:
            namer = lambda i: f"x{i + 1}"
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda ec: (-sum(ec[0]), ec[0]))
        pieces = []
        for e, c in ordered:
            factors = []
            for i, exp in enumerate(e):
                if exp == 1:
                    factors.append(namer(i))
                elif exp > 1:
                    factors.append(f"{namer(i)}^{exp}")
            neg = c < 0
            mag = -c if neg else c
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            pieces.append((neg, "*".join(factors)))
        # keep output inside the grammar: no unary minus, so lead with a
        # literal 0 when the first term is negative
        first_neg, first = pieces[0]
        out = ("0 - " + first) if first_neg else first
        for neg, text in pieces[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __str__(self):
        return self.to_str()

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the term-dict kernel: exponent tuple -> payload, no Polynomial built for
# intermediate products; payloads are normalised (reduced, zeros dropped)
# only when a Polynomial is built, and in the power tables

def _times(t1: dict, t2: dict, out: dict) -> dict:
    """Add the product of term dicts t1 and t2 into out, and return out."""
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            add_into(out, tuple(map(operator.add, e1, e2)), c1 * c2)
    return out


def _power(p, n: int, times):
    """p^n for n >= 0 by repeated squaring, multiplying with times(a, b)."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else times(out, p)
        n >>= 1
        if not n:
            return Polynomial.const(p.rig, p.arity, 1) if out is None else out
        p = times(p, p)


def _power_tables(args) -> list:
    """Per argument, the term dicts of its powers 1, 2, ... at those
    indices, filled on demand by _substitute."""
    return [[None, a.terms] for a in args]


def _substitute(terms: dict, tables: list, inner: int, norm) -> dict:
    """The terms of sum c x^e with x_i replaced by the base of tables[i];
    each power is normalised with norm as it joins its table."""
    out = {}
    for e, c in terms.items():
        product = None  # of the powers, scaled by c once at the end
        for i, n in enumerate(e):
            if n:
                powers = tables[i]
                while len(powers) <= n:
                    powers.append(norm(_times(powers[-1], powers[1], {})))
                product = powers[n] if product is None else _times(product, powers[n], {})
        if product is None:
            add_into(out, (0,) * inner, c)
            continue
        for e2, c2 in product.items():
            add_into(out, e2, c * c2)
    return out


# ---------------------------------------------------------------------------
# polynomial maps

class PolyMap:
    """Morphism of Poly_k: dom-arity tuple of polynomials, one per output."""

    __slots__ = ("rig", "dom", "cod", "components")

    def __init__(self, rig, dom, cod, components):
        nonnegative(dom, "domain arity")
        components = tuple(components)
        if len(components) != cod:
            raise ArityError(f"expected {cod} components, got {len(components)}")
        for p in components:
            if p.arity != dom or p.rig != rig:
                raise ArityError("component arity/rig mismatch")
        self.rig = rig
        self.dom = dom
        self.cod = cod
        self.components = components

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and (self.rig, self.dom, self.cod) == (other.rig, other.dom, other.cod)
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.rig, self.dom, self.cod, self.components))

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def eval(self, point):
        return tuple(p.eval(point) for p in self.components)

    def to_str(self, namer=None) -> str:
        return "[" + "; ".join(p.to_str(namer) for p in self.components) + "]"

    def __str__(self):
        return self.to_str()

    __repr__ = __str__


def _trusted_polymap(rig: RigSpec, dom: int, cod: int, components: tuple) -> PolyMap:
    """A PolyMap built without PolyMap's arity and rig checks, for results
    whose components the caller already guarantees (substitute, poly_D and
    the backend's own structure maps)."""
    f = object.__new__(PolyMap)
    f.rig, f.dom, f.cod, f.components = rig, dom, cod, components
    return f


def substitute(g: PolyMap, f: PolyMap) -> PolyMap:
    """Composite g after f by polynomial substitution, or by renaming
    exponents when every component of f is zero or a single variable."""
    if g.dom != f.cod or g.rig != f.rig:
        raise ArityError(f"cannot compose {g.dom}<-{f.cod}")
    targets = _selection(f.components)
    if targets is not None:
        comps = tuple(Polynomial(g.rig, f.dom, _rename(p.terms, targets, f.dom))
                      for p in g.components)
    else:
        tables = _power_tables(f.components)  # shared by g's components
        norm = g.rig.normal
        comps = tuple(Polynomial(g.rig, f.dom, _substitute(p.terms, tables, f.dom, norm))
                      for p in g.components)
    return _trusted_polymap(g.rig, f.dom, g.cod, comps)


def _selection(components):
    """Per component, the index of the variable it is (coefficient 1), or
    None where it is zero; None in place of the list if some component is
    neither."""
    targets = []
    for p in components:
        terms = p.terms
        if not terms:
            targets.append(None)
            continue
        if len(terms) != 1:
            return None
        (e, c), = terms.items()
        if sum(e) != 1 or c != 1:
            return None
        targets.append(e.index(1))
    return targets


def _rename(terms: dict, targets: list, inner: int) -> dict:
    """The terms of sum c x^e with x_i replaced by the variable targets[i],
    or by zero where that is None: exponents of variables sent to the same
    target add, and a term with a positive power of a zero is dropped."""
    out = {}
    for e, c in terms.items():
        renamed = [0] * inner
        for t, n in zip(targets, e):
            if n:
                if t is None:
                    break
                renamed[t] += n
        else:
            add_into(out, tuple(renamed), c)
    return out


def poly_partial(f: PolyMap, lo: int, size: int) -> PolyMap:
    """Derivative in the variables x_lo .. x_(lo+size-1) only, in one pass:
    sum_j (df_i/dx_(lo+j)) v_j, with one direction variable v_j appended
    per variable differentiated."""
    n = f.dom
    # e + shifts[j] widens e by size variables and multiplies by v_j;
    # distinct j give distinct keys, so each component is one dict with
    # nothing summed.  Polynomial.partial is looked up on the class, so a
    # patch of it reaches every derivative.
    shifts = [tuple(int(k == j) for k in range(size)) for j in range(size)]
    comps = []
    for p in f.components:
        terms = {}
        for j, shift in enumerate(shifts):
            for e, c in p.partial(lo + j).terms.items():
                terms[e + shift] = c
        comps.append(Polynomial(f.rig, n + size, terms))
    return _trusted_polymap(f.rig, n + size, f.cod, tuple(comps))


def poly_D(f: PolyMap) -> PolyMap:
    """Total derivative: (Df)(x, v) = sum_j (df_i/dx_j) v_j, arity doubled;
    the whole-domain case of poly_partial."""
    return poly_partial(f, 0, f.dom)


# ---------------------------------------------------------------------------
# parser

# Deepest parenthesis nesting accepted; each level costs four stack frames,
# so this stays well below Python's default recursion limit.
MAX_NESTING = 100

# Most term pairs one product in a parsed map may multiply, '^' included:
# enough for (x1+x2+x3+x4)^20, a refusal within a second for ^1000.
MAX_TERMS = 100_000

# Most decimal digits a numeral or a coefficient of a parsed map may have:
# far below Python's int-to-str limit, so every result still prints, and a
# power of a constant is refused after a few squarings.
MAX_DIGITS = 1_000
_MAX_BITS = (10 ** MAX_DIGITS).bit_length()

# Most variables a parsed map may have: every exponent tuple is this long,
# and D, which doubles it, is quadratic in it.
MAX_ARITY = 100


def _coefficient_bits(p: Polynomial) -> int:
    """Bit length of p's largest coefficient (numerator or denominator)."""
    best = 0
    for c in p.terms.values():
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
        else:
            best = max(best, c.bit_length())
    return best


class _Parser:
    def __init__(self, src: str, rig: RigSpec, arity: int):
        self.src = src
        self.rig = rig
        self.arity = arity
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        if self.pos - start > MAX_DIGITS:
            raise SizeLimit(f"a numeral of {self.pos - start} digits exceeds the "
                            f"limit of {MAX_DIGITS} digits")
        return int(self.src[start:self.pos])

    def map_(self) -> PolyMap:
        self.expect("[")
        comps = [self.poly()]
        while self.peek() == ";":
            self.pos += 1
            comps.append(self.poly())
        self.expect("]")
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("trailing input after ']'")
        return PolyMap(self.rig, self.arity, len(comps), comps)

    def poly(self) -> Polynomial:
        acc = self.term()
        while self.peek() in "+-":
            op = self.peek()
            if op == "-" and not self.rig.has_negatives:
                raise NegationUnsupported("'-' is not available in the rig of naturals")
            self.pos += 1
            t = self.term()
            acc = acc + (-t if op == "-" else t)
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            acc = self.times(acc, self.factor())
        return acc

    def times(self, a: Polynomial, b: Polynomial) -> Polynomial:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise SizeLimit(f"a product of {len(a.terms)} by {len(b.terms)} terms "
                            f"exceeds the limit of {MAX_TERMS} term pairs")
        if _coefficient_bits(a) + _coefficient_bits(b) > _MAX_BITS:
            raise SizeLimit(f"a product of coefficients may exceed the limit of "
                            f"{MAX_DIGITS} digits")
        return a * b

    def factor(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            save = self.pos
            self.pos += 1
            if self.peek() == "":
                self.pos = save
                self.error("expected exponent after '^'")
            base = _power(base, self.nat(), self.times)
        return base

    def atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            inner = self.poly()
            self.expect(")")
            self.depth -= 1
            return inner
        if ch == "x":
            self.pos += 1
            idx = self.nat()
            if not 1 <= idx <= self.arity:
                raise UnknownVariable(
                    f"variable x{idx} outside declared arity {self.arity}", self.pos
                )
            return Polynomial.var(self.rig, self.arity, idx - 1)
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                if self.rig.kind != "rat":
                    self.error("rational literals need the rat rig")
                self.pos += 1
                den = self.nat()
                if den == 0:
                    self.error("zero denominator")
                return Polynomial.const(self.rig, self.arity, Fraction(num, den))
            return Polynomial.const(self.rig, self.arity, num)
        self.error("expected a factor")


def parse_poly_map(src: str, rig: RigSpec, arity: int) -> PolyMap:
    """Parse '[poly; poly; ...]' in variables x1..x<arity>."""
    nonnegative(arity, "arity")
    if arity > MAX_ARITY:
        raise SizeLimit(f"arity {arity} exceeds the limit of {MAX_ARITY} variables")
    return _Parser(src, rig, arity).map_()


# ---------------------------------------------------------------------------
# finite modules with arbitrary set maps (FinFn over Z/m)

@dataclass(frozen=True)
class FinModule:
    """The module (Z/m)^dim; elements are int tuples of residues."""

    rig: RigSpec
    dim: int

    def __post_init__(self):
        if self.rig.kind != "zmod":
            raise SpecMismatch("FinModule needs a zmod rig")
        nonnegative(self.dim, "dimension")

    def elements(self):
        return list(itertools.product(self.rig.elements, repeat=self.dim))

    @property
    def size(self) -> int:
        return len(self.rig.elements) ** self.dim

    @property
    def zero_vec(self):
        return (0,) * self.dim


def fin_product(mods) -> FinModule:
    mods = list(mods)
    if not mods:
        nonempty(mods, "a product")
    rig = mods[0].rig
    if any(m.rig is not rig and m.rig != rig for m in mods):
        raise SpecMismatch("a product needs its factors over one rig")
    return FinModule(rig, sum(m.dim for m in mods))


def _is_point(v, mod: FinModule) -> bool:
    return (type(v) is tuple and len(v) == mod.dim
            and all(type(a) is int and 0 <= a < mod.rig.modulus for a in v))


class TableMap:
    """Arbitrary set map between finite modules, stored as a full table.

    The constructor and from_callable refuse a table whose keys are not
    exactly the points of dom or whose values are not points of cod (tuples
    of cod.dim residues).  The backend's results, whose tables are right by
    construction, are built by _trusted_tablemap."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinModule, cod: FinModule, table: dict):
        if not (isinstance(dom, FinModule) and isinstance(cod, FinModule)):
            raise InvalidArgument("a TableMap goes between FinModules")
        if dom.rig != cod.rig:
            raise SpecMismatch(f"{dom.rig} vs {cod.rig}")
        if len(table) != dom.size or not all(_is_point(x, dom) for x in table):
            raise InvalidArgument(
                f"the table must hold exactly the {dom.size} points of its domain")
        for y in table.values():
            if not _is_point(y, cod):
                raise InvalidArgument(f"{y!r} is not a point of (Z/{cod.rig.modulus})^{cod.dim}")
        self.dom = dom
        self.cod = cod
        self.table = dict(table)

    @staticmethod
    def from_callable(dom, cod, fn) -> "TableMap":
        """The table of fn, refused as the constructor refuses a table
        unless fn sends each point of dom to a point of cod."""
        if not isinstance(dom, FinModule):
            raise InvalidArgument("a TableMap goes between FinModules")
        return TableMap(dom, cod, {x: fn(x) for x in dom.elements()})

    def __eq__(self, other):
        return (
            isinstance(other, TableMap)
            and (self.dom, self.cod) == (other.dom, other.cod)
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(sorted(self.table.items()))))

    @property
    def is_zero(self) -> bool:
        return all(v == self.cod.zero_vec for v in self.table.values())

    def __repr__(self):
        return f"TableMap({self.dom.dim}->{self.cod.dim}: {self.table})"


def _trusted_tablemap(dom: FinModule, cod: FinModule, table: dict) -> TableMap:
    """A TableMap built without the constructor's checks, for tables the
    caller builds right by construction (the backend's own results)."""
    f = object.__new__(TableMap)
    f.dom, f.cod, f.table = dom, cod, table
    return f


class FinFnBackend:
    """Cartesian left-k-linear base: finite Z/m modules, arbitrary maps.

    No differential of its own; it is the base the Faa di Bruno and
    co-Kleisli constructions are built over.  compose, pairing, add and
    scale refuse a map over another rig with SpecMismatch.
    """

    def __init__(self, modulus: int):
        self.rig = zmod(modulus)
        self.reindexing = reindexing_memo(self)

    def _own(self, *maps):
        # every table is over a zmod, so equal moduli are equal rigs, and
        # a map's domain is over its codomain's rig
        m = self.rig.modulus
        for f in maps:
            if f.cod.rig.modulus != m:
                raise SpecMismatch(f"a map over {f.cod.rig} in a backend over {self.rig}")

    def module(self, dim: int) -> FinModule:
        return FinModule(self.rig, dim)

    def identity(self, mod: FinModule) -> TableMap:
        return _trusted_tablemap(mod, mod, {x: x for x in mod.elements()})

    def compose(self, g: TableMap, f: TableMap) -> TableMap:
        if g.dom != f.cod:
            raise ObjectMismatch("tables not composable")
        self._own(g, f)
        return _trusted_tablemap(f.dom, g.cod, {x: g.table[y] for x, y in f.table.items()})

    def product(self, mods) -> FinModule:
        return fin_product(mods)

    def proj(self, mods, i) -> TableMap:
        if not 0 <= i < len(mods):
            in_range(i, len(mods), "projection index")
        lo, dom = sum(m.dim for m in mods[:i]), fin_product(mods)
        hi = lo + mods[i].dim
        return _trusted_tablemap(dom, mods[i], {x: x[lo:hi] for x in dom.elements()})

    def pairing(self, maps) -> TableMap:
        maps = list(maps)
        if not maps:
            nonempty(maps, "a pairing")
        dom = maps[0].dom
        if any(f.dom != dom for f in maps):
            raise ObjectMismatch("pairing needs a common domain")
        self._own(*maps)
        # keyed by the first table's own points, as compose and add are, so
        # a kept pairing shares its key tuples with its first map
        return _trusted_tablemap(dom, fin_product([f.cod for f in maps]), {
            x: sum((f.table[x] for f in maps), ()) for x in maps[0].table})

    def zero(self, dom, cod) -> TableMap:
        return _trusted_tablemap(dom, cod, dict.fromkeys(dom.elements(), cod.zero_vec))

    def add(self, f: TableMap, g: TableMap) -> TableMap:
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ObjectMismatch(f"{f.dom.dim}->{f.cod.dim} vs {g.dom.dim}->{g.cod.dim}")
        self._own(f, g)
        m = self.rig.modulus
        return _trusted_tablemap(f.dom, f.cod, {x: tuple(
            (a + b) % m for a, b in zip(y, g.table[x])) for x, y in f.table.items()})

    def scale(self, c, f: TableMap) -> TableMap:
        self._own(f)
        c, m = rig_value(self.rig, c), self.rig.modulus
        return _trusted_tablemap(f.dom, f.cod, {
            x: tuple(c * a % m for a in y) for x, y in f.table.items()})

    def multilinear_count(self, A: FinModule, B: FinModule, n: int) -> int:
        """How many maps multilinear_maps(A, B, n) returns: a value in B
        for each point of A and each multiset of n of A's dim basis indices."""
        nonnegative(n, "level")
        multisets = math.comb(A.dim + n - 1, n) if A.dim else int(n == 0)
        return B.size ** (A.size * multisets)

    def multilinear_maps(self, A: FinModule, B: FinModule, n: int) -> list:
        """Every map A x A^n -> B symmetric and k-linear in its last n
        slots, in the order of their value sequences on the points of
        A x A^n: any g(x, S) on points x of A and multisets S of n basis
        indices, as f(x, v1..vn) = sum_w v1[w1]...vn[wn] * g(x, sorted w)."""
        nonnegative(n, "level")
        m, d = self.rig.modulus, A.dim
        keys = list(itertools.product(
            A.elements(), itertools.combinations_with_replacement(range(d), n)))
        dom = fin_product([A] * (n + 1))
        cells = dom.elements()
        # the cell (x, v1..vn) reads g(x, S) times v1[w1]...vn[wn], summed
        # over the orderings w of S
        reads = [[(k, sum(math.prod(cell[d * (i + 1) + j] for i, j in enumerate(w))
                          for w in set(itertools.permutations(S))) % m)
                  for k, (x, S) in enumerate(keys) if x == cell[:d]] for cell in cells]
        tables = sorted(
            tuple(tuple(sum(c * g[k][i] for k, c in read) % m for i in range(B.dim))
                  for read in reads)
            for g in itertools.product(B.elements(), repeat=len(keys)))
        return [_trusted_tablemap(dom, B, dict(zip(cells, values))) for values in tables]


# Most domain points table_from_poly tabulates before it raises SizeLimit.
MAX_TABLE_POINTS = 200_000


def table_from_poly(f: PolyMap) -> TableMap:
    """Evaluate a Z/m polynomial map on every point of its domain."""
    rig = f.rig
    if rig.kind != "zmod":
        raise SpecMismatch("table_from_poly needs a zmod rig")
    dom = FinModule(rig, f.dom)
    cod = FinModule(rig, f.cod)
    if dom.size > MAX_TABLE_POINTS:
        raise SizeLimit(f"domain has {dom.size} points, limit {MAX_TABLE_POINTS}")
    table = {}
    for x in dom.elements():
        table[x] = tuple(p.eval(x) for p in f.components)
    return _trusted_tablemap(dom, cod, table)
