"""Polynomial maps over a rig: the objects-are-arities category Poly_k.

Morphisms n -> m are m-tuples of polynomials in x1..xn, composition is
substitution, and the differential doubles the arity and dots the gradient
against fresh direction variables.  Also provides FinFn: finite modules
over Z/m with arbitrary set maps stored as full tables, the exhaustive
oracle world for the co-Kleisli checks.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import RigSpec, RigValue, add_into, rig_one, rig_value, rig_zero
from .errors import (
    ArityError,
    InvalidArgument,
    NegationUnsupported,
    ObjectMismatch,
    ParseError,
    SizeLimit,
    SpecMismatch,
    UnknownVariable,
)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse multivariate polynomial: exponent vectors -> RigValue."""

    __slots__ = ("rig", "arity", "terms")

    def __init__(self, rig: RigSpec, arity: int, terms: dict):
        self.rig = rig
        self.arity = arity
        self.terms = {e: c for e, c in terms.items() if not c.is_zero}

    # -- constructors

    @staticmethod
    def zero(rig, arity) -> "Polynomial":
        return Polynomial(rig, arity, {})

    @staticmethod
    def const(rig, arity, c) -> "Polynomial":
        return Polynomial(rig, arity, {(0,) * arity: rig_value(rig, c)})

    @staticmethod
    def var(rig, arity, i) -> "Polynomial":
        """The variable x_i, 0-based."""
        if not 0 <= i < arity:
            raise ArityError(f"variable index {i} out of range for arity {arity}")
        e = (0,) * i + (1,) + (0,) * (arity - i - 1)
        return Polynomial(rig, arity, {e: rig_one(rig)})

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
        return Polynomial(self.rig, self.arity, {e: -v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InvalidArgument("exponent must be nonnegative")
        return _power(self, n, Polynomial.__mul__)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative in x_i (0-based); multiplicity cast into k."""
        return Polynomial(self.rig, self.arity, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * rig_value(self.rig, e[i])
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
        terms = _substitute(self.terms, _power_tables(args), inner)
        return Polynomial(self.rig, inner, terms)

    def eval(self, point) -> RigValue:
        consts = [Polynomial.const(self.rig, 0, v) for v in point]
        result = self.substitute(consts)
        return result.terms.get((), rig_zero(self.rig))

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
            payload = c.payload
            neg = payload < 0
            mag = -payload if neg else payload
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
# the term-dict kernel: exponent tuple -> RigValue, no Polynomial built for
# intermediate products; zeros left by cancellation stay until one is

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


def _substitute(terms: dict, tables: list, inner: int) -> dict:
    """The terms of sum c x^e with x_i replaced by the base of tables[i]."""
    out = {}
    for e, c in terms.items():
        product = None  # of the powers, scaled by c once at the end
        for i, n in enumerate(e):
            if n:
                powers = tables[i]
                while len(powers) <= n:
                    nxt = _times(powers[-1], powers[1], {})
                    powers.append({k: v for k, v in nxt.items() if not v.is_zero})
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


def substitute(g: PolyMap, f: PolyMap) -> PolyMap:
    """Composite g after f by polynomial substitution, or by renaming
    exponents when every component of f is zero or a single variable."""
    if g.dom != f.cod or g.rig != f.rig:
        raise ArityError(f"cannot compose {g.dom}<-{f.cod}")
    targets = _selection(f.components)
    if targets is not None:
        comps = [Polynomial(g.rig, f.dom, _rename(p.terms, targets, f.dom))
                 for p in g.components]
    else:
        tables = _power_tables(f.components)  # shared by g's components
        comps = [Polynomial(g.rig, f.dom, _substitute(p.terms, tables, f.dom))
                 for p in g.components]
    return PolyMap(g.rig, f.dom, g.cod, comps)


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
        if sum(e) != 1 or c.payload != 1:
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


def poly_D(f: PolyMap) -> PolyMap:
    """Total derivative: (Df)(x, v) = sum_j (df_i/dx_j) v_j, arity doubled."""
    n = f.dom
    # e + shifts[j] widens e to 2n variables and multiplies by v_j; distinct
    # j give distinct keys, so each component is one dict with nothing summed
    shifts = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    comps = []
    for p in f.components:
        terms = {}
        for j, shift in enumerate(shifts):
            for e, c in p.partial(j).terms.items():
                terms[e + shift] = c
        comps.append(Polynomial(f.rig, 2 * n, terms))
    return PolyMap(f.rig, 2 * n, f.cod, comps)


def is_linear_syntactic(f: PolyMap) -> bool:
    """Every monomial of every component has total degree exactly 1."""
    return all(
        all(sum(e) == 1 for e in p.terms) for p in f.components
    )


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
        v = c.payload
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
        else:
            best = max(best, v.bit_length())
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

    @property
    def modulus(self) -> int:
        return self.rig.modulus

    def elements(self):
        return list(itertools.product(range(self.modulus), repeat=self.dim))

    @property
    def size(self) -> int:
        return self.modulus ** self.dim

    def vadd(self, a, b):
        return tuple((x + y) % self.modulus for x, y in zip(a, b))

    def vscale(self, c, a):
        return tuple((c * x) % self.modulus for x in a)

    @property
    def zero_vec(self):
        return (0,) * self.dim


def fin_product(mods) -> FinModule:
    mods = list(mods)
    rig = mods[0].rig
    return FinModule(rig, sum(m.dim for m in mods))


class TableMap:
    """Arbitrary set map between finite modules, stored as a full table."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinModule, cod: FinModule, table: dict):
        self.dom = dom
        self.cod = cod
        self.table = table

    @staticmethod
    def from_callable(dom, cod, fn) -> "TableMap":
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


class FinFnBackend:
    """Cartesian left-k-linear base: finite Z/m modules, arbitrary maps.

    No differential of its own; it is the base the Faa di Bruno and
    co-Kleisli constructions are built over.
    """

    def __init__(self, modulus: int):
        from .algebra import zmod

        self.rig = zmod(modulus)
        self.modulus = modulus

    def module(self, dim: int) -> FinModule:
        return FinModule(self.rig, dim)

    def identity(self, mod: FinModule) -> TableMap:
        return TableMap.from_callable(mod, mod, lambda x: x)

    def compose(self, g: TableMap, f: TableMap) -> TableMap:
        if g.dom != f.cod:
            raise ObjectMismatch("tables not composable")
        return TableMap(f.dom, g.cod, {x: g.table[y] for x, y in f.table.items()})

    def product(self, mods) -> FinModule:
        return fin_product(mods)

    def proj(self, mods, i) -> TableMap:
        lo = sum(m.dim for m in mods[:i])
        hi = lo + mods[i].dim
        return TableMap.from_callable(fin_product(mods), mods[i], lambda x: x[lo:hi])

    def pairing(self, maps) -> TableMap:
        maps = list(maps)
        dom = maps[0].dom
        if any(f.dom != dom for f in maps):
            raise ObjectMismatch("pairing needs a common domain")
        return TableMap.from_callable(
            dom, fin_product([f.cod for f in maps]),
            lambda x: sum((f.table[x] for f in maps), ()),
        )

    def zero(self, dom, cod) -> TableMap:
        return TableMap.from_callable(dom, cod, lambda x: cod.zero_vec)

    def add(self, f: TableMap, g: TableMap) -> TableMap:
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ObjectMismatch(f"{f.dom.dim}->{f.cod.dim} vs {g.dom.dim}->{g.cod.dim}")
        vadd = f.cod.vadd
        return TableMap.from_callable(f.dom, f.cod, lambda x: vadd(f.table[x], g.table[x]))

    def scale(self, c: int, f: TableMap) -> TableMap:
        vscale = f.cod.vscale
        return TableMap.from_callable(f.dom, f.cod, lambda x: vscale(c, f.table[x]))

    def all_maps(self, dom: FinModule, cod: FinModule):
        """Every set map dom -> cod (use with care: |cod|^|dom| tables)."""
        xs = dom.elements()
        ys = cod.elements()
        for values in itertools.product(ys, repeat=len(xs)):
            yield TableMap(dom, cod, dict(zip(xs, values)))


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
        vals = f.eval(tuple(rig_value(rig, c) for c in x))
        table[x] = tuple(v.payload for v in vals)
    return TableMap(dom, cod, table)
