"""Exact scalars in commutative rigs and finitely supported linear algebra.

Everything downstream (polynomials, the Q modality, presheaves) reduces to
coefficient dictionaries over canonical basis keys, so this module fixes the
key conventions once: Free spaces use their basis names, Product keys are
(slot, inner key), Tensor keys are tuples of inner keys, and QSpace keys are
normal-form QGenerators.

Scalars: a scalar is a raw payload, `int` for nat, int and zmod (in
range(m) for zmod) and `Fraction` for rat, so every kernel adds and
multiplies with native + and *.  `rig_value(spec, raw)` is the one
coercion: every scalar that enters a public function goes through it (a
`scale`, a constructor's coefficient, a matrix entry), and it returns the
normalised payload, refusing a float, a bool, a non-integer off rat and
another rig's scalar.  Every scalar a public function returns is such a
payload.  Sums and products of payloads may leave range(m) or cancel to
zero inside a kernel; `rig.normal`, built once per RigSpec, reduces and
drops zeros when a result is wrapped as a ModuleElement or Polynomial.
`RigValue` is a bare (spec, payload) box whose + and * check the specs;
nothing here builds one.

Accumulation rule: a linear sum adds its (key, coefficient) terms into one
dict with `add_into` / `add_scaled` and builds one ModuleElement at the end,
which normalises once; adding ModuleElements term by term would copy the
partial sum at every step.  Hashes are order-free, so no dict probe sorts.

Memos: `Memo`, the one memo type, is owned by an object or a call;
`Table` is a Memo at module level, of values only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidArgument, NegationUnsupported, SpaceMismatch, SpecMismatch


# ---------------------------------------------------------------------------
# rigs

@dataclass(frozen=True)
class RigSpec:
    kind: str  # "nat" | "int" | "rat" | "zmod"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("nat", "int", "rat", "zmod"):
            raise InvalidArgument(f"unknown rig kind {self.kind!r}")
        if self.kind == "zmod":
            if not (isinstance(self.modulus, int) and self.modulus >= 1):
                raise InvalidArgument("zmod modulus must be a positive integer")
        elif self.modulus is not None:
            raise InvalidArgument(f"rig {self.kind} takes no modulus")

    @property
    def has_negatives(self) -> bool:
        return self.kind != "nat"

    @functools.cached_property
    def normal(self):
        """The normaliser of coefficient dicts over this rig, built once:
        a function from a dict of sums and products of payloads to a new
        dict of normalised, nonzero payloads.  A coefficient whose type is
        not the payload type (or a negative int, for nat) goes through
        rig_value."""
        return _normaliser(self)

    @functools.cached_property
    def one(self):
        """The payload of the unit, built once per spec (that of zmod:1 is 0)."""
        return rig_value(self, 1)

    @property
    def elements(self) -> range:
        """The payloads of a finite rig, in the one order every exhaustive
        check enumerates them: range(m) for zmod:m, whose len costs O(1)
        however large m is.  An infinite rig raises InvalidArgument."""
        if self.kind != "zmod":
            raise InvalidArgument(f"rig {self} is not finite")
        return range(self.modulus)

    def __str__(self):
        return f"zmod:{self.modulus}" if self.kind == "zmod" else self.kind


NAT = RigSpec("nat")
INT = RigSpec("int")
RAT = RigSpec("rat")


def zmod(m: int) -> RigSpec:
    return RigSpec("zmod", m)


@dataclass(frozen=True)
class RigValue:
    """A payload boxed with its spec; + and * refuse another rig's box and
    return the normalised payload."""

    spec: RigSpec
    payload: object  # int, or Fraction for rat

    def _check(self, other: "RigValue"):
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RigValue"):
        self._check(other)
        return rig_value(self.spec, self.payload + other.payload)

    def __mul__(self, other: "RigValue"):
        self._check(other)
        return rig_value(self.spec, self.payload * other.payload)


def rig_value(spec: RigSpec, raw):
    """The normalised payload of a scalar of `spec`: an int, a Fraction or
    a RigValue of the same rig; rat also parses a literal such as "1/2" or
    "0.1", exactly.

    Anything else, float and bool included, raises SpecMismatch, and a
    negative int over nat raises NegationUnsupported.
    """
    if isinstance(raw, RigValue):
        if raw.spec != spec:
            raise SpecMismatch(f"{raw.spec} vs {spec}")
        raw = raw.payload
    if spec.kind == "rat":
        if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, str)):
            raise SpecMismatch(f"{raw!r} is not an exact scalar of rig {spec}")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise SpecMismatch(f"{raw!r} is not a rational literal") from None
    if type(raw) is not int:  # refuses bool too
        raise SpecMismatch(f"non-integer scalar {raw!r} in rig {spec}")
    if spec.kind == "zmod":
        return raw % spec.modulus
    if spec.kind == "nat" and raw < 0:
        raise NegationUnsupported(f"{raw} is not a natural number")
    return raw


def _normaliser(spec: RigSpec):
    if spec.kind == "zmod":
        m = spec.modulus

        def norm(coeffs: dict) -> dict:
            out = {}
            for k, v in coeffs.items():
                v = v % m if type(v) is int else rig_value(spec, v)
                if v:
                    out[k] = v
            return out
        return norm

    payload_type = Fraction if spec.kind == "rat" else int
    signed = spec.has_negatives

    def norm(coeffs: dict) -> dict:
        out = {}
        for k, v in coeffs.items():
            if type(v) is not payload_type or not signed and v < 0:
                v = rig_value(spec, v)  # refuses a non-scalar and a negative nat
            if v:
                out[k] = v
        return out
    return norm


def rig_op(spec: RigSpec, op: str, a, b=None):
    """Rig arithmetic on scalars that rig_value accepts, op in {"add",
    "mul", "neg"}; returns the normalised payload."""
    a = rig_value(spec, a)
    if op == "neg":
        return rig_value(spec, -a)  # over nat only 0 has a negative
    b = rig_value(spec, b)
    if op == "add":
        return rig_value(spec, a + b)
    if op == "mul":
        return rig_value(spec, a * b)
    raise InvalidArgument(f"unknown rig op {op!r}")


# ---------------------------------------------------------------------------
# spaces

@dataclass(frozen=True)
class Free:
    basis: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.basis)) != len(self.basis):
            raise InvalidArgument("basis names must be unique")

    def __str__(self):
        return f"Free({','.join(self.basis)})"


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __str__(self):
        return "(" + " x ".join(map(str, self.factors)) + ")"


@dataclass(frozen=True)
class Tensor:
    factors: tuple

    def __str__(self):
        return "(" + " (x) ".join(map(str, self.factors)) + ")"


@dataclass(frozen=True)
class QSpace:
    inner: object

    def __str__(self):
        return f"Q{self.inner}"


def basis_keys(space):
    """Enumerate the canonical basis keys of a space (QSpace is not free)."""
    if isinstance(space, Free):
        return list(space.basis)
    if isinstance(space, Product):
        out = []
        for slot, factor in enumerate(space.factors):
            out.extend((slot, k) for k in basis_keys(factor))
        return out
    if isinstance(space, Tensor):
        parts = [basis_keys(f) for f in space.factors]
        return [tuple(combo) for combo in itertools.product(*parts)]
    raise InvalidArgument(f"space {space} has no enumerable basis")


def valid_key(space, key) -> bool:
    if isinstance(space, Free):
        return key in space.basis
    if isinstance(space, Product):
        return (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], int)
            and 0 <= key[0] < len(space.factors)
            and valid_key(space.factors[key[0]], key[1])
        )
    if isinstance(space, Tensor):
        return (
            isinstance(key, tuple)
            and len(key) == len(space.factors)
            and all(valid_key(f, k) for f, k in zip(space.factors, key))
        )
    if isinstance(space, QSpace):
        return isinstance(key, QGenerator) and key.point.space == space.inner
    return False


def _value_token(p):
    if isinstance(p, Fraction):
        return ("f", p.numerator, p.denominator)
    return ("i", p)


# A Memo dies with the object or call that made it, so a seam patched
# between two calls is seen.  A Table is emptied when it reaches
# _TOKENS_MAX entries, which bounds its memory.
#
# Value tables: a key token, a monomial, a Q generator, a generator point and
# the tensor x0 (x) y0 of two points depend only on their value, so each
# table maps a value to one canonical object.  Interning is only a fast
# path (a dict probe or a tuple comparison meets the same object and skips
# __eq__): equality and hashing stay by value, so a value built outside a
# table, or before one was emptied, still compares correctly.  The tables
# hold values (x0 (x) y0 is one of the bilinear pairing), never a
# structure map's result.
_TOKENS_MAX = 1 << 16


def _remember(table: dict, key, value):
    if len(table) >= _TOKENS_MAX:
        table.clear()
    table[key] = value
    return value


class Memo(dict):
    """A dict whose missing entry `key` is built once, by build(key), and
    kept: a hit is one subscript, and a build that raises stores nothing."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Table(Memo):
    """A Memo of values, emptied when it reaches _TOKENS_MAX entries."""

    __slots__ = ()

    def __missing__(self, key):
        return _remember(self, key, self.build(key))


def key_token(key):
    """Canonical, totally ordered token for any basis key (possibly nested)."""
    return _TOKENS[key]


def _key_token(key):
    if isinstance(key, str):
        return ("s", key)
    if isinstance(key, int):
        return ("i", key)
    if isinstance(key, tuple):
        return ("t", tuple(key_token(k) for k in key))
    if isinstance(key, QGenerator):
        return ("q", key.point._token(), tuple(key_token(k) for k in key.tail.keys))
    raise InvalidArgument(f"unsupported basis key {key!r}")


_TOKENS = Table(_key_token)


def add_into(out: dict, key, val) -> None:
    """out[key] += val on payloads; the sum is normalised (reduced, and
    dropped if zero) when a ModuleElement or Polynomial is built from out."""
    old = out.get(key)
    out[key] = val if old is None else old + val


def add_scaled(out: dict, c, elem: "ModuleElement") -> None:
    """out += c * elem, term by term."""
    for k, v in elem.coeffs.items():
        add_into(out, k, c * v)


# ---------------------------------------------------------------------------
# module elements

class ModuleElement:
    """Finitely supported coefficient vector over the basis keys of a space:
    basis key -> nonzero normalised payload."""

    __slots__ = ("rig", "space", "coeffs", "_hash")

    def __init__(self, rig: RigSpec, space, coeffs: dict):
        self.rig = rig
        self.space = space
        self.coeffs = rig.normal(coeffs)
        self._hash = None

    def _check(self, other: "ModuleElement"):
        # a tuple comparison tries identity before __eq__
        if (self.space, self.rig) != (other.space, other.rig):
            raise SpaceMismatch(f"{self.space}/{self.rig} vs {other.space}/{other.rig}")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_into(out, k, v)
        return ModuleElement(self.rig, self.space, out)

    def scale(self, c) -> "ModuleElement":
        c = rig_value(self.rig, c)
        return ModuleElement(
            self.rig, self.space, {k: c * v for k, v in self.coeffs.items()}
        )

    def __neg__(self) -> "ModuleElement":
        # over nat the normaliser refuses the negated payloads
        return ModuleElement(self.rig, self.space, {k: -v for k, v in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: key_token(kv[0]))

    def _token(self):
        return tuple((key_token(k), _value_token(v)) for k, v in self.items())

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ModuleElement)
            and self.coeffs == other.coeffs
            # a tuple comparison tries identity before __eq__
            and (self.rig, self.space) == (other.rig, other.space)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rig, self.space, frozenset(self.coeffs.items())))
        return self._hash

    def __str__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{v}*{k}" for k, v in self.items())

    __repr__ = __str__


def zero_elem(rig: RigSpec, space) -> ModuleElement:
    return ModuleElement(rig, space, {})


def basis_elem(rig: RigSpec, space, key) -> ModuleElement:
    if not valid_key(space, key):
        raise SpaceMismatch(f"key {key!r} is not a basis key of {space}")
    return ModuleElement(rig, space, {key: rig.one})


def tensor_elem(a: ModuleElement, b: ModuleElement) -> ModuleElement:
    """Bilinear pairing into Tensor((A, B)) on pair basis keys."""
    if a.rig != b.rig:
        raise SpecMismatch(f"{a.rig} vs {b.rig}")
    space = Tensor((a.space, b.space))
    out = {(ka, kb): va * vb
           for ka, va in a.coeffs.items() for kb, vb in b.coeffs.items()}
    return ModuleElement(a.rig, space, out)


def enum_elements(rig: RigSpec, space):
    """All elements of a finite free-ish module (finite rig, enumerable basis)."""
    keys = basis_keys(space)
    for combo in itertools.product(rig.elements, repeat=len(keys)):
        yield ModuleElement(rig, space, dict(zip(keys, combo)))


# ---------------------------------------------------------------------------
# monomials and Q generators

@dataclass(frozen=True, slots=True)
class Monomial:
    """Sorted multiset of basis keys; the degree-n part of a symmetric algebra."""

    keys: tuple
    _hash: int = field(init=False, repr=False, compare=False)  # set once, at build

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.keys,)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(keys) -> "Monomial":
        """The interned monomial of `keys`, in any order."""
        return _MONOMIALS[tuple(keys)]

    @property
    def degree(self) -> int:
        return len(self.keys)

    def __str__(self):
        return "{" + ",".join(map(str, self.keys)) + "}"


# the monomial of each tuple of keys, by way of its sorted tuple; fewer than
# two keys need no sort tokens
_MONOMIALS = Table(lambda keys: _SORTED_MONOMIALS[
    tuple(sorted(keys, key=key_token)) if len(keys) > 1 else keys])
_SORTED_MONOMIALS = Table(Monomial)


def monomial_mul(mu: Monomial, nu: Monomial) -> Monomial:
    return Monomial.of(mu.keys + nu.keys)


@dataclass(frozen=True, slots=True)
class QGenerator:
    """Normal-form generator <x0; b1...bn>: opaque point, basis-key tail.
    _generator builds the interned one; a generator built here directly is
    an equal value, not the same object."""

    point: ModuleElement
    tail: Monomial
    _hash: int = field(init=False, repr=False, compare=False)  # set once, at build

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.point, self.tail)))

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        return self.tail.degree

    def __str__(self):
        inner = str(self.point)
        if self.tail.degree:
            inner += "; " + ",".join(map(str, self.tail.keys))
        return f"<{inner}>"

    __repr__ = __str__


def _generator(point: ModuleElement, tail: Monomial) -> QGenerator:
    """The interned <point; tail>, the one way the package builds a
    QGenerator.  A structure map passes a point it made canonical with
    _point, once where it made the point, so a hit meets the same point and
    tail objects."""
    return _GENERATORS[point, tail]


def _point(elem: ModuleElement) -> ModuleElement:
    """The canonical object of a generator point's value."""
    return _POINTS[elem]


def tensor_point(a: ModuleElement, b: ModuleElement) -> ModuleElement:
    """The canonical point a (x) b of two canonical points: a value of the
    bilinear pairing, tensored once per pair while the table keeps it."""
    return _TENSOR_POINTS[a, b]


_GENERATORS = Table(lambda key: QGenerator(*key))
_POINTS = Table(lambda elem: elem)
_TENSOR_POINTS = Table(lambda key: _point(tensor_elem(*key)))
