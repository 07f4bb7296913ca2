"""Exact scalars in commutative rigs and finitely supported linear algebra.

Everything downstream (polynomials, the Q modality, presheaves) reduces to
coefficient dictionaries over canonical basis keys, so this module fixes the
key conventions once: Free spaces use their basis names, Product keys are
(slot, inner key), Tensor keys are tuples of inner keys, and QSpace keys are
normal-form QGenerators.

Accumulation rule: a linear sum adds its (key, coefficient) terms into one
dict with `add_into` / `add_scaled` and builds one ModuleElement at the end,
which drops zeros once; adding ModuleElements term by term would copy the
partial sum at every step.  Hashes are order-free, so no dict probe sorts.
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

    def __str__(self):
        return f"zmod:{self.modulus}" if self.kind == "zmod" else self.kind


NAT = RigSpec("nat")
INT = RigSpec("int")
RAT = RigSpec("rat")


def zmod(m: int) -> RigSpec:
    return RigSpec("zmod", m)


@dataclass(frozen=True)
class RigValue:
    spec: RigSpec
    payload: object  # int, or Fraction for rat

    def _check(self, other: "RigValue"):
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    # sums and products of normalized values stay normalized (nat stays
    # non-negative), so only zmod reduces
    def __add__(self, other: "RigValue") -> "RigValue":
        self._check(other)
        spec, value = self.spec, self.payload + other.payload
        return RigValue(spec, value % spec.modulus if spec.kind == "zmod" else value)

    def __mul__(self, other: "RigValue") -> "RigValue":
        self._check(other)
        spec, value = self.spec, self.payload * other.payload
        return RigValue(spec, value % spec.modulus if spec.kind == "zmod" else value)

    def __neg__(self) -> "RigValue":
        if not self.spec.has_negatives:
            raise NegationUnsupported("the rig of naturals has no negatives")
        return rig_value(self.spec, -self.payload)

    @property
    def is_zero(self) -> bool:
        return self.payload == 0

    def __hash__(self):
        return hash(self.payload)

    def __str__(self):
        return str(self.payload)


def rig_value(spec: RigSpec, raw) -> RigValue:
    """Build a normalized RigValue from an int, Fraction, or RigValue; rat
    also parses a literal such as "1/2" or "0.1", exactly.

    Anything else, float and bool included, raises SpecMismatch.
    """
    if isinstance(raw, RigValue):
        if raw.spec != spec:
            raise SpecMismatch(f"{raw.spec} vs {spec}")
        return raw
    if spec.kind == "rat":
        if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, str)):
            raise SpecMismatch(f"{raw!r} is not an exact scalar of rig {spec}")
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise SpecMismatch(f"{raw!r} is not a rational literal") from None
        return RigValue(spec, value)
    if type(raw) is not int:  # refuses bool too
        raise SpecMismatch(f"non-integer scalar {raw!r} in rig {spec}")
    if spec.kind == "zmod":
        return RigValue(spec, raw % spec.modulus)
    if spec.kind == "nat" and raw < 0:
        raise NegationUnsupported(f"{raw} is not a natural number")
    return RigValue(spec, raw)


def rig_zero(spec: RigSpec) -> RigValue:
    return rig_value(spec, 0)


@functools.cache
def rig_one(spec: RigSpec) -> RigValue:
    """The unit of `spec`, built once per spec (that of zmod:1 is 0)."""
    return rig_value(spec, 1)


def rig_op(spec: RigSpec, op: str, a: RigValue, b: RigValue | None = None) -> RigValue:
    """Dispatch rig arithmetic: op in {"add", "mul", "neg"}."""
    a = rig_value(spec, a)
    if op == "neg":
        return -a
    b = rig_value(spec, b)
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise InvalidArgument(f"unknown rig op {op!r}")


def all_rig_values(spec: RigSpec):
    """All scalars of a finite rig (zmod only)."""
    if spec.kind != "zmod":
        raise InvalidArgument(f"rig {spec} is not finite")
    return [rig_value(spec, i) for i in range(spec.modulus)]


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


def _value_token(v: RigValue):
    p = v.payload
    if isinstance(p, Fraction):
        return ("f", p.numerator, p.denominator)
    return ("i", p)


# key_token per key: a token depends only on the key's value.  The memo is
# emptied when it reaches _TOKENS_MAX entries, which bounds its memory.
_TOKENS: dict = {}
_TOKENS_MAX = 1 << 16


def key_token(key):
    """Canonical, totally ordered token for any basis key (possibly nested)."""
    token = _TOKENS.get(key)
    if token is None:
        if len(_TOKENS) >= _TOKENS_MAX:
            _TOKENS.clear()
        token = _TOKENS[key] = _key_token(key)
    return token


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


def add_into(out: dict, key, val: RigValue) -> None:
    """out[key] += val; zeros stay until a ModuleElement is built from out."""
    old = out.get(key)
    out[key] = val if old is None else old + val


def add_scaled(out: dict, c: RigValue, elem: "ModuleElement") -> None:
    """out += c * elem, term by term."""
    for k, v in elem.coeffs.items():
        add_into(out, k, c * v)


# ---------------------------------------------------------------------------
# module elements

class ModuleElement:
    """Finitely supported coefficient vector over the basis keys of a space."""

    __slots__ = ("rig", "space", "coeffs", "_hash")

    def __init__(self, rig: RigSpec, space, coeffs: dict):
        self.rig = rig
        self.space = space
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero}
        self._hash = None

    def _check(self, other: "ModuleElement"):
        if self.space != other.space or self.rig != other.rig:
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
        return ModuleElement(self.rig, self.space, {k: -v for k, v in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: key_token(kv[0]))

    def _token(self):
        return tuple((key_token(k), _value_token(v)) for k, v in self.items())

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.rig == other.rig
            and self.space == other.space
            and self.coeffs == other.coeffs
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
    return ModuleElement(rig, space, {key: rig_one(rig)})


def tensor_elem(a: ModuleElement, b: ModuleElement) -> ModuleElement:
    """Bilinear pairing into Tensor((A, B)) on pair basis keys."""
    if a.rig != b.rig:
        raise SpecMismatch(f"{a.rig} vs {b.rig}")
    space = Tensor((a.space, b.space))
    out = {(ka, kb): va * vb
           for ka, va in a.coeffs.items() for kb, vb in b.coeffs.items()}
    return ModuleElement(a.rig, space, out)


def enum_elements(rig: RigSpec, space):
    """All elements of a finite free-ish module (zmod rig, enumerable basis)."""
    keys = basis_keys(space)
    scalars = all_rig_values(rig)
    for combo in itertools.product(scalars, repeat=len(keys)):
        yield ModuleElement(rig, space, dict(zip(keys, combo)))


# ---------------------------------------------------------------------------
# monomials and Q generators

@dataclass(frozen=True)
class Monomial:
    """Sorted multiset of basis keys; the degree-n part of a symmetric algebra."""

    keys: tuple

    @staticmethod
    def of(keys) -> "Monomial":
        keys = tuple(keys)  # fewer than two keys need no sort tokens
        return Monomial(tuple(sorted(keys, key=key_token)) if len(keys) > 1 else keys)

    @property
    def degree(self) -> int:
        return len(self.keys)

    def __str__(self):
        return "{" + ",".join(map(str, self.keys)) + "}"


def monomial_mul(mu: Monomial, nu: Monomial) -> Monomial:
    return Monomial.of(mu.keys + nu.keys)


@dataclass(frozen=True, slots=True)
class QGenerator:
    """Normal-form generator <x0; b1...bn>: opaque point, basis-key tail."""

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
