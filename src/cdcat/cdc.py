"""Generic cartesian differential calculus over pluggable backends.

The backend contract: a backend supplies identity, compose, product, proj,
pairing, zero, add, scale and D: composition, finite products (flattened:
objects form a monoid under product), hom-module structure and a
differential.  Its morphisms are data only: they carry dom, cod and
is_zero, compare with == and print with str, and the backend class is the
one place their structure is implemented.  The backends are PolyBackend
(below), matcat.MatBackend, poly.FinFnBackend (no D: the base the Faa di
Bruno and co-Kleisli constructions are built over) and faa.FaaBackend
over any of them.  Optional: all_maps(dom, cod), every morphism of a
finite hom-set (Mat); multilinear_count and multilinear_maps, the levels
faa.all_families enumerates (Mat, FinFn); and PolyBackend's syntactic
refinements d_second_block_linear and is_linear_syntactic, which
check_axioms and is_k_linear use when a backend has them.

On top of that this module derives partial and iterated derivatives,
the partition-sum decomposition of n-fold D and its inverse, linearity
tests, and an executable check of the seven differential axioms.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import add_into, rig_value
from .combinat import partitions
from .errors import ArityError, InvalidArgument, in_range, nonempty, nonnegative
from .poly import (
    PolyMap,
    Polynomial,
    is_linear_syntactic,
    poly_D,
    substitute,
    _trusted_polymap,
)
from .reports import Report, equation


# ---------------------------------------------------------------------------
# the polynomial backend

class PolyBackend:
    """Objects are arities, morphisms PolyMaps, D the total derivative.
    Its results are built with _trusted_polymap: each component has the
    arity and rig of the result by construction."""

    def __init__(self, rig):
        self.rig = rig
        self._projs = {}  # (objs, i) -> projection; PolyMaps are never mutated

    def identity(self, n):
        return _trusted_polymap(self.rig, n, n,
                               tuple(Polynomial.var(self.rig, n, i) for i in range(n)))

    def compose(self, g, f):
        return substitute(g, f)

    def product(self, objs):
        return sum(objs)

    def proj(self, objs, i):
        key = (tuple(objs), i)
        pi = self._projs.get(key)
        if pi is None:
            objs = key[0]
            in_range(i, len(objs), "projection index")
            total = sum(objs)
            offset = sum(objs[:i])
            pi = self._projs[key] = _trusted_polymap(self.rig, total, objs[i], tuple(
                Polynomial.var(self.rig, total, offset + j) for j in range(objs[i])))
        return pi

    def pairing(self, maps):
        maps = list(maps)
        if not maps:
            nonempty(maps, "a pairing")
        first = maps[0]
        comps = []
        for f in maps:
            if f.dom != first.dom or f.rig != first.rig:
                raise ArityError("pairing needs a common domain and rig")
            comps.extend(f.components)
        return _trusted_polymap(first.rig, first.dom, len(comps), tuple(comps))

    def zero(self, dom, cod):
        return _trusted_polymap(self.rig, dom, cod, (Polynomial.zero(self.rig, dom),) * cod)

    def add(self, f, g):
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ArityError("sum needs equal arities")
        return _trusted_polymap(f.rig, f.dom, f.cod,
                               tuple(a + b for a, b in zip(f.components, g.components)))

    def scale(self, c, f):
        c = rig_value(f.rig, c)
        return _trusted_polymap(f.rig, f.dom, f.cod, tuple(p.scale(c) for p in f.components))

    def D(self, f):
        return poly_D(f)

    # syntactic refinement of axiom (ii): each monomial of Df has total
    # degree exactly 1 in the direction block
    def d_second_block_linear(self, f) -> bool:
        df = poly_D(f)
        n = f.dom
        for p in df.components:
            for e in p.terms:
                if sum(e[n:]) != 1:
                    return False
        return True

    def is_linear_syntactic(self, f) -> bool:
        return is_linear_syntactic(f)


class PolySampler:
    """Seeded random polynomial maps with bounded arity and degree."""

    def __init__(self, rig, seed=0, max_arity=3, max_degree=3, max_terms=4):
        if min(max_arity, max_terms) < 1 or max_degree < 0:
            raise InvalidArgument("sampler needs max_arity, max_terms >= 1, max_degree >= 0")
        self.rig = rig
        self.rng = random.Random(seed)
        self.max_arity = max_arity
        self.max_degree = max_degree
        self.max_terms = max_terms

    def random_object(self):
        return self.rng.randint(1, self.max_arity)

    def random_scalar(self):
        """A random payload of the rig."""
        kind = self.rig.kind
        if kind == "nat":
            return self.rng.randint(0, 4)
        if kind == "int":
            return self.rng.randint(-4, 4)
        if kind == "rat":
            return Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 4))
        return self.rng.randrange(self.rig.modulus)

    def random_poly(self, arity) -> Polynomial:
        terms = {}
        for _ in range(self.rng.randint(1, self.max_terms)):
            budget = self.rng.randint(0, self.max_degree)
            expo = [0] * arity
            for _ in range(budget):
                if arity:
                    expo[self.rng.randrange(arity)] += 1
            add_into(terms, tuple(expo), self.random_scalar())
        return Polynomial(self.rig, arity, terms)

    def random_morphism(self, dom, cod) -> PolyMap:
        return PolyMap(self.rig, dom, cod, [self.random_poly(dom) for _ in range(cod)])


# ---------------------------------------------------------------------------
# derived differential calculus

def partial_derivative(backend, f, blocks, i: int):
    """D_i f: differentiate in block i (1-based) of a product domain.

    Returns a morphism on blocks + [blocks[i-1]], the new last block being
    the direction argument.
    """
    n = len(blocks)
    if not 1 <= i <= n:
        raise ArityError(f"partial index {i} outside 1..{n}")
    ext = list(blocks) + [blocks[i - 1]]
    dom_obj = backend.product(ext)
    first = [backend.proj(ext, j) for j in range(n)]
    second = [
        backend.proj(ext, n) if j == i - 1 else backend.zero(dom_obj, blocks[j])
        for j in range(n)
    ]
    return backend.compose(backend.D(f), backend.pairing(first + second))


def derivative_tower(backend, f, A):
    """f^(0), f^(1), ... with f^(n) = (D_1)^n f : A x A^n -> B, each computed
    from the one before, and only when asked for."""
    blocks = [A]
    while True:
        yield f
        f = partial_derivative(backend, f, blocks, 1)
        blocks.append(A)


def nth_derivative(backend, f, A, n: int):
    """f^(n) = (D_1)^n f : A x A^n -> B, always in the first block."""
    tower = derivative_tower(backend, f, A)
    for _ in range(nonnegative(n, "derivative order")):
        next(tower)
    return next(tower)


def subset_pairing(backend, A, I, n: int):
    """The pairing A x A^n -> A x A^|I| of slot 0, then the slots in I in
    increasing order."""
    blocks = [A] * (n + 1)
    return backend.pairing([backend.proj(blocks, 0)]
                           + [backend.proj(blocks, i) for i in sorted(I)])


def derivative_on_subset(backend, f, A, I, n: int):
    """f^(I): A x A^n -> B, the |I|-th derivative fed slots 0 and I."""
    if any(not 1 <= i <= n for i in I):
        raise ArityError(f"subset {sorted(I)} outside 1..{n}")
    return backend.compose(nth_derivative(backend, f, A, len(I)),
                           subset_pairing(backend, A, I, n))


def iterated_D(backend, f, n: int):
    for _ in range(nonnegative(n, "derivative order")):
        f = backend.D(f)
    return f


def decompose_iterated(backend, f, A, n: int):
    """The partition-sum expansion of D^n f on 2^n copies of A.

    Slots are indexed by subsets of [n] via bitmasks (bit i-1 = element i),
    matching how literal iterated D doubles the argument list.
    """
    blocks = [A] * (1 << nonnegative(n, "derivative order"))
    derivs = list(itertools.islice(derivative_tower(backend, f, A), n + 1))
    total = None
    for part in partitions(n):
        args = [backend.proj(blocks, 0)]
        for block in part.blocks:
            mask = 0
            for i in block:
                mask |= 1 << (i - 1)
            args.append(backend.proj(blocks, mask))
        term = backend.compose(derivs[part.block_count], backend.pairing(args))
        total = term if total is None else backend.add(total, term)
    return total


def reconstruct_from_iterated(backend, Dnf, A, n: int):
    """Recover f^(n) from D^n f: zero out every slot of subset size >= 2."""
    blocks = [A] * (nonnegative(n, "derivative order") + 1)
    dom_obj = backend.product(blocks)
    args = []
    for mask in range(1 << n):
        bits = [i + 1 for i in range(n) if mask >> i & 1]
        if not bits:
            args.append(backend.proj(blocks, 0))
        elif len(bits) == 1:
            args.append(backend.proj(blocks, bits[0]))
        else:
            args.append(backend.zero(dom_obj, A))
    return backend.compose(Dnf, backend.pairing(args))


# ---------------------------------------------------------------------------
# linearity tests

def is_k_linear(backend, f, sampler, samples: int = 20):
    """Sampled additivity/homogeneity of f(-), plus the syntactic test when
    the backend offers one.  Returns (verdict, witness-or-None)."""
    A = f.dom
    for _ in range(samples):
        Z = sampler.random_object()
        g = sampler.random_morphism(Z, A)
        h = sampler.random_morphism(Z, A)
        lhs = backend.compose(f, backend.add(g, h))
        rhs = backend.add(backend.compose(f, g), backend.compose(f, h))
        if lhs != rhs:
            return False, f"additivity fails at g={g}, h={h}"
        c = sampler.random_scalar()
        lhs = backend.compose(f, backend.scale(c, g))
        rhs = backend.scale(c, backend.compose(f, g))
        if lhs != rhs:
            return False, f"homogeneity fails at c={c}, g={g}"
    if hasattr(backend, "is_linear_syntactic") and not backend.is_linear_syntactic(f):
        return False, "a monomial of total degree != 1 survives sampling"
    return True, None


def is_D_linear(backend, f):
    """Exact comparison of Df against f pi1."""
    A = f.dom
    fpi1 = backend.compose(f, backend.proj([A, A], 1))
    df = backend.D(f)
    if df == fpi1:
        return True, None
    return False, f"Df={df} differs from f.pi1={fpi1}"


# ---------------------------------------------------------------------------
# the seven axioms

def check_axioms(backend, sampler, samples: int = 50, suite_name: str = "cdc-axioms",
                 config: dict | None = None) -> Report:
    """Executable differential axioms (i)-(vii) with counterexample capture.

    (iii), (iv), (vi), (vii) are exact identities in a sampled f; (i), (ii),
    (v) additionally sample companion maps/scalars.  Every axiom draws its
    `samples` instances from the one sampler only as they are decided, so a
    failing axiom stops drawing.
    """
    report = Report(suite_name, dict(config or {}, samples=samples))

    def drawn(draw):
        return (draw() for _ in range(samples))

    def rand_f():
        A = sampler.random_object()
        B = sampler.random_object()
        return A, B, sampler.random_morphism(A, B)

    def draw_i():
        A, B, f = rand_f()
        return f, sampler.random_morphism(A, B), sampler.random_scalar()

    def ax_i(item):
        f, g, c = item
        if backend.D(backend.add(f, g)) != backend.add(backend.D(f), backend.D(g)):
            return f"D(f+g) != Df+Dg for f={f}, g={g}"
        if backend.D(backend.scale(c, f)) != backend.scale(c, backend.D(f)):
            return f"D(c f) != c Df for c={c}, f={f}"
        return None

    def ax_ii(item):
        A, _, f = item
        df = backend.D(f)
        blocks3 = [A, A, A]
        p0, p1, p2 = (backend.proj(blocks3, j) for j in range(3))
        lhs = backend.compose(df, backend.pairing([p0, backend.add(p1, p2)]))
        rhs = backend.add(
            backend.compose(df, backend.pairing([p0, p1])),
            backend.compose(df, backend.pairing([p0, p2])),
        )
        if lhs != rhs:
            return f"Df not additive in the direction for f={f}"
        # drawn after the additivity test, so the sampler keeps its order
        c = sampler.random_scalar()
        blocks2 = [A, A]
        q0, q1 = (backend.proj(blocks2, j) for j in range(2))
        lhs = backend.compose(df, backend.pairing([q0, backend.scale(c, q1)]))
        rhs = backend.scale(c, df)
        if lhs != rhs:
            return f"Df not homogeneous in the direction, c={c}, f={f}"
        if hasattr(backend, "d_second_block_linear") and not backend.d_second_block_linear(f):
            return f"direction-block degree != 1 in Df for f={f}"
        return None

    def ax_iii(item):
        A, B = item
        AB = backend.product([A, B])
        pi1 = backend.proj([AB, AB], 1)
        for i in range(2):
            pi = backend.proj([A, B], i)
            if backend.D(pi) != backend.compose(pi, pi1):
                return f"D(proj {i}) != proj.pi1 at objects ({A},{B})"
        return None

    def draw_v():
        A = sampler.random_object()
        B = sampler.random_object()
        C = sampler.random_object()
        f = sampler.random_morphism(A, B)
        return A, f, sampler.random_morphism(B, C)

    # f, DDf, zero and the three projections of A x A x A
    def second_order():
        A, _, f = rand_f()
        blocks3 = [A, A, A]
        z = backend.zero(backend.product(blocks3), A)
        return (f, backend.D(backend.D(f)), z,
                *(backend.proj(blocks3, j) for j in range(3)))

    report.check(drawn(draw_i), ("axiom-i-D-linear-in-f", ax_i))
    report.check(drawn(rand_f), ("axiom-ii-Df-linear-in-direction", ax_ii))
    report.check(drawn(lambda: (sampler.random_object(), sampler.random_object())),
                 ("axiom-iii-D-of-projections", ax_iii))
    report.check(drawn(sampler.random_object), equation(
        "axiom-iv-D-of-identity", lambda A: backend.D(backend.identity(A)),
        lambda A: backend.proj([A, A], 1), "D(id) != pi1 at object {}"))
    report.check(drawn(draw_v), equation(
        "axiom-v-chain-rule", lambda A, f, g: backend.D(backend.compose(g, f)),
        lambda A, f, g: backend.compose(backend.D(g), backend.pairing(
            [backend.compose(f, backend.proj([A, A], 0)), backend.D(f)])),
        "chain rule fails for f={1}, g={2}"))
    report.check(drawn(second_order), equation(
        "axiom-vi-first-order-slice",
        lambda f, ddf, z, x, r, v: backend.compose(ddf, backend.pairing([x, r, z, v])),
        lambda f, ddf, z, x, r, v: backend.compose(backend.D(f), backend.pairing([x, v])),
        "DDf(x,r,0,v) != Df(x,v) for f={0}"))
    report.check(drawn(second_order), equation(
        "axiom-vii-mixed-symmetry",
        lambda f, ddf, z, x, r, s: backend.compose(ddf, backend.pairing([x, r, s, z])),
        lambda f, ddf, z, x, r, s: backend.compose(ddf, backend.pairing([x, s, r, z])),
        "DDf(x,r,s,0) != DDf(x,s,r,0) for f={0}"))
    return report
