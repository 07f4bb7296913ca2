"""Desk-scale differential presheaves over a finite matrix base.

The base is Mat(Z/m) with the trivial differential, small enough that the
presheaf axioms, the classification of derivative sequences by Q of a
representable, and the full fidelity of the Yoneda embedding are all
decided by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import random

from . import faa
from .algebra import Free, ModuleElement, QSpace, add_scaled, basis_elem
from .errors import InvalidSequence
from .matcat import MatBackend, MatMap, trusted_matmap
from .qmodality import LinearMap, enum_generators, q_gen_elem, q_inject, q_map
from .reports import Report


class FiniteCdcBase:
    """Mat(Z/m) restricted to a finite list of objects (dimensions)."""

    def __init__(self, modulus: int, objects=(1, 2)):
        self.backend = MatBackend(modulus)
        self.modulus = modulus
        self.objects = list(objects)
        self._q_representables = {}
        self._generator_pairings = {}  # (A, Z, QGenerator) -> MatMap

    def all_maps(self, dom, cod):
        return list(self.backend.all_maps(dom, cod))

    def q_representable(self, A: int, bound: int) -> "QPresheaf":
        """Q(yA) with generator degree bound `bound`, built once per base so
        every check shares its spanning sets and differentials."""
        key = (A, bound)
        if key not in self._q_representables:
            self._q_representables[key] = presheaf_Q(representable(self, A), bound)
        return self._q_representables[key]


# ---------------------------------------------------------------------------
# presheaf flavours

class FinitePresheaf:
    """A presheaf that is a finite free Z/m-module at each stage A, given by
    dim(A), coords and from_coords.  Elements are dicts from basis index to
    nonzero residue unless a subclass says otherwise; every element compares
    with ==.  Each instance memoises the coordinates of its basis images
    under the action and the differential, which the tensor and Q
    presheaves read their factors through."""

    def __init__(self, base: FiniteCdcBase):
        self.base = base
        self._images = {}  # (f.dom, f.cod, f.rows, k) or (A, k) -> coords

    def _unit(self, A, k):
        one = 1 % self.base.modulus  # Z/1 has 1 = 0
        return self.from_coords(A, tuple(one if i == k else 0
                                         for i in range(self.dim(A))))

    def basis(self, A):
        return [self._unit(A, k) for k in range(self.dim(A))]

    def spanning(self, A):
        """Every element of the stage, in the order of its coordinates."""
        scalars = range(self.base.modulus)
        return [self.from_coords(A, vec)
                for vec in itertools.product(scalars, repeat=self.dim(A))]

    def act_image(self, f: MatMap, k):
        """coords(act(f, b)) for the k-th basis element b at stage f.cod."""
        key = (f.dom, f.cod, f.rows, k)
        if key not in self._images:
            self._images[key] = self.coords(f.dom, self.act(f, self._unit(f.cod, k)))
        return self._images[key]

    def diff_image(self, A, k):
        """coords(diff(A, b)) for the k-th basis element b at stage A."""
        key = (A, k)
        if key not in self._images:
            self._images[key] = self.coords(2 * A, self.diff(A, self._unit(A, k)))
        return self._images[key]

    def coords(self, A, xi):
        return tuple(xi.get(k, 0) for k in range(self.dim(A)))

    def from_coords(self, A, vec):
        return {k: v for k, v in enumerate(vec) if v}

    def zero(self, A):
        return {}

    def add(self, x, y):
        m = self.base.modulus
        out = dict(x)
        for k, v in y.items():
            out[k] = (out.get(k, 0) + v) % m
        return {k: v for k, v in out.items() if v}

    def scale(self, c, x):
        m = self.base.modulus
        return {k: c * v % m for k, v in x.items() if c * v % m}


class ReprPresheaf(FinitePresheaf):
    """The representable y(B): components hom(-, B), action by precomposition,
    differential inherited from the base.  Elements are MatMaps, with the
    base's module operations; coordinates read the rows in order."""

    def __init__(self, base: FiniteCdcBase, target: int):
        super().__init__(base)
        self.target = target
        self.name = f"y({target})"

    def dim(self, A):
        return self.target * A

    def coords(self, A, xi: MatMap):
        return sum(xi.rows, ())

    def from_coords(self, A, vec) -> MatMap:
        rows = tuple(tuple(vec[i * A:(i + 1) * A]) for i in range(self.target))
        return trusted_matmap(self.base.backend.rig, A, self.target, rows)

    def zero(self, A):
        return self.base.backend.zero(A, self.target)

    def add(self, x, y):
        return self.base.backend.add(x, y)

    def scale(self, c, x):
        return self.base.backend.scale(c, x)

    def act(self, f: MatMap, xi: MatMap) -> MatMap:
        return self.base.backend.compose(xi, f)

    def diff(self, A, xi: MatMap) -> MatMap:
        return self.base.backend.D(xi)


class UnitPresheaf(FinitePresheaf):
    """Constant at k with the everywhere-zero differential."""

    name = "unit"

    def dim(self, A):
        return 1

    def act(self, f, xi):
        return xi

    def diff(self, A, xi):
        return {}


class TensorPresheaf(FinitePresheaf):
    """Pointwise tensor with the product-rule differential.  Basis index
    i * Y.dim(A) + j names b_i (x) b_j; the spanning set is the basis."""

    def __init__(self, X, Y):
        super().__init__(X.base)
        self.X = X
        self.Y = Y
        self.name = f"{X.name}(x){Y.name}"

    def dim(self, A):
        return self.X.dim(A) * self.Y.dim(A)

    def spanning(self, A):
        return self.basis(A)

    def act(self, f: MatMap, xi):
        X, Y = self.X, self.Y
        return self._expand(xi, f.cod, f.dom,
                            lambda i, j: [(X.act_image(f, i), Y.act_image(f, j))])

    def diff(self, A, xi):
        X, Y = self.X, self.Y
        pi0 = self.base.backend.proj([A, A], 0)
        return self._expand(xi, A, 2 * A, lambda i, j: [
            (X.diff_image(A, i), Y.act_image(pi0, j)),
            (X.act_image(pi0, i), Y.diff_image(A, j)),
        ])

    def _expand(self, xi, A, Z, images):
        """The stage-Z element sum c * (x (x) y) over the terms c * b_(i,j)
        of xi (at stage A) and the coordinate pairs (x, y) in images(i, j)."""
        m, height, width = self.base.modulus, self.Y.dim(A), self.Y.dim(Z)
        acc = {}
        for k, c in xi.items():
            for xv, yv in images(*divmod(k, height)):
                for i, a in enumerate(xv):
                    if a:
                        for j, b in enumerate(yv):
                            if b:
                                key = i * width + j
                                acc[key] = (acc.get(key, 0) + c * a * b) % m
        return {k: v for k, v in acc.items() if v}


class QPresheaf:
    """Q applied componentwise: elements are QElements over the component
    basis of a finite presheaf X, which Q reads through X's memo of basis
    images; the differential shifts every entry by pi0 and appends one
    base-level derivative.  Q is not finite: `bound` limits only the
    enumerated spanning set (and is echoed in reports), not the arithmetic."""

    def __init__(self, X: FinitePresheaf, bound: int = 2):
        self.base = X.base
        self.X = X
        self.bound = bound
        self.rig = X.base.backend.rig
        self.name = f"Q{X.name}"
        self._spaces = {}
        self._spannings = {}
        self._act_maps = {}
        self._diff_maps = {}
        self._act_results = {}
        self._diff_results = {}

    def _space(self, A) -> Free:
        if A not in self._spaces:
            self._spaces[A] = Free(tuple(f"b{i + 1}" for i in range(self.X.dim(A))))
        return self._spaces[A]

    def _to_elem(self, A, xi) -> ModuleElement:
        return faa.vec_to_elem(self.rig, self._space(A), self.X.coords(A, xi))

    def _linear(self, A, Z, image) -> LinearMap:
        """Linear map between component spaces from the coordinates image(k)
        of the k-th basis element's image."""
        src, dst = self._space(A), self._space(Z)
        index = {key: k for k, key in enumerate(src.basis)}
        return LinearMap(
            self.rig, src, dst,
            lambda key: faa.vec_to_elem(self.rig, dst, image(index[key])),
        )

    def spanning(self, A):
        if A not in self._spannings:
            self._spannings[A] = [
                q_gen_elem(self.rig, gen)
                for gen in enum_generators(self.rig, self._space(A), self.bound)
            ]
        return self._spannings[A]

    def add(self, x, y):
        return x + y

    def scale(self, c, x):
        return x.scale(c)

    def act(self, f: MatMap, q):
        key = (f.dom, f.cod, f.rows)
        memo_key = (key, q)
        out = self._act_results.get(memo_key)
        if out is not None:
            return out
        if key not in self._act_maps:
            self._act_maps[key] = self._linear(
                f.cod, f.dom, lambda k: self.X.act_image(f, k))
        out = self._act_results[memo_key] = q_map(self._act_maps[key], q)
        return out

    def diff(self, A, q):
        memo_key = (A, q)
        result = self._diff_results.get(memo_key)
        if result is not None:
            return result
        AA = 2 * A
        if A not in self._diff_maps:
            pi0 = self.base.backend.proj([A, A], 0)
            self._diff_maps[A] = (
                self._linear(A, AA, lambda k: self.X.act_image(pi0, k)),
                self._linear(A, AA, lambda k: self.X.diff_image(A, k)),
            )
        act0, dmap = self._diff_maps[A]
        src = self._space(A)
        out = {}
        for gen, c in q.coeffs.items():
            entries = [gen.point] + [
                basis_elem(self.rig, src, k) for k in gen.tail.keys
            ]
            shifted = [act0.apply(e) for e in entries]
            for i, e in enumerate(entries):
                if i == 0:
                    tails = shifted[1:] + [dmap.apply(e)]
                else:
                    tails = shifted[1:i] + [dmap.apply(e)] + shifted[i + 1:]
                add_scaled(out, c, q_inject(shifted[0], tails))
        result = ModuleElement(self.rig, QSpace(self._space(AA)), out)
        self._diff_results[memo_key] = result
        return result


def representable(base: FiniteCdcBase, target: int) -> ReprPresheaf:
    return ReprPresheaf(base, target)


def unit_presheaf(base: FiniteCdcBase) -> UnitPresheaf:
    return UnitPresheaf(base)


def presheaf_tensor(X, Y) -> TensorPresheaf:
    return TensorPresheaf(X, Y)


def presheaf_Q(X, bound: int = 2) -> QPresheaf:
    return QPresheaf(X, bound)


# ---------------------------------------------------------------------------
# the presheaf axioms

def _sample_triples(maps, k: int, rng) -> list:
    """rng.sample(list(itertools.product(maps, repeat=3)), k) without the
    list: the same indices are drawn from a range and decoded."""
    n = len(maps)
    return [(maps[i // (n * n)], maps[i // n % n], maps[i % n])
            for i in rng.sample(range(n ** 3), k)]


def check_presheaf(X, map_budget: int | None = None, seed: int = 0) -> Report:
    """Verify functoriality and the five differential-presheaf axioms.

    Exhaustive over the base's objects and hom-sets; `map_budget` caps the
    number of (x, r, s, v) tuples per element for the two second-order
    axioms (None = exhaustive).
    """
    base = X.base
    be = base.backend
    objects = list(base.objects)
    rng = random.Random(seed)
    bound = getattr(X, "bound", None)
    config = {"presheaf": X.name, "objects": objects, "modulus": base.modulus}
    if bound is not None:
        config["degree_bound"] = bound
    report = Report("presheaf-axioms", config)
    scalars = list(range(base.modulus))
    # Memos that live for this call only, so that a result never outlives a
    # seam patched between two checks.  y(B) acts by composing in the base,
    # and each (f, xi) is composed once; the other presheaves memoise their
    # basis images themselves.  The composites are keyed on the maps'
    # fields: MatMap's dataclass __hash__ and __eq__ run in Python and cost
    # more than many of the compositions they would save.
    composites = {}

    def composed(f, xi):
        key = f.dom, f.cod, f.rows, xi.dom, xi.cod, xi.rows
        out = composites.get(key)
        if out is None:
            out = composites[key] = X.act(f, xi)
        return out

    act = composed if isinstance(X, ReprPresheaf) else X.act
    pairings = {}  # the pairings of axioms (ii), (iv) and (v), for every xi

    def pair(*maps):
        out = pairings.get(maps)
        if out is None:
            out = pairings[maps] = be.pairing(maps)
        return out

    def tuples_of(maps):
        if map_budget is not None and len(maps) ** 3 > map_budget:
            return _sample_triples(maps, map_budget, rng)
        return list(itertools.product(maps, repeat=3))

    # functoriality
    report.check(((A, xi) for A in objects for xi in X.spanning(A)), (
        "action-preserves-identity",
        lambda item: None if act(be.identity(item[0]), item[1]) == item[1]
        else f"xi.id != xi at A={item[0]}"))

    # each composite fg is computed once per (A, B, C) and each xi.f once
    # per (A, B), shared by every C; the instance order is (A, B, C, xi, f, g)
    def compositions():
        for A, B in itertools.product(objects, repeat=2):
            fs = base.all_maps(B, A)
            acted = {}  # (index of xi, index of f) -> xi.f
            for C in objects:
                gs = base.all_maps(C, B)
                fgs = [[be.compose(f, g) for g in gs] for f in fs]
                for k, xi in enumerate(X.spanning(A)):
                    for i, f in enumerate(fs):
                        if (k, i) not in acted:
                            acted[k, i] = act(f, xi)
                        for g, fg in zip(gs, fgs[i]):
                            yield A, B, C, xi, acted[k, i], g, fg

    def composition(item):
        A, B, C, xi, xf, g, fg = item
        if act(g, xf) != act(fg, xi):
            return f"(xi.f).g != xi.(fg) at A={A},B={B},C={C}"
        return None

    report.check(compositions(), ("action-preserves-composition", composition))

    # (i) D is k-linear; homogeneity rides on the last pair of each xi
    def pairs():
        for A in objects:
            span = X.spanning(A)
            last = len(span) - 1
            for xi in span:
                for i, eta in enumerate(span):
                    yield A, xi, eta, scalars if i == last else ()

    def linear(item):
        A, xi, eta, cs = item
        if X.diff(A, X.add(xi, eta)) != X.add(X.diff(A, xi), X.diff(A, eta)):
            return f"D not additive at A={A}"
        for c in cs:
            if X.diff(A, X.scale(c, xi)) != X.scale(c, X.diff(A, xi)):
                return f"D not homogeneous at A={A}, c={c}"
        return None

    report.check(pairs(), ("axiom-i-D-linear", linear))

    # the derivative axioms act with maps drawn from hom(Z, A) on D xi (and
    # DD xi), computed once per xi; zero is computed once per stage
    def derivatives(draw, second=False):
        for A in objects:
            for Z in objects:
                maps = base.all_maps(Z, A)
                stage = (A, Z, be.zero(Z, A))
                for xi in X.spanning(A):
                    dxi = X.diff(A, xi)
                    ddxi = X.diff(2 * A, dxi) if second else None
                    for args in draw(maps):
                        yield stage, xi, dxi, ddxi, args

    # (ii) D xi linear in the direction argument
    def direction_linear(item):
        n, ((A, Z, _), _, dxi, _, (x, v, w)) = item
        lhs = act(pair(x, be.add(v, w)), dxi)
        rhs = X.add(act(pair(x, v), dxi), act(pair(x, w), dxi))
        if lhs != rhs:
            return f"Dxi not additive in direction, A={A}, Z={Z}"
        c = scalars[n % len(scalars)]
        lhs = act(pair(x, be.scale(c, v)), dxi)
        rhs = X.scale(c, act(pair(x, v), dxi))
        if lhs != rhs:
            return f"Dxi not homogeneous in direction, A={A}"
        return None

    report.check(enumerate(derivatives(tuples_of), 1),
                 ("axiom-ii-direction-linear", direction_linear))

    # (iii) D(xi . f) = D(xi) . (f pi0, Df), the pairing built once per f
    lifts = {}

    def chain(item):
        (A, Z, _), xi, dxi, _, f = item
        if f not in lifts:
            lifts[f] = be.pairing([be.compose(f, be.proj([Z, Z], 0)), be.D(f)])
        lhs = X.diff(Z, act(f, xi))
        rhs = act(lifts[f], dxi)
        if lhs != rhs:
            return f"axiom (iii) fails at A={A}, Z={Z}"
        return None

    report.check(derivatives(iter), ("axiom-iii-chain-compatibility", chain))

    # (iv)/(v): second-order identities, on one sampled stream
    def first_order_slice(item):
        (A, Z, zero), _, dxi, ddxi, (x, r, s) = item
        if act(pair(x, r, zero, s), ddxi) != act(pair(x, s), dxi):
            return f"axiom (iv) fails at A={A}, Z={Z}"
        return None

    def mixed_symmetry(item):
        (A, Z, zero), _, _, ddxi, (x, r, s) = item
        if act(pair(x, r, s, zero), ddxi) != act(pair(x, s, r, zero), ddxi):
            return f"axiom (v) fails at A={A}, Z={Z}"
        return None

    report.check(derivatives(tuples_of, second=True),
                 ("axiom-iv-first-order-slice", first_order_slice),
                 ("axiom-v-mixed-symmetry", mixed_symmetry))
    return report


# ---------------------------------------------------------------------------
# classification of derivative sequences by Q of a representable

class ClassifiedMap:
    """The linear presheaf map Q(yA) -> X induced by a derivative sequence:
    a generator of maps evaluates by acting the matching sequence entry."""

    def __init__(self, base, X, A, sequence):
        self.base = base
        self.X = X
        self.sequence = list(sequence)
        self.yA = representable(base, A)
        self._units = {}

    def eval(self, Z: int, q: ModuleElement):
        """q is an element of Q(yA)(Z): its k-th basis key names the k-th
        matrix unit of yA.basis(Z)."""
        out = self.X.zero(Z)
        for gen, c in q.coeffs.items():
            n = gen.degree
            if n >= len(self.sequence):
                continue  # zero beyond the sequence's support
            val = self.X.act(self._pairing(Z, q.space.inner, gen), self.sequence[n])
            out = self.X.add(out, self.X.scale(c.payload, val))
        return out

    def _pairing(self, Z, space, gen) -> MatMap:
        """<point; tail units> of a generator, built once per base for every
        classified map out of the same A."""
        memo = self.base._generator_pairings
        key = (self.yA.target, Z, gen)
        if key not in memo:
            if Z not in self._units:
                self._units[Z] = dict(zip(space.basis, self.yA.basis(Z)))
            units = self._units[Z]
            mats = [self.yA.from_coords(Z, faa.elem_to_vec(gen.point, space))]
            mats += [units[k] for k in gen.tail.keys]
            memo[key] = self.base.backend.pairing(mats)
        return memo[key]


def classify(base, X, A: int, sequence) -> ClassifiedMap:
    """Lemma-style classification: a symmetric multilinear derivative
    sequence of X at stage A induces a linear presheaf map Q(yA) -> X."""
    problem = faa.validate_family(base.backend, A, sequence, (X.act, X.add, X.scale))
    if problem is not None:
        raise InvalidSequence(problem)
    return ClassifiedMap(base, X, A, sequence)


def canonical_generator(base, A: int, n: int) -> ModuleElement:
    """<pi0, ..., pin> as an element of Q(yA)((n+1)A): evaluating a
    classified map there recovers the n-th sequence entry."""
    be = base.backend
    QyA = presheaf_Q(representable(base, A))
    blocks = [A] * (n + 1)
    pis = [QyA._to_elem((n + 1) * A, be.proj(blocks, j)) for j in range(n + 1)]
    return q_inject(pis[0], pis[1:])


# ---------------------------------------------------------------------------
# Faa di Bruno presheaf maps and the Yoneda embedding

def yoneda_map(base: FiniteCdcBase, f: MatMap) -> faa.FaaMap:
    """y(f): the FaaMap y(A) ~> y(B) whose family is the derivative tower
    of f: A -> B.  At a stage Z its n-th component sends g0..gn in hom(Z, A)
    to f^(n) after the pairing of the g's."""
    return faa.coalgebra(base.backend, f)


def respects_differential(base, alpha: faa.FaaMap, degree_bound: int = 1) -> str | None:
    """Check alpha(D q) = D(alpha(q)) on Q(yA) generators up to a degree."""
    be = base.backend
    QyA = base.q_representable(alpha.dom, degree_bound)
    cm = ClassifiedMap(base, representable(base, alpha.cod), alpha.dom, alpha.family)
    for Z in base.objects:
        for q in QyA.spanning(Z):
            lhs = cm.eval(2 * Z, QyA.diff(Z, q))
            rhs = be.D(cm.eval(Z, q))
            if lhs != rhs:
                gen = next(iter(q.coeffs))
                return f"differential-respect fails at Z={Z}, generator {gen}"
    return None


def full_fidelity(base: FiniteCdcBase, A: int, B: int, support_bound: int = 2,
                  degree_bound: int = 1) -> Report:
    """Enumerate every Faa di Bruno presheaf map y(A) ~> y(B) and verify it
    is y(f) for exactly one base morphism f."""
    be = base.backend
    report = Report(
        "full-fidelity",
        {"A": A, "B": B, "modulus": base.modulus,
         "support_bound": support_bound, "degree_bound": degree_bound},
    )
    survivors = []
    tried = 0
    for alpha in faa.all_families(be, A, B, support_bound):
        tried += 1
        if respects_differential(base, alpha, degree_bound=degree_bound) is None:
            survivors.append(alpha)

    homs = base.all_maps(A, B)
    images = [yoneda_map(base, f) for f in homs]
    image_set = set(images)
    report.add("yoneda-injective", len(image_set) == len(homs), len(homs),
               None if len(image_set) == len(homs) else "two morphisms collide")
    surj = set(survivors) == image_set
    report.add(
        "survivors-equal-yoneda-image", surj, tried,
        None if surj else f"{len(survivors)} survivors vs {len(homs)} morphisms",
    )
    report.add("candidate-count", True, tried)
    return report

