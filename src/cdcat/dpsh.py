"""Desk-scale differential presheaves over a finite matrix base.

The base is Mat(Z/m) with the trivial differential, small enough that the
presheaf axioms, the classification of derivative sequences by Q of a
representable, and the full fidelity of the Yoneda embedding are all
decided by exhaustive enumeration.

A finite presheaf has one stage interface: a Free space at each stage and
the LinearMaps of its action and differential between those spaces, which
the tensor and Q presheaves read their factors through (a tensor acts
straight from its factors' maps, keeping no map of its own per f).  Unit
and tensor elements are ModuleElements over the stage spaces, Q's are Q
elements over them, and representables keep the base's maps for Yoneda
and classify; to_elem(A, xi) reads any of them as a ModuleElement over
space(A).  A map reaches its coordinates only through the backend's
hom-set codec (coords, from_coords); no code here reads its entries.

One memo policy holds, through algebra.Memo: an object's Memos hold only
values of its own definition (a presheaf's stage spaces, bases and maps,
Q's spanning sets and differentials), built at first use, and a result on
an element lives only in a Memo of the call that reuses it (check_presheaf's
act, diff, pairing and lift).  Memo keys are the values themselves: MatMaps
and ModuleElements hash by value, each once, and the backend's MatMaps are
interned, so a probe usually meets the same object.  The base keeps
nothing, so a seam patched between two checks is never served an earlier
result; build a fresh presheaf after patching one.
"""

from __future__ import annotations

import itertools
import random

from . import faa
from .algebra import (Free, Memo, ModuleElement, QSpace, Tensor, add_into, add_scaled,
                      basis_keys, zero_elem)
from .errors import (InvalidArgument, InvalidSequence, SpaceMismatch, SpecMismatch,
                     nonnegative)
from .matcat import MatBackend, MatMap
from .qmodality import (LinearMap, enum_generators, on_generators, q_gen_elem,
                        q_inject, q_map, tensor_map)
from .reports import Report, equation


class FiniteCdcBase:
    """Mat(Z/m) restricted to a finite list of objects (dimensions)."""

    def __init__(self, modulus: int, objects=(1, 2)):
        self.backend = MatBackend(modulus)
        self.objects = [nonnegative(A, "object") for A in objects]

    def all_maps(self, dom, cod):
        return list(self.backend.all_maps(dom, cod))


# ---------------------------------------------------------------------------
# presheaf flavours

class FinitePresheaf:
    """A presheaf that is a finite free Z/m-module at each stage A, given by
    dim(A), coords and from_coords, with the stage interface space(A), the
    Free space b1..b_dim(A), its basis, and the memoised LinearMaps
    act_map(f) and diff_map(A).  Elements are ModuleElements over space(A)
    unless a subclass says otherwise; every element compares with == and
    hashes by value, so it is its own key in the memos of check_presheaf."""

    def __init__(self, base: FiniteCdcBase):
        self.base = base
        self.rig = base.backend.rig
        self._spaces = Memo(self._space)
        self._bases = Memo(self._basis)  # A -> {key of space(A): its basis element}
        self._act_maps = Memo(self._act_map)  # f -> LinearMap
        self._diff_maps = Memo(self._diff_map)  # A -> LinearMap

    def space(self, A):
        return self._spaces[A]

    def _space(self, A):
        return Free(tuple(f"b{i + 1}" for i in range(self.dim(A))))

    def act_map(self, f: MatMap) -> LinearMap:
        """The action of f: space(f.cod) -> space(f.dom)."""
        return self._act_maps[f]

    def diff_map(self, A) -> LinearMap:
        """The differential space(A) -> space(2A)."""
        return self._diff_maps[A]

    def _act_map(self, f):
        return self._reading(f.cod, f.dom, self.act, f)

    def _diff_map(self, A):
        return self._reading(A, 2 * A, self.diff, A)

    def _reading(self, A, Z, fn, arg) -> LinearMap:
        """space(A) -> space(Z): fn(arg, b) on the basis element b of a key."""
        basis = self._bases[A]
        return LinearMap(self.rig, self.space(A), self.space(Z),
                         lambda key: self.to_elem(Z, fn(arg, basis[key])))

    def _basis(self, A):
        keys = basis_keys(self.space(A))
        one = self.rig.one  # Z/1 has 1 = 0
        return {key: self.from_coords(A, tuple(one if k == key else 0 for k in keys))
                for key in keys}

    def basis(self, A):
        return list(self._bases[A].values())

    def spanning(self, A):
        """Every element of the stage, in the order of its coordinates."""
        return [self.from_coords(A, vec)
                for vec in itertools.product(self.rig.elements, repeat=self.dim(A))]

    def to_elem(self, A, xi) -> ModuleElement:
        """xi as a ModuleElement over space(A): xi itself, unless a subclass
        keeps elements of another type."""
        return xi

    def coords(self, A, xi):
        return faa.elem_to_vec(xi, self.space(A))

    def from_coords(self, A, vec):
        return faa.vec_to_elem(self.rig, self.space(A), vec)

    def zero(self, A):
        return zero_elem(self.rig, self.space(A))

    def add(self, x, y):
        return x + y

    def scale(self, c, x):
        return x.scale(c)


def _finite(X):
    if not isinstance(X, FinitePresheaf):
        raise InvalidArgument(f"{type(X).__name__} is not a finite presheaf")
    return X


class ReprPresheaf(FinitePresheaf):
    """The representable y(B): components hom(-, B), action by precomposition,
    differential inherited from the base.  Elements are the base's maps,
    with its module operations, read through its hom-set codec."""

    def __init__(self, base: FiniteCdcBase, target: int):
        super().__init__(base)
        self.target = target
        self.name = f"y({target})"

    def dim(self, A):
        return self.target * A

    def coords(self, A, xi: MatMap):
        return self.base.backend.coords(xi)

    def from_coords(self, A, vec) -> MatMap:
        return self.base.backend.from_coords(A, self.target, vec)

    def to_elem(self, A, xi: MatMap) -> ModuleElement:
        return faa.vec_to_elem(self.rig, self.space(A), self.coords(A, xi))

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
        return self.zero(2 * A)


class TensorPresheaf(FinitePresheaf):
    """Pointwise tensor with the product-rule differential.  space(A) is
    X.space(A) (x) Y.space(A), whose basis b_i (x) b_j comes at place
    i * Y.dim(A) + j (counting from 0), and the spanning set is the basis.
    f acts on each term x (x) y straight from the factors' maps, as
    X.act_map(f)(x) (x) Y.act_map(f)(y), so the tensor keeps no map per f;
    the differential is one map per stage."""

    def __init__(self, X, Y):
        super().__init__(_finite(X).base)
        self.X = X
        self.Y = _finite(Y)
        self.name = f"{X.name}(x){Y.name}"

    def dim(self, A):
        return self.X.dim(A) * self.Y.dim(A)

    def _space(self, A):
        return Tensor((self.X.space(A), self.Y.space(A)))

    def spanning(self, A):
        return self.basis(A)

    def _diff_map(self, A):
        # D(x (x) y) = Dx (x) y.pi0 + x.pi0 (x) Dy
        X, Y = self.X, self.Y
        pi0 = self.base.backend.proj([A, A], 0)
        left = tensor_map(X.diff_map(A), Y.act_map(pi0))
        right = tensor_map(X.act_map(pi0), Y.diff_map(A))
        return LinearMap(self.rig, self.space(A), self.space(2 * A),
                         lambda key: left.on_basis(key) + right.on_basis(key))

    def act(self, f: MatMap, xi):
        stage = self.space(f.cod)
        if xi.space is not stage and xi.space != stage:
            raise SpaceMismatch(f"{xi.space} vs {stage}")
        if xi.rig is not self.rig and xi.rig != self.rig:
            raise SpecMismatch(f"{xi.rig} vs {self.rig}")
        xs, ys = self.X.act_map(f), self.Y.act_map(f)
        out = {}
        for (kx, ky), c in xi.coeffs.items():
            y = ys.on_basis(ky).coeffs
            for kx2, a in xs.on_basis(kx).coeffs.items():
                ca = c * a
                for ky2, b in y.items():
                    add_into(out, (kx2, ky2), ca * b)
        return ModuleElement(self.rig, self.space(f.dom), out)

    def diff(self, A, xi):
        return self.diff_map(A).apply(xi)


class QPresheaf:
    """Q applied componentwise: elements are QElements over X.space(A),
    read through X's stage maps alone.  f acts by Q(X.act_map(f)); the
    differential shifts every entry by pi0 and appends one base-level
    derivative, one linear map per stage that keeps the image of each
    generator it has mapped.  Q is not finite: `bound` limits only the
    enumerated spanning set (and is echoed in reports), not the
    arithmetic."""

    def __init__(self, X: FinitePresheaf, bound: int = 2):
        self.base = _finite(X).base
        self.X = X
        self.bound = nonnegative(bound, "degree bound")
        self.rig = X.rig
        self.name = f"Q{X.name}"
        self._spannings = Memo(self._spanning)
        self._diff_maps = Memo(self._diff_map)

    def spanning(self, A):
        return self._spannings[A]

    def _spanning(self, A):
        return [q_gen_elem(self.rig, gen)
                for gen in enum_generators(self.rig, self.X.space(A), self.bound)]

    def add(self, x, y):
        return x + y

    def scale(self, c, x):
        return x.scale(c)

    def act(self, f: MatMap, q):
        return q_map(self.X.act_map(f), q)

    def diff(self, A, q):
        return self._diff_maps[A].apply(q)

    def _diff_map(self, A) -> LinearMap:
        X = self.X
        pi0 = self.base.backend.proj([A, A], 0)
        act0, dmap = X.act_map(pi0), X.diff_map(A)
        cod = QSpace(X.space(2 * A))

        def on_generator(q):
            out = {}
            for gen, c in q.coeffs.items():
                keys = gen.tail.keys
                point, shifted = act0.apply(gen.point), [act0.on_basis(k) for k in keys]
                add_scaled(out, c, q_inject(point, shifted + [dmap.apply(gen.point)]))
                for i, k in enumerate(keys):
                    tails = shifted[:i] + [dmap.on_basis(k)] + shifted[i + 1:]
                    add_scaled(out, c, q_inject(point, tails))
            return ModuleElement(self.rig, cod, out)

        return on_generators(self.rig, X.space(A), cod, on_generator)


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
    if map_budget is not None:
        nonnegative(map_budget, "map budget")
    base = X.base
    be = base.backend
    objects = list(base.objects)
    rng = random.Random(seed)
    bound = getattr(X, "bound", None)
    config = {"presheaf": X.name, "objects": objects, "modulus": be.rig.modulus}
    if bound is not None:
        config["degree_bound"] = bound
    report = Report("presheaf-axioms", config)
    scalars = be.rig.elements
    # memos of this call, so that no result outlives a seam patched between
    # two checks; maps and elements are their own keys
    act = Memo(lambda key: X.act(*key))
    diff = Memo(lambda key: X.diff(*key))
    # the pairings of axioms (ii), (iv) and (v), shared by every xi
    pair = Memo(be.pairing)

    def tuples_of(maps):
        if map_budget is not None and len(maps) ** 3 > map_budget:
            return _sample_triples(maps, map_budget, rng)
        return list(itertools.product(maps, repeat=3))

    # functoriality
    report.check(((A, xi) for A in objects for xi in X.spanning(A)), equation(
        "action-preserves-identity", lambda A, xi: act[be.identity(A), xi],
        lambda A, xi: xi, "xi.id != xi at A={}"))

    # each composite fg is computed once per (A, B, C); the instance order
    # is (A, B, C, xi, f, g)
    def compositions():
        for A, B in itertools.product(objects, repeat=2):
            fs = base.all_maps(B, A)
            for C in objects:
                gs = base.all_maps(C, B)
                fgs = [[be.compose(f, g) for g in gs] for f in fs]
                for xi in X.spanning(A):
                    for f, row in zip(fs, fgs):
                        xf = act[f, xi]
                        for g, fg in zip(gs, row):
                            yield A, B, C, xi, xf, g, fg

    report.check(compositions(), equation(
        "action-preserves-composition", lambda A, B, C, xi, xf, g, fg: act[g, xf],
        lambda A, B, C, xi, xf, g, fg: act[fg, xi],
        "(xi.f).g != xi.(fg) at A={},B={},C={}"))

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
        if diff[A, X.add(xi, eta)] != X.add(diff[A, xi], diff[A, eta]):
            return f"D not additive at A={A}"
        for c in cs:
            if diff[A, X.scale(c, xi)] != X.scale(c, diff[A, xi]):
                return f"D not homogeneous at A={A}, c={c}"
        return None

    report.check(pairs(), ("axiom-i-D-linear", linear))

    # the derivative axioms act with maps drawn from hom(Z, A) on D xi (and
    # DD xi), computed once per xi; zero is computed once per stage.  An
    # instance is (A, Z, zero, xi, dxi, ddxi) and then the drawn maps
    def derivatives(draw, second=False):
        for A in objects:
            for Z in objects:
                maps = base.all_maps(Z, A)
                zero = be.zero(Z, A)
                for xi in X.spanning(A):
                    dxi = diff[A, xi]
                    ddxi = diff[2 * A, dxi] if second else None
                    for args in draw(maps):
                        yield A, Z, zero, xi, dxi, ddxi, *args

    # (ii) D xi linear in the direction argument
    def direction_linear(item):
        n, (A, Z, _, _, dxi, _, x, v, w) = item
        lhs = act[pair[x, be.add(v, w)], dxi]
        rhs = X.add(act[pair[x, v], dxi], act[pair[x, w], dxi])
        if lhs != rhs:
            return f"Dxi not additive in direction, A={A}, Z={Z}"
        c = scalars[n % len(scalars)]
        lhs = act[pair[x, be.scale(c, v)], dxi]
        rhs = X.scale(c, act[pair[x, v], dxi])
        if lhs != rhs:
            return f"Dxi not homogeneous in direction, A={A}"
        return None

    report.check(enumerate(derivatives(tuples_of), 1),
                 ("axiom-ii-direction-linear", direction_linear))

    # (iii) D(xi . f) = D(xi) . (f pi0, Df), the pairing built once per f
    lift = Memo(
        lambda f: be.pairing([be.compose(f, be.proj([f.dom, f.dom], 0)), be.D(f)]))

    report.check(derivatives(lambda maps: ((f,) for f in maps)), equation(
        "axiom-iii-chain-compatibility",
        lambda A, Z, zero, xi, dxi, ddxi, f: diff[Z, act[f, xi]],
        lambda A, Z, zero, xi, dxi, ddxi, f: act[lift[f], dxi],
        "axiom (iii) fails at A={}, Z={}"))

    # (iv)/(v): second-order identities, on one sampled stream
    report.check(
        derivatives(tuples_of, second=True),
        equation("axiom-iv-first-order-slice",
                 lambda A, Z, zero, xi, dxi, ddxi, x, r, s: act[pair[x, r, zero, s], ddxi],
                 lambda A, Z, zero, xi, dxi, ddxi, x, r, s: act[pair[x, s], dxi],
                 "axiom (iv) fails at A={}, Z={}"),
        equation("axiom-v-mixed-symmetry",
                 lambda A, Z, zero, xi, dxi, ddxi, x, r, s: act[pair[x, r, s, zero], ddxi],
                 lambda A, Z, zero, xi, dxi, ddxi, x, r, s: act[pair[x, s, r, zero], ddxi],
                 "axiom (v) fails at A={}, Z={}"))
    return report


# ---------------------------------------------------------------------------
# classification of derivative sequences by Q of a representable

class ClassifiedMap:
    """The linear presheaf map Q(yA) -> X induced by a derivative sequence:
    a generator of maps evaluates by acting the matching sequence entry."""

    def __init__(self, base, X, A, sequence):
        self.X = X
        self.sequence = list(sequence)
        self.yA = ReprPresheaf(base, A)

    def eval(self, Z: int, q: ModuleElement):
        """q is an element of Q(yA)(Z)."""
        return _evaluate(self.X, Z, _generator_maps(self.yA, Z, q), self.sequence)


def _generator_maps(yA, Z, q) -> list:
    """The terms (degree n, coefficient, <point; tail units>: Z -> (n+1)A)
    of q in Q(yA)(Z), read by the one Q decoder faa._table_terms: a cell's
    coordinates are those of the map in y((n+1)A)(Z)."""
    be = yA.base.backend
    return [(n, c, be.from_coords(Z, (n + 1) * yA.target, cell))
            for c, n, cell in faa._table_terms(q, q.space.inner)]


def _evaluate(X, Z, terms, sequence):
    """The sum of c * (sequence[n] . m) over the terms (n, c, m) of a
    decoded generator, at stage Z of X; entries past the end are zero.  A
    term with c = 1 is not scaled, which over Z/2 is every term."""
    one = X.rig.one
    out = X.zero(Z)
    for n, c, m in terms:
        if n < len(sequence):
            image = X.act(m, sequence[n])
            out = X.add(out, image if c == one else X.scale(c, image))
    return out


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
    yA = ReprPresheaf(base, A)
    blocks = [A] * (n + 1)
    pis = [yA.to_elem((n + 1) * A, be.proj(blocks, j)) for j in range(n + 1)]
    return q_inject(pis[0], pis[1:])


# ---------------------------------------------------------------------------
# Faa di Bruno presheaf maps and the Yoneda embedding

def yoneda_map(base: FiniteCdcBase, f: MatMap) -> faa.FaaMap:
    """y(f): the FaaMap y(A) ~> y(B) whose family is the derivative tower
    of f: A -> B.  At a stage Z its n-th component sends g0..gn in hom(Z, A)
    to f^(n) after the pairing of the g's."""
    return faa.coalgebra(base.backend, f)


def differential_test(base: FiniteCdcBase, A: int, B: int, degree_bound: int = 1):
    """A function of a Faa di Bruno map alpha: y(A) ~> y(B) returning why
    alpha(D q) != D(alpha(q)) on a generator q of Q(yA) of degree at most
    `degree_bound`, or None.  Q(yA), each generator's differential and the
    base maps both decode to are built here, once, and shared by every
    alpha the function is called on.  The order of the generators decides
    only how soon a failing alpha stops, never whether it fails."""
    be = base.backend
    yA, yB = ReprPresheaf(base, A), ReprPresheaf(base, B)
    QyA = QPresheaf(yA, degree_bound)
    cases = [(Z, q, _generator_maps(yA, Z, q),
              _generator_maps(yA, 2 * Z, QyA.diff(Z, q)))
             for Z in base.objects for q in QyA.spanning(Z)]
    # the Yoneda element <id_A> in Q(yA)(A) first, the rest in order: there
    # the law reads "level 1 = D(level 0)", which over Mat every alpha off
    # the Yoneda image breaks, so those stop at their first case
    yoneda = q_inject(yA.to_elem(A, be.identity(A)), [])
    cases.sort(key=lambda case: case[:2] != (A, yoneda))

    def problem(alpha) -> str | None:
        family = list(alpha.family)
        for Z, q, terms, dterms in cases:
            lhs = _evaluate(yB, 2 * Z, dterms, family)
            if lhs != be.D(_evaluate(yB, Z, terms, family)):
                gen = next(iter(q.coeffs))
                return f"differential-respect fails at Z={Z}, generator {gen}"
        return None

    return problem


def full_fidelity(base: FiniteCdcBase, A: int, B: int, support_bound: int = 2,
                  degree_bound: int = 1) -> Report:
    """Enumerate every Faa di Bruno presheaf map y(A) ~> y(B) and verify it
    is y(f) for exactly one base morphism f."""
    be = base.backend
    report = Report(
        "full-fidelity",
        {"A": A, "B": B, "modulus": be.rig.modulus,
         "support_bound": support_bound, "degree_bound": degree_bound},
    )
    respects = differential_test(base, A, B, degree_bound)
    survivors = []
    tried = 0
    for alpha in faa.all_families(be, A, B, support_bound):
        tried += 1
        if respects(alpha) is None:
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

