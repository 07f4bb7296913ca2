"""The Faa di Bruno construction over a pluggable base category.

Morphisms A ~> B are finite-support families f^(n): A x A^n -> B of base
maps, symmetric and k-linear in the last n slots, composed by the
higher-order chain rule (a sum over unordered set partitions).  The same
families, read as linear maps QA -> B, form the co-Kleisli category of the
Q modality; the kleisli_* operations compute through the Q structure maps
so the two implementations can be compared as independent oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import (
    Free,
    ModuleElement,
    Product,
    QSpace,
    Tensor,
    add_scaled,
    basis_keys,
    rig_value,
)
from .cdc import derivative_tower, subset_pairing
from .combinat import partial_isos, partitions, arrange
from .errors import (
    DegreeBoundExceeded,
    NoFiniteSupport,
    ObjectMismatch,
    SizeLimit,
    SpaceMismatch,
)
from .poly import FinFnBackend, FinModule, TableMap, fin_product
from .qmodality import (
    LinearMap,
    comult,
    counit as q_counit,
    deriving,
    q_gen_elem,
    q_inject,
    q_map,
    storage,
)


# ---------------------------------------------------------------------------
# the morphism type

class FaaMap:
    """Finite-support derivative family between base objects."""

    __slots__ = ("backend", "dom", "cod", "family")

    def __init__(self, backend, dom, cod, family):
        family = list(family)
        while family and family[-1].is_zero:
            family.pop()
        self.backend = backend
        self.dom = dom
        self.cod = cod
        self.family = tuple(family)

    @property
    def support(self) -> int:
        return len(self.family) - 1 if self.family else -1

    @property
    def is_zero(self) -> bool:
        return not self.family

    def component(self, n: int):
        """f^(n), materializing the zero morphism beyond the support."""
        if n < len(self.family):
            return self.family[n]
        dom_obj = self.backend.product([self.dom] * (n + 1))
        return self.backend.zero(dom_obj, self.cod)

    # families are trimmed of trailing zeros, so comparing them is exact
    def __eq__(self, other):
        return (
            isinstance(other, FaaMap)
            and (self.dom, self.cod, self.family) == (other.dom, other.cod, other.family)
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self.family))

    def __str__(self):
        body = ", ".join(map(str, self.family))
        return f"Faa[{body}]"

    __repr__ = __str__


def hom_action(backend):
    """Base maps acting on a hom-set by precomposition, as the
    (act, add, scale) that multilinearity_test takes."""
    return (lambda h, f: backend.compose(f, h), backend.add, backend.scale)


def multilinearity_test(backend, A, n: int, action):
    """A function of x, indexed by A x A^n, returning why x is not symmetric
    and k-linear in its last n slots, or None; checked by exact identities.

    `action` = (act, add, scale) is the structure of the module x lives in,
    where act(h, x) reindexes x along a base map h: Z -> A x A^n; for a
    hom-set see hom_action, for a presheaf X it is (X.act, X.add, X.scale).
    Elements compare with ==.  Homogeneity is checked at every scalar of a
    finite rig and at a few of an infinite one.  The test maps are built
    here, once, and shared by every x the function is called on.
    """
    act, add, scale = action
    blocks = [A] * (n + 1)
    projs = [backend.proj(blocks, j) for j in range(n + 1)]
    # symmetry: adjacent transpositions of the last n slots
    swaps = [(j, backend.pairing(projs[:j] + [projs[j + 1], projs[j]] + projs[j + 2:]))
             for j in range(1, n)]
    # additivity in each of the last n slots, on an extended domain
    ext = [A] * (n + 2)
    eprojs = [backend.proj(ext, j) for j in range(n + 2)]
    one = backend.pairing(eprojs[:n + 1])
    sums = []
    for j in range(1, n + 1):
        both = eprojs[:j] + [backend.add(eprojs[j], eprojs[n + 1])] + eprojs[j + 1:n + 1]
        other = eprojs[:j] + [eprojs[n + 1]] + eprojs[j + 1:n + 1]
        sums.append((j, backend.pairing(both), backend.pairing(other)))
    # homogeneity in each slot
    scalings = [
        (j, c, backend.pairing(projs[:j] + [backend.scale(c, projs[j])] + projs[j + 1:]))
        for j in range(1, n + 1) for c in _validation_scalars(backend.rig)
    ]

    def problem(x) -> str | None:
        for j, swap in swaps:
            if act(swap, x) != x:
                return f"not symmetric in slots {j},{j + 1}"
        for j, both, other in sums:
            if act(both, x) != add(act(one, x), act(other, x)):
                return f"not additive in slot {j}"
        for j, c, scaled in scalings:
            if act(scaled, x) != scale(c, x):
                return f"not homogeneous in slot {j} at {c}"
        return None

    return problem


def multilinear_maps(backend, A, B, n: int) -> list:
    """Every base map A x A^n -> B that is symmetric and k-linear in its
    last n slots, in the backend's all_maps order."""
    problem = multilinearity_test(backend, A, n, hom_action(backend))
    dom = backend.product([A] * (n + 1))
    return [f for f in backend.all_maps(dom, B) if problem(f) is None]


# Most candidate families all_families yields before it raises SizeLimit.
# Each one costs full_fidelity a differential check of a few milliseconds
# over Mat(Z/2), so the limit is hours of work.
MAX_CANDIDATES = 1 << 22


def all_families(backend, A, B, support: int):
    """Every family (f0..f_support) A ~> B of multilinear_maps, lazily, in
    product order; the first step raises SizeLimit past MAX_CANDIDATES."""
    levels = []
    total = 1
    for n in range(support + 1):
        level = multilinear_maps(backend, A, B, n)
        total *= len(level)
        if total > MAX_CANDIDATES:
            raise SizeLimit(f"{total} candidate families exceed the limit")
        levels.append(level)
    for combo in itertools.product(*levels):
        yield FaaMap(backend, A, B, combo)


def validate_family(backend, A, family, action) -> str | None:
    """Why the first component of a family (base maps, or presheaf elements
    at the stages A x A^n) to fail multilinearity_test fails, or None."""
    for n, x in enumerate(family):
        problem = multilinearity_test(backend, A, n, action)(x)
        if problem is not None:
            return f"component {n} {problem}"
    return None


def _validation_scalars(rig):
    # raw payloads: every scalar of a finite rig, a few of an infinite one
    if rig.kind == "zmod":
        return range(rig.modulus)
    if rig.kind == "rat":
        return [2, Fraction(1, 2)]
    return [2] if rig.kind == "nat" else [2, -1]


# ---------------------------------------------------------------------------
# categorical structure

def component_on_subset(f: FaaMap, I, n: int):
    """f^(I): A x A^n -> B = f^(|I|) fed slots 0 and I (in increasing order)."""
    return f.backend.compose(f.component(len(I)), subset_pairing(f.backend, f.dom, I, n))


def faa_compose(g: FaaMap, f: FaaMap) -> FaaMap:
    """Higher-order chain rule: the partition sum for each component."""
    if g.dom != f.cod:
        raise ObjectMismatch(f"{g.dom} vs {f.cod}")
    backend = f.backend
    if g.is_zero:  # every term is a component of g after something
        return FaaMap(backend, f.dom, g.cod, [])
    nf, ng = max(f.support, 0), max(g.support, 0)
    bound = nf * ng
    family = []
    for n in range(bound + 1):
        total = None
        for part in _composition_partitions(n):
            k = part.block_count
            if k > ng or any(len(b) > nf for b in part.blocks):
                continue  # the term vanishes by multilinearity
            args = [component_on_subset(f, (), n)]
            args += [component_on_subset(f, block, n) for block in part.blocks]
            term = backend.compose(g.component(k), backend.pairing(args))
            total = term if total is None else backend.add(total, term)
        if total is None:  # no term survives, as when a partition is dropped
            total = backend.zero(backend.product([f.dom] * (n + 1)), g.cod)
        family.append(total)
    return FaaMap(backend, f.dom, g.cod, family)


def _composition_partitions(n: int):
    # seam kept separate so mutation tests can drop a term
    return partitions(n)


def faa_D(f: FaaMap) -> FaaMap:
    """Differential: (Df)^(n) = f^(n+1)(x, y0) + sum_i f^(n)(x[y_i/x_i])."""
    backend = f.backend
    A = f.dom
    P = backend.product([A, A])
    family = []
    for n in range(max(f.support, 0) + 1):
        blocks = [P] * (n + 1)
        xs = [
            backend.compose(backend.proj([A, A], 0), backend.proj(blocks, i))
            for i in range(n + 1)
        ]
        ys = [
            backend.compose(backend.proj([A, A], 1), backend.proj(blocks, i))
            for i in range(n + 1)
        ]
        total = backend.compose(
            f.component(n + 1), backend.pairing(xs + [ys[0]])
        )
        for term in _substitution_terms(backend, f.component(n), xs, ys):
            total = backend.add(total, term)
        family.append(total)
    return FaaMap(backend, P, f.cod, family)


def _substitution_terms(backend, fn, xs, ys):
    # the i-sum of the differential formula; separate seam for mutation tests
    out = []
    for i in range(1, len(xs)):
        args = xs[:i] + [ys[i]] + xs[i + 1:]
        out.append(backend.compose(fn, backend.pairing(args)))
    return out


def faa_higher(f: FaaMap, m: int, n: int):
    """The (m,n) mixed derivative as a partial-isomorphism sum.

    Returns a base morphism (A x A^m) x (A x A^m)^n -> B whose grid entry
    x_ij is inner slot i of copy j.
    """
    backend = f.backend
    A = f.dom
    inner = [A] * (m + 1)
    P = backend.product(inner)
    blocks = [P] * (n + 1)

    def grid_at(i, j):
        return backend.compose(backend.proj(inner, i), backend.proj(blocks, j))

    grid = {(i, j): grid_at(i, j) for i in range(m + 1) for j in range(n + 1)}
    total = None
    for theta in partial_isos(m, n):
        args = arrange(theta, grid)
        term = backend.compose(f.component(theta.size), backend.pairing(args))
        total = term if total is None else backend.add(total, term)
    return total


def faa_counit(f: FaaMap):
    """The cofreeness counit: the 0th component."""
    return f.component(0)


def coalgebra(backend, f, max_support: int = 16) -> FaaMap:
    """Lift a base CDC morphism to its family of iterated first partials;
    support s needs max_support >= s + 1, to compute f^(s+1) = 0."""
    tower = derivative_tower(backend, f, f.dom)
    family = [next(tower)]
    for _ in range(max_support):
        g = next(tower)
        if g.is_zero:
            return FaaMap(backend, f.dom, f.cod, family)
        family.append(g)
    raise NoFiniteSupport(
        f"derivatives of {f} do not vanish within {max_support} steps"
    )


# ---------------------------------------------------------------------------
# Faa(A) as a CDC backend in its own right

class FaaBackend:
    """The Faa construction over a base backend, as a backend in its own
    right: the one home of its identities, projections, pairings and
    hom-module structure."""

    def __init__(self, base):
        self.base = base
        self.rig = base.rig

    def identity(self, A):
        base = self.base
        return FaaMap(base, A, A, [base.identity(A), base.proj([A, A], 1)])

    def compose(self, g, f):
        return faa_compose(g, f)

    def product(self, objs):
        return self.base.product(objs)

    def proj(self, objs, i):
        base = self.base
        P = base.product(objs)
        pi = base.proj(objs, i)
        return FaaMap(base, P, objs[i], [pi, base.compose(pi, base.proj([P, P], 1))])

    def pairing(self, maps):
        maps = list(maps)
        A = maps[0].dom
        if any(f.dom != A for f in maps):
            raise ObjectMismatch("pairing needs a common domain")
        base = self.base
        top = max(len(f.family) for f in maps)
        cod = base.product([f.cod for f in maps])
        return FaaMap(base, A, cod, [base.pairing([f.component(n) for f in maps])
                                     for n in range(top)])

    def zero(self, dom, cod):
        return FaaMap(self.base, dom, cod, [])

    def add(self, f, g):
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ObjectMismatch("sum needs equal objects")
        top = max(len(f.family), len(g.family))
        return FaaMap(self.base, f.dom, f.cod,
                      [self.base.add(f.component(n), g.component(n)) for n in range(top)])

    def scale(self, c, f):
        return FaaMap(self.base, f.dom, f.cod, [self.base.scale(c, x) for x in f.family])

    def D(self, f):
        return faa_D(f)


class FaaSampler:
    """Random Faa maps obtained by lifting sampled base morphisms."""

    def __init__(self, base_backend, base_sampler):
        self.base_backend = base_backend
        self.base_sampler = base_sampler

    def random_object(self):
        return self.base_sampler.random_object()

    def random_scalar(self):
        return self.base_sampler.random_scalar()

    def random_morphism(self, dom, cod) -> FaaMap:
        return coalgebra(self.base_backend, self.base_sampler.random_morphism(dom, cod))


# ---------------------------------------------------------------------------
# co-Kleisli reading over FinFn: families as linear maps QA -> B
#
# One coordinate system: a vector of residues is read on the basis keys of
# a space in basis_keys order, so Product((A, A)) carries the concatenated
# coordinates of A x A.

def fin_space(mod: FinModule) -> Free:
    return Free(tuple(f"e{i + 1}" for i in range(mod.dim)))


def vec_to_elem(rig, space, vec) -> ModuleElement:
    keys = basis_keys(space)
    if len(vec) != len(keys):
        raise SpaceMismatch(f"{len(vec)} coordinates for the {len(keys)} basis keys of {space}")
    return ModuleElement(rig, space, {k: rig_value(rig, v) for k, v in zip(keys, vec)})


def elem_to_vec(elem: ModuleElement, space):
    coeffs = elem.coeffs
    return tuple(coeffs[k].payload if k in coeffs else 0 for k in basis_keys(space))


class KleisliMap(FaaMap):
    """A family read through the generator dictionary as a map QA -> B."""

    def eval_q(self, q: ModuleElement) -> ModuleElement:
        """Evaluate the linear map QA -> B on a normal-form QElement over a
        space of dimension dim A; generators beyond the support give zero."""
        rig = self.backend.rig
        A_space = q.space.inner if isinstance(q.space, QSpace) else None
        keys = basis_keys(A_space) if isinstance(A_space, (Free, Product, Tensor)) else None
        if keys is None or len(keys) != self.dom.dim or q.rig != rig:
            raise SpaceMismatch(
                f"{q.space}/{q.rig} is not Q of a {self.dom.dim}-dim space over {rig}")
        units = {k: tuple(1 if b == k else 0 for b in keys) for k in keys}
        cod_space = fin_space(self.cod)
        family = self.family
        out = {}
        for gen, c in q.coeffs.items():
            if gen.degree >= len(family):
                continue
            cell = elem_to_vec(gen.point, A_space)
            for key in gen.tail.keys:
                cell += units[key]
            add_scaled(out, c, vec_to_elem(rig, cod_space, family[gen.degree].table[cell]))
        return ModuleElement(rig, cod_space, out)


def kleisli_from_family(backend: FinFnBackend, f: FaaMap) -> KleisliMap:
    return KleisliMap(backend, f.dom, f.cod, f.family)


def kleisli_identity(backend: FinFnBackend, mod: FinModule) -> KleisliMap:
    return kleisli_from_family(backend, FaaBackend(backend).identity(mod))


def _family_from_values(backend, space, cod: FinModule, value_at, top: int):
    """Build TableMap components n = 0..top over the coordinates of `space`:
    the cell at (x0, x1..xn) is value_at(<x0; x1..xn>)."""
    rig = backend.rig
    A = backend.module(len(basis_keys(space)))
    elems = {x: vec_to_elem(rig, space, x) for x in A.elements()}
    cod_space = fin_space(cod)
    family = []
    for n in range(top + 1):
        table = {}
        for xs in itertools.product(elems, repeat=n + 1):
            q = q_inject(elems[xs[0]], [elems[x] for x in xs[1:]])
            table[sum(xs, ())] = elem_to_vec(value_at(q), cod_space)
        family.append(TableMap(fin_product([A] * (n + 1)), cod, table))
    return family


def kleisli_compose(g: KleisliMap, f: KleisliMap, degree_bound: int = 8) -> KleisliMap:
    """Co-Kleisli composition computed through comult and the Q functor."""
    if g.dom != f.cod:
        raise ObjectMismatch(f"{g.dom} vs {f.cod}")
    backend = f.backend
    rig = backend.rig
    nf, ng = max(f.support, 0), max(g.support, 0)
    top = nf * ng
    if top > degree_bound:
        raise DegreeBoundExceeded(f"composite support {top} > bound {degree_bound}")
    A_space = fin_space(f.dom)
    f_hat = LinearMap(rig, QSpace(A_space), fin_space(f.cod),
                      lambda gen: f.eval_q(q_gen_elem(rig, gen)))

    def value_at(q):
        return g.eval_q(q_map(f_hat, comult(q)))

    family = _family_from_values(backend, A_space, g.cod, value_at, top)
    return KleisliMap(backend, f.dom, g.cod, family)


def kleisli_D(f: KleisliMap, degree_bound: int = 8) -> KleisliMap:
    """Co-Kleisli differential: storage, counit on the second factor,
    deriving, then f — computed literally on generators of Q(A x A)."""
    backend = f.backend
    rig = backend.rig
    top = max(f.support, 0)
    if top + 1 > degree_bound:
        raise DegreeBoundExceeded(f"needs components up to {top + 1} > bound {degree_bound}")
    A_space = fin_space(f.dom)

    def value_at(q):
        acc = {}
        for (g1, g2), v in storage(q).coeffs.items():
            y = q_counit(q_gen_elem(rig, g2))
            add_scaled(acc, v, deriving(q_gen_elem(rig, g1), y))
        return f.eval_q(ModuleElement(rig, QSpace(A_space), acc))

    family = _family_from_values(backend, Product((A_space, A_space)), f.cod, value_at, top)
    return KleisliMap(backend, fin_product([f.dom, f.dom]), f.cod, family)
