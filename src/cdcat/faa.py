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

from . import qmodality
from .algebra import (
    Free,
    Memo,
    ModuleElement,
    Product,
    QSpace,
    Tensor,
    basis_keys,
    rig_value,
)
from .cdc import derivative_tower, partial_by_precomposition, subset_pairing
from .combinat import partial_isos, partitions, arrange
from .errors import (
    DegreeBoundExceeded,
    InvalidArgument,
    NoFiniteSupport,
    ObjectMismatch,
    SizeLimit,
    SpaceMismatch,
    nonempty,
    nonnegative,
)
from .poly import FinFnBackend, FinModule, _trusted_tablemap, fin_product
from .qmodality import deriving, on_generators, q_gen_elem, q_inject, q_map, sum_terms


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
    (act, add, scale) that validate_family takes."""
    return (lambda h, f: backend.compose(f, h), backend.add, backend.scale)


# Most candidate families all_families yields before it raises SizeLimit.
# Each one costs full_fidelity a differential check of a few milliseconds
# over Mat(Z/2), so the limit is hours of work.
MAX_CANDIDATES = 1 << 22


def all_families(backend, A, B, support: int):
    """Every family (f0..f_support) A ~> B of the backend's multilinear_maps,
    lazily, in product order; the first step raises SizeLimit, before any
    level is built, once their sizes multiply past MAX_CANDIDATES.  A
    backend without levels (Poly, Faa) is refused."""
    if not hasattr(backend, "multilinear_maps"):
        raise InvalidArgument(f"{type(backend).__name__} does not enumerate its maps")
    levels = range(nonnegative(support, "support bound") + 1)
    total = 1
    for n in levels:
        total *= backend.multilinear_count(A, B, n)
        if total > MAX_CANDIDATES:
            raise SizeLimit(f"{total} candidate families exceed the limit")
    for combo in itertools.product(*[backend.multilinear_maps(A, B, n) for n in levels]):
        yield FaaMap(backend, A, B, combo)


def validate_family(backend, A, family, action) -> str | None:
    """Why the first component x_n of a family (base maps, or presheaf
    elements at the stages A x A^n) that is not symmetric and k-linear in
    its last n slots is not, by exact identities, or None.  `action` is the
    (act, add, scale) of the module x_n lives in, act(h, x) reindexing x
    along a base map h: Z -> A x A^n: hom_action for a hom-set, (X.act,
    X.add, X.scale) for a presheaf X.  Elements compare with ==; homogeneity
    is checked at every scalar of a finite rig and a few of an infinite one."""
    act, add, scale = action
    for n, x in enumerate(family):
        blocks = [A] * (n + 1)
        projs = [backend.proj(blocks, j) for j in range(n + 1)]
        # symmetry: adjacent transpositions of the last n slots
        for j in range(1, n):
            swap = backend.pairing(projs[:j] + [projs[j + 1], projs[j]] + projs[j + 2:])
            if act(swap, x) != x:
                return f"component {n} not symmetric in slots {j},{j + 1}"
        # additivity in each of the last n slots, on an extended domain
        ext = [A] * (n + 2)
        eprojs = [backend.proj(ext, j) for j in range(n + 2)]
        one = backend.pairing(eprojs[:n + 1])
        for j in range(1, n + 1):
            both = eprojs[:j] + [backend.add(eprojs[j], eprojs[n + 1])] + eprojs[j + 1:n + 1]
            other = eprojs[:j] + [eprojs[n + 1]] + eprojs[j + 1:n + 1]
            lhs = act(backend.pairing(both), x)
            if lhs != add(act(one, x), act(backend.pairing(other), x)):
                return f"component {n} not additive in slot {j}"
        # homogeneity in each slot
        for j in range(1, n + 1):
            for c in _validation_scalars(backend.rig):
                scaled = backend.pairing(
                    projs[:j] + [backend.scale(c, projs[j])] + projs[j + 1:])
                if act(scaled, x) != scale(c, x):
                    return f"component {n} not homogeneous in slot {j} at {c}"
    return None


def _validation_scalars(rig):
    # raw payloads: every scalar of a finite rig, a few of an infinite one
    if rig.kind == "zmod":
        return rig.elements
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
    # f^(I) per (I, n), shared by the partitions of this call
    on_subset = Memo(lambda key: component_on_subset(f, *key))

    family = []
    for n in range(bound + 1):
        total = None
        for part in _composition_partitions(n):
            k = part.block_count
            if k > ng or any(len(b) > nf for b in part.blocks):
                continue  # the term vanishes by multilinearity
            args = [on_subset[(), n]] + [on_subset[block, n] for block in part.blocks]
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
        if not maps:
            nonempty(maps, "a pairing")
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
        c = rig_value(self.rig, c)
        return FaaMap(self.base, f.dom, f.cod, [self.base.scale(c, x) for x in f.family])

    def D(self, f):
        return faa_D(f)

    def partial(self, f, blocks, i):
        return partial_by_precomposition(self, f, blocks, i)


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
# coordinates of A x A.  A generator <x0; x1..xn> is read at the table cell
# (x0, x1..xn) of component n, by the one decoder _table_terms.
#
# kleisli_D and kleisli_compose are build-then-apply.  Their Q side reads no
# family, so a builder computes it once per table cell and returns a
# function of the families.  What it holds lives as long as its caller keeps
# the function: one call of kleisli_D, or one kleisli_suite.

def fin_space(mod: FinModule) -> Free:
    return Free(tuple(f"e{i + 1}" for i in range(mod.dim)))


def vec_to_elem(rig, space, vec) -> ModuleElement:
    keys = basis_keys(space)
    if len(vec) != len(keys):
        raise SpaceMismatch(f"{len(vec)} coordinates for the {len(keys)} basis keys of {space}")
    return ModuleElement(rig, space, dict(zip(keys, vec)))


def elem_to_vec(elem: ModuleElement, space):
    coeffs = elem.coeffs
    return tuple(coeffs.get(k, 0) for k in basis_keys(space))


def _table_terms(q: ModuleElement, space) -> list:
    """The terms (c, n, cell) of a normal-form Q element over `space`: the
    residue c times the generator read at the table cell `cell` of
    component n."""
    keys = basis_keys(space)
    one = q.rig.one  # Z/1 has 1 = 0
    units = {k: tuple(one if b == k else 0 for b in keys) for k in keys}
    terms = []
    for gen, c in q.coeffs.items():
        cell = elem_to_vec(gen.point, space)
        for key in gen.tail.keys:
            cell += units[key]
        terms.append((c, gen.degree, cell))
    return terms


def _read_terms(family, terms, cod: FinModule):
    """The sum of c * family[n](cell) over the terms, as a vector of cod;
    components beyond the family are zero."""
    acc = [0] * cod.dim
    for c, n, cell in terms:
        if n < len(family):
            for i, v in enumerate(family[n].table[cell]):
                acc[i] += c * v
    m = cod.rig.modulus
    return tuple(v % m for v in acc)


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
        vec = _read_terms(self.family, _table_terms(q, A_space), self.cod)
        return vec_to_elem(rig, fin_space(self.cod), vec)


def kleisli_from_family(backend: FinFnBackend, f: FaaMap) -> KleisliMap:
    return KleisliMap(backend, f.dom, f.cod, f.family)


def composite_support(g: FaaMap, f: FaaMap) -> int:
    """The highest component of g after f that can be nonzero."""
    return max(f.support, 0) * max(g.support, 0)


def _generator_cells(backend, space, top: int):
    """The table cells (x0, x1..xn) of components n = 0..top over the
    coordinates of `space`, and the distinct elements <x0; x1..xn> of Q of
    `space` they name, as (levels, counts, qs): level n lists (cell, i),
    where qs[i] is the cell's element, and levels 0..n name qs[:counts[n]].
    Cells whose tails are permuted, or hold a zero, name one element."""
    rig = backend.rig
    mod = backend.module(len(basis_keys(space)))
    elems = {x: vec_to_elem(rig, space, x) for x in mod.elements()}
    index = {}
    levels, counts = [], []
    for n in range(nonnegative(top, "top degree") + 1):
        levels.append([
            (sum(xs, ()), index.setdefault(
                q_inject(elems[xs[0]], [elems[x] for x in xs[1:]]), len(index)))
            for xs in itertools.product(elems, repeat=n + 1)])
        counts.append(len(index))
    return levels, counts, list(index)


def _tables(dom: FinModule, cod: FinModule, levels, values) -> list:
    """One TableMap dom^(n+1) -> cod per level n, whose cell (x0, x1..xn)
    holds values[i] of its element i."""
    return [_trusted_tablemap(fin_product([dom] * (n + 1)), cod,
                              {cell: values[i] for cell, i in level})
            for n, level in enumerate(levels)]


def build_kleisli_D(backend: FinFnBackend, A: FinModule, top: int):
    """kleisli_D as a function of a family f: A ~> B of support <= top.

    The build reads no family: storage, the counit on the second factor and
    deriving make one linear map Q(A x A) -> QA, which maps each distinct
    generator once; each cell <x0; x1..xn>, n <= top, goes through it and
    the resulting element of QA is decoded once into table terms.  The
    function reads those terms from f's tables, for the levels up to f's
    own support."""
    rig = backend.rig
    A_space = fin_space(A)
    AA = Product((A_space, A_space))
    levels, counts, qs = _generator_cells(backend, AA, top)

    QA = QSpace(A_space)

    def derived(g1, g2):
        return deriving(q_gen_elem(rig, g1), qmodality.counit(q_gen_elem(rig, g2)))

    D_hat = on_generators(rig, AA, QA,
                          lambda q: sum_terms(qmodality.storage(q), QA, derived))
    terms = [_table_terms(D_hat.apply(q), A_space) for q in qs]
    P = fin_product([A, A])

    def apply(f: KleisliMap) -> KleisliMap:
        if f.dom != A:
            raise ObjectMismatch(f"{f.dom} vs {A}")
        support = max(f.support, 0)
        if support > top:
            raise DegreeBoundExceeded(f"support {support} > built top {top}")
        values = [_read_terms(f.family, t, f.cod) for t in terms[:counts[support]]]
        return KleisliMap(backend, P, f.cod, _tables(P, f.cod, levels[:support + 1], values))

    return apply


def build_kleisli_compose(backend: FinFnBackend, A: FinModule, top: int):
    """kleisli_compose as a function of (g, f), for f: A ~> B and g: B ~> C
    whose composite support is <= top.

    The build reads no family: it takes comult of each cell <x0; x1..xn>,
    n <= top, of QA once, through one linear map QA -> QQA that maps each
    distinct generator once.  The function maps each of them through Q of
    f, read as a linear map QA -> B, then reads g on the result, for the
    levels up to the composite's support."""
    rig = backend.rig
    A_space = fin_space(A)
    levels, counts, qs = _generator_cells(backend, A_space, top)
    delta = on_generators(rig, A_space, QSpace(QSpace(A_space)), qmodality.comult)
    comults = [delta.apply(q) for q in qs]

    def apply(g: KleisliMap, f: KleisliMap) -> KleisliMap:
        if g.dom != f.cod or f.dom != A:
            raise ObjectMismatch(f"{g.dom} vs {f.cod}, or {f.dom} vs {A}")
        support = composite_support(g, f)
        if support > top:
            raise DegreeBoundExceeded(f"composite support {support} > built top {top}")
        B_space = fin_space(f.cod)
        f_hat = on_generators(rig, A_space, B_space, f.eval_q)
        values = [_read_terms(g.family, _table_terms(q_map(f_hat, d), B_space), g.cod)
                  for d in comults[:counts[support]]]
        return KleisliMap(backend, A, g.cod, _tables(A, g.cod, levels[:support + 1], values))

    return apply


def kleisli_compose(g: KleisliMap, f: KleisliMap, degree_bound: int = 8) -> KleisliMap:
    """Co-Kleisli composition computed through comult and the Q functor."""
    if g.dom != f.cod:
        raise ObjectMismatch(f"{g.dom} vs {f.cod}")
    top = composite_support(g, f)
    if top > degree_bound:
        raise DegreeBoundExceeded(f"composite support {top} > bound {degree_bound}")
    return build_kleisli_compose(f.backend, f.dom, top)(g, f)


def kleisli_D(f: KleisliMap, degree_bound: int = 8) -> KleisliMap:
    """Co-Kleisli differential: storage, counit on the second factor,
    deriving, then f — computed literally on generators of Q(A x A)."""
    top = max(f.support, 0)
    if top + 1 > degree_bound:
        raise DegreeBoundExceeded(f"needs components up to {top + 1} > bound {degree_bound}")
    return build_kleisli_D(f.backend, f.dom, top)(f)
