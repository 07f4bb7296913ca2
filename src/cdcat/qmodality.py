"""The free monoidal differential modality Q on k-modules.

QA is the direct sum, over points x0 of A, of the free symmetric algebra on
A.  Elements are kept in normal form: tails fully expanded over the basis
with coefficients pulled out, points left opaque (the generator bracket is
multilinear in the tail entries but not in the point).  Every structure map
below acts on generators and extends linearly; a law or builder that
needs such a map as a LinearMap gets it from on_generators (or
on_generator_pairs on QA (x) QB), and one applied factorwise after Delta
or chi is a sum_terms.  A map that only renames basis keys (a unitor,
associator or symmetry of (x), a projection, a zero map) is one relabel.

Generators are interned (algebra._generator): a structure map makes each
point it creates canonical once, with algebra._point (a tensored point
x0 (x) y0 with algebra.tensor_point), and every generator it builds on that
point is the one object of its value, so dict probes and comparisons of Q
keys meet identical objects.  monoidal_mult and fusion share one kernel,
_partial_iso_sum, which builds each partial isomorphism's tail directly in
combinat.arrange's order, with no grid of tensored cells.

Memo policy: a LinearMap keeps two tables of values fixed by its own
definition, the image of each basis key (on_basis) and the canonical image
of each generator point that q_map has sent through it.  They are plain
dicts, probed by hand, because a Memo's build would add a closure or a
reference cycle to each of the many short-lived maps.  A structure map
keeps nothing beyond its call (storage's Memos map each distinct generator
once per call), and a suite keeps its Memos of structure-map results for
one call only, so a seam patched between two calls is seen.
"""

from __future__ import annotations

from .algebra import (
    Free,
    Memo,
    ModuleElement,
    Monomial,
    Product,
    QGenerator,
    QSpace,
    RigSpec,
    Tensor,
    _generator,
    _point,
    add_into,
    add_scaled,
    basis_elem,
    basis_keys,
    enum_elements,
    monomial_mul,
    rig_value,
    tensor_point,
    zero_elem,
)
from .combinat import partial_isos, partitions
from .errors import SpaceMismatch, SpecMismatch

# the rig k viewed as the one-dimensional free module
UNIT_SPACE = Free(("1",))


def _same_rig(a: RigSpec, b: RigSpec) -> None:
    # coefficients are raw payloads, so no scalar product checks the rigs
    if a is not b and a != b:
        raise SpecMismatch(f"{a} vs {b}")


def _inner(space):
    """A for a space QA, refusing any other: a structure map checks its
    argument's space once per call, not per term."""
    if not isinstance(space, QSpace):
        raise SpaceMismatch(f"{space} is not a Q space")
    return space.inner


def _binary(space) -> tuple:
    """The two factors of a binary tensor."""
    if not isinstance(space, Tensor) or len(space.factors) != 2:
        raise SpaceMismatch(f"{space} is not a binary tensor")
    return space.factors


# ---------------------------------------------------------------------------
# linear maps between spaces, given on basis keys

class LinearMap:
    """A k-linear map determined by its values on basis keys.  It keeps the
    image of each basis key it has mapped and the canonical image of each
    generator point q_map has sent through it: both are fixed by the map's
    own definition."""

    def __init__(self, rig: RigSpec, domain, codomain, on_basis):
        self.rig = rig
        self.domain = domain
        self.codomain = codomain
        self._on_basis = on_basis
        self._memo = {}
        self._points = {}

    def on_basis(self, key) -> ModuleElement:
        image = self._memo.get(key)
        if image is None:
            image = self._on_basis(key)
            # a tuple comparison tries identity before __eq__
            if (image.space, image.rig) != (self.codomain, self.rig):
                raise SpaceMismatch(
                    f"{image.space}/{image.rig} vs {self.codomain}/{self.rig}")
            self._memo[key] = image
        return image

    def _point_image(self, point: ModuleElement) -> ModuleElement:
        """The canonical image of a generator point, computed once per map."""
        image = self._points.get(point)
        if image is None:
            image = self._points[point] = _point(self.apply(point))
        return image

    def apply(self, elem: ModuleElement) -> ModuleElement:
        if elem.space is not self.domain and elem.space != self.domain:
            raise SpaceMismatch(f"{elem.space} vs {self.domain}")
        _same_rig(elem.rig, self.rig)
        out = {}
        for k, c in elem.coeffs.items():
            add_scaled(out, c, self.on_basis(k))
        return ModuleElement(self.rig, self.codomain, out)


def relabel(rig, domain, codomain, fn) -> LinearMap:
    """The map sending basis key k to the basis element fn(k) of codomain,
    or to zero where fn(k) is None."""
    def on_basis(key):
        image = fn(key)
        return zero_elem(rig, codomain) if image is None else basis_elem(rig, codomain, image)

    return LinearMap(rig, domain, codomain, on_basis)


def tensor_map(f: LinearMap, g: LinearMap) -> LinearMap:
    """f (x) g: A (x) B -> C (x) D on pair keys.  The rigs are checked
    once, here, and every image is built in the one codomain space."""
    _same_rig(f.rig, g.rig)
    rig, cod = f.rig, Tensor((f.codomain, g.codomain))

    def on_basis(key):
        y = g.on_basis(key[1]).coeffs
        return ModuleElement(rig, cod, {(kx, ky): a * b
                                        for kx, a in f.on_basis(key[0]).coeffs.items()
                                        for ky, b in y.items()})

    return LinearMap(rig, Tensor((f.domain, g.domain)), cod, on_basis)


def inject_elem(elem: ModuleElement, prod: Product, slot: int) -> ModuleElement:
    """Place an element of the slot-th factor into the product."""
    if prod.factors[slot] != elem.space:
        raise SpaceMismatch(f"{elem.space} is not factor {slot} of {prod}")
    return ModuleElement(elem.rig, prod, {(slot, k): v for k, v in elem.coeffs.items()})


# ---------------------------------------------------------------------------
# generators and injection

def q_gen_elem(rig: RigSpec, gen: QGenerator) -> ModuleElement:
    return ModuleElement(rig, QSpace(gen.point.space), {gen: rig.one})


def _make_tail(keys) -> Monomial:
    return Monomial.of(keys)


def _inject_into(out: dict, c, point: ModuleElement, tails, head=()) -> None:
    """out += c * <point; head, tails>: `head` holds single tail keys and
    each of `tails` is a coefficient dict on the point's basis.  A structure
    map adds every term of its result into one dict and builds one
    ModuleElement at the end: wrapping each <point; tails> on its own would
    filter and copy terms that are only added into `out` again."""
    choices = {head: c}
    for t in tails:
        choices = {keys + (k,): d * v
                   for keys, d in choices.items() for k, v in t.items()}
    for keys, d in choices.items():
        add_into(out, _generator(point, _make_tail(keys)), d)


def q_inject(point: ModuleElement, tails) -> ModuleElement:
    """Normal-form generator sum <point; tails>, multilinear in the tails."""
    rig = point.rig
    point = _point(point)
    tails = list(tails)
    for t in tails:
        if (t.space, t.rig) != (point.space, rig):
            raise SpaceMismatch("tail entry not in the point's space")
    out = {}
    _inject_into(out, rig.one, point, [t.coeffs for t in tails])
    return ModuleElement(rig, QSpace(point.space), out)


def q_map(f: LinearMap, q: ModuleElement) -> ModuleElement:
    """Functorial action Qf: <x0,...,xn> -> <f(x0),...,f(xn)>."""
    _inner(q.space)
    _same_rig(q.rig, f.rig)
    out = {}
    for gen, c in q.coeffs.items():
        _inject_into(out, c, f._point_image(gen.point),
                     [f.on_basis(k).coeffs for k in gen.tail.keys])
    return ModuleElement(q.rig, QSpace(f.codomain), out)


def on_generators(rig: RigSpec, A, cod, fn) -> LinearMap:
    """The linear map QA -> cod that extends fn, given on generator
    elements <x0; x1..xn> of QA."""
    return LinearMap(rig, QSpace(A), cod, lambda gen: fn(q_gen_elem(rig, gen)))


def on_generator_pairs(rig: RigSpec, A, B, cod, fn) -> LinearMap:
    """The linear map QA (x) QB -> cod that extends fn(p, q), given on
    pairs of generator elements."""
    return LinearMap(
        rig, Tensor((QSpace(A), QSpace(B))), cod,
        lambda key: fn(q_gen_elem(rig, key[0]), q_gen_elem(rig, key[1])),
    )


def sum_terms(t: ModuleElement, space, term) -> ModuleElement:
    """The sum in `space` of c * term(k1, k2) over the terms c * (k1, k2)
    of t, an element of a binary tensor such as Delta q or chi(q)."""
    _binary(t.space)
    out = {}
    for (k1, k2), c in t.coeffs.items():
        add_scaled(out, c, term(k1, k2))
    return ModuleElement(t.rig, space, out)


def q_functor(f: LinearMap) -> LinearMap:
    """Q applied to a linear map, itself as a linear map QA -> QB."""
    return on_generators(f.rig, f.domain, QSpace(f.codomain), lambda q: q_map(f, q))


# ---------------------------------------------------------------------------
# comonad structure

def counit(q: ModuleElement) -> ModuleElement:
    """epsilon: <x0> -> x0, <x0,x1> -> x1, 0 in degrees >= 2."""
    A = _inner(q.space)
    out = {}
    for gen, c in q.coeffs.items():
        if gen.degree == 0:
            add_scaled(out, c, gen.point)
        elif gen.degree == 1:
            add_into(out, gen.tail.keys[0], c)
    return ModuleElement(q.rig, A, out)


def comult(q: ModuleElement) -> ModuleElement:
    """delta: partition sum <<x0>, <x_{A1}>, ..., <x_{Ak}>> in QQA."""
    rig = q.rig
    A = _inner(q.space)
    out = {}
    for gen, c in q.coeffs.items():
        inner = _generator(gen.point, _make_tail(()))
        point_outer = _point(basis_elem(rig, QSpace(A), inner))
        keys = gen.tail.keys
        for part in partitions(gen.degree):
            tail_gens = [
                _generator(gen.point, _make_tail(tuple(keys[i - 1] for i in block)))
                for block in part.blocks
            ]
            add_into(out, _generator(point_outer, _make_tail(tail_gens)), c)
    return ModuleElement(rig, QSpace(QSpace(A)), out)


# ---------------------------------------------------------------------------
# comonoid structure

def comonoid_counit(q: ModuleElement):
    """e: QA -> k, keeping only degree-0 coefficients; returns a payload."""
    _inner(q.space)
    total = sum(c for gen, c in q.coeffs.items() if gen.degree == 0)
    return rig_value(q.rig, total)


def comonoid_comult(q: ModuleElement) -> ModuleElement:
    """Delta: subset sum of <x_I> (x) <x_{[n] minus I}> in QA (x) QA."""
    QA = q.space
    _inner(QA)
    out = {}
    for gen, c in q.coeffs.items():
        keys = gen.tail.keys
        n = gen.degree
        for mask in range(1 << n):
            left = _generator(gen.point, _make_tail(tuple(keys[i] for i in range(n) if mask >> i & 1)))
            right = _generator(gen.point, _make_tail(tuple(keys[i] for i in range(n) if not mask >> i & 1)))
            add_into(out, (left, right), c)
    return ModuleElement(q.rig, Tensor((QA, QA)), out)


# ---------------------------------------------------------------------------
# monoidal structure

def monoidal_unit(rig: RigSpec) -> ModuleElement:
    """m_I: k -> Qk, 1 -> <1>."""
    one = basis_elem(rig, UNIT_SPACE, "1")
    return q_inject(one, [])


def _partial_iso_sum(out: dict, c, point, x0: dict, xs, y0: dict, ys) -> None:
    """out += c * the sum over partial isomorphisms theta: [m] =~ [n] of
    <point; tail_theta>, for the tails x1..xm and y1..yn of single keys and
    the points x0 and y0 as coefficient dicts.  tail_theta reads the grid
    x_i (x) y_j in combinat.arrange's order, without building the grid: the
    matched keys (x_i, y_theta(i)) by increasing i, then x_i (x) y0 for each
    free row, then x0 (x) y_j for each free column."""
    rows = [{(x, k): v for k, v in y0.items()} for x in xs]
    cols = [{(k, y): v for k, v in x0.items()} for y in ys]
    for theta in partial_isos(len(xs), len(ys)):
        free_rows, free_cols = theta.free_rows, theta.free_cols
        if free_rows and not y0 or free_cols and not x0:
            continue  # a free row or column tensors with a zero point
        _inject_into(out, c, point,
                     [rows[i - 1] for i in free_rows] + [cols[j - 1] for j in free_cols],
                     tuple([(xs[i - 1], ys[j - 1]) for i, j in theta.pairs]))


def monoidal_mult(p: ModuleElement, q: ModuleElement) -> ModuleElement:
    """m_tensor: <x0; x1..xm> (x) <y0; y1..yn> -> the partial-isomorphism
    sum of <x0 (x) y0; tail_theta> (see _partial_iso_sum)."""
    rig = p.rig
    _same_rig(q.rig, rig)
    A = _inner(p.space)
    B = _inner(q.space)
    out = {}
    for g, cg in p.coeffs.items():
        x0, xs = g.point, g.tail.keys
        for h, ch in q.coeffs.items():
            _partial_iso_sum(out, cg * ch, tensor_point(x0, h.point), x0.coeffs, xs,
                             h.point.coeffs, h.tail.keys)
    return ModuleElement(rig, QSpace(Tensor((A, B))), out)


# ---------------------------------------------------------------------------
# deriving transformation and fusion

def deriving(q: ModuleElement, y: ModuleElement) -> ModuleElement:
    """d: QA (x) A -> QA, appending y to the tail."""
    rig = q.rig
    if y.space != _inner(q.space):
        raise SpaceMismatch(f"{y.space} vs {q.space.inner}")
    _same_rig(y.rig, rig)
    out = {}
    for gen, c in q.coeffs.items():
        for k, v in y.coeffs.items():
            new = _generator(gen.point, monomial_mul(gen.tail, _make_tail((k,))))
            add_into(out, new, c * v)
    return ModuleElement(rig, q.space, out)


def fusion(p: ModuleElement, q: ModuleElement) -> ModuleElement:
    """H: QA (x) QB -> Q(A (x) QB), the partition/partial-iso double sum."""
    rig = p.rig
    _same_rig(q.rig, rig)
    one = rig.one
    A = _inner(p.space)
    B = _inner(q.space)
    out = {}
    for g, cg in p.coeffs.items():
        x0, xs = g.point, g.tail.keys
        for h, ch in q.coeffs.items():
            keys = h.tail.keys
            c = cg * ch
            # block 0 is empty: <y_{A_0}> = <y0>
            y0 = _generator(h.point, _make_tail(()))
            point = tensor_point(x0, _point(q_gen_elem(rig, y0)))
            for part in partitions(h.degree):
                ys = [_generator(h.point, _make_tail(tuple(keys[i - 1] for i in block)))
                      for block in part.blocks]
                _partial_iso_sum(out, c, point, x0.coeffs, xs, {y0: one}, ys)
    return ModuleElement(rig, QSpace(Tensor((A, QSpace(B)))), out)


# ---------------------------------------------------------------------------
# storage isomorphism

def storage(q: ModuleElement) -> ModuleElement:
    """chi: Q(A x B) -> QA (x) QB, computed as (Q pi0 (x) Q pi1) after Delta."""
    rig = q.rig
    prod = _inner(q.space)
    if not isinstance(prod, Product) or len(prod.factors) != 2:
        raise SpaceMismatch("storage expects Q of a binary product")
    left = relabel(rig, prod, prod.factors[0], lambda key: key[1] if key[0] == 0 else None)
    right = relabel(rig, prod, prod.factors[1], lambda key: key[1] if key[0] == 1 else None)
    # Q(pi0)<g1> and Q(pi1)<g2> per distinct generator
    lefts = Memo(lambda g1: q_map(left, q_gen_elem(rig, g1)).coeffs)
    rights = Memo(lambda g2: q_map(right, q_gen_elem(rig, g2)).coeffs)
    out = {}
    for (g1, g2), c in comonoid_comult(q).coeffs.items():
        xs, ys = lefts[g1], rights[g2]
        for ka, va in xs.items():
            cv = c * va
            for kb, vb in ys.items():
                add_into(out, (ka, kb), cv * vb)
    return ModuleElement(rig, Tensor(tuple(QSpace(A) for A in prod.factors)), out)


def storage_inv(t: ModuleElement) -> ModuleElement:
    """chi^{-1}: <x0..xp> (x) <y0..yq> -> <(x0,y0),(x1,0),..,(0,yq)>."""
    rig = t.rig
    prod = Product(tuple(map(_inner, _binary(t.space))))
    out = {}
    for (g1, g2), v in t.coeffs.items():
        point = _point(inject_elem(g1.point, prod, 0) + inject_elem(g2.point, prod, 1))
        tail = tuple((0, k) for k in g1.tail.keys) + tuple((1, k) for k in g2.tail.keys)
        add_into(out, _generator(point, _make_tail(tail)), v)
    return ModuleElement(rig, QSpace(prod), out)


# ---------------------------------------------------------------------------
# bialgebra and codereliction

def bialg_unit(rig: RigSpec, space) -> ModuleElement:
    """u: k -> QA as the composite Q0 after m_I; evaluates to <0_A>.

    Note: one display in the source text reads the unit as 1 -> <0, 1>, but
    the defining composite (Q of the zero map after the monoidal unit) gives
    <0_A>, and only <0_A> satisfies the bialgebra unit law with the stated
    multiplication; we follow the composite.
    """
    return q_map(relabel(rig, UNIT_SPACE, space, lambda k: None), monoidal_unit(rig))


def bialg_mult(p: ModuleElement, q: ModuleElement) -> ModuleElement:
    """nabla: QA (x) QA -> QA, adding points and concatenating tails."""
    rig = p.rig
    if p.space != q.space:
        raise SpaceMismatch(f"{p.space} vs {q.space}")
    _inner(p.space)
    _same_rig(q.rig, rig)
    out = {}
    for g, cg in p.coeffs.items():
        for h, ch in q.coeffs.items():
            gen = _generator(_point(g.point + h.point), monomial_mul(g.tail, h.tail))
            add_into(out, gen, cg * ch)
    return ModuleElement(rig, p.space, out)


def codereliction(x: ModuleElement) -> ModuleElement:
    """eta: A -> QA, x -> <0, x>."""
    return q_inject(zero_elem(x.rig, x.space), [x])


# ---------------------------------------------------------------------------
# enumeration helpers for exhaustive checks (finite rigs only)

def enum_generators(rig: RigSpec, space, maxdeg: int):
    """All normal-form generators over a finite module, tail degree <= maxdeg."""
    import itertools

    keys = basis_keys(space)
    out = []
    for point in map(_point, enum_elements(rig, space)):
        for deg in range(maxdeg + 1):
            for combo in itertools.combinations_with_replacement(keys, deg):
                out.append(_generator(point, _make_tail(combo)))
    return out
