"""Verification suites, each returning a Report.

Every law here is checked on generators (all the maps involved are linear
over Q arguments) and extended implicitly by linearity.  The suites call
the structure maps through their modules so that a deliberately corrupted
implementation, installed by assignment on the module, is picked up.
"""

from __future__ import annotations

import collections
import itertools
import random

from . import cdc, dpsh, faa, qmodality as qm
from .algebra import (
    Free,
    ModuleElement,
    Product,
    QSpace,
    RigSpec,
    Tensor,
    basis_elem,
    tensor_elem,
    zero_elem,
    zmod,
)
from .errors import InvalidArgument, SizeLimit, nonnegative, positive
from .poly import FinFnBackend, FinModule
from .qmodality import UNIT_SPACE, LinearMap
from .reports import Report, equation


def parse_rig(name: str) -> RigSpec:
    from .algebra import INT, NAT, RAT

    if name == "nat":
        return NAT
    if name == "int":
        return INT
    if name == "rat":
        return RAT
    if name.startswith("zmod:"):
        try:
            modulus = int(name.split(":", 1)[1])
        except ValueError:
            raise InvalidArgument(f"unknown rig {name!r}") from None
        return zmod(modulus)
    raise InvalidArgument(f"unknown rig {name!r}")


# ---------------------------------------------------------------------------
# cdc axioms over Poly

def cdc_suite(rig_name: str = "int", seed: int = 0, samples: int = 200,
              max_degree: int = 3, max_arity: int = 3) -> Report:
    """The CDC axioms over Poly on sampled maps.  samples is at least 1;
    the sampler refuses max_arity below 1 and max_degree below 0."""
    positive(samples, "samples")
    rig = parse_rig(rig_name)
    backend = cdc.PolyBackend(rig)
    sampler = cdc.PolySampler(rig, seed=seed, max_arity=max_arity,
                              max_degree=max_degree)
    return cdc.check_axioms(
        backend, sampler, samples=samples,
        suite_name=f"cdc-axioms[{rig_name}]",
        config={"rig": rig_name, "seed": seed, "samples": samples,
                "max_degree": max_degree, "max_arity": max_arity},
    )


# ---------------------------------------------------------------------------
# modality invariants, exhaustive on generators over a finite rig

def _gen_elems(rig, space, maxdeg):
    return [qm.q_gen_elem(rig, g) for g in qm.enum_generators(rig, space, maxdeg)]


def _random_linear(rig, dom: Free, cod: Free, rng) -> LinearMap:
    table = {
        k: ModuleElement(rig, cod, {kk: rng.randrange(rig.modulus) for kk in cod.basis})
        for k in dom.basis
    }
    return LinearMap(rig, dom, cod, lambda k: table[k])


def modality_suite(modulus: int = 2, dim: int = 2, maxdeg: int = 3,
                   pair_total_degree: int = 3, seed: int = 0) -> Report:
    """The modality laws, exhaustive on generators over Z/modulus.  dim is
    at least 1; maxdeg and pair_total_degree are at least 0."""
    positive(dim, "dim")
    nonnegative(maxdeg, "maxdeg")
    nonnegative(pair_total_degree, "pair total degree")
    rig = zmod(modulus)
    A = Free(tuple(f"a{i + 1}" for i in range(dim)))
    B = Free(tuple(f"b{i + 1}" for i in range(dim)))
    report = Report(
        "modality",
        {"modulus": modulus, "dim": dim, "maxdeg": maxdeg,
         "pair_total_degree": pair_total_degree, "seed": seed},
    )
    rng = random.Random(seed)

    gens = _gen_elems(rig, A, maxdeg)
    gens_b = _gen_elems(rig, B, maxdeg)
    vecs = [basis_elem(rig, A, k) for k in A.basis]
    QA = QSpace(A)
    QB = QSpace(B)
    QQA = QSpace(QA)
    QA2 = Tensor((QA, QA))
    eps_a = qm.on_generators(rig, A, A, qm.counit)
    delta_a = qm.on_generators(rig, A, QQA, qm.comult)
    swap = qm.relabel(rig, QA2, QA2, lambda key: (key[1], key[0]))
    reassoc = qm.relabel(rig, Tensor((QA2, QA)), Tensor((QA, QA2)),
                         lambda key: (key[0][0], (key[0][1], key[1])))

    def gen(g):
        return qm.q_gen_elem(rig, g)

    def e(g):
        return qm.comonoid_counit(gen(g))

    # comonad and comonoid laws, delta a comonoid morphism, unit coherence
    def counital(q):
        d = qm.comonoid_comult(q)
        if (qm.sum_terms(d, QA, lambda g1, g2: gen(g2).scale(e(g1))) != q
                or qm.sum_terms(d, QA, lambda g1, g2: gen(g1).scale(e(g2))) != q):
            return f"Delta not counital at {q}"
        return None

    unit_i = basis_elem(rig, UNIT_SPACE, "1")
    mi = qm.monoidal_unit(rig)
    lam = qm.relabel(rig, Tensor((UNIT_SPACE, A)), A, lambda key: key[1])
    rho = qm.relabel(rig, Tensor((A, UNIT_SPACE)), A, lambda key: key[0])

    report.check(
        gens,
        equation("comonad-counit-outer", lambda q: qm.counit(qm.comult(q)),
                 lambda q: q, "eps.delta != id at {}"),
        equation("comonad-counit-inner", lambda q: qm.q_map(eps_a, qm.comult(q)),
                 lambda q: q, "Q(eps).delta != id at {}"),
        equation("comonad-coassociative", lambda q: qm.q_map(delta_a, qm.comult(q)),
                 lambda q: qm.comult(qm.comult(q)), "delta not coassociative at {}"),
        ("comonoid-counital", counital),
        equation("comonoid-coassociative",
                 lambda q: reassoc.apply(qm.sum_terms(
                     qm.comonoid_comult(q), Tensor((QA2, QA)), lambda g1, g2: tensor_elem(
                         qm.comonoid_comult(gen(g1)), gen(g2)))),
                 lambda q: qm.sum_terms(
                     qm.comonoid_comult(q), Tensor((QA, QA2)), lambda g1, g2: tensor_elem(
                         gen(g1), qm.comonoid_comult(gen(g2)))),
                 "Delta not coassociative at {}"),
        equation("comonoid-cocommutative", lambda q: swap.apply(qm.comonoid_comult(q)),
                 lambda q: qm.comonoid_comult(q), "Delta not cocommutative at {}"),
        equation("comult-preserves-e", lambda q: qm.comonoid_counit(qm.comult(q)),
                 lambda q: qm.comonoid_counit(q), "e.delta != e at {}"),
        equation("comult-preserves-Delta", lambda q: qm.comonoid_comult(qm.comult(q)),
                 lambda q: qm.sum_terms(
                     qm.comonoid_comult(q), Tensor((QQA, QQA)), lambda g1, g2: (
                         tensor_elem(qm.comult(gen(g1)), qm.comult(gen(g2))))),
                 "Delta.delta != (delta x delta).Delta at {}"),
        equation("monoidal-left-unit", lambda q: qm.q_map(lam, qm.monoidal_mult(mi, q)),
                 lambda q: q, "left unit coherence fails at {}"),
        equation("monoidal-right-unit", lambda q: qm.q_map(rho, qm.monoidal_mult(q, mi)),
                 lambda q: q, "right unit coherence fails at {}"),
    )

    # monoidal functor laws
    C = Free(tuple(f"c{i + 1}" for i in range(dim)))
    gens_c = _gen_elems(rig, C, maxdeg)
    assoc = qm.relabel(rig, Tensor((Tensor((A, B)), C)), Tensor((A, Tensor((B, C)))),
                       lambda key: (key[0][0], (key[0][1], key[1])))

    # m(p, q) per pair of generator elements, computed once in this call;
    # products of sums are always computed afresh
    mult = dpsh._call_memo(qm.monoidal_mult)

    total = pair_total_degree
    deg_a, deg_b, deg_c = (
        [(x, _degree(x)) for x in xs] for xs in (gens, gens_b, gens_c))
    triples = [(p, q, r) for p, dp in deg_a for q, dq in deg_b if dp + dq <= total
               for r, dr in deg_c if dp + dq + dr <= total]

    report.check(triples, equation(
        "monoidal-associative",
        lambda p, q, r: qm.q_map(assoc, qm.monoidal_mult(mult(p, q), r)),
        lambda p, q, r: qm.monoidal_mult(p, mult(q, r)),
        "monoidal associativity fails at {}, {}, {}"))

    sym = qm.relabel(rig, Tensor((A, B)), Tensor((B, A)), lambda key: (key[1], key[0]))

    # naturality of the monoidal multiplication in sampled linear maps
    nat_maps = [(f, g, qm.tensor_map(f, g)) for f, g in [
        (_random_linear(rig, A, A, rng), _random_linear(rig, B, B, rng))
        for _ in range(3)]]

    def mult_natural(item):
        p, q = item
        for f, g, fg in nat_maps:
            lhs = qm.q_map(fg, mult(p, q))
            rhs = qm.monoidal_mult(qm.q_map(f, p), qm.q_map(g, q))
            if lhs != rhs:
                return f"m-tensor not natural at {p}, {q}"
        return None

    ab_pairs = [(p, q) for p, dp in deg_a for q, dq in deg_b if dp + dq <= total]
    report.check(ab_pairs,
                 equation("monoidal-symmetric", lambda p, q: qm.q_map(sym, mult(p, q)),
                          lambda p, q: qm.monoidal_mult(q, p),
                          "monoidal symmetry fails at {}, {}"),
                 ("monoidal-mult-natural", mult_natural))

    # monoidality of epsilon and delta
    report.check([mi], equation("counit-monoidal-unit", lambda q: qm.counit(q),
                                lambda q: unit_i, "eps(m_I) != 1"))
    report.check(ab_pairs, equation(
        "counit-monoidal-mult", lambda p, q: qm.counit(mult(p, q)),
        lambda p, q: tensor_elem(qm.counit(p), qm.counit(q)),
        "eps not monoidal at {}, {}"))

    mi_lin = LinearMap(rig, UNIT_SPACE, QSpace(UNIT_SPACE),
                       lambda key: qm.monoidal_unit(rig))
    report.check([mi], equation("comult-monoidal-unit", lambda q: qm.comult(q),
                                lambda q: qm.q_map(mi_lin, q),
                                "delta(m_I) != Q(m_I).m_I"))

    mx = qm.on_generator_pairs(rig, A, B, QSpace(Tensor((A, B))), qm.monoidal_mult)
    report.check(ab_pairs, equation(
        "comult-monoidal-mult", lambda p, q: qm.comult(mult(p, q)),
        lambda p, q: qm.q_map(mx, qm.monoidal_mult(qm.comult(p), qm.comult(q))),
        "delta not monoidal at {}, {}"))

    # the four deriving rules
    gy = [(q, y) for q in gens for y in vecs]
    report.check(
        gy,
        equation("deriving-product-rule",
                 lambda q, y: qm.comonoid_comult(qm.deriving(q, y)),
                 lambda q, y: qm.sum_terms(qm.comonoid_comult(q), QA2, lambda g1, g2: (
                     tensor_elem(gen(g1), qm.deriving(gen(g2), y))
                     + tensor_elem(qm.deriving(gen(g1), y), gen(g2)))),
                 "product rule fails at {}, {}"),
        equation("deriving-linear-rule", lambda q, y: qm.counit(qm.deriving(q, y)),
                 lambda q, y: y.scale(qm.comonoid_counit(q)),
                 "linear rule fails at {}, {}"),
        equation("deriving-chain-rule", lambda q, y: qm.comult(qm.deriving(q, y)),
                 lambda q, y: qm.sum_terms(qm.comonoid_comult(q), QQA, lambda g1, g2: (
                     qm.deriving(qm.comult(gen(g1)), qm.deriving(gen(g2), y)))),
                 "chain rule fails at {}, {}"),
    )
    report.check(
        [(q, a, b) for q in gens for a in vecs for b in vecs],
        equation("deriving-interchange", lambda q, a, b: qm.deriving(qm.deriving(q, a), b),
                 lambda q, a, b: qm.deriving(qm.deriving(q, b), a),
                 "interchange fails at ({}, {}, {})"),
    )

    # fusion is the composite through delta
    report.check(ab_pairs, equation(
        "fusion-factors-through-comult", lambda p, q: qm.fusion(p, q),
        lambda p, q: qm.monoidal_mult(p, qm.comult(q)), "fusion mismatch at {}, {}"))

    # reconstruction of the monoidal constraints from the storage maps
    report.check([mi], equation("rebuild-monoidal-unit", lambda q: _rebuild_unit(rig),
                                lambda q: q, "m_I rebuild mismatch"))

    # chi per generator element and chi^{-1} per pair (p, q) of generator
    # elements, computed once in this call: the rebuild and the two inverse
    # laws map the same generators and pairs.  The left inverse's chi^{-1}
    # inputs are distinct (chi is injective), so it calls qm.storage_inv.
    storage = dpsh._call_memo(qm.storage)
    storage_inv = dpsh._call_memo(lambda p, q: qm.storage_inv(tensor_elem(p, q)))
    chi_lin = qm.on_generators(rig, Product((A, B)), Tensor((QA, QB)), storage)
    epseps = qm.on_generator_pairs(rig, A, B, Tensor((A, B)),
                                   lambda p, q: tensor_elem(qm.counit(p), qm.counit(q)))
    report.check(ab_pairs, equation(
        "rebuild-monoidal-mult",
        lambda p, q: qm.q_map(epseps, qm.q_map(chi_lin, qm.comult(storage_inv(p, q)))),
        mult, "m-tensor rebuild mismatch at {}, {}"))

    # storage is a two-sided inverse
    prod_gens = _gen_elems(rig, Product((A, B)), maxdeg)
    report.check(prod_gens, equation("storage-left-inverse",
                                     lambda q: qm.storage_inv(storage(q)),
                                     lambda q: q, "chi-inv.chi != id at {}"))
    report.check(ab_pairs, equation("storage-right-inverse",
                                    lambda p, q: storage(storage_inv(p, q)),
                                    lambda p, q: tensor_elem(p, q),
                                    "chi.chi-inv != id at {}, {}"))

    # deriving transformation vs codereliction and the bialgebra maps
    u = qm.bialg_unit(rig, A)
    report.check(gy, equation(
        "deriving-from-codereliction", lambda q, y: qm.deriving(q, y),
        lambda q, y: qm.bialg_mult(q, qm.codereliction(y)),
        "d != nabla.(1 x eta) at {}, {}"))
    report.check(vecs, equation(
        "codereliction-from-deriving", lambda y: qm.codereliction(y),
        lambda y: qm.deriving(u, y), "eta != d.(u x 1) at {}"))

    # naturality in sampled linear maps
    nat_fs = []
    for f in [_random_linear(rig, A, B, rng) for _ in range(4)]:
        qf = qm.q_functor(f)
        nat_fs.append((f, qf, qm.tensor_map(qf, qf)))

    def natural(q):
        for f, qf_lin, ff in nat_fs:
            qf = qm.q_map(f, q)
            if f.apply(qm.counit(q)) != qm.counit(qf):
                return f"eps not natural at {q}"
            if qm.q_map(qf_lin, qm.comult(q)) != qm.comult(qf):
                return f"delta not natural at {q}"
            if qm.comonoid_counit(q) != qm.comonoid_counit(qf):
                return f"e not natural at {q}"
            if ff.apply(qm.comonoid_comult(q)) != qm.comonoid_comult(qf):
                return f"Delta not natural at {q}"
            for y in vecs:
                if qm.q_map(f, qm.deriving(q, y)) != qm.deriving(qf, f.apply(y)):
                    return f"d not natural at {q}, {y}"
        return None

    report.check(
        gens,
        ("bialgebra-unit-law",
         lambda q: None if qm.bialg_mult(u, q) == q and qm.bialg_mult(q, u) == q
         else f"nabla unit law fails at {q}"),
        ("naturality-in-linear-maps", natural),
    )
    return report


def _rebuild_unit(rig):
    terminal = Free(())
    q0 = qm.q_inject(zero_elem(rig, terminal), [])
    one = basis_elem(rig, UNIT_SPACE, "1")
    chi1 = qm.on_generators(rig, terminal, UNIT_SPACE,
                            lambda q: one.scale(qm.comonoid_counit(q)))
    return qm.q_map(chi1, qm.comult(q0))


def _degree(q) -> int:
    return max((gen.degree for gen in q.coeffs), default=0)


# ---------------------------------------------------------------------------
# Kl(Q) vs Faa di Bruno

def enumerate_families(backend: FinFnBackend, A: FinModule, B: FinModule,
                       support: int):
    """All finite-support families (f0..f_support) with each component
    symmetric and multilinear in its derivative slots."""
    return list(faa.all_families(backend, A, B, support))


def kleisli_suite(modulus: int = 2, max_dim: int = 2, support: int = 2,
                  degree_bound: int = 4, samples: int = 25,
                  seed: int = 0) -> Report:
    """Compare the co-Kleisli calculus, computed through the Q structure
    maps, against the direct Faa di Bruno formulas: exhaustive over all
    family pairs at dimension 1, sampled pairs at dimensions 2..max_dim.
    Pairs whose composite support exceeds the degree bound are skipped
    (the library would refuse to truncate them silently).

    Bounds: max_dim, degree_bound and samples are at least 1 (every
    derivative reads component 1, so bound 0 would check none), the family
    enumerator refuses a support below 0, and more than faa.MAX_CANDIDATES
    exhaustive pairs are refused before any family is listed.  The Q side of
    compose and D is built once per dimension for this call, at the largest
    support its instances need."""
    positive(max_dim, "max_dim")
    positive(degree_bound, "degree bound")
    positive(samples, "samples")
    backend = FinFnBackend(modulus)
    A = backend.module(1)
    report = Report(
        "kleisli-iso",
        {"modulus": modulus, "max_dim": max_dim, "support": support,
         "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    # the family count is known before any family is listed; the product
    # stops once its pairs are past the limit, as a huge support would
    # otherwise build a huge integer
    families = 1
    for n in range(support + 1):
        families *= backend.multilinear_count(A, A, n)
        if families ** 2 > faa.MAX_CANDIDATES:
            raise SizeLimit(f"at least {families ** 2} family pairs exceed the limit")
    fams = enumerate_families(backend, A, A, support)
    kls = [faa.kleisli_from_family(backend, fm) for fm in fams]

    def within_bound(kf, kg):
        return faa.composite_support(kg, kf) <= degree_bound

    def derivable(kf):
        return max(kf.support, 0) + 1 <= degree_bound

    # a compose instance is (n, (kf, kg)), the n-th pair, g after f; a
    # derivative instance is (n, kf)
    def compose_law(name, what, dom, top):
        compose = faa.build_kleisli_compose(backend, dom, top)
        return equation(name, lambda n, fg: list(compose(fg[1], fg[0]).family),
                        lambda n, fg: list(faa.faa_compose(fg[1], fg[0]).family),
                        f"composition mismatch at {what} #{{}}")

    def derivative_law(name, what, dom, families):
        derive = faa.build_kleisli_D(backend, dom, max(
            (max(kf.support, 0) for kf in families), default=0))
        return equation(name, lambda n, kf: list(derive(kf).family),
                        lambda n, kf: list(faa.faa_D(kf).family),
                        f"derivative mismatch at {what} #{{}}")

    # the exhaustive pairs are one lazy stream; the builder's top and the
    # skipped count follow from how many families have each support
    supports = collections.Counter(max(kf.support, 0) for kf in kls)
    products = [(sf * sg, nf * ng) for sf, nf in supports.items()
                for sg, ng in supports.items()]
    in_bound = ((kf, kg) for kf, kg in itertools.product(kls, repeat=2)
                if within_bound(kf, kg))
    top = max((s for s, _ in products if s <= degree_bound), default=0)
    report.check(enumerate(in_bound, 1), compose_law(
        "compose-matches-faa-exhaustive-dim1", "pair", A, top))
    report.add("pairs-skipped-by-degree-bound", True,
               sum(n for s, n in products if s > degree_bound))
    derivs = [kf for kf in kls if derivable(kf)]
    report.check(enumerate(derivs, 1), derivative_law(
        "derivative-matches-faa-exhaustive-dim1", "family", A, derivs))

    # sampled pairs at the higher dimensions, all drawn before any is decided
    rng = random.Random(seed)
    for dim in range(2, max_dim + 1):
        A2 = backend.module(dim)
        drawn = [(_random_kleisli(backend, A2, A2, support, rng),
                  _random_kleisli(backend, A2, A2, support, rng))
                 for _ in range(samples)]
        in_bound = [pair for pair in drawn if within_bound(*pair)]
        top = max((faa.composite_support(kg, kf) for kf, kg in in_bound), default=0)
        report.check(enumerate(in_bound, 1), compose_law(
            f"compose-matches-faa-sampled-dim{dim}", "sample", A2, top))
        derivs = [kf for kf, _ in drawn if derivable(kf)]
        report.check(enumerate(derivs, 1), derivative_law(
            f"derivative-matches-faa-sampled-dim{dim}", "sample", A2, derivs))
    return report


def _random_kleisli(backend, A, B, support, rng):
    """Sample a valid family as the derivative tower of a random polynomial
    map of bounded degree, tabulated over the finite modules."""
    from .poly import Polynomial, PolyMap, table_from_poly

    rig = backend.rig
    comps = []
    for _ in range(B.dim):
        p = Polynomial.zero(rig, A.dim)
        for _ in range(3):
            exps = [0] * A.dim
            for _ in range(rng.randrange(support + 1)):
                exps[rng.randrange(A.dim)] += 1
            coeff = rng.randrange(backend.modulus)
            p = p + Polynomial(rig, A.dim, {tuple(exps): coeff})
        comps.append(p)
    pm = PolyMap(rig, A.dim, B.dim, comps)
    poly_backend = cdc.PolyBackend(rig)
    tower = faa.coalgebra(poly_backend, pm, max_support=support + 4)
    family = [table_from_poly(tower.component(n))
              for n in range(max(tower.support, 0) + 1)]
    return faa.kleisli_from_family(backend, faa.FaaMap(backend, A, B, family))


# ---------------------------------------------------------------------------
# embedding and presheaf suites

# the full-fidelity search bounds of yoneda_suite
YONEDA_SUPPORT_BOUND = 2
YONEDA_DEGREE_BOUND = 1


def yoneda_suite(modulus: int = 2, max_dim: int = 2) -> Report:
    """Full fidelity and functoriality of the Yoneda embedding over
    Mat(Z/modulus) with objects 1..max_dim; max_dim is at least 1."""
    positive(max_dim, "max_dim")
    base = dpsh.FiniteCdcBase(modulus, list(range(1, max_dim + 1)))
    be = base.backend
    report = Report(
        "yoneda",
        {"modulus": modulus, "max_dim": max_dim,
         "support_bound": YONEDA_SUPPORT_BOUND, "degree_bound": YONEDA_DEGREE_BOUND},
    )
    for A in base.objects:
        for B in base.objects:
            report.extend(f"hom({A},{B})-", dpsh.full_fidelity(
                base, A, B, support_bound=YONEDA_SUPPORT_BOUND,
                degree_bound=YONEDA_DEGREE_BOUND))

    # each tower y(f) is built once in this call, for every law that reads it
    y = dpsh._call_memo(lambda f: dpsh.yoneda_map(base, f))

    # functoriality of the embedding
    report.check(((f, g) for A, B, C in itertools.product(base.objects, repeat=3)
                  for f in base.all_maps(A, B) for g in base.all_maps(B, C)),
                 equation("yoneda-functorial", lambda f, g: y(be.compose(g, f)),
                          lambda f, g: faa.faa_compose(y(g), y(f)),
                          "y(g.f) != y(g).y(f) at {}, {}"))

    # identities and units
    report.check(base.objects, equation(
        "yoneda-preserves-identity", lambda A: list(y(be.identity(A)).family),
        lambda A: list(faa.FaaBackend(be).identity(A).family),
        "y(id) is not the identity family at {}"))

    # the higher-action dictionary: acting with <f> is reindexing, acting
    # with <pi0, pi1> is the differential; the last instance of each xi
    # (f = None) is the differential one
    def dictionary():
        for A, B in itertools.product(base.objects, repeat=2):
            for xi in base.all_maps(A, B):
                tower = y(xi)
                for Z in base.objects:
                    for f in base.all_maps(Z, A):
                        yield xi, tower, f
                yield xi, tower, None

    def dictionary_law(item):
        xi, tower, f = item
        if f is not None:
            if be.compose(tower.component(0), f) != be.compose(xi, f):
                return f"xi.f != m(xi x <f>) at {xi}, {f}"
            return None
        A = xi.dom
        pi01 = be.pairing([be.proj([A, A], 0), be.proj([A, A], 1)])
        if be.compose(tower.component(1), pi01) != be.D(xi):
            return f"D(xi) != m(xi x <pi0, pi1>) at {xi}"
        return None

    report.check(dictionary(), ("higher-action-dictionary", dictionary_law))
    return report


def presheaf_suite(modulus: int = 2, max_dim: int = 2, q_bound: int = 2,
                   map_budget: int | None = None, seed: int = 0) -> Report:
    """The presheaf axioms on y(1)..y(max_dim), the unit, a tensor and a Q
    presheaf over Mat(Z/modulus).  max_dim is at least 1; the presheaves
    refuse a negative q_bound or map_budget."""
    positive(max_dim, "max_dim")
    base = dpsh.FiniteCdcBase(modulus, list(range(1, max_dim + 1)))
    report = Report(
        "presheaf",
        {"modulus": modulus, "max_dim": max_dim, "q_bound": q_bound,
         "map_budget": map_budget, "seed": seed},
    )
    presheaves = [dpsh.representable(base, d) for d in base.objects]
    presheaves.append(dpsh.unit_presheaf(base))
    presheaves.append(dpsh.presheaf_tensor(presheaves[0], presheaves[-2]))
    presheaves.append(dpsh.presheaf_Q(presheaves[0], bound=q_bound))
    for X in presheaves:
        report.extend(f"{X.name}:", dpsh.check_presheaf(X, map_budget=map_budget, seed=seed))
    return report
