"""Verification suites, each returning a Report.

Every law here is checked on generators (all the maps involved are linear
over Q arguments) and extended implicitly by linearity.  The suites call
the structure maps through their modules so that a deliberately corrupted
implementation, installed by assignment on the module, is picked up.
"""

from __future__ import annotations

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
    add_into,
    add_scaled,
    basis_elem,
    rig_value,
    tensor_elem,
    zero_elem,
    zmod,
)
from .errors import InvalidArgument
from .poly import FinFnBackend, FinModule
from .qmodality import UNIT_SPACE, LinearMap
from .reports import Report


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


def _eps_lin(rig, A) -> LinearMap:
    return LinearMap(rig, QSpace(A), A,
                     lambda gen: qm.counit(qm.q_gen_elem(rig, gen)))


def _delta_lin(rig, A) -> LinearMap:
    return LinearMap(rig, QSpace(A), QSpace(QSpace(A)),
                     lambda gen: qm.comult(qm.q_gen_elem(rig, gen)))


def _mx_lin(rig, A, B) -> LinearMap:
    return LinearMap(
        rig, Tensor((QSpace(A), QSpace(B))), QSpace(Tensor((A, B))),
        lambda key: qm.monoidal_mult(
            qm.q_gen_elem(rig, key[0]), qm.q_gen_elem(rig, key[1])
        ),
    )


def _pair_tensor_lin(f: LinearMap, g: LinearMap) -> LinearMap:
    return LinearMap(
        f.rig, Tensor((f.domain, g.domain)), Tensor((f.codomain, g.codomain)),
        lambda key: tensor_elem(f.on_basis(key[0]), g.on_basis(key[1])),
    )


def _swap_tensor(t, space):
    return ModuleElement(
        t.rig, space, {(kb, ka): v for (ka, kb), v in t.coeffs.items()}
    )


def _random_linear(rig, dom: Free, cod: Free, rng) -> LinearMap:
    table = {
        k: ModuleElement(rig, cod, {kk: rig_value(rig, rng.randrange(rig.modulus))
                                    for kk in cod.basis})
        for k in dom.basis
    }
    return LinearMap(rig, dom, cod, lambda k: table[k])


def modality_suite(modulus: int = 2, dim: int = 2, maxdeg: int = 3,
                   pair_total_degree: int = 3, seed: int = 0) -> Report:
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
    eps_a = _eps_lin(rig, A)
    delta_a = _delta_lin(rig, A)
    QA = QSpace(A)
    QB = QSpace(B)

    # comonad and comonoid laws, delta a comonoid morphism, unit coherence
    def counital(q):
        left, right = {}, {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            add_into(left, g2, c * qm.comonoid_counit(qm.q_gen_elem(rig, g1)))
            add_into(right, g1, c * qm.comonoid_counit(qm.q_gen_elem(rig, g2)))
        if ModuleElement(rig, QA, left) != q or ModuleElement(rig, QA, right) != q:
            return f"Delta not counital at {q}"
        return None

    def coassoc(q):
        lhs, rhs = {}, {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            for (h1, h2), d in qm.comonoid_comult(
                    qm.q_gen_elem(rig, g1)).coeffs.items():
                add_into(lhs, (h1, h2, g2), c * d)
            for (h1, h2), d in qm.comonoid_comult(
                    qm.q_gen_elem(rig, g2)).coeffs.items():
                add_into(rhs, (g1, h1, h2), c * d)
        QA3 = Tensor((QA, QA, QA))
        if ModuleElement(rig, QA3, lhs) != ModuleElement(rig, QA3, rhs):
            return f"Delta not coassociative at {q}"
        return None

    def delta_comonoid(q):
        lhs = qm.comonoid_comult(qm.comult(q))
        rhs = {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            add_scaled(rhs, c, tensor_elem(
                qm.comult(qm.q_gen_elem(rig, g1)),
                qm.comult(qm.q_gen_elem(rig, g2)),
            ))
        if lhs != ModuleElement(rig, Tensor((QSpace(QA), QSpace(QA))), rhs):
            return f"Delta.delta != (delta x delta).Delta at {q}"
        return None

    unit_i = basis_elem(rig, UNIT_SPACE, "1")
    mi = qm.monoidal_unit(rig)
    lam = LinearMap(rig, Tensor((UNIT_SPACE, A)), A,
                    lambda key: basis_elem(rig, A, key[1]))
    rho = LinearMap(rig, Tensor((A, UNIT_SPACE)), A,
                    lambda key: basis_elem(rig, A, key[0]))

    report.check(
        gens,
        ("comonad-counit-outer",
         lambda q: None if qm.counit(qm.comult(q)) == q else f"eps.delta != id at {q}"),
        ("comonad-counit-inner",
         lambda q: None if qm.q_map(eps_a, qm.comult(q)) == q
         else f"Q(eps).delta != id at {q}"),
        ("comonad-coassociative",
         lambda q: None
         if qm.q_map(delta_a, qm.comult(q)) == qm.comult(qm.comult(q))
         else f"delta not coassociative at {q}"),
        ("comonoid-counital", counital),
        ("comonoid-coassociative", coassoc),
        ("comonoid-cocommutative",
         lambda q: None
         if _swap_tensor(qm.comonoid_comult(q), Tensor((QA, QA)))
         == qm.comonoid_comult(q)
         else f"Delta not cocommutative at {q}"),
        ("comult-preserves-e",
         lambda q: None
         if qm.comonoid_counit(qm.comult(q)) == qm.comonoid_counit(q)
         else f"e.delta != e at {q}"),
        ("comult-preserves-Delta", delta_comonoid),
        ("monoidal-left-unit",
         lambda q: None if qm.q_map(lam, qm.monoidal_mult(mi, q)) == q
         else f"left unit coherence fails at {q}"),
        ("monoidal-right-unit",
         lambda q: None if qm.q_map(rho, qm.monoidal_mult(q, mi)) == q
         else f"right unit coherence fails at {q}"),
    )

    # monoidal functor laws
    C = Free(tuple(f"c{i + 1}" for i in range(dim)))
    gens_c = _gen_elems(rig, C, maxdeg)
    assoc = LinearMap(
        rig, Tensor((Tensor((A, B)), C)), Tensor((A, Tensor((B, C)))),
        lambda key: basis_elem(
            rig, Tensor((A, Tensor((B, C)))), (key[0][0], (key[0][1], key[1]))
        ),
    )

    # m(p, q) per pair of generator elements, computed once in this call;
    # products of sums are always computed afresh
    products = {}

    def mult(p, q):
        key = (p, q)
        if key not in products:
            products[key] = qm.monoidal_mult(p, q)
        return products[key]

    total = pair_total_degree
    deg_a, deg_b, deg_c = (
        [(x, _degree(x)) for x in xs] for xs in (gens, gens_b, gens_c))
    triples = [(p, q, r) for p, dp in deg_a for q, dq in deg_b if dp + dq <= total
               for r, dr in deg_c if dp + dq + dr <= total]

    def associativity(item):
        p, q, r = item
        lhs = qm.q_map(assoc, qm.monoidal_mult(mult(p, q), r))
        rhs = qm.monoidal_mult(p, mult(q, r))
        if lhs != rhs:
            return f"monoidal associativity fails at {p}, {q}, {r}"
        return None

    report.check(triples, ("monoidal-associative", associativity))

    sym = LinearMap(rig, Tensor((A, B)), Tensor((B, A)),
                    lambda key: basis_elem(rig, Tensor((B, A)), (key[1], key[0])))

    def symmetry(item):
        p, q = item
        lhs = qm.q_map(sym, mult(p, q))
        rhs = qm.monoidal_mult(q, p)
        if lhs != rhs:
            return f"monoidal symmetry fails at {p}, {q}"
        return None

    # naturality of the monoidal multiplication in sampled linear maps
    nat_maps = [(f, g, _pair_tensor_lin(f, g)) for f, g in [
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
    report.check(ab_pairs, ("monoidal-symmetric", symmetry),
                 ("monoidal-mult-natural", mult_natural))

    # monoidality of epsilon and delta
    report.check([mi], ("counit-monoidal-unit",
                        lambda q: None if qm.counit(q) == unit_i else "eps(m_I) != 1"))

    def counit_monoidal(item):
        p, q = item
        lhs = qm.counit(mult(p, q))
        rhs = tensor_elem(qm.counit(p), qm.counit(q))
        if lhs != rhs:
            return f"eps not monoidal at {p}, {q}"
        return None

    report.check(ab_pairs, ("counit-monoidal-mult", counit_monoidal))

    mi_lin = LinearMap(rig, UNIT_SPACE, QSpace(UNIT_SPACE),
                       lambda key: qm.monoidal_unit(rig))
    report.check([mi], ("comult-monoidal-unit",
                        lambda q: None if qm.comult(q) == qm.q_map(mi_lin, q)
                        else "delta(m_I) != Q(m_I).m_I"))

    mx = _mx_lin(rig, A, B)

    def comult_monoidal(item):
        p, q = item
        lhs = qm.comult(mult(p, q))
        inner = qm.monoidal_mult(qm.comult(p), qm.comult(q))
        rhs = qm.q_map(mx, inner)
        if lhs != rhs:
            return f"delta not monoidal at {p}, {q}"
        return None

    report.check(ab_pairs, ("comult-monoidal-mult", comult_monoidal))

    # the four deriving rules
    gy = [(q, y) for q in gens for y in vecs]

    def product_rule(item):
        q, y = item
        lhs = qm.comonoid_comult(qm.deriving(q, y))
        rhs = {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            e1 = qm.q_gen_elem(rig, g1)
            e2 = qm.q_gen_elem(rig, g2)
            add_scaled(rhs, c, tensor_elem(e1, qm.deriving(e2, y)))
            add_scaled(rhs, c, tensor_elem(qm.deriving(e1, y), e2))
        if lhs != ModuleElement(rig, Tensor((QA, QA)), rhs):
            return f"product rule fails at {q}, {y}"
        return None

    def chain_rule(item):
        q, y = item
        lhs = qm.comult(qm.deriving(q, y))
        rhs = {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            add_scaled(rhs, c, qm.deriving(
                qm.comult(qm.q_gen_elem(rig, g1)),
                qm.deriving(qm.q_gen_elem(rig, g2), y),
            ))
        if lhs != ModuleElement(rig, QSpace(QA), rhs):
            return f"chain rule fails at {q}, {y}"
        return None

    report.check(
        gy,
        ("deriving-product-rule", product_rule),
        ("deriving-linear-rule",
         lambda item: None
         if qm.counit(qm.deriving(item[0], item[1]))
         == item[1].scale(qm.comonoid_counit(item[0]))
         else f"linear rule fails at {item[0]}, {item[1]}"),
        ("deriving-chain-rule", chain_rule),
    )
    report.check(
        [(q, a, b) for q in gens for a in vecs for b in vecs],
        ("deriving-interchange",
         lambda item: None
         if qm.deriving(qm.deriving(item[0], item[1]), item[2])
         == qm.deriving(qm.deriving(item[0], item[2]), item[1])
         else f"interchange fails at {item}"),
    )

    # fusion is the composite through delta
    report.check(ab_pairs, ("fusion-factors-through-comult",
                            lambda item: None
                            if qm.fusion(item[0], item[1])
                            == qm.monoidal_mult(item[0], qm.comult(item[1]))
                            else f"fusion mismatch at {item[0]}, {item[1]}"))

    # reconstruction of the monoidal constraints from the storage maps
    report.check([mi], ("rebuild-monoidal-unit",
                        lambda q: None if _rebuild_unit(rig) == q
                        else "m_I rebuild mismatch"))

    chi_lin = LinearMap(
        rig, QSpace(Product((A, B))), Tensor((QA, QB)),
        lambda gen: qm.storage(qm.q_gen_elem(rig, gen)),
    )
    epseps = LinearMap(
        rig, Tensor((QA, QB)), Tensor((A, B)),
        lambda key: tensor_elem(
            qm.counit(qm.q_gen_elem(rig, key[0])),
            qm.counit(qm.q_gen_elem(rig, key[1])),
        ),
    )

    def rebuild_mult(item):
        p, q = item
        x = qm.storage_inv(tensor_elem(p, q))
        got = qm.q_map(epseps, qm.q_map(chi_lin, qm.comult(x)))
        if got != mult(p, q):
            return f"m-tensor rebuild mismatch at {p}, {q}"
        return None

    report.check(ab_pairs, ("rebuild-monoidal-mult", rebuild_mult))

    # storage is a two-sided inverse
    prod_gens = _gen_elems(rig, Product((A, B)), maxdeg)
    report.check(prod_gens, ("storage-left-inverse",
                             lambda q: None if qm.storage_inv(qm.storage(q)) == q
                             else f"chi-inv.chi != id at {q}"))
    report.check(ab_pairs, ("storage-right-inverse",
                            lambda item: None
                            if qm.storage(qm.storage_inv(tensor_elem(item[0], item[1])))
                            == tensor_elem(item[0], item[1])
                            else f"chi.chi-inv != id at {item[0]}, {item[1]}"))

    # deriving transformation vs codereliction and the bialgebra maps
    u = qm.bialg_unit(rig, A)
    report.check(gy, ("deriving-from-codereliction",
                      lambda item: None
                      if qm.deriving(item[0], item[1])
                      == qm.bialg_mult(item[0], qm.codereliction(item[1]))
                      else f"d != nabla.(1 x eta) at {item[0]}, {item[1]}"))
    report.check(vecs, ("codereliction-from-deriving",
                        lambda y: None if qm.codereliction(y) == qm.deriving(u, y)
                        else f"eta != d.(u x 1) at {y}"))

    # naturality in sampled linear maps
    nat_fs = []
    for f in [_random_linear(rig, A, B, rng) for _ in range(4)]:
        qf = qm.q_functor(f)
        nat_fs.append((f, qf, _pair_tensor_lin(qf, qf)))

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
    chi1 = LinearMap(
        rig, QSpace(terminal), UNIT_SPACE,
        lambda gen: basis_elem(rig, UNIT_SPACE, "1").scale(
            qm.comonoid_counit(qm.q_gen_elem(rig, gen))
        ),
    )
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
    (the library would refuse to truncate them silently)."""
    backend = FinFnBackend(modulus)
    A = backend.module(1)
    report = Report(
        "kleisli-iso",
        {"modulus": modulus, "max_dim": max_dim, "support": support,
         "degree_bound": degree_bound, "samples": samples, "seed": seed},
    )
    fams = enumerate_families(backend, A, A, support)
    kls = [faa.kleisli_from_family(backend, fm) for fm in fams]

    def within_bound(kf, kg):
        return max(kf.support, 0) * max(kg.support, 0) <= degree_bound

    def derivable(kf):
        return max(kf.support, 0) + 1 <= degree_bound

    def compose_law(what):
        def law(item):
            n, (kf, kg) = item
            via_q = faa.kleisli_compose(kg, kf, degree_bound=degree_bound)
            if list(via_q.family) != list(faa.faa_compose(kg, kf).family):
                return f"composition mismatch at {what} #{n}"
            return None
        return law

    def derivative_law(what):
        def law(item):
            n, kf = item
            via_q = faa.kleisli_D(kf, degree_bound=degree_bound)
            if list(via_q.family) != list(faa.faa_D(kf).family):
                return f"derivative mismatch at {what} #{n}"
            return None
        return law

    pairs = list(itertools.product(kls, repeat=2))
    in_bound = [pair for pair in pairs if within_bound(*pair)]
    report.check(enumerate(in_bound, 1),
                 ("compose-matches-faa-exhaustive-dim1", compose_law("pair")))
    report.add("pairs-skipped-by-degree-bound", True, len(pairs) - len(in_bound))
    report.check(enumerate((kf for kf in kls if derivable(kf)), 1),
                 ("derivative-matches-faa-exhaustive-dim1", derivative_law("family")))

    # sampled pairs at the higher dimensions, all drawn before any is decided
    rng = random.Random(seed)
    for dim in range(2, max_dim + 1):
        A2 = backend.module(dim)
        drawn = [(_random_kleisli(backend, A2, A2, support, rng),
                  _random_kleisli(backend, A2, A2, support, rng))
                 for _ in range(samples)]
        report.check(enumerate((pair for pair in drawn if within_bound(*pair)), 1),
                     (f"compose-matches-faa-sampled-dim{dim}", compose_law("sample")))
        report.check(enumerate((kf for kf, _ in drawn if derivable(kf)), 1),
                     (f"derivative-matches-faa-sampled-dim{dim}",
                      derivative_law("sample")))
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
            coeff = rig_value(rig, rng.randrange(backend.modulus))
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
    base = dpsh.FiniteCdcBase(modulus, list(range(1, max_dim + 1)))
    be = base.backend
    report = Report(
        "yoneda",
        {"modulus": modulus, "max_dim": max_dim,
         "support_bound": YONEDA_SUPPORT_BOUND, "degree_bound": YONEDA_DEGREE_BOUND},
    )
    for A in base.objects:
        for B in base.objects:
            sub = dpsh.full_fidelity(base, A, B, support_bound=YONEDA_SUPPORT_BOUND,
                                     degree_bound=YONEDA_DEGREE_BOUND)
            for chk in sub.checks:
                report.add(f"hom({A},{B})-{chk.name}", chk.passed,
                           chk.checked, chk.counterexample)

    # functoriality of the embedding
    def functorial(item):
        f, g = item
        lhs = dpsh.yoneda_map(base, be.compose(g, f))
        rhs = faa.faa_compose(dpsh.yoneda_map(base, g), dpsh.yoneda_map(base, f))
        if lhs != rhs:
            return f"y(g.f) != y(g).y(f) at {f}, {g}"
        return None

    report.check(((f, g) for A, B, C in itertools.product(base.objects, repeat=3)
                  for f in base.all_maps(A, B) for g in base.all_maps(B, C)),
                 ("yoneda-functorial", functorial))

    # identities and units
    report.check(base.objects, (
        "yoneda-preserves-identity",
        lambda A: None
        if list(dpsh.yoneda_map(base, be.identity(A)).family)
        == list(faa.FaaBackend(be).identity(A).family)
        else f"y(id) is not the identity family at {A}"))

    # the higher-action dictionary: acting with <f> is reindexing, acting
    # with <pi0, pi1> is the differential; the last instance of each xi
    # (f = None) is the differential one
    def dictionary():
        for A, B in itertools.product(base.objects, repeat=2):
            for xi in base.all_maps(A, B):
                tower = faa.coalgebra(be, xi)
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
        sub = dpsh.check_presheaf(X, map_budget=map_budget, seed=seed)
        for chk in sub.checks:
            report.add(f"{X.name}:{chk.name}", chk.passed, chk.checked,
                       chk.counterexample)
    return report
