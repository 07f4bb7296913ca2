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
        return zmod(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown rig {name!r}")


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

    def pairs(xs, ys, budget):
        return [(p, q) for p in xs for q in ys
                if _degree(p) + _degree(q) <= budget]

    def run(name, fn, items):
        checked = 0
        for item in items:
            checked += 1
            witness = fn(item)
            if witness is not None:
                report.add(name, False, checked, witness)
                return
        report.add(name, True, checked)

    # comonad laws
    run("comonad-counit-outer",
        lambda q: None if qm.counit(qm.comult(q)) == q else f"eps.delta != id at {q}",
        gens)
    run("comonad-counit-inner",
        lambda q: None if qm.q_map(eps_a, qm.comult(q)) == q
        else f"Q(eps).delta != id at {q}",
        gens)
    run("comonad-coassociative",
        lambda q: None
        if qm.q_map(delta_a, qm.comult(q)) == qm.comult(qm.comult(q))
        else f"delta not coassociative at {q}",
        gens)

    # comonoid laws
    def counital(q):
        left, right = {}, {}
        for (g1, g2), c in qm.comonoid_comult(q).coeffs.items():
            add_into(left, g2, c * qm.comonoid_counit(qm.q_gen_elem(rig, g1)))
            add_into(right, g1, c * qm.comonoid_counit(qm.q_gen_elem(rig, g2)))
        if ModuleElement(rig, QA, left) != q or ModuleElement(rig, QA, right) != q:
            return f"Delta not counital at {q}"
        return None

    run("comonoid-counital", counital, gens)

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

    run("comonoid-coassociative", coassoc, gens)
    run("comonoid-cocommutative",
        lambda q: None
        if _swap_tensor(qm.comonoid_comult(q), Tensor((QA, QA)))
        == qm.comonoid_comult(q)
        else f"Delta not cocommutative at {q}",
        gens)

    # delta is a comonoid morphism
    run("comult-preserves-e",
        lambda q: None
        if qm.comonoid_counit(qm.comult(q)) == qm.comonoid_counit(q)
        else f"e.delta != e at {q}",
        gens)

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

    run("comult-preserves-Delta", delta_comonoid, gens)

    # monoidal functor laws
    unit_i = basis_elem(rig, UNIT_SPACE, "1")
    mi = qm.monoidal_unit(rig)
    lam = LinearMap(rig, Tensor((UNIT_SPACE, A)), A,
                    lambda key: basis_elem(rig, A, key[1]))
    rho = LinearMap(rig, Tensor((A, UNIT_SPACE)), A,
                    lambda key: basis_elem(rig, A, key[0]))

    def left_unit(q):
        got = qm.q_map(lam, qm.monoidal_mult(mi, q))
        if got != q:
            return f"left unit coherence fails at {q}"
        return None

    def right_unit(q):
        got = qm.q_map(rho, qm.monoidal_mult(q, mi))
        if got != q:
            return f"right unit coherence fails at {q}"
        return None

    run("monoidal-left-unit", left_unit, gens)
    run("monoidal-right-unit", right_unit, gens)

    C = Free(tuple(f"c{i + 1}" for i in range(dim)))
    gens_c = _gen_elems(rig, C, maxdeg)
    assoc = LinearMap(
        rig, Tensor((Tensor((A, B)), C)), Tensor((A, Tensor((B, C)))),
        lambda key: basis_elem(
            rig, Tensor((A, Tensor((B, C)))), (key[0][0], (key[0][1], key[1]))
        ),
    )

    triples = [(p, q, r) for p in gens for q in gens_b for r in gens_c
               if _degree(p) + _degree(q) + _degree(r) <= pair_total_degree]

    def associativity(item):
        p, q, r = item
        lhs = qm.q_map(assoc, qm.monoidal_mult(qm.monoidal_mult(p, q), r))
        rhs = qm.monoidal_mult(p, qm.monoidal_mult(q, r))
        if lhs != rhs:
            return f"monoidal associativity fails at {p}, {q}, {r}"
        return None

    run("monoidal-associative", associativity, triples)

    sym = LinearMap(rig, Tensor((A, B)), Tensor((B, A)),
                    lambda key: basis_elem(rig, Tensor((B, A)), (key[1], key[0])))

    def symmetry(item):
        p, q = item
        lhs = qm.q_map(sym, qm.monoidal_mult(p, q))
        rhs = qm.monoidal_mult(q, p)
        if lhs != rhs:
            return f"monoidal symmetry fails at {p}, {q}"
        return None

    ab_pairs = pairs(gens, gens_b, pair_total_degree)
    run("monoidal-symmetric", symmetry, ab_pairs)

    # naturality of the monoidal multiplication in sampled linear maps
    nat_maps = [(_random_linear(rig, A, A, rng), _random_linear(rig, B, B, rng))
                for _ in range(3)]

    def mult_natural(item):
        p, q = item
        for f, g in nat_maps:
            fg = _pair_tensor_lin(f, g)
            qfg = LinearMap(rig, Tensor((A, B)), Tensor((A, B)), fg.on_basis)
            lhs = qm.q_map(qfg, qm.monoidal_mult(p, q))
            rhs = qm.monoidal_mult(qm.q_map(f, p), qm.q_map(g, q))
            if lhs != rhs:
                return f"m-tensor not natural at {p}, {q}"
        return None

    run("monoidal-mult-natural", mult_natural, ab_pairs)

    # monoidality of epsilon and delta
    run("counit-monoidal-unit",
        lambda q: None if qm.counit(mi) == unit_i else "eps(m_I) != 1",
        [mi])

    def counit_monoidal(item):
        p, q = item
        lhs = qm.counit(qm.monoidal_mult(p, q))
        rhs = tensor_elem(qm.counit(p), qm.counit(q))
        if lhs != rhs:
            return f"eps not monoidal at {p}, {q}"
        return None

    run("counit-monoidal-mult", counit_monoidal, ab_pairs)

    mi_lin = LinearMap(rig, UNIT_SPACE, QSpace(UNIT_SPACE),
                       lambda key: qm.monoidal_unit(rig))
    run("comult-monoidal-unit",
        lambda q: None if qm.comult(mi) == qm.q_map(mi_lin, mi)
        else "delta(m_I) != Q(m_I).m_I",
        [mi])

    mx = _mx_lin(rig, A, B)

    def comult_monoidal(item):
        p, q = item
        lhs = qm.comult(qm.monoidal_mult(p, q))
        inner = qm.monoidal_mult(qm.comult(p), qm.comult(q))
        rhs = qm.q_map(mx, inner)
        if lhs != rhs:
            return f"delta not monoidal at {p}, {q}"
        return None

    run("comult-monoidal-mult", comult_monoidal, ab_pairs)

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

    run("deriving-product-rule", product_rule, gy)
    run("deriving-linear-rule",
        lambda item: None
        if qm.counit(qm.deriving(item[0], item[1]))
        == item[1].scale(qm.comonoid_counit(item[0]))
        else f"linear rule fails at {item[0]}, {item[1]}",
        gy)

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

    run("deriving-chain-rule", chain_rule, gy)
    run("deriving-interchange",
        lambda item: None
        if qm.deriving(qm.deriving(item[0], item[1]), item[2])
        == qm.deriving(qm.deriving(item[0], item[2]), item[1])
        else f"interchange fails at {item}",
        [(q, a, b) for q in gens for a in vecs for b in vecs])

    # fusion is the composite through delta
    run("fusion-factors-through-comult",
        lambda item: None
        if qm.fusion(item[0], item[1])
        == qm.monoidal_mult(item[0], qm.comult(item[1]))
        else f"fusion mismatch at {item[0]}, {item[1]}",
        ab_pairs)

    # reconstruction of the monoidal constraints from the storage maps
    run("rebuild-monoidal-unit",
        lambda _: None if _rebuild_unit(rig) == mi else "m_I rebuild mismatch",
        [mi])

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
        if got != qm.monoidal_mult(p, q):
            return f"m-tensor rebuild mismatch at {p}, {q}"
        return None

    run("rebuild-monoidal-mult", rebuild_mult, ab_pairs)

    # storage is a two-sided inverse
    prod = Product((A, B))
    prod_gens = _gen_elems(rig, prod, maxdeg)
    run("storage-left-inverse",
        lambda q: None if qm.storage_inv(qm.storage(q)) == q
        else f"chi-inv.chi != id at {q}",
        prod_gens)
    run("storage-right-inverse",
        lambda item: None
        if qm.storage(qm.storage_inv(tensor_elem(item[0], item[1])))
        == tensor_elem(item[0], item[1])
        else f"chi.chi-inv != id at {item[0]}, {item[1]}",
        ab_pairs)

    # deriving transformation vs codereliction and the bialgebra maps
    u = qm.bialg_unit(rig, A)
    run("deriving-from-codereliction",
        lambda item: None
        if qm.deriving(item[0], item[1])
        == qm.bialg_mult(item[0], qm.codereliction(item[1]))
        else f"d != nabla.(1 x eta) at {item[0]}, {item[1]}",
        gy)
    run("codereliction-from-deriving",
        lambda y: None if qm.codereliction(y) == qm.deriving(u, y)
        else f"eta != d.(u x 1) at {y}",
        vecs)
    run("bialgebra-unit-law",
        lambda q: None if qm.bialg_mult(u, q) == q and qm.bialg_mult(q, u) == q
        else f"nabla unit law fails at {q}",
        gens)

    # naturality in sampled linear maps
    nat_fs = [_random_linear(rig, A, B, rng) for _ in range(4)]

    def natural(item):
        q = item
        for f in nat_fs:
            qf = qm.q_map(f, q)
            if f.apply(qm.counit(q)) != qm.counit(qf):
                return f"eps not natural at {q}"
            if qm.q_map(qm.q_functor(f), qm.comult(q)) != qm.comult(qf):
                return f"delta not natural at {q}"
            if qm.comonoid_counit(q) != qm.comonoid_counit(qf):
                return f"e not natural at {q}"
            ff = _pair_tensor_lin(_q_lin(rig, f, A, B), _q_lin(rig, f, A, B))
            if ff.apply(qm.comonoid_comult(q)) != qm.comonoid_comult(qf):
                return f"Delta not natural at {q}"
            for y in vecs:
                if qm.q_map(f, qm.deriving(q, y)) != qm.deriving(qf, f.apply(y)):
                    return f"d not natural at {q}, {y}"
        return None

    run("naturality-in-linear-maps", natural, gens)
    return report


def _q_lin(rig, f: LinearMap, A, B) -> LinearMap:
    return LinearMap(rig, QSpace(A), QSpace(B),
                     lambda gen: qm.q_map(f, qm.q_gen_elem(rig, gen)))


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
    action = faa.hom_action(backend)
    levels = []
    for n in range(support + 1):
        dom = FinModule(A.rig, A.dim * (n + 1))
        levels.append([f for f in backend.all_maps(dom, B)
                       if faa.multilinearity_problem(backend, A, n, f, action) is None])
    return [faa.FaaMap(backend, A, B, list(combo))
            for combo in itertools.product(*levels)]


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

    def within_bound(kg, kf):
        return max(kf.support, 0) * max(kg.support, 0) <= degree_bound

    ok, n, skipped, witness = True, 0, 0, None
    for kf in kls:
        for kg in kls:
            if not within_bound(kg, kf):
                skipped += 1
                continue
            n += 1
            via_q = faa.kleisli_compose(kg, kf, degree_bound=degree_bound)
            direct = faa.faa_compose(kg, kf)
            if list(via_q.family) != list(direct.family):
                ok, witness = False, f"composition mismatch at pair #{n}"
                break
        if not ok:
            break
    report.add("compose-matches-faa-exhaustive-dim1", ok, n, witness)
    report.add("pairs-skipped-by-degree-bound", True, skipped)

    ok, n, witness = True, 0, None
    for kf in kls:
        if max(kf.support, 0) + 1 > degree_bound:
            continue
        n += 1
        via_q = faa.kleisli_D(kf, degree_bound=degree_bound)
        direct = faa.faa_D(kf)
        if list(via_q.family) != list(direct.family):
            ok, witness = False, f"derivative mismatch at family #{n}"
            break
    report.add("derivative-matches-faa-exhaustive-dim1", ok, n, witness)

    # sampled pairs at the higher dimensions
    rng = random.Random(seed)
    for dim in range(2, max_dim + 1):
        A2 = backend.module(dim)
        ok, n, witness = True, 0, None
        okd, wd = True, None
        for _ in range(samples):
            kf = _random_kleisli(backend, A2, A2, support, rng)
            kg = _random_kleisli(backend, A2, A2, support, rng)
            if within_bound(kg, kf):
                n += 1
                via_q = faa.kleisli_compose(kg, kf, degree_bound=degree_bound)
                direct = faa.faa_compose(kg, kf)
                if list(via_q.family) != list(direct.family):
                    ok, witness = False, f"composition mismatch at sample #{n}"
                    break
            if max(kf.support, 0) + 1 <= degree_bound:
                via_qd = faa.kleisli_D(kf, degree_bound=degree_bound)
                directd = faa.faa_D(kf)
                if list(via_qd.family) != list(directd.family):
                    okd, wd = False, f"derivative mismatch at sample #{n}"
                    break
        report.add(f"compose-matches-faa-sampled-dim{dim}", ok, n, witness)
        report.add(f"derivative-matches-faa-sampled-dim{dim}", okd, n, wd)
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

def yoneda_suite(modulus: int = 2, max_dim: int = 2, support_bound: int = 2,
                 degree_bound: int = 1) -> Report:
    base = dpsh.FiniteCdcBase(modulus, list(range(1, max_dim + 1)))
    be = base.backend
    report = Report(
        "yoneda",
        {"modulus": modulus, "max_dim": max_dim,
         "support_bound": support_bound, "degree_bound": degree_bound},
    )
    for A in base.objects:
        for B in base.objects:
            sub = dpsh.full_fidelity(base, A, B, support_bound=support_bound,
                                     degree_bound=degree_bound)
            for chk in sub.checks:
                report.add(f"hom({A},{B})-{chk.name}", chk.passed,
                           chk.checked, chk.counterexample)

    # functoriality of the embedding
    ok, n, witness = True, 0, None
    for A, B, C in itertools.product(base.objects, repeat=3):
        for f in base.all_maps(A, B):
            for g in base.all_maps(B, C):
                n += 1
                lhs = dpsh.yoneda_map(base, be.compose(g, f))
                rhs = faa.faa_compose(
                    dpsh.yoneda_map(base, g), dpsh.yoneda_map(base, f))
                if lhs != rhs:
                    ok, witness = False, f"y(g.f) != y(g).y(f) at {f}, {g}"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("yoneda-functorial", ok, n, witness)

    # identities and units
    ok, n, witness = True, 0, None
    for A in base.objects:
        n += 1
        yid = dpsh.yoneda_map(base, be.identity(A))
        lifted = faa.faa_identity(be, A)
        if list(yid.family) != list(lifted.family):
            ok, witness = False, f"y(id) is not the identity family at {A}"
            break
    report.add("yoneda-preserves-identity", ok, n, witness)

    # the higher-action dictionary: acting with <f> is reindexing, acting
    # with <pi0, pi1> is the differential
    ok, n, witness = True, 0, None
    for A in base.objects:
        for B in base.objects:
            for xi in base.all_maps(A, B):
                tower = faa.coalgebra(be, xi)
                for Z in base.objects:
                    for f in base.all_maps(Z, A):
                        n += 1
                        via = be.compose(tower.component(0), f)
                        if via != be.compose(xi, f):
                            ok, witness = False, f"xi.f != m(xi x <f>) at {xi}, {f}"
                            break
                    if not ok:
                        break
                n += 1
                pi0 = be.proj([A, A], 0)
                pi1 = be.proj([A, A], 1)
                via = be.compose(tower.component(1), be.pairing([pi0, pi1]))
                if via != be.D(xi):
                    ok, witness = False, f"D(xi) != m(xi x <pi0, pi1>) at {xi}"
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("higher-action-dictionary", ok, n, witness)
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
