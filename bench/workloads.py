"""The four benchmark workloads: seeded inputs, the timed verdict, known
answers derived without the code under test, and one sabotage each.

A workload is a small, seeded slice of one of cdcat's acceptance suites.
Every function takes `cd`, a namespace holding the cdcat modules.
`build(cd, seed)` makes the inputs (set-up, not verdict time),
`run(cd, inputs)` decides every law instance and returns the reports,
`expected(seed)` gives, for every (suite, check) pair, the `checked` count
a correct program must report, and `sabotage(cd)` lists the
(owner, name, replacement) bindings of one known defect.
`inputs["input_checks"]` holds (name, got, want) counts of the generated
inputs themselves.  The expected counts come from closed formulas in this
file (generator counts, hom-set sizes, family counts), never from cdcat.
"""

from __future__ import annotations

import itertools
import random
from math import comb

MODALITY = dict(modulus=2, dim=2, maxdeg=2, pair_total_degree=2)
KLEISLI_PAIRS_PER_CLASS = 16     # family pairs per (support g, support f) class
KLEISLI_D_PER_CLASS = (2, 4, 8)  # derivative families per support class 0, 1, 2
# the suite parts run at their acceptance seed 0: their own samplers draw
# inputs of uneven cost, so only the stratified draws below follow --seed
KLEISLI_SUITE = dict(modulus=2, max_dim=2, support=1, samples=3, seed=0)
CDC_RIGS = ("nat", "int", "rat", "zmod:5")
CDC_SAMPLES = 40
CDC_CONFIG = dict(seed=0, max_degree=3, max_arity=3)
# criterion-4 pair shapes: every arity triple in {1, 2}^3 times these
# (degree f, degree g) pairs; the composite tower has support deg f * deg g
POLY_DEGREES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3))
POLY_ARITIES = tuple(itertools.product((1, 2), repeat=3))
PRESHEAF = dict(modulus=2, max_dim=2, q_bound=2, map_budget=4)
YONEDA = dict(modulus=2, max_dim=2)

NAMES = ("modality", "kleisli", "poly", "presheaf")


def _sub_seed(seed: int, salt: int) -> int:
    return random.Random(seed * 1_000_003 + salt).randrange(1 << 30)


# ---------------------------------------------------------------------------
# modality: modality_suite at zmod:2, dim 2 (criterion 2, first half, sliced)

def _q_gens(modulus, dim, degree):
    """Normal-form Q generators of one tail degree over (Z/m)^dim."""
    return modulus ** dim * comb(dim + degree - 1, degree)


def _modality_expected(seed):
    m, n = MODALITY["modulus"], MODALITY["dim"]
    top, budget = MODALITY["maxdeg"], MODALITY["pair_total_degree"]
    degs = range(top + 1)
    N = {d: _q_gens(m, n, d) for d in degs}
    G = sum(N.values())
    pairs = sum(N[a] * N[b] for a in degs for b in degs if a + b <= budget)
    triples = sum(N[a] * N[b] * N[c] for a in degs for b in degs for c in degs
                  if a + b + c <= budget)
    prod_gens = sum(_q_gens(m, 2 * n, d) for d in degs)
    gy = G * n
    counts = {
        "comonad-counit-outer": G, "comonad-counit-inner": G,
        "comonad-coassociative": G, "comonoid-counital": G,
        "comonoid-coassociative": G, "comonoid-cocommutative": G,
        "comult-preserves-e": G, "comult-preserves-Delta": G,
        "monoidal-left-unit": G, "monoidal-right-unit": G,
        "monoidal-associative": triples, "monoidal-symmetric": pairs,
        "monoidal-mult-natural": pairs, "counit-monoidal-unit": 1,
        "counit-monoidal-mult": pairs, "comult-monoidal-unit": 1,
        "comult-monoidal-mult": pairs, "deriving-product-rule": gy,
        "deriving-linear-rule": gy, "deriving-chain-rule": gy,
        "deriving-interchange": G * n * n,
        "fusion-factors-through-comult": pairs, "rebuild-monoidal-unit": 1,
        "rebuild-monoidal-mult": pairs, "storage-left-inverse": prod_gens,
        "storage-right-inverse": pairs, "deriving-from-codereliction": gy,
        "codereliction-from-deriving": n, "bialgebra-unit-law": G,
        "naturality-in-linear-maps": G,
    }
    return {("modality", k): v for k, v in counts.items()}


def _modality_build(cd, seed):
    return {"seed": seed}


def _modality_run(cd, inputs):
    return [cd.suites.modality_suite(seed=inputs["seed"], **MODALITY)]


def _modality_sabotage(cd):
    # criterion-8 seam: skip tail normalisation
    Monomial = cd.algebra.Monomial
    return [(cd.qmodality, "_make_tail", lambda keys: Monomial(tuple(keys)))]


# ---------------------------------------------------------------------------
# kleisli: co-Kleisli vs Faa di Bruno over FinFn(Z/2) (criterion 3, sliced)

def _families_up_to(support):
    # dim-1 families over Z/2: each component is a(x) * y1 * ... * yn with
    # a: Z/2 -> Z/2 arbitrary, so 4 choices per component
    return 4 ** (support + 1)


def _kleisli_expected(seed):
    m1 = KLEISLI_SUITE
    f1 = _families_up_to(m1["support"])
    out = {
        ("bench-kleisli-dim1", "compose-via-q-matches-faa"):
            9 * KLEISLI_PAIRS_PER_CLASS,
        ("bench-kleisli-dim1", "derivative-via-q-matches-faa"):
            sum(KLEISLI_D_PER_CLASS),
        ("kleisli-iso", "compose-matches-faa-exhaustive-dim1"): f1 * f1,
        ("kleisli-iso", "pairs-skipped-by-degree-bound"): 0,
        ("kleisli-iso", "derivative-matches-faa-exhaustive-dim1"): f1,
    }
    for dim in range(2, m1["max_dim"] + 1):
        out[("kleisli-iso", f"compose-matches-faa-sampled-dim{dim}")] = m1["samples"]
        out[("kleisli-iso", f"derivative-matches-faa-sampled-dim{dim}")] = m1["samples"]
    return out


def _kleisli_build(cd, seed):
    backend = cd.poly.FinFnBackend(2)
    A = backend.module(1)
    fams = cd.suites.enumerate_families(backend, A, A, support=2)
    kls = [cd.faa.kleisli_from_family(backend, f) for f in fams]
    by_class = {0: [], 1: [], 2: []}
    for k in kls:
        by_class[max(k.support, 0)].append(k)
    rng = random.Random(_sub_seed(seed, 1))
    pairs = [(rng.choice(by_class[cg]), rng.choice(by_class[cf]))
             for cg in (0, 1, 2) for cf in (0, 1, 2)
             for _ in range(KLEISLI_PAIRS_PER_CLASS)]
    derivs = [k for c, count in enumerate(KLEISLI_D_PER_CLASS)
              for k in rng.sample(by_class[c], count)]
    return {"seed": seed, "pairs": pairs, "derivs": derivs,
            "input_checks": [("families-enumerated", len(fams), _families_up_to(2))]}


def _kleisli_run(cd, inputs):
    faa = cd.faa
    report = cd.reports.Report("bench-kleisli-dim1",
                               {"seed": inputs["seed"], "degree_bound": 4})
    ok, n, witness = True, 0, None
    for kg, kf in inputs["pairs"]:
        n += 1
        via_q = faa.kleisli_compose(kg, kf, degree_bound=4)
        direct = faa.faa_compose(kg, kf)
        if list(via_q.family) != list(direct.family):
            ok, witness = False, f"composition mismatch at pair #{n}: {kg} after {kf}"
            break
    report.add("compose-via-q-matches-faa", ok, n, witness)
    ok, n, witness = True, 0, None
    for kf in inputs["derivs"]:
        n += 1
        via_q = faa.kleisli_D(kf, degree_bound=4)
        direct = faa.faa_D(kf)
        if list(via_q.family) != list(direct.family):
            ok, witness = False, f"derivative mismatch at family #{n}: {kf}"
            break
    report.add("derivative-via-q-matches-faa", ok, n, witness)
    suite = cd.suites.kleisli_suite(**KLEISLI_SUITE)
    return [report, suite]


def _kleisli_sabotage(cd):
    # criterion-8 seam: drop a term from the chain-rule partition sum
    partitions = cd.combinat.partitions
    return [(cd.faa, "_composition_partitions", lambda n: partitions(n)[:-1])]


# ---------------------------------------------------------------------------
# poly: cdc axioms on four rigs (criterion 1) + Faa towers (criterion 4)

def _poly_expected(seed):
    out = {}
    for rig in CDC_RIGS:
        for name in ("axiom-i-D-linear-in-f", "axiom-ii-Df-linear-in-direction",
                     "axiom-iii-D-of-projections", "axiom-iv-D-of-identity",
                     "axiom-v-chain-rule", "axiom-vi-first-order-slice",
                     "axiom-vii-mixed-symmetry"):
            out[(f"cdc-axioms[{rig}]", name)] = CDC_SAMPLES
    pairs = len(POLY_ARITIES) * len(POLY_DEGREES)
    out[("bench-faa-towers", "compose-matches-substitution")] = pairs
    out[("bench-faa-towers", "faa-D-matches-poly-D")] = pairs
    return out


def _degree(f):
    return max(p.total_degree() for p in f.components)


def _poly_build(cd, seed):
    sampler = cd.cdc.PolySampler(cd.algebra.INT, seed=_sub_seed(seed, 3),
                                 max_arity=2, max_degree=3, max_terms=3)

    def draw(dom, cod, degree):
        # rejection-sample the exact shape, so every seed costs about the same
        while True:
            f = sampler.random_morphism(dom, cod)
            if _degree(f) == degree:
                return f

    pairs = [(draw(A, B, df), draw(B, C, dg))
             for A, B, C in POLY_ARITIES for df, dg in POLY_DEGREES]
    return {"seed": seed, "pairs": pairs}


def _poly_run(cd, inputs):
    faa, poly = cd.faa, cd.poly
    reports = [cd.suites.cdc_suite(rig, samples=CDC_SAMPLES, **CDC_CONFIG)
               for rig in CDC_RIGS]
    backend = cd.cdc.PolyBackend(cd.algebra.INT)
    report = cd.reports.Report("bench-faa-towers", {"seed": inputs["seed"]})
    ok_c, n_c, w_c = True, 0, None
    ok_d, n_d, w_d = True, 0, None
    for f, g in inputs["pairs"]:
        tf = faa.coalgebra(backend, f)
        if ok_c:
            n_c += 1
            tg = faa.coalgebra(backend, g)
            if faa.faa_compose(tg, tf) != faa.coalgebra(backend, poly.substitute(g, f)):
                ok_c, w_c = False, f"tower of g.f differs at g={g}, f={f}"
        if ok_d:
            n_d += 1
            if faa.faa_D(tf) != faa.coalgebra(backend, poly.poly_D(f)):
                ok_d, w_d = False, f"faa_D differs from the tower of D f at f={f}"
    report.add("compose-matches-substitution", ok_c, n_c, w_c)
    report.add("faa-D-matches-poly-D", ok_d, n_d, w_d)
    return reports + [report]


def _poly_sabotage(cd):
    # PolyBackend.D drops the last direction variable
    Polynomial, PolyMap = cd.poly.Polynomial, cd.poly.PolyMap

    def bad_poly_D(f):
        n, rig = f.dom, f.rig
        comps = []
        for p in f.components:
            acc = Polynomial.zero(rig, 2 * n)
            for j in range(n - 1):
                widened = Polynomial(rig, 2 * n, {e + (0,) * n: c
                                                  for e, c in p.partial(j).terms.items()})
                acc = acc + widened * Polynomial.var(rig, 2 * n, n + j)
            comps.append(acc)
        return PolyMap(rig, 2 * n, f.cod, comps)

    return [(cd.cdc, "poly_D", bad_poly_D)]


# ---------------------------------------------------------------------------
# presheaf: Yoneda embedding and presheaf axioms over Mat(Z/2) (criterion 7)

def _hom(m, dom, cod):
    return m ** (dom * cod)


def _presheaf_expected(seed):
    m, objs = PRESHEAF["modulus"], range(1, PRESHEAF["max_dim"] + 1)
    budget, qb = PRESHEAF["map_budget"], PRESHEAF["q_bound"]
    out = {}
    # yoneda_suite at support bound 2: level-0 candidates are all of hom(A, B),
    # level 1 the maps linear in the direction only, level 2 only zero
    for A in objs:
        for B in objs:
            h = _hom(m, A, B)
            out[("yoneda", f"hom({A},{B})-yoneda-injective")] = h
            out[("yoneda", f"hom({A},{B})-survivors-equal-yoneda-image")] = h * h
            out[("yoneda", f"hom({A},{B})-candidate-count")] = h * h
    out[("yoneda", "yoneda-functorial")] = sum(
        _hom(m, A, B) * _hom(m, B, C) for A in objs for B in objs for C in objs)
    out[("yoneda", "yoneda-preserves-identity")] = len(objs)
    out[("yoneda", "higher-action-dictionary")] = sum(
        _hom(m, A, B) * (sum(_hom(m, Z, A) for Z in objs) + 1)
        for A in objs for B in objs)
    # presheaf_suite: spanning-set sizes per presheaf and stage
    spans = {
        **{f"y({t})": {A: _hom(m, A, t) for A in objs} for t in objs},
        "unit": {A: m for A in objs},
        "y(1)(x)y(2)": {A: (1 * A) * (2 * A) for A in objs},
        "Qy(1)": {A: m ** A * sum(comb(A + d - 1, d) for d in range(qb + 1))
                  for A in objs},
    }
    for name, s in spans.items():
        second = sum(s[A] * min(budget, _hom(m, Z, A) ** 3) for A in objs for Z in objs)
        counts = {
            "action-preserves-identity": sum(s.values()),
            "action-preserves-composition": sum(
                s[A] * _hom(m, B, A) * _hom(m, C, B)
                for A in objs for B in objs for C in objs),
            "axiom-i-D-linear": sum(v * v for v in s.values()),
            "axiom-ii-direction-linear": second,
            "axiom-iii-chain-compatibility": sum(
                s[A] * _hom(m, Z, A) for A in objs for Z in objs),
            "axiom-iv-first-order-slice": second,
            "axiom-v-mixed-symmetry": second,
        }
        for check, v in counts.items():
            out[("presheaf", f"{name}:{check}")] = v
    return out


def _presheaf_build(cd, seed):
    return {"seed": seed, "suite_seed": _sub_seed(seed, 5)}


def _presheaf_run(cd, inputs):
    return [cd.suites.yoneda_suite(**YONEDA),
            cd.suites.presheaf_suite(seed=inputs["suite_seed"], **PRESHEAF)]


def _presheaf_sabotage(cd):
    # MatBackend.D with the zero block on the wrong side
    MatMap = cd.matcat.MatMap

    def bad_D(self, f):
        rows = tuple(r + (0,) * f.dom for r in f.rows)
        return MatMap(self.rig, 2 * f.dom, f.cod, rows)

    return [(cd.matcat.MatBackend, "D", bad_D)]


# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, build, run, expected, sabotage, why):
        self.name = name
        self.build = build
        self.run = run
        self.expected = expected
        self.sabotage = sabotage
        self.why = why


WORKLOADS = {
    "modality": Workload(
        "modality", _modality_build, _modality_run, _modality_expected,
        _modality_sabotage,
        "Q structure maps on small, heavily reused generators"),
    "kleisli": Workload(
        "kleisli", _kleisli_build, _kleisli_run, _kleisli_expected,
        _kleisli_sabotage,
        "co-Kleisli through Q vs direct Faa formulas on FinFn tables"),
    "poly": Workload(
        "poly", _poly_build, _poly_run, _poly_expected, _poly_sabotage,
        "polynomial substitution and towers, no Q: low-sharing input"),
    "presheaf": Workload(
        "presheaf", _presheaf_build, _presheaf_run, _presheaf_expected,
        _presheaf_sabotage,
        "the only workload on matcat and dpsh"),
}
