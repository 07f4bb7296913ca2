"""Acceptance gate: the eight top-level criteria, one printed line each.

Each test prints a single "criterion N: PASS/FAIL" line before asserting, so
a full run documents the verdict for every criterion at stated tolerances.
"""

import hashlib
import itertools
import json
import time
from math import comb, factorial

import pytest

from cdcat import cdc, faa, qmodality, suites
from cdcat.algebra import INT, Monomial, zero_elem
from cdcat.combinat import PartialIso, arrange, partial_isos, partitions
from cdcat.poly import Polynomial, parse_poly_map, poly_D, substitute

pytestmark = pytest.mark.slow


def verdict(num, ok, desc):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_1_cdc_axioms_four_rigs():
    start = time.time()
    reports = [
        suites.cdc_suite(rig, seed=0, samples=200, max_degree=3, max_arity=3)
        for rig in ("nat", "int", "rat", "zmod:5")
    ]
    elapsed = time.time() - start
    ok = all(r.passed for r in reports) and elapsed < 60
    assert verdict(
        1, ok,
        f"7 axioms x 200 samples over nat/int/rat/zmod:5 in {elapsed:.1f}s (< 60s)",
    ), "\n".join(r.render() for r in reports if not r.passed)


def test_criterion_2_modality_invariants():
    start = time.time()
    reports = [suites.modality_suite(m, dim=2, maxdeg=3) for m in (2, 3)]
    elapsed = time.time() - start
    ok = all(r.passed for r in reports) and elapsed < 300
    assert verdict(
        2, ok,
        f"modality invariants exhaustive over zmod:2 and zmod:3, dim 2, "
        f"degree <= 3 in {elapsed:.1f}s (< 5 min)",
    ), "\n".join(r.render() for r in reports if not r.passed)


def test_criterion_3_kleisli_faa_oracle():
    report = suites.kleisli_suite(
        modulus=2, max_dim=2, support=2, degree_bound=4, samples=25, seed=0
    )
    skipped = next(
        c for c in report.checks if c.name == "pairs-skipped-by-degree-bound"
    )
    ok = report.passed and skipped.checked == 0
    assert verdict(
        3, ok,
        "co-Kleisli compose/D through Q equal the direct Faa formulas, "
        "exhaustive dim 1 and sampled dim 2, no pairs skipped at bound 4",
    ), report.render()
    # the report is pinned too: sha256 of its sorted-key JSON
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "08152cf7b1649df1c139e460207d790152a5326c629394e3061c42a77e7f744b")


def test_criterion_4_faa_composition_correctness():
    backend = cdc.PolyBackend(INT)
    sampler = cdc.PolySampler(INT, seed=0, max_arity=2, max_degree=3, max_terms=3)
    ok = True
    for _ in range(100):
        A, B, C = (sampler.random_object() for _ in range(3))
        f = sampler.random_morphism(A, B)
        g = sampler.random_morphism(B, C)
        tf = faa.coalgebra(backend, f)
        tg = faa.coalgebra(backend, g)
        composite = faa.faa_compose(tg, tf)
        oracle = faa.coalgebra(backend, substitute(g, f))
        if not all(
            composite.component(n) == oracle.component(n)
            for n in range(5)
        ):
            ok = False
            break
        if faa.faa_D(tf) != faa.coalgebra(backend, poly_D(f)):
            ok = False
            break
    assert verdict(
        4, ok,
        "100 random integer pairs: chain-rule family = coalgebra of the "
        "substituted composite (n <= 4) and faa_D = coalgebra of poly_D",
    )


def test_criterion_5_round_trips_and_mixed_derivatives():
    backend = cdc.PolyBackend(INT)
    sampler = cdc.PolySampler(INT, seed=1, max_arity=2, max_degree=3, max_terms=3)
    ok = True
    for _ in range(20):
        A = sampler.random_object()
        f = sampler.random_morphism(A, sampler.random_object())
        for n in range(4):
            full = cdc.iterated_D(backend, f, n)
            if cdc.decompose_iterated(backend, f, A, n) != full:
                ok = False
            if cdc.reconstruct_from_iterated(backend, full, A, n) != \
                    cdc.nth_derivative(backend, f, A, n):
                ok = False
    one_var = cdc.PolySampler(INT, seed=2, max_arity=1, max_degree=3, max_terms=3)
    for _ in range(5):
        f = one_var.random_morphism(1, 1)
        fam = faa.coalgebra(backend, f)
        for m in range(3):
            fm = cdc.nth_derivative(backend, f, 1, m)
            for n in range(3):
                if faa.faa_higher(fam, m, n) != \
                        cdc.nth_derivative(backend, fm, m + 1, n):
                    ok = False
    assert verdict(
        5, ok,
        "decompose/reconstruct agree with literal iterated D for n <= 3; "
        "mixed derivatives match the iterated oracle for m, n <= 2",
    )


def test_criterion_6_combinatorics_oracles():
    bell = [1]
    for m in range(8):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    ok = all(len(partitions(n)) == bell[n] for n in range(9))
    for m, n in itertools.product(range(6), repeat=2):
        expected = sum(
            comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1)
        )
        if len(partial_isos(m, n)) != expected:
            ok = False

    class Grid:
        def __getitem__(self, idx):
            return "x{}{}".format(*idx)

    theta = PartialIso(((1, 2), (3, 4)), 3, 4)
    if arrange(theta, Grid()) != ["x00", "x12", "x34", "x20", "x01", "x03"]:
        ok = False
    assert verdict(
        6, ok,
        "Bell numbers to n = 8, partial-iso counts to m, n = 5, and the "
        "worked arrangement x00, x12, x34, x20, x01, x03",
    )


def test_criterion_7_embedding_and_presheaf_suites():
    yon = suites.yoneda_suite(modulus=2, max_dim=2)
    psh = suites.presheaf_suite(modulus=2, max_dim=2, q_bound=2)
    ok = yon.passed and psh.passed
    assert verdict(
        7, ok,
        "full fidelity of the embedding on Mat(Z/2) up to dim 2, and all "
        "constructed presheaves pass the differential axioms exhaustively",
    ), "\n".join(r.render() for r in (yon, psh) if not r.passed)


# ---------------------------------------------------------------------------
# criterion 8: mutation sensitivity

def first_failure(report):
    for chk in report.checks:
        if not chk.passed:
            return chk
    return None


def sabotage_cases():
    def drop_partition_term(mp):
        mp.setattr(faa, "_composition_partitions", lambda n: partitions(n)[:-1])
        return suites.kleisli_suite(modulus=2, max_dim=1, degree_bound=4)

    def omit_substitution_sum(mp):
        mp.setattr(faa, "_substitution_terms", lambda backend, fn, xs, ys: [])
        return suites.kleisli_suite(modulus=2, max_dim=1, degree_bound=4)

    def unsorted_tails(mp):
        mp.setattr(qmodality, "_make_tail", lambda keys: Monomial(tuple(keys)))
        return suites.modality_suite(2, dim=2, maxdeg=2, pair_total_degree=2)

    def swapped_counit(mp):
        def bad(q):
            out = zero_elem(q.rig, q.space.inner)
            for gen, c in q.coeffs.items():
                if gen.degree == 1:  # degree-0 and degree-1 cases swapped
                    out = out + gen.point.scale(c)
            return out

        mp.setattr(qmodality, "counit", bad)
        return suites.modality_suite(2, dim=1, maxdeg=2)

    def dropped_subset_term(mp):
        real = qmodality.comonoid_comult

        def bad(q):
            from cdcat.algebra import ModuleElement

            out = real(q)
            # drop every (empty-left, full-right) subset term
            trimmed = {k: c for k, c in out.coeffs.items() if k[0].degree != 0}
            return ModuleElement(out.rig, out.space, trimmed)

        mp.setattr(qmodality, "comonoid_comult", bad)
        return suites.modality_suite(2, dim=1, maxdeg=2)

    return [
        ("drop a partition term from the chain-rule sum", drop_partition_term),
        ("omit the substitution sum from the differential", omit_substitution_sum),
        ("skip tail normalization", unsorted_tails),
        ("swap the counit's degree-0/1 cases", swapped_counit),
        ("drop the empty-left subset terms from the comultiplication",
         dropped_subset_term),
    ]


def test_criterion_8_mutation_sensitivity(monkeypatch):
    results = []
    for desc, body in sabotage_cases():
        with monkeypatch.context() as mp:
            report = body(mp)
        failing = first_failure(report)
        caught = failing is not None and failing.counterexample is not None
        if caught:
            print(f"  sabotage caught ({desc}): {failing.name} -> "
                  f"{failing.counterexample}")
        results.append((desc, caught))
    ok = all(caught for _, caught in results)
    assert verdict(
        8, ok,
        "all five documented sabotages make a suite fail with a printed "
        "counterexample",
    ), [desc for desc, caught in results if not caught]


def partial_with_multiplicity_off_by_one(self, i):
    return Polynomial(self.rig, self.arity, {
        e[:i] + (e[i] - 1,) + e[i + 1:]: c * (e[i] + 1)
        for e, c in self.terms.items() if e[i]})


@pytest.mark.parametrize("rig", ["nat", "int", "rat", "zmod:5"])
def test_criterion_8_poly_layer_sabotage(monkeypatch, rig):
    """The Poly/CDC layer's sabotage: d(x^n)/dx = (n + 1) x^(n-1)."""
    monkeypatch.setattr(Polynomial, "partial", partial_with_multiplicity_off_by_one)
    failing = first_failure(suites.cdc_suite(rig, samples=40))
    assert failing is not None and failing.counterexample is not None


def test_criterion_8_poly_layer_seam_reaches_the_towers(monkeypatch):
    """The one-pass D_i of a tower's upper levels differentiates through
    Polynomial.partial, so the poly-layer sabotage reaches them too."""
    backend = cdc.PolyBackend(INT)
    f = parse_poly_map("[x1^2*x2]", INT, 2)
    level_1, level_2 = faa.coalgebra(backend, f).family[1:3]
    monkeypatch.setattr(Polynomial, "partial", partial_with_multiplicity_off_by_one)
    assert faa.coalgebra(backend, f).family[2] != level_2
    # D_1 of an unchanged level 1 changes as well
    assert backend.partial(level_1, [2, 2], 1) != level_2
