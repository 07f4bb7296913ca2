"""Golden reports: fixed configs whose JSON must stay byte-identical.

Each digest is the sha256 of json.dumps(report.to_dict(), sort_keys=True).
A refactor that keeps behaviour keeps every digest; a digest is re-pinned
only when a report is meant to change.  The sabotaged runs pin the
counterexample text, which is where morphisms are printed.  The Poly
outputs are pinned the same way, as the sha256 of their rendered text.
"""

import hashlib
import json
import random
import sys

import pytest

from cdcat import cdc, dpsh, faa, qmodality, suites
from cdcat.algebra import INT, ModuleElement, Monomial, add_scaled
from cdcat.combinat import partitions
from cdcat.matcat import MatBackend, MatMap
from cdcat.poly import FinFnBackend, Polynomial, PolyMap, poly_D, substitute


def digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def faa_axioms():
    be = cdc.PolyBackend(INT)
    sampler = faa.FaaSampler(be, cdc.PolySampler(INT, seed=4, max_arity=2, max_degree=2))
    return cdc.check_axioms(faa.FaaBackend(be), sampler, samples=5)


def q_of_a_tensor():
    # Q(y(1) (x) unit): Q reads a tensor factor through its stage maps
    base = dpsh.FiniteCdcBase(2, [1, 2])
    X = dpsh.TensorPresheaf(dpsh.ReprPresheaf(base, 1), dpsh.UnitPresheaf(base))
    return dpsh.check_presheaf(dpsh.QPresheaf(X, 1), map_budget=4)


def poly_D_dropping_last_direction(f):
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


GOLDEN = {
    "cdc-nat": (lambda: suites.cdc_suite("nat", samples=20),
                "73fb57bf2a6a5ec02748ecf12772575dc1d8425d8e0f60d125c7d62d558311a7"),
    "cdc-int": (lambda: suites.cdc_suite("int", samples=20),
                "1cf7af9950c42083266d367f3281500982aeee5d9794a915eaf78551dd6e3ecd"),
    "cdc-rat": (lambda: suites.cdc_suite("rat", samples=20),
                "e8fba99268486e648d4a89dc584b2791f8118e82fa92c79bf2216b495afb862b"),
    "cdc-zmod5": (lambda: suites.cdc_suite("zmod:5", samples=20),
                  "16703ff3e5c757ba2a7db366465784f017f45f62b6b6d9a909344c23d3ef1066"),
    # the benchmark's poly config: 40 samples at seed 0, degree and arity 3
    "cdc-nat-bench": (lambda: suites.cdc_suite("nat", samples=40, seed=0,
                                               max_degree=3, max_arity=3),
                      "cc37e9fa6f3328aabc2a5334705a06a0b9e721872742af16623de99470f52825"),
    "cdc-int-bench": (lambda: suites.cdc_suite("int", samples=40, seed=0,
                                               max_degree=3, max_arity=3),
                      "ab8a5689502d74e40ad9dcefbf0f0b5e20b1df34bae7b22f0a73645e28d7c45d"),
    "cdc-rat-bench": (lambda: suites.cdc_suite("rat", samples=40, seed=0,
                                               max_degree=3, max_arity=3),
                      "d1c1be641e2eae2a1f835f857eb1957125ec7f0fb8d1662db097e902346b78ec"),
    "cdc-zmod5-bench": (lambda: suites.cdc_suite("zmod:5", samples=40, seed=0,
                                                 max_degree=3, max_arity=3),
                        "203416025d397f4d74b4686d4e1bf3fefe585c7414eb70125d1e95f29e6b98af"),
    "modality": (lambda: suites.modality_suite(2, dim=1, maxdeg=2),
                 "605c94a185b19edb547fc4e43e26b11442dcbc43f2456baf3daaacd8a1d12e50"),
    "modality-dim2": (lambda: suites.modality_suite(2, dim=2, maxdeg=2,
                                                    pair_total_degree=2, seed=7),
                      "7f92dbe117c1977ee2392eb7c6abe3e9403562b881946998f68f5d4d48080b8d"),
    "modality-zmod3": (lambda: suites.modality_suite(3, dim=1, maxdeg=3,
                                                     pair_total_degree=3, seed=7),
                       "fbfdfbfe30139b6ba571b2e084971d7236a550271eccfd5388c4338fcd525b03"),
    "kleisli": (lambda: suites.kleisli_suite(2, max_dim=2, support=1, samples=3),
                "932c3feca3ab8351f588fd78135709b5918d5e4a7ed13412c917e32c2d4911fe"),
    "yoneda": (lambda: suites.yoneda_suite(2, max_dim=2),
               "028abb5e883117e0259c0729b647b33aba2be7e6e5e4c6b2b0550f9c85797eea"),
    "presheaf": (lambda: suites.presheaf_suite(2, max_dim=2, q_bound=1, map_budget=4),
                 "3309bf8a4e67911d809c2c274ad79ee6d677ed58751c20d42116012a944f90ae"),
    # q_bound=2 pins the degree-2 generators of Qy(1) as well
    "presheaf-q2": (lambda: suites.presheaf_suite(2, max_dim=2, q_bound=2, map_budget=4,
                                                  seed=0),
                    "67e8d80a635e51e92af1981620dce22a0dfa7086f400450a1e701af1b3f73f06"),
    # the benchmark's presheaf config; 210343963 is bench/workloads.py's
    # _sub_seed(7, 5), the suite seed of its default --seed 7
    "presheaf-bench": (lambda: suites.presheaf_suite(2, max_dim=2, q_bound=2,
                                                     map_budget=4, seed=210343963),
                       "c43a4dcb1817fd786f6f70e49aafcd4daae25e3da73ee2e508eb9d105f3c276f"),
    "yoneda-zmod3": (lambda: suites.yoneda_suite(3, max_dim=1),
                     "718f24c671669000dabaaaf914c22f9e6b908cfc920d978afbb0fded84414d05"),
    "presheaf-zmod3": (lambda: suites.presheaf_suite(3, max_dim=1, q_bound=1,
                                                     map_budget=4),
                       "4cdd3da068a538a2dc39e9da1e02f45ca73031134e38f884cfea7469194ca9de"),
    "faa-axioms": (faa_axioms,
                   "6ea896c9b1aedf63c51a7e7383d9e21ae4283251b73b3d1a854ae0312b47ce4a"),
    "presheaf-q-tensor": (q_of_a_tensor,
                          "89643cd2ac9f7c604a35803e0e7eda2846ab2736a5ccbb4dc4e5a703e1b17f0b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name):
    run, expected = GOLDEN[name]
    report = run()
    assert report.passed, report.render()
    assert digest(report) == expected


@pytest.mark.parametrize("name, run, expected", [
    ("cdc-int", lambda: suites.cdc_suite("int", samples=20),
     "c32e708f51e64a2067b581f90043ff1a5dcb94afad0f1e73f600f5b23450e0bd"),
    ("faa-axioms", faa_axioms,
     "1e8a31b5414da6a7ce96693dc79203ba76379802660694c22f39af42860b05b0"),
])
def test_golden_report_with_broken_poly_D(monkeypatch, name, run, expected):
    monkeypatch.setattr(cdc, "poly_D", poly_D_dropping_last_direction)
    report = run()
    assert not report.passed
    assert digest(report) == expected


def test_golden_report_with_a_dropped_chain_rule_term(monkeypatch):
    monkeypatch.setattr(faa, "_composition_partitions", lambda n: partitions(n)[:-1])
    report = faa_axioms()
    assert not report.passed
    assert digest(report) == "af689605eb4f4fa16e17b1b612f26be5033392c3fc65cffb8c375e425532ddf6"


def mat_D_with_the_zero_block_first(self, f):
    rows = tuple(r + (0,) * f.dom for r in f.rows)
    return MatMap(self.rig, 2 * f.dom, f.cod, rows)


@pytest.mark.parametrize("name, owner, attr, value, run, expected", [
    ("modality", qmodality, "_make_tail", lambda keys: Monomial(tuple(keys)),
     lambda: suites.modality_suite(2, dim=1, maxdeg=2),
     "f4b336a6e236330da7a19b12ecd276b0b9a0f4d50b8366d6e036820b921bcd45"),
    ("kleisli", faa, "_composition_partitions", lambda n: partitions(n)[:-1],
     lambda: suites.kleisli_suite(2, max_dim=2, support=1, samples=3),
     "6ef21dfa1a53a8b9cb7d0d8fb173dcef7a01a4eabe9a143a68f6b5387ea63c5b"),
    ("presheaf", MatBackend, "D", mat_D_with_the_zero_block_first,
     lambda: suites.presheaf_suite(2, max_dim=2, q_bound=1, map_budget=4),
     "4d909d38b446268c122bd7f0b5bccd1e2b68de47c96716547b0bdaa1b30e911b"),
])
def test_golden_failing_suite_report(monkeypatch, name, owner, attr, value, run,
                                     expected):
    monkeypatch.setattr(owner, attr, value)
    report = run()
    assert not report.passed
    assert digest(report) == expected


def comonoid_comult_without_the_empty_left_terms(q):
    out = COMONOID_COMULT(q)
    trimmed = {k: c for k, c in out.coeffs.items() if k[0].degree != 0}
    return ModuleElement(out.rig, out.space, trimmed)


COMONOID_COMULT = qmodality.comonoid_comult


def test_golden_zmod3_modality_report_with_dropped_subset_terms(monkeypatch):
    # over zmod:2 every coefficient is 1; zmod:3 pins where the scalars go
    monkeypatch.setattr(qmodality, "comonoid_comult",
                        comonoid_comult_without_the_empty_left_terms)
    report = suites.modality_suite(3, dim=1, maxdeg=3, pair_total_degree=3, seed=7)
    assert not report.passed
    assert digest(report) == "f9cb2f7eaad7e1a70a4c0bcd953ba8b2402d0f9614d60491bcf86e70fee9c7bb"


def test_kleisli_suite_keeps_no_q_result_across_calls(monkeypatch):
    # a run after a passing one must still see a sabotaged comonoid_comult,
    # which storage reads, with the pinned failing report
    run = lambda: suites.kleisli_suite(2, max_dim=2, support=1,  # noqa: E731
                                       samples=3)
    assert run().passed
    monkeypatch.setattr(qmodality, "comonoid_comult",
                        comonoid_comult_without_the_empty_left_terms)
    report = run()
    assert not report.passed
    assert digest(report) == "c9ced809c9a1960bcb00eeab0a729846e7161412bf269b2f942fb9ad315c31ca"


def counit_with_the_degree_cases_swapped(q):
    out = {}
    for gen, c in q.coeffs.items():
        if gen.degree == 1:  # degree-0 and degree-1 cases swapped
            add_scaled(out, c, gen.point)
    return ModuleElement(q.rig, q.space.inner, out)


@pytest.mark.parametrize("attr, value, expected", [
    ("_make_tail", lambda keys: Monomial(tuple(keys)), None),
    ("counit", counit_with_the_degree_cases_swapped, None),
    ("comonoid_comult", comonoid_comult_without_the_empty_left_terms,
     "f9cb2f7eaad7e1a70a4c0bcd953ba8b2402d0f9614d60491bcf86e70fee9c7bb"),
], ids=["_make_tail", "counit", "comonoid_comult"])
def test_modality_suite_keeps_no_q_result_across_calls(monkeypatch, attr, value,
                                                       expected):
    # a run after a passing one must still see a sabotaged seam: the suite's
    # memos live for one call and its linear maps are built per call
    run = lambda: suites.modality_suite(3, dim=1, maxdeg=3,  # noqa: E731
                                        pair_total_degree=3, seed=7)
    assert run().passed
    monkeypatch.setattr(qmodality, attr, value)
    report = run()
    assert not report.passed
    if expected is not None:
        assert digest(report) == expected


def test_kleisli_suite_sees_a_sabotaged_counit(monkeypatch):
    # the co-Kleisli differential reads the counit through qmodality, so
    # criterion 8's swapped counit reaches it
    monkeypatch.setattr(qmodality, "counit", counit_with_the_degree_cases_swapped)
    report = suites.kleisli_suite(2, max_dim=2, support=1, samples=3)
    assert [c.name for c in report.checks if not c.passed] == [
        "derivative-matches-faa-exhaustive-dim1", "derivative-matches-faa-sampled-dim2"]


def test_presheaf_suite_keeps_no_result_across_calls(monkeypatch):
    # the act and pairing memos live for one call, so a run after a passing
    # one still sees a sabotaged differential, with the pinned report
    run = lambda: suites.presheaf_suite(2, max_dim=2, q_bound=1,  # noqa: E731
                                        map_budget=4)
    assert run().passed
    monkeypatch.setattr(MatBackend, "D", mat_D_with_the_zero_block_first)
    report = run()
    assert not report.passed
    assert digest(report) == "4d909d38b446268c122bd7f0b5bccd1e2b68de47c96716547b0bdaa1b30e911b"


class ZeroFixesTwo(dpsh.ReprPresheaf):
    """y(1) whose action lets the zero map fix the element 2: identities
    still act trivially, composition does not."""

    def act(self, f, xi):
        if f.is_zero and xi.rows == ((2,),):
            return xi
        return super().act(f, xi)


def test_golden_presheaf_report_with_a_non_functorial_action():
    report = dpsh.check_presheaf(ZeroFixesTwo(dpsh.FiniteCdcBase(3, [1]), 1))
    composition = {c.name: c for c in report.checks}["action-preserves-composition"]
    assert not composition.passed and composition.checked == 16
    assert digest(report) == "eda5de5c99c65d558219b0ebc5d16de947c02e0676f4fdb68465a1b28cbe7cc6"


def test_golden_full_fidelity_with_an_add_that_drops_its_second_argument(monkeypatch):
    # every candidate then evaluates to zero on both sides of its
    # differential check, so all 16 candidates survive
    monkeypatch.setattr(MatBackend, "add", lambda self, f, g: f)
    report = dpsh.full_fidelity(dpsh.FiniteCdcBase(2, [1, 2]), 2, 1)
    assert not report.passed
    assert digest(report) == "ca864cdd7e0128b424f1eeb1a4070a1a46f7b768f7db6146bb2f3ebae6e38935"


def poly_outputs(rig_name):
    """Rendered substitute, poly_D, nth_derivative and coalgebra outputs on
    seeded PolySampler draws; one line per output."""
    rig = suites.parse_rig(rig_name)
    backend = cdc.PolyBackend(rig)
    sampler = cdc.PolySampler(rig, seed=11, max_arity=2, max_degree=3, max_terms=3)
    lines = []
    for _ in range(10):
        a, b, c = (sampler.random_object() for _ in range(3))
        f = sampler.random_morphism(a, b)
        g = sampler.random_morphism(b, c)
        lines.append(f"{g} o {f} = {substitute(g, f)}")
        lines.append(f"D{f} = {poly_D(f)}")
        for n in range(3):
            lines.append(f"d{n}{f} = {cdc.nth_derivative(backend, f, a, n)}")
        tf, tg = faa.coalgebra(backend, f), faa.coalgebra(backend, g)
        lines.append(f"tower{g} = {tg}")
        if tf.support * tg.support <= 6:  # keeps the partition sums small
            lines.append(f"tower{g} o tower{f} = {faa.faa_compose(tg, tf)}")
    return "\n".join(lines)


@pytest.mark.parametrize("rig_name, expected", [
    ("nat",
     "40cd02e7e000d56dcbb1fc07d7cba49c5ac66edd532e4312476a1dea79def322"),
    ("int",
     "903e5dfbaf5c0450dd8196005024dd152061f56c67358e353657860657ef0fe8"),
    ("rat",
     "e00cf39e204809b068b6634d79620d710dd8a45c4ce91bd50b20513ac861c18a"),
    ("zmod:5",
     "d434a463813ee6fd274fb9becbec6686cc7678d832643c7335e67447e31bb9eb"),
])
def test_golden_poly_outputs(rig_name, expected):
    text = poly_outputs(rig_name)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# seeded (g, f) pairs of dim-1 families of support <= 2, per modulus; zmod:3
# reaches the degree-4 composites, zmod:2 draws mostly small supports
KLEISLI_PAIRS = {2: 16, 3: 6}


def kleisli_pairs(modulus):
    backend = FinFnBackend(modulus)
    A = backend.module(1)
    rng = random.Random(5)
    return [(suites._random_kleisli(backend, A, A, 2, rng),
             suites._random_kleisli(backend, A, A, 2, rng))
            for _ in range(KLEISLI_PAIRS[modulus])]


def render_tables(fm):
    return " | ".join(str(sorted(t.table.items())) for t in fm.family)


def kleisli_outputs(modulus):
    """Rendered kleisli_compose, faa_compose, kleisli_D and faa_D tables on
    seeded pairs of families; one line per output."""
    lines = []
    for kg, kf in kleisli_pairs(modulus):
        lines.append(f"{kg} o {kf}")
        lines.append(f"kleisli_compose {render_tables(faa.kleisli_compose(kg, kf))}")
        lines.append(f"faa_compose {render_tables(faa.faa_compose(kg, kf))}")
        lines.append(f"kleisli_D {render_tables(faa.kleisli_D(kf))}")
        lines.append(f"faa_D {render_tables(faa.faa_D(kf))}")
    return "\n".join(lines)


@pytest.mark.parametrize("modulus, expected", [
    (2, "1f532743b1a5bbabaca0d6af5f78d69517cd3d654202fe773615aeca90827a8a"),
    (3, "b304d67777d263507016bd296c4af1d1b9fc8a62721f4e9c0ed726734fbddc35"),
])
def test_golden_kleisli_outputs(modulus, expected):
    text = kleisli_outputs(modulus)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_kleisli_and_faa_sums_build_no_zero_table_on_nonzero_families(monkeypatch):
    # the only zero table left is faa_D's f^(n+1) beyond the support, which
    # FaaMap.component materializes once per call
    pairs = [(kg, kf) for m in KLEISLI_PAIRS for kg, kf in kleisli_pairs(m)
             if not (kg.is_zero or kf.is_zero)]
    assert len(pairs) >= 6
    zero = FinFnBackend.zero
    callers = []

    def counting_zero(self, dom, cod):
        callers.append(sys._getframe(1).f_code.co_name)
        return zero(self, dom, cod)

    monkeypatch.setattr(FinFnBackend, "zero", counting_zero)
    for kg, kf in pairs:
        faa.kleisli_compose(kg, kf)
        faa.faa_compose(kg, kf)
        faa.kleisli_D(kf)
        assert callers == []
        faa.faa_D(kf)
        assert callers == ["component"]
        callers.clear()


def test_faa_compose_after_a_zero_family_builds_no_zero_table(monkeypatch):
    # every term of the partition sum is a component of g after something,
    # so g = 0 gives the zero family; a zero f does not: g^(0) after 0 is g(0)
    zero = FinFnBackend.zero
    callers = []

    def counting_zero(self, dom, cod):
        callers.append(sys._getframe(1).f_code.co_name)
        return zero(self, dom, cod)

    for m in KLEISLI_PAIRS:
        backend = FinFnBackend(m)
        A = backend.module(1)
        kg0 = faa.kleisli_from_family(backend, faa.FaaMap(backend, A, A, []))
        for _, kf in kleisli_pairs(m):
            expected = faa.kleisli_compose(kg0, kf)
            assert expected.is_zero
            with monkeypatch.context() as mp:
                mp.setattr(FinFnBackend, "zero", counting_zero)
                got = faa.faa_compose(kg0, kf)
            assert got == expected and (got.dom, got.cod) == (A, A)
            assert callers == []
