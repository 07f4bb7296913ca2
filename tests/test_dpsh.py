"""Differential presheaves over Mat(Z/m) and the embedding machinery."""

import itertools
import random

import pytest

from cdcat import dpsh, faa
from cdcat.errors import InvalidSequence, ObjectMismatch, SizeLimit
from cdcat.matcat import MatMap
from cdcat.qmodality import q_gen_elem, q_inject


def small_base(modulus=2, objects=(1,)):
    return dpsh.FiniteCdcBase(modulus, list(objects))


# ---------------------------------------------------------------------------
# the presheaf flavours and their axioms

def test_representable_differential_of_identity():
    base = small_base(2, (1, 2))
    y2 = dpsh.representable(base, 2)
    be = base.backend
    assert y2.diff(2, be.identity(2)) == be.proj([2, 2], 1)


def test_representable_passes_axioms():
    base = small_base(3, (1,))
    report = dpsh.check_presheaf(dpsh.representable(base, 1))
    assert report.passed, report.render()


def test_unit_and_tensor_pass_axioms():
    base = small_base(2, (1,))
    unit = dpsh.unit_presheaf(base)
    y1 = dpsh.representable(base, 1)
    for X in (unit, dpsh.presheaf_tensor(unit, y1), dpsh.presheaf_tensor(y1, y1)):
        report = dpsh.check_presheaf(X)
        assert report.passed, report.render()


def test_q_presheaf_passes_axioms():
    base = small_base(2, (1,))
    report = dpsh.check_presheaf(dpsh.presheaf_Q(dpsh.representable(base, 1), bound=2))
    assert report.passed, report.render()
    assert report.config["degree_bound"] == 2


def test_q_presheaf_differential_of_a_point():
    # D<xi0> = <xi0 pi0; D xi0>
    base = small_base(2, (1, 2))
    y1 = dpsh.representable(base, 1)
    QX = dpsh.presheaf_Q(y1, bound=1)
    be = base.backend
    for xi in y1.spanning(1):
        q = q_inject(QX._to_elem(1, xi), [])
        pi0 = be.proj([1, 1], 0)
        expected = q_inject(
            QX._to_elem(2, y1.act(pi0, xi)), [QX._to_elem(2, y1.diff(1, xi))]
        )
        assert QX.diff(1, q) == expected


def test_finite_presheaf_elements_over_z_mod_1_are_zero():
    # 1 = 0 in Z/1, so every basis element is the zero element
    base = small_base(1, (1, 2))
    unit = dpsh.unit_presheaf(base)
    y1 = dpsh.representable(base, 1)
    tensor = dpsh.presheaf_tensor(y1, unit)
    assert unit.basis(1) == unit.spanning(1) == [{}]
    assert tensor.basis(2) == [{}, {}]
    assert y1.basis(2) == [base.backend.zero(2, 1)] * 2


def test_tensor_basis_images_read_the_factor_memos():
    base = small_base(3, (1, 2))
    y1, y2 = dpsh.representable(base, 1), dpsh.representable(base, 2)
    tensor = dpsh.presheaf_tensor(y1, y2)
    be = base.backend
    f = MatMap(be.rig, 1, 2, ((1,), (2,)))
    k = 1 * y2.dim(2) + 3  # b_1 (x) b_3 at stage 2
    got = tensor.act(f, tensor.basis(2)[k])
    xv, yv = y1.act_image(f, 1), y2.act_image(f, 3)
    expected = {i * y2.dim(1) + j: a * b % 3
                for i, a in enumerate(xv) for j, b in enumerate(yv) if a * b % 3}
    assert got == expected
    assert xv == y1.coords(1, y1.act(f, y1.basis(2)[1]))
    assert y1.diff_image(2, 1) == y1.coords(4, y1.diff(2, y1.basis(2)[1]))


def test_sabotaged_differential_fails_chain_axiom():
    base = small_base(2, (1, 2))

    class Sabotaged(dpsh.ReprPresheaf):
        def diff(self, A, xi):
            if A == 1:
                return self.base.backend.zero(2, self.target)
            return super().diff(A, xi)

    report = dpsh.check_presheaf(Sabotaged(base, 1))
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    chain = by_name["axiom-iii-chain-compatibility"]
    assert not chain.passed
    assert chain.counterexample


def test_a_failing_second_order_axiom_stops_at_its_first_failing_tuple():
    base = small_base(3, (1,))
    be = base.backend

    class Doubled(dpsh.ReprPresheaf):
        def diff(self, A, xi):
            return be.scale(2, be.D(xi))

    X = Doubled(base, 1)
    maps = base.all_maps(1, 1)
    zero = be.zero(1, 1)
    index, first = 0, None
    for xi in X.spanning(1):
        dxi = X.diff(1, xi)
        ddxi = X.diff(2, dxi)
        for x, r, s in itertools.product(maps, repeat=3):
            index += 1
            lhs = X.act(be.pairing([x, r, zero, s]), ddxi)
            if first is None and lhs != X.act(be.pairing([x, s]), dxi):
                first = index
    assert first is not None and first < index

    by_name = {c.name: c for c in dpsh.check_presheaf(X).checks}
    slice_iv = by_name["axiom-iv-first-order-slice"]
    assert not slice_iv.passed
    assert slice_iv.checked == first
    symmetry_v = by_name["axiom-v-mixed-symmetry"]
    assert symmetry_v.passed and symmetry_v.checked == index == 81


@pytest.mark.parametrize("cls", [dpsh.ReprPresheaf, dpsh.UnitPresheaf,
                                 dpsh.TensorPresheaf, dpsh.QPresheaf])
def test_each_presheaf_defines_act_and_diff_itself(cls):
    # the benchmark's tracer wraps vars(cls)["act"] and vars(cls)["diff"]
    assert "act" in vars(cls) and "diff" in vars(cls)


@pytest.mark.parametrize("n, k", [(2, 1), (4, 4), (9, 4), (9, 729), (27, 10)])
def test_sampled_triples_are_the_sample_of_the_listed_triples(n, k):
    maps = [f"m{i}" for i in range(n)]
    for seed in range(3):
        listed = random.Random(seed).sample(list(itertools.product(maps, repeat=3)), k)
        assert dpsh._sample_triples(maps, k, random.Random(seed)) == listed


# ---------------------------------------------------------------------------
# classification of derivative sequences

def test_hom_element_round_trip():
    base = small_base(3, (1, 2))
    y2 = dpsh.representable(base, 2)
    for f in base.all_maps(2, 2):
        vec = y2.coords(2, f)
        assert y2.from_coords(2, vec) == f


def test_classify_round_trip_on_canonical_generators():
    base = small_base(2, (1, 2))
    y2 = dpsh.representable(base, 2)
    be = base.backend
    for f in base.all_maps(2, 2):
        sequence = [f, be.D(f)]
        cm = dpsh.classify(base, y2, 2, sequence)
        for n in range(2):
            got = cm.eval((n + 1) * 2, dpsh.canonical_generator(base, 2, n))
            assert got == sequence[n]


def test_classified_map_is_zero_beyond_support():
    base = small_base(2, (1,))
    y1 = dpsh.representable(base, 1)
    cm = dpsh.classify(base, y1, 1, [base.backend.identity(1)])
    q = dpsh.canonical_generator(base, 1, 1)
    assert cm.eval(2, q) == y1.zero(2)


def test_classify_rejects_asymmetric_sequences():
    base = small_base(2, (1,))
    y1 = dpsh.representable(base, 1)
    be = base.backend
    asym = MatMap(be.rig, 3, 1, ((0, 1, 0),))
    with pytest.raises(InvalidSequence) as info:
        dpsh.classify(base, y1, 1, [be.zero(1, 1), be.zero(2, 1), asym])
    assert "not symmetric" in str(info.value) or "not additive" in str(info.value)


def test_classified_map_is_linear_in_q():
    base = small_base(2, (1,))
    y1 = dpsh.representable(base, 1)
    be = base.backend
    f = be.identity(1)
    cm = dpsh.classify(base, y1, 1, [f, be.D(f)])
    q1 = dpsh.canonical_generator(base, 1, 1)
    assert cm.eval(2, q1 + q1) == y1.add(cm.eval(2, q1), cm.eval(2, q1))


# ---------------------------------------------------------------------------
# Faa di Bruno presheaf maps and the Yoneda embedding

def test_yoneda_preserves_identity_and_composition():
    base = small_base(2, (1,))
    be = base.backend
    assert dpsh.yoneda_map(base, be.identity(1)) == faa.FaaBackend(be).identity(1)
    for f in base.all_maps(1, 1):
        for g in base.all_maps(1, 1):
            lhs = dpsh.yoneda_map(base, be.compose(g, f))
            rhs = faa.faa_compose(
                dpsh.yoneda_map(base, g), dpsh.yoneda_map(base, f)
            )
            assert lhs == rhs


def test_presheaf_map_compose_checks_objects():
    base = small_base(2, (1, 2))
    be = base.backend
    f = dpsh.yoneda_map(base, be.zero(1, 2))
    with pytest.raises(ObjectMismatch):
        faa.faa_compose(f, f)


def test_yoneda_maps_respect_the_differential():
    base = small_base(2, (1, 2))
    for f in base.all_maps(1, 2):
        assert dpsh.respects_differential(base, dpsh.yoneda_map(base, f)) is None


def test_corrupted_family_fails_differential_respect():
    base = small_base(2, (1, 2))
    be = base.backend
    f = be.identity(1)
    alpha = faa.FaaMap(be, 1, 1, [f, be.proj([1, 1], 0)])
    assert dpsh.respects_differential(base, alpha) is not None


def test_q_representable_memo_is_keyed_on_the_degree_bound():
    # alpha passes on degree-1 generators and fails on degree-2 ones; a Q(yA)
    # shared across bounds would hand the second check the first's generators
    base = small_base(2, (1, 2))
    be = base.backend
    alpha = faa.FaaMap(be, 1, 1, [
        be.identity(1), be.proj([1, 1], 1), be.zero(3, 1),
        MatMap(be.rig, 4, 1, ((0, 1, 1, 1),)),
    ])
    assert dpsh.respects_differential(base, alpha, degree_bound=1) is None
    assert dpsh.respects_differential(base, alpha, degree_bound=2) is not None
    for f in base.all_maps(1, 2):
        yf = dpsh.yoneda_map(base, f)
        assert dpsh.respects_differential(base, yf, degree_bound=2) is None


def test_full_fidelity_builds_q_of_the_representable_once(monkeypatch):
    built = []
    original = dpsh.presheaf_Q

    def counting(X, bound=2):
        built.append((X.name, bound))
        return original(X, bound)

    monkeypatch.setattr(dpsh, "presheaf_Q", counting)
    base = small_base(2, (1, 2))
    report = dpsh.full_fidelity(base, 1, 2, support_bound=2, degree_bound=1)
    assert report.passed, report.render()
    assert built == [("y(1)", 1)]


def test_full_fidelity_smallest_case():
    base = small_base(2, (1,))
    report = dpsh.full_fidelity(base, 1, 1, support_bound=2, degree_bound=1)
    assert report.passed, report.render()
    by_name = {c.name: c for c in report.checks}
    # 2 level-0 choices x 2 admissible level-1 entries x 1 level-2 entry
    assert by_name["candidate-count"].checked == 4
    assert by_name["yoneda-injective"].checked == 2


def test_full_fidelity_refuses_more_candidates_than_max_candidates(monkeypatch):
    # the smallest case has 2 x 2 x 1 candidate families
    base = small_base(2, (1,))
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 4)
    assert dpsh.full_fidelity(base, 1, 1, support_bound=2).passed
    monkeypatch.setattr(faa, "MAX_CANDIDATES", 3)
    with pytest.raises(SizeLimit):
        dpsh.full_fidelity(base, 1, 1, support_bound=2)


def test_full_fidelity_candidate_growth():
    base = small_base(2, (1, 2))
    report = dpsh.full_fidelity(base, 1, 2, support_bound=2, degree_bound=1)
    assert report.passed, report.render()
