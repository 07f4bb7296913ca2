"""Differential presheaves over Mat(Z/m) and the embedding machinery."""

import collections
import itertools
import random

import pytest

from cdcat import dpsh, faa, qmodality, suites
from cdcat.algebra import Monomial, QSpace, tensor_elem
from cdcat.errors import InvalidSequence, ObjectMismatch, SizeLimit
from cdcat.matcat import MatMap
from cdcat.qmodality import q_gen_elem, q_inject


def small_base(modulus=2, objects=(1,)):
    return dpsh.FiniteCdcBase(modulus, list(objects))


# ---------------------------------------------------------------------------
# the presheaf flavours and their axioms

def test_representable_differential_of_identity():
    base = small_base(2, (1, 2))
    y2 = dpsh.ReprPresheaf(base, 2)
    be = base.backend
    assert y2.diff(2, be.identity(2)) == be.proj([2, 2], 1)


def test_representable_passes_axioms():
    base = small_base(3, (1,))
    report = dpsh.check_presheaf(dpsh.ReprPresheaf(base, 1))
    assert report.passed, report.render()


def test_unit_and_tensor_pass_axioms():
    base = small_base(2, (1,))
    unit = dpsh.UnitPresheaf(base)
    y1 = dpsh.ReprPresheaf(base, 1)
    for X in (unit, dpsh.TensorPresheaf(unit, y1), dpsh.TensorPresheaf(y1, y1)):
        report = dpsh.check_presheaf(X)
        assert report.passed, report.render()


def test_q_presheaf_passes_axioms():
    base = small_base(2, (1,))
    report = dpsh.check_presheaf(dpsh.QPresheaf(dpsh.ReprPresheaf(base, 1), bound=2))
    assert report.passed, report.render()
    assert report.config["degree_bound"] == 2


def test_q_presheaf_differential_of_a_point():
    # D<xi0> = <xi0 pi0; D xi0>
    base = small_base(2, (1, 2))
    y1 = dpsh.ReprPresheaf(base, 1)
    QX = dpsh.QPresheaf(y1, bound=1)
    be = base.backend
    for xi in y1.spanning(1):
        q = q_inject(y1.to_elem(1, xi), [])
        pi0 = be.proj([1, 1], 0)
        expected = q_inject(
            y1.to_elem(2, y1.act(pi0, xi)), [y1.to_elem(2, y1.diff(1, xi))]
        )
        assert QX.diff(1, q) == expected


@pytest.mark.parametrize("modulus", [2, 3])
@pytest.mark.parametrize("stage", [1, 2])
def test_q_differential_of_a_sum_is_the_sum_of_its_generators_images(modulus, stage):
    # the oracle maps each generator alone, in a Q presheaf that has
    # mapped nothing else
    base = small_base(modulus, (1, 2))
    y1 = dpsh.ReprPresheaf(base, 1)
    QX = dpsh.QPresheaf(y1, bound=2)
    gens = QX.spanning(stage)
    rng = random.Random(stage)
    for _ in range(25):
        terms = [(rng.randrange(1, modulus), rng.choice(gens))
                 for _ in range(rng.randrange(2, 6))]
        q = sum((g.scale(c) for c, g in terms[1:]), terms[0][1].scale(terms[0][0]))
        expected = [dpsh.QPresheaf(y1, bound=2).diff(stage, g).scale(c)
                    for c, g in terms]
        assert QX.diff(stage, q) == sum(expected[1:], expected[0])


def test_q_differential_maps_each_generator_once(monkeypatch):
    base = small_base(2, (1, 2))
    QX = dpsh.QPresheaf(dpsh.ReprPresheaf(base, 1), bound=2)
    calls = []
    original = dpsh.q_inject

    def counting(point, tails):
        calls.append(len(tails))
        return original(point, tails)

    monkeypatch.setattr(dpsh, "q_inject", counting)
    p, q = QX.spanning(2)[-2:]
    first = QX.diff(2, q)
    assert len(calls) == next(iter(q.coeffs)).degree + 1
    calls.clear()
    assert QX.diff(2, q) == first
    assert calls == []
    # a sum maps only the generator it has not met
    QX.diff(2, p + q)
    assert len(calls) == next(iter(p.coeffs)).degree + 1


def test_finite_presheaf_elements_over_z_mod_1_are_zero():
    # 1 = 0 in Z/1, so every basis element is the zero element
    base = small_base(1, (1, 2))
    unit = dpsh.UnitPresheaf(base)
    y1 = dpsh.ReprPresheaf(base, 1)
    tensor = dpsh.TensorPresheaf(y1, unit)
    assert unit.basis(1) == unit.spanning(1) == [unit.zero(1)]
    assert tensor.basis(2) == [tensor.zero(2)] * 2
    assert y1.basis(2) == [base.backend.zero(2, 1)] * 2


@pytest.mark.parametrize("modulus", [2, 3])
def test_to_elem_keeps_module_elements_and_reads_maps_on_their_coordinates(modulus):
    base = small_base(modulus, (1, 2))
    y1, y2, unit = (dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2),
                    dpsh.UnitPresheaf(base))
    for X in (unit, dpsh.TensorPresheaf(y1, y2), dpsh.TensorPresheaf(unit, y1)):
        for A in base.objects:
            for xi in X.spanning(A) + [X.zero(A)]:
                assert X.to_elem(A, xi) is xi
    for yB in (y1, y2):
        for A in base.objects:
            for xi in yB.spanning(A):
                elem = yB.to_elem(A, xi)
                assert elem == faa.vec_to_elem(yB.rig, yB.space(A), yB.coords(A, xi))
                assert elem.space == yB.space(A)
                assert yB.from_coords(A, faa.elem_to_vec(elem, yB.space(A))) is xi


def test_tensor_basis_images_read_the_factor_memos():
    base = small_base(3, (1, 2))
    y1, y2 = dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2)
    tensor = dpsh.TensorPresheaf(y1, y2)
    be = base.backend
    f = MatMap(be.rig, 1, 2, ((1,), (2,)))
    act = tensor.act_map(f)
    assert tensor.act_map(f) is act
    assert act.domain == tensor.space(2) and act.codomain == tensor.space(1)
    key = ("b2", "b4")  # b_1 (x) b_3 at stage 2
    xs, ys = y1.act_map(f), y2.act_map(f)
    assert y1.act_map(f) is xs and y2.act_map(f) is ys
    assert act.on_basis(key) == tensor_elem(xs.on_basis("b2"), ys.on_basis("b4"))
    # the factor maps read act and diff on one basis element per key
    assert y1.coords(1, y1.act(f, y1.basis(2)[1])) == faa.elem_to_vec(
        xs.on_basis("b2"), y1.space(1))
    assert y1.coords(4, y1.diff(2, y1.basis(2)[1])) == faa.elem_to_vec(
        y1.diff_map(2).on_basis("b2"), y1.space(4))


def test_a_tensor_check_keeps_no_act_map_of_its_own():
    # the act maps (and their basis images) each presheaf keeps after one
    # tensor check; the factor bounds are the figures of the check before
    # the tensor acted straight from the factors' maps
    base = small_base(2, (1, 2))
    y1, y2 = dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2)
    tensor = dpsh.TensorPresheaf(y1, y2)
    assert dpsh.check_presheaf(tensor, map_budget=4, seed=3).passed

    def kept(X):
        return len(X._act_maps), sum(len(m._memo) for m in X._act_maps.values())

    assert kept(tensor) == (0, 0)
    maps, images = kept(y1)
    assert maps <= 328 and images <= 1138
    maps, images = kept(y2)
    assert maps <= 328 and images <= 1412


def test_tensor_action_is_the_product_of_the_factor_coordinates():
    # coordinate i * Y.dim(B) + j of (b_k (x) b_l).f is
    # (b_k.f)_i * (b_l.f)_j, in the basis order of the old index kernel
    base = small_base(3, (1, 2))
    y1, y2 = dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2)
    tensor = dpsh.TensorPresheaf(y1, y2)
    for A, B in itertools.product(base.objects, repeat=2):
        width, basis = y2.dim(B), tensor.basis(A)
        for f in base.all_maps(B, A):
            for k, xi in enumerate(y1.basis(A)):
                xv = y1.coords(B, y1.act(f, xi))
                for l, eta in enumerate(y2.basis(A)):
                    yv = y2.coords(B, y2.act(f, eta))
                    expected = [0] * (len(xv) * width)
                    for i, j in itertools.product(range(len(xv)), range(width)):
                        expected[i * width + j] = xv[i] * yv[j] % 3
                    got = tensor.act(f, basis[k * y2.dim(A) + l])
                    assert tensor.coords(B, got) == tuple(expected)


def test_monoidal_mult_lands_in_q_of_the_tensor_presheaf():
    # m(p, q) of generators of Qy(1)(1) and Qy(2)(1) is an element of
    # Q(y(1) (x) y(2))(1) as it stands, with no re-indexing, and m is
    # natural in the base maps that act on the three Q presheaves
    base = small_base(2, (1, 2))
    y1, y2 = dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2)
    tensor = dpsh.TensorPresheaf(y1, y2)
    Q1, Q2, QT = (dpsh.QPresheaf(y1, 1), dpsh.QPresheaf(y2, 1),
                  dpsh.QPresheaf(tensor, 2))
    gens = {g for t in QT.spanning(1) for g in t.coeffs}
    maps = [f for Z in base.objects for f in base.all_maps(Z, 1)]
    for p in Q1.spanning(1):
        for q in Q2.spanning(1):
            m = qmodality.monoidal_mult(p, q)
            assert m.space == QSpace(tensor.space(1))
            assert set(m.coeffs) <= gens
            assert QT.diff(1, m).space == QSpace(tensor.space(2))
            for f in maps:
                assert QT.act(f, m) == qmodality.monoidal_mult(Q1.act(f, p), Q2.act(f, q))


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


def _state(obj, skip=()):
    """vars(obj) with each dict copied, less the attributes named in skip."""
    return {k: dict(v) if isinstance(v, dict) else v
            for k, v in vars(obj).items() if k not in skip}


@pytest.mark.parametrize("kind", ["y(1)", "unit", "y(1)(x)y(2)", "Qy(1)"])
def test_check_presheaf_acts_once_per_distinct_input_within_one_call(kind):
    base = small_base(2, (1, 2))
    y1, y2 = dpsh.ReprPresheaf(base, 1), dpsh.ReprPresheaf(base, 2)
    cls, args = {
        "y(1)": (dpsh.ReprPresheaf, (base, 1)),
        "unit": (dpsh.UnitPresheaf, (base,)),
        "y(1)(x)y(2)": (dpsh.TensorPresheaf, (y1, y2)),
        "Qy(1)": (dpsh.QPresheaf, (y1, 2)),
    }[kind]
    calls = collections.Counter()

    class Counting(cls):
        def act(self, f, xi):
            # MatMaps and ModuleElements hash by value
            calls[f, xi] += 1
            return super().act(f, xi)

    X = Counting(*args)
    assert X.name == kind
    # the tables of X's own definition may fill at first use; nothing else
    tables = {"_spaces", "_bases", "_spannings", "_act_maps", "_diff_maps"}
    before = _state(X, tables)
    first = dpsh.check_presheaf(X, map_budget=4, seed=3)
    assert first.passed
    assert calls and set(calls.values()) == {1}
    assert _state(X, tables) == before  # the memos died with the call
    distinct = len(calls)
    second = dpsh.check_presheaf(X, map_budget=4, seed=3)
    assert len(calls) == distinct and set(calls.values()) == {2}
    assert second.to_dict() == first.to_dict()


def test_yoneda_suite_builds_each_tower_once_for_its_own_laws(monkeypatch):
    built = collections.Counter()
    yoneda_map = dpsh.yoneda_map

    def counting(base, f):
        built[f] += 1
        return yoneda_map(base, f)

    monkeypatch.setattr(dpsh, "yoneda_map", counting)
    assert suites.yoneda_suite(3, max_dim=1).passed
    # full fidelity builds each of the 3 towers once, and the suite's own
    # laws once more between them
    homs = small_base(3, (1,)).all_maps(1, 1)
    assert built == {f: 2 for f in homs}


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
    y2 = dpsh.ReprPresheaf(base, 2)
    for f in base.all_maps(2, 2):
        vec = y2.coords(2, f)
        assert y2.from_coords(2, vec) == f


def test_classify_round_trip_on_canonical_generators():
    base = small_base(2, (1, 2))
    y2 = dpsh.ReprPresheaf(base, 2)
    be = base.backend
    for f in base.all_maps(2, 2):
        sequence = [f, be.D(f)]
        cm = dpsh.classify(base, y2, 2, sequence)
        for n in range(2):
            got = cm.eval((n + 1) * 2, dpsh.canonical_generator(base, 2, n))
            assert got == sequence[n]


def test_classified_map_is_zero_beyond_support():
    base = small_base(2, (1,))
    y1 = dpsh.ReprPresheaf(base, 1)
    cm = dpsh.classify(base, y1, 1, [base.backend.identity(1)])
    q = dpsh.canonical_generator(base, 1, 1)
    assert cm.eval(2, q) == y1.zero(2)


def test_classify_rejects_asymmetric_sequences():
    base = small_base(2, (1,))
    y1 = dpsh.ReprPresheaf(base, 1)
    be = base.backend
    asym = MatMap(be.rig, 3, 1, ((0, 1, 0),))
    with pytest.raises(InvalidSequence) as info:
        dpsh.classify(base, y1, 1, [be.zero(1, 1), be.zero(2, 1), asym])
    assert "not symmetric" in str(info.value) or "not additive" in str(info.value)


def pairings_of_point_and_units(yA, Z, q):
    """The terms (degree, coefficient, <point; tail units>) of q in Q(yA)(Z),
    the tail's k-th basis key read as the k-th unit of yA.basis(Z) and the
    entries paired in the base: the unit-vector decoder the one Q decoder
    replaced."""
    space = q.space.inner
    units = dict(zip(space.basis, yA.basis(Z)))
    pairing = yA.base.backend.pairing
    return [(gen.degree, c,
             pairing([yA.from_coords(Z, faa.elem_to_vec(gen.point, space))]
                     + [units[k] for k in gen.tail.keys]))
            for gen, c in q.coeffs.items()]


@pytest.mark.parametrize("modulus", [1, 2, 3])
def test_generator_maps_read_q_of_a_representable_as_pairings(modulus):
    # on every spanning element of Q(y1) and Q(y2) and on its differential
    base = small_base(modulus, (1, 2))
    for A in (1, 2):
        yA = dpsh.ReprPresheaf(base, A)
        QyA = dpsh.QPresheaf(yA, 2)
        for Z in base.objects:
            for q in QyA.spanning(Z):
                for stage, elem in ((Z, q), (2 * Z, QyA.diff(Z, q))):
                    assert (dpsh._generator_maps(yA, stage, elem)
                            == pairings_of_point_and_units(yA, stage, elem))


def _counted_presheaves(monkeypatch):
    built = []
    init = dpsh.FinitePresheaf.__init__

    def counting(self, base):
        built.append(self)
        init(self, base)

    monkeypatch.setattr(dpsh.FinitePresheaf, "__init__", counting)
    return built


def test_decoding_a_generator_builds_no_presheaf(monkeypatch):
    # each decoded cell becomes its MatMap directly: full fidelity builds
    # y(A) and y(B), and evaluating a classified map builds nothing per term
    built = _counted_presheaves(monkeypatch)
    assert dpsh.full_fidelity(dpsh.FiniteCdcBase(2, [1, 2]), 1, 2).passed
    assert [X.name for X in built] == ["y(1)", "y(2)"]
    base = small_base(2, (1, 2))
    y1 = dpsh.ReprPresheaf(base, 1)
    cm = dpsh.classify(base, y1, 1, [base.backend.identity(1)])
    QyA = dpsh.QPresheaf(y1, 1)
    del built[:]
    for Z in base.objects:
        for q in QyA.spanning(Z):
            cm.eval(Z, q)
    assert built == []


def test_classified_map_is_linear_in_q():
    base = small_base(2, (1,))
    y1 = dpsh.ReprPresheaf(base, 1)
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
    respects = dpsh.differential_test(base, 1, 2)
    for f in base.all_maps(1, 2):
        assert respects(dpsh.yoneda_map(base, f)) is None


def test_corrupted_family_fails_differential_respect():
    base = small_base(2, (1, 2))
    be = base.backend
    f = be.identity(1)
    alpha = faa.FaaMap(be, 1, 1, [f, be.proj([1, 1], 0)])
    assert dpsh.differential_test(base, 1, 1)(alpha) is not None


def test_differential_test_stops_every_candidate_off_the_image_at_its_first_case(
        monkeypatch):
    # the Yoneda element <id_A> comes first, where the law reads
    # "level 1 = D(level 0)"; y(2)(1) and y(2)(2) give 12 + 80 generators
    # of degree at most 1, and each case evaluates the family twice
    base = small_base(2, (1, 2))
    calls = collections.Counter()
    original = dpsh._evaluate

    def counting(X, Z, terms, sequence):
        calls[tuple(sequence)] += 1
        return original(X, Z, terms, sequence)

    monkeypatch.setattr(dpsh, "_evaluate", counting)
    assert dpsh.full_fidelity(base, 2, 2).passed
    images = {tuple(dpsh.yoneda_map(base, f).family) for f in base.all_maps(2, 2)}
    assert len(calls) == 256 and len(images) == 16
    assert all(n == (2 * 92 if family in images else 2)
               for family, n in calls.items())
    assert sum(calls.values()) == 240 * 2 + 16 * 2 * 92 == 3424


def test_differential_test_reads_generators_up_to_its_degree_bound():
    # alpha passes on degree-1 generators and fails on degree-2 ones
    base = small_base(2, (1, 2))
    be = base.backend
    alpha = faa.FaaMap(be, 1, 1, [
        be.identity(1), be.proj([1, 1], 1), be.zero(3, 1),
        MatMap(be.rig, 4, 1, ((0, 1, 1, 1),)),
    ])
    assert dpsh.differential_test(base, 1, 1, degree_bound=1)(alpha) is None
    assert dpsh.differential_test(base, 1, 1, degree_bound=2)(alpha) is not None
    respects = dpsh.differential_test(base, 1, 2, degree_bound=2)
    for f in base.all_maps(1, 2):
        assert respects(dpsh.yoneda_map(base, f)) is None


def test_full_fidelity_builds_q_of_the_representable_once(monkeypatch):
    built = []
    original = dpsh.QPresheaf

    def counting(X, bound=2):
        built.append((X.name, bound))
        return original(X, bound)

    monkeypatch.setattr(dpsh, "QPresheaf", counting)
    base = small_base(2, (1, 2))
    report = dpsh.full_fidelity(base, 1, 2, support_bound=2, degree_bound=1)
    assert report.passed, report.render()
    assert built == [("y(1)", 1)]


def _dropping_tail(keys):
    # the mutant drops the last key of every tail with two or more keys
    keys = tuple(keys)
    return Monomial.of(keys[:-1] if len(keys) >= 2 else keys)


def test_full_fidelity_on_a_reused_base_sees_a_seam_patched_between_runs(monkeypatch):
    # with degree bound 1 the mutant reaches only the degree-2 tails of the
    # generators' differentials, so a differential kept from the clean run
    # would let every candidate through again
    base = small_base(2, (1, 2))
    before = _state(base)
    pairs = list(itertools.product(base.objects, repeat=2))
    for A, B in pairs:
        assert dpsh.full_fidelity(base, A, B).passed
    assert _state(base) == before
    monkeypatch.setattr(qmodality, "_make_tail", _dropping_tail)
    for A, B in pairs:
        assert not dpsh.full_fidelity(base, A, B).passed
        assert not dpsh.full_fidelity(small_base(2, (1, 2)), A, B).passed


def test_yoneda_suite_leaves_its_base_as_it_found_it(monkeypatch):
    made = []

    class Recording(dpsh.FiniteCdcBase):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, _state(self)))

    monkeypatch.setattr(dpsh, "FiniteCdcBase", Recording)
    assert suites.yoneda_suite(2, max_dim=2).passed
    assert len(made) == 1
    base, before = made[0]
    assert _state(base) == before


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
