"""Suite plumbing: rig parsing, family enumeration, report shape."""

import collections
import itertools
import json
import random
import time
import tracemalloc

import pytest

from cdcat import faa, qmodality as qm, suites
from cdcat.algebra import (
    INT,
    NAT,
    RAT,
    Free,
    ModuleElement,
    Product,
    QSpace,
    Tensor,
    basis_elem,
    basis_keys,
    zero_elem,
    zmod,
)
from cdcat.combinat import partitions
from cdcat.errors import SizeLimit
from cdcat.poly import FinFnBackend
from cdcat.reports import Report


def test_parse_rig():
    assert suites.parse_rig("nat") == NAT
    assert suites.parse_rig("int") == INT
    assert suites.parse_rig("rat") == RAT
    assert suites.parse_rig("zmod:7") == zmod(7)
    with pytest.raises(ValueError):
        suites.parse_rig("bool")


def test_enumerate_families_dim1_count():
    backend = FinFnBackend(2)
    A = backend.module(1)
    fams = enumerate_cached(backend, A)
    # 4 constants x 4 linear-in-slot entries x 4 symmetric bilinear entries
    assert len(fams) == 64


def enumerate_cached(backend, A, _cache={}):
    if "fams" not in _cache:
        _cache["fams"] = suites.enumerate_families(backend, A, A, 2)
    return _cache["fams"]


def test_kleisli_suite_refuses_more_exhaustive_pairs_than_max_candidates():
    # Z/3 at dim 1 has 27^3 families, so 3.9e8 pairs: refused before any
    # pair is built, where the pair list alone would exhaust memory
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        suites.kleisli_suite(3, max_dim=1)
    assert time.perf_counter() - start < 5


def test_kleisli_suite_refuses_its_pairs_before_listing_any_family(monkeypatch):
    # Z/3 at dim 1 and support 3 has 27^4 = 531,441 families, so 2.8e11
    # pairs: the count comes from multilinear_count, and no level is built
    calls = []
    original = FinFnBackend.multilinear_maps

    def counting(self, A, B, n):
        calls.append(n)
        return original(self, A, B, n)

    monkeypatch.setattr(FinFnBackend, "multilinear_maps", counting)
    with pytest.raises(SizeLimit):
        suites.kleisli_suite(3, max_dim=1, support=3)
    assert calls == []
    # a suite under the limit still lists its levels through the same method
    assert suites.kleisli_suite(2, max_dim=1, support=1).passed
    assert calls == [0, 1]


def test_kleisli_suite_decides_its_exhaustive_pairs_from_a_stream(monkeypatch):
    # Z/3 at dim 1 and support 1 has 729 families, so 531,441 pairs; with
    # the Q and Faa sides made trivial, listing the pairs would take tens
    # of MB where the stream takes a fraction of one
    monkeypatch.setattr(faa, "build_kleisli_compose", lambda be, dom, top: lambda g, f: f)
    monkeypatch.setattr(faa, "faa_compose", lambda g, f: f)
    monkeypatch.setattr(faa, "build_kleisli_D", lambda be, dom, top: lambda f: f)
    monkeypatch.setattr(faa, "faa_D", lambda f: f)
    tracemalloc.start()
    try:
        report = suites.kleisli_suite(3, max_dim=1, support=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    by_name = {c.name: c.checked for c in report.checks}
    assert by_name["compose-matches-faa-exhaustive-dim1"] == 729 ** 2
    assert peak < 4 * 2 ** 20


def test_kleisli_skipped_pairs_are_counted_in_full_when_compose_fails_early(
        monkeypatch):
    monkeypatch.setattr(faa, "_composition_partitions", lambda n: partitions(n)[:-1])
    report = suites.kleisli_suite(2, max_dim=1, support=2, degree_bound=2)
    backend = FinFnBackend(2)
    kls = enumerate_cached(backend, backend.module(1))
    skipped = sum(faa.composite_support(kg, kf) > 2 for kf in kls for kg in kls)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["compose-matches-faa-exhaustive-dim1"].passed
    assert 0 < skipped < len(kls) ** 2
    assert by_name["pairs-skipped-by-degree-bound"].checked == skipped


def test_enumerated_families_are_valid():
    from cdcat import faa

    backend = FinFnBackend(2)
    A = backend.module(1)
    for fm in enumerate_cached(backend, A)[:8]:
        assert faa.validate_family(backend, A, fm.family, faa.hom_action(backend)) is None


def test_cdc_suite_reports_config():
    report = suites.cdc_suite("zmod:5", seed=3, samples=10)
    assert report.passed
    assert report.suite == "cdc-axioms[zmod:5]"
    assert report.config["seed"] == 3


def test_report_serialization_is_stable():
    report = Report("demo", {"b": 2, "a": 1})
    report.add("law", True, 5)
    report.add("other-law", False, 1, "witness here")
    payload = report.to_dict()
    assert list(payload["config"]) == ["a", "b"]
    assert payload["passed"] is False
    assert json.dumps(payload, sort_keys=True) == json.dumps(payload, sort_keys=True)
    text = report.render()
    assert "[PASS] law" in text
    assert "[FAIL] other-law" in text
    assert "witness here" in text


def test_modality_suite_tiny():
    report = suites.modality_suite(2, dim=1, maxdeg=2, pair_total_degree=2)
    assert report.passed, report.render()
    names = {c.name for c in report.checks}
    assert "comonad-counit-outer" in names
    assert "deriving-product-rule" in names
    assert "storage-left-inverse" in names


def _hand_written_renamings(rig, A, B, C):
    """The renamings modality_suite and qmodality built by hand before
    qmodality.relabel, as they were, keyed on (domain, codomain)."""
    LinearMap, I = qm.LinearMap, qm.UNIT_SPACE
    QA = QSpace(A)
    QA2 = Tensor((QA, QA))
    prod = Product((A, B))

    def swap_tensor(t):
        return ModuleElement(t.rig, QA2, {(kb, ka): v for (ka, kb), v in t.coeffs.items()})

    def reassociate(t):
        return ModuleElement(t.rig, Tensor((QA, QA2)),
                             {(a, (b, c)): v for ((a, b), c), v in t.coeffs.items()})

    def proj_map(slot):
        target = prod.factors[slot]

        def on_basis(key):
            if key[0] == slot:
                return basis_elem(rig, target, key[1])
            return zero_elem(rig, target)

        return LinearMap(rig, prod, target, on_basis)

    maps = [
        LinearMap(rig, Tensor((I, A)), A, lambda key: basis_elem(rig, A, key[1])),
        LinearMap(rig, Tensor((A, I)), A, lambda key: basis_elem(rig, A, key[0])),
        LinearMap(rig, Tensor((Tensor((A, B)), C)), Tensor((A, Tensor((B, C)))),
                  lambda key: basis_elem(rig, Tensor((A, Tensor((B, C)))),
                                         (key[0][0], (key[0][1], key[1])))),
        LinearMap(rig, Tensor((A, B)), Tensor((B, A)),
                  lambda key: basis_elem(rig, Tensor((B, A)), (key[1], key[0]))),
        proj_map(0),
        proj_map(1),
        LinearMap(rig, I, A, lambda k: zero_elem(rig, A)),
    ]
    oracle = {(f.domain, f.codomain): f.apply for f in maps}
    oracle[QA2, QA2] = swap_tensor
    oracle[Tensor((QA2, QA)), Tensor((QA, QA2))] = reassociate
    return oracle


@pytest.mark.parametrize("modulus", [2, 3])
def test_modality_renamings_agree_with_the_hand_written_maps(modulus, monkeypatch):
    # every map the suite gets from qmodality.relabel (its lambda, rho,
    # associator, symmetry, swap and reassociation, and the projections and
    # zero map of storage and bialg_unit) on every basis element of its
    # domain, Q generators up to degree 2
    rig = zmod(modulus)
    built = []
    relabel = qm.relabel

    def recording(*args):
        built.append(relabel(*args))
        return built[-1]

    monkeypatch.setattr(qm, "relabel", recording)
    assert suites.modality_suite(modulus, dim=1, maxdeg=1, pair_total_degree=1).passed
    A, B, C = (Free((f"{x}1",)) for x in "abc")
    oracle = _hand_written_renamings(rig, A, B, C)

    def keys(space):
        if isinstance(space, QSpace):
            return qm.enum_generators(rig, space.inner, 2)
        if isinstance(space, Tensor):
            return list(itertools.product(*map(keys, space.factors)))
        return basis_keys(space)

    assert {(f.domain, f.codomain) for f in built} == set(oracle)
    for f in built:
        old = oracle[f.domain, f.codomain]
        for key in keys(f.domain):
            x = basis_elem(rig, f.domain, key)
            assert f.apply(x) == old(x), (f.domain, key)


def test_kleisli_sampled_checks_count_their_own_instances():
    # replay the dim-2 draws: the suite's rng is first used by them
    backend = FinFnBackend(2)
    A2 = backend.module(2)
    rng = random.Random(0)
    drawn = [(suites._random_kleisli(backend, A2, A2, 1, rng),
              suites._random_kleisli(backend, A2, A2, 1, rng)) for _ in range(3)]
    in_bound = sum(max(kf.support, 0) * max(kg.support, 0) <= 1 for kf, kg in drawn)
    derivable = sum(max(kf.support, 0) + 1 <= 1 for kf, _ in drawn)
    assert derivable < in_bound

    report = suites.kleisli_suite(2, max_dim=2, support=1, degree_bound=1, samples=3)
    assert report.passed, report.render()
    by_name = {c.name: c for c in report.checks}
    assert by_name["compose-matches-faa-sampled-dim2"].checked == in_bound
    assert by_name["derivative-matches-faa-sampled-dim2"].checked == derivable


def test_kleisli_derivative_failure_leaves_the_compose_check_whole(monkeypatch):
    monkeypatch.setattr(faa, "faa_D", lambda kf: kf)
    report = suites.kleisli_suite(2, max_dim=2, support=1, samples=3)
    by_name = {c.name: c for c in report.checks}
    compose = by_name["compose-matches-faa-sampled-dim2"]
    derivative = by_name["derivative-matches-faa-sampled-dim2"]
    assert compose.passed and compose.checked == 3
    assert not derivative.passed
    assert derivative.checked == 1
    assert derivative.counterexample == "derivative mismatch at sample #1"


def test_kleisli_suite_runs_its_q_side_once_per_distinct_input_within_one_call(
        monkeypatch):
    calls = collections.Counter()

    def counting(name, structure_map):
        def wrapped(q):
            calls[name, q] += 1
            return structure_map(q)
        return wrapped

    monkeypatch.setattr(qm, "storage", counting("storage", qm.storage))
    monkeypatch.setattr(qm, "comult", counting("comult", qm.comult))
    run = lambda: suites.kleisli_suite(2, max_dim=2, support=1,  # noqa: E731
                                       samples=3)
    first = run()
    assert first.passed
    assert {name for name, _ in calls} == {"storage", "comult"}
    assert set(calls.values()) == {1}
    distinct = len(calls)
    second = run()  # nothing of the first call is kept
    assert len(calls) == distinct and set(calls.values()) == {2}
    assert second.to_dict() == first.to_dict()
