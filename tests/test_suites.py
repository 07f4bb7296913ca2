"""Suite plumbing: rig parsing, family enumeration, report shape."""

import json
import random

import pytest

from cdcat import faa, suites
from cdcat.algebra import INT, NAT, RAT, zmod
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
