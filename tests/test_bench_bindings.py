"""The names the benchmark binds from outside stay where it looks for them.

bench/tracing.py wraps cdcat's functions and some class attributes, and
each workload in bench/workloads.py patches one named binding to plant a
known defect.  Both are loaded here from their files, unedited.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

from cdcat import cdc
from cdcat.algebra import INT
from cdcat.poly import parse_poly_map

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("algebra", "cdc", "combinat", "dpsh", "errors", "faa", "matcat",
           "poly", "qmodality", "reports", "suites")


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cd():
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"cdcat.{name}") for name in MODULES})


def test_tracer_installs_and_restores_every_binding(cd):
    tracer = load("tracing").Tracer()
    tracer.install(cd)
    try:
        be = cd.cdc.PolyBackend(INT)
        f = parse_poly_map("[x1^2]", INT, 1)
        be.compose(f, f)
        A = cd.poly.FinFnBackend(2).module(1)
        for value in ((0,), (1,)):
            cd.poly.TableMap.from_callable(A, A, lambda x: value)
        cd.poly.TableMap.from_callable(A, A, lambda x: x)
    finally:
        unrestored = tracer.uninstall()
    assert unrestored == []
    calls = {name: n for name, (n, _) in tracer.self_times().items()}
    assert calls["cdc.poly_compose"] == 1
    assert calls["poly.table_from_callable"] == 3


def test_every_sabotage_target_is_bound_on_its_owner(cd):
    workloads = load("workloads")
    for name, wl in workloads.WORKLOADS.items():
        for owner, attr, _ in wl.sabotage(cd):
            assert attr in vars(owner), f"{name}: {attr} is not bound on {owner}"


def test_patching_cdc_poly_D_reaches_the_poly_backend(monkeypatch):
    marker = object()
    monkeypatch.setattr(cdc, "poly_D", lambda f: marker)
    assert cdc.PolyBackend(INT).D(parse_poly_map("[x1]", INT, 1)) is marker


@pytest.mark.parametrize("name", ["modality", "kleisli", "poly", "presheaf"])
def test_workload_meets_its_known_answer(cd, name):
    # the benchmark's known answers, checked here so that a change in cdcat
    # that breaks them fails this suite too
    wl = load("workloads").WORKLOADS[name]
    inputs = wl.build(cd, 7)
    expected = wl.expected(7)
    seen = {}
    for report in wl.run(cd, inputs):
        for c in report.checks:
            seen[report.suite, c.name] = (c.passed, c.checked)
    assert seen == {key: (True, count) for key, count in expected.items()}
    for check, got, want in inputs.get("input_checks", ()):
        assert got == want, check
