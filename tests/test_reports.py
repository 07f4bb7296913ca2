"""The one law runner, Report.check: what a check counts and keeps."""

from cdcat.reports import Report


def failing_at(*bad):
    return lambda x: f"fails at {x}" if x in bad else None


def test_an_empty_stream_passes_with_nothing_checked():
    report = Report("runner")
    report.check([], ("law", failing_at(0)))
    [law] = report.checks
    assert (law.passed, law.checked, law.counterexample) == (True, 0, None)
    assert report.passed


def test_a_law_stops_at_its_first_failure_and_keeps_that_counterexample():
    decided = []

    def law(x):
        decided.append(x)
        return failing_at(3, 5)(x)

    report = Report("runner")
    report.check(range(10), ("law", law))
    [result] = report.checks
    assert (result.passed, result.checked, result.counterexample) == (
        False, 4, "fails at 3")
    assert decided == [0, 1, 2, 3]


def test_laws_on_a_shared_stream_stop_independently():
    report = Report("runner")
    report.check(range(10), ("early", failing_at(1)), ("late", failing_at(6)),
                 ("never", failing_at()))
    assert [(c.name, c.passed, c.checked, c.counterexample) for c in report.checks] == [
        ("early", False, 2, "fails at 1"),
        ("late", False, 7, "fails at 6"),
        ("never", True, 10, None),
    ]


def test_the_stream_is_not_advanced_once_every_law_has_failed():
    pulled = []

    def stream():
        for i in range(10):
            pulled.append(i)
            yield i

    report = Report("runner")
    report.check(stream(), ("a", failing_at(2)), ("b", failing_at(4)))
    assert pulled == [0, 1, 2, 3, 4]
    assert [c.checked for c in report.checks] == [3, 5]
    assert not report.passed

