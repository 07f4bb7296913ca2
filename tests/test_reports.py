"""The one law runner, Report.check, and the law row, equation: what a
check counts and keeps."""

from cdcat.reports import Report, equation


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




# ---------------------------------------------------------------------------
# laws stated as rows of name, two sides and message

def test_a_row_whose_sides_agree_passes():
    report = Report("rows")
    report.check(range(5), equation("square", lambda x: x * x, lambda x: x ** 2,
                                    "square fails at {}"))
    [law] = report.checks
    assert (law.name, law.passed, law.checked, law.counterexample) == (
        "square", True, 5, None)


def test_a_failing_row_formats_its_message_with_a_single_instance():
    report = Report("rows")
    report.check(range(10), equation("id", lambda x: x, lambda x: -1 if x == 3 else x,
                                     "id fails at {}"))
    [law] = report.checks
    assert (law.passed, law.checked, law.counterexample) == (False, 4, "id fails at 3")


def test_a_failing_row_spreads_a_tuple_instance_over_its_sides_and_message():
    report = Report("rows")
    pairs = [(2, 2), (0, 0), (3, 4), (5, 6)]
    report.check(pairs, equation("commutes", lambda a, b: a - b, lambda a, b: b - a,
                                 "{0} - {1} != {1} - {0}"))
    [law] = report.checks
    assert (law.passed, law.checked, law.counterexample) == (False, 3, "3 - 4 != 4 - 3")


def test_each_side_runs_once_per_instance_and_never_after_the_row_fails():
    calls = []

    def side(tag, bad):
        def fn(x):
            calls.append((tag, x))
            return -1 if x == bad else x
        return fn

    report = Report("rows")
    report.check(range(10), equation("sides", side("lhs", None), side("rhs", 2), "at {}"),
                 ("closure", failing_at(6)))
    assert calls == [("lhs", 0), ("rhs", 0), ("lhs", 1), ("rhs", 1), ("lhs", 2),
                     ("rhs", 2)]
    assert [c.checked for c in report.checks] == [3, 7]


def test_a_row_and_a_closure_law_share_one_stream_and_stop_independently():
    report = Report("rows")
    report.check(range(10), ("closure", failing_at(5)),
                 equation("row", lambda x: x, lambda x: x if x < 2 else 0, "row at {}"),
                 equation("holds", lambda x: x + x, lambda x: 2 * x, "holds at {}"))
    assert [(c.name, c.passed, c.checked, c.counterexample) for c in report.checks] == [
        ("closure", False, 6, "fails at 5"),
        ("row", False, 3, "row at 2"),
        ("holds", True, 10, None),
    ]
