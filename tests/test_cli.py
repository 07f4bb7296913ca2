"""The cdcat command line: output format, exit codes, determinism."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from cdcat import cli
from cdcat.reports import Report


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diff_output(capsys):
    code, out, _ = run(capsys, "diff", "[x1^2]")
    assert code == 0
    assert out == "[2*x1*v1]\n"


def test_diff_multi_component(capsys):
    code, out, _ = run(capsys, "diff", "[x1^2; x1*x2]")
    assert code == 0
    assert out == "[2*x1*v1; x2*v1 + x1*v2]\n"


def test_nderiv_output(capsys):
    code, out, _ = run(capsys, "nderiv", "--n", "2", "[x1^3]")
    assert code == 0
    assert out == "[6*x1*v1*w1]\n"


def test_partial_output(capsys):
    code, out, _ = run(capsys, "partial", "--i", "1", "[x1*x2]")
    assert code == 0
    assert out == "[x2*v1]\n"


def test_faa_compose_output(capsys):
    code, out, _ = run(capsys, "faa-compose", "[x1^2]", "[x1^3]")
    assert code == 0
    assert out.splitlines() == [
        "component 0: [x1^6]",
        "component 1: [6*x1^5*v1]",
        "component 2: [30*x1^4*v1*w1]",
        "component 3: [120*x1^3*v1*w1*u31]",
    ]


def test_explicit_arity(capsys):
    code, out, _ = run(capsys, "diff", "--arity", "2", "[x1]")
    assert code == 0
    assert out == "[v1]\n"


def test_rig_flag(capsys):
    code, out, _ = run(capsys, "diff", "--rig", "zmod:3", "[x1^3]")
    assert code == 0
    assert out == "[0]\n"


def test_parse_error_exit_code_and_hint(capsys):
    code, out, err = run(capsys, "diff", "[x1 +]")
    assert code == 2
    assert "parse error" in err
    assert "expected: '[' poly (';' poly)* ']'" in err


def test_constant_maps_keep_arity_zero(capsys):
    code, out, _ = run(capsys, "diff", "--arity", "0", "[1]")
    assert code == 0
    assert out == "[0]\n"


def test_deep_nesting_is_a_parse_error(capsys):
    depth = 5000
    code, out, err = run(capsys, "diff", "[" + "(" * depth + "x1" + ")" * depth + "]")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


def test_large_power_is_refused_within_a_second(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "diff", "[(x1+x2+x3+x4)^1000]")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "term pairs" in err
    assert "Traceback" not in err


def test_huge_exponent_of_one_term_differentiates_exactly(capsys):
    code, out, _ = run(capsys, "diff", "[x1^1000000000]")
    assert code == 0
    assert out == "[1000000000*x1^999999999*v1]\n"



@pytest.mark.parametrize("text", ["[7^3000000*x1]", "[7^30000000*x1]"])
def test_power_of_a_constant_is_refused_within_a_second(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "diff", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "digits" in err
    assert "Traceback" not in err


def test_an_inferred_arity_past_the_limit_is_refused(capsys):
    # x100000 would make every exponent tuple 100,000 long, and D quadratic in it
    start = time.perf_counter()
    code, out, err = run(capsys, "diff", "[x1*x100000]")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "variables" in err

@pytest.mark.parametrize("text", ["[x1]", "[1]"])
def test_an_nderiv_order_past_the_arity_limit_is_refused(capsys, text):
    # a constant map counts as arity 1, so --n is bounded for it too
    start = time.perf_counter()
    code, out, err = run(capsys, "nderiv", "--n", "1000", text)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "variables" in err


def test_nderiv_at_the_arity_limit_still_prints(capsys):
    code, out, _ = run(capsys, "nderiv", "--n", "99", "[x1]")
    assert (code, out) == (0, "[0]\n")


def test_check_yoneda_over_z_mod_1_passes(capsys):
    # Z/1 has 1 = 0, so the identity matrix is the zero matrix
    code, out, _ = run(capsys, "check", "yoneda", "--mod", "1", "--dim", "1")
    assert code == 0, out


def test_check_presheaf_over_z_mod_1_passes(capsys):
    # every unit and tensor element over Z/1 is the zero vector
    code, out, _ = run(capsys, "check", "presheaf", "--mod", "1", "--dim", "1")
    assert code == 0, out


def test_nat_rig_rejects_minus(capsys):
    code, _, err = run(capsys, "diff", "--rig", "nat", "[x1 - x1]")
    assert code == 2
    assert "error" in err


def test_unknown_verb_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_rig(capsys):
    code, _, err = run(capsys, "diff", "--rig", "gf256", "[x1]")
    assert code == 2


def test_help_mentions_variable_naming(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "v1" in out and "w" in out


def test_check_cdc_single_rig(capsys):
    code, out, _ = run(capsys, "check", "cdc", "--rig", "int", "--samples", "10")
    assert code == 0
    assert "[PASS]" in out
    assert "result: all passed" in out


def test_check_cdc_merges_all_rigs(capsys):
    code, out, _ = run(capsys, "check", "cdc", "--samples", "3")
    assert code == 0
    for prefix in ("nat:", "int:", "rat:", "zmod:5:"):
        assert prefix in out


def test_json_report_is_deterministic(capsys):
    args = ["check", "cdc", "--rig", "int", "--samples", "5", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert {c["status"] for c in payload["checks"]} == {"pass"}


def test_failing_suite_exits_one(capsys, monkeypatch):
    broken = Report("modality", {})
    broken.add("made-up-law", False, 1, "witness")

    monkeypatch.setattr(cli.suites, "modality_suite",
                        lambda *a, **k: broken)
    code, out, _ = run(capsys, "check", "modality")
    assert code == 1
    assert "[FAIL]" in out
    assert "witness" in out


def test_kleisli_check_small(capsys):
    code, out, _ = run(capsys, "check", "kleisli-iso", "--dim", "1", "--degree", "2")
    assert code == 0
    assert "compose-matches-faa-exhaustive-dim1" in out


@pytest.mark.parametrize("argv", [
    ["nderiv", "--n", "-1", "[x1]"],
    ["diff", "--arity", "-1", "[1]"],
    ["faa-compose", "--maxdeg", "-1", "[x1]", "[x1]"],
    ["check", "kleisli-iso", "--degree", "-1"],
    ["check", "cdc", "--samples", "-1"],
    ["check", "cdc", "--samples", "0"],
    ["check", "yoneda", "--dim", "0"],
    ["check", "cdc", "--arity", "0"],
])
def test_out_of_range_numeric_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


# each suite at a small config, and a value for every check flag: a flag
# the suite does not read is refused, even at the value it would default to
SMALL_CHECKS = {
    "cdc": ["--rig", "int", "--samples", "1"],
    "modality": ["--dim", "1", "--maxdeg", "1"],
    "kleisli-iso": ["--dim", "1", "--degree", "1", "--samples", "1"],
    "yoneda": ["--dim", "1"],
    "presheaf": ["--dim", "1", "--degree", "0"],
}
FLAG_VALUES = {"--rig": "zmod:3", "--mod": "2", "--arity": "3", "--seed": "0",
               "--samples": "3", "--maxdeg": "3", "--degree": "2", "--dim": "1"}
READS = {
    "cdc": {"--rig", "--arity", "--seed", "--samples", "--maxdeg"},
    "modality": {"--mod", "--dim", "--maxdeg", "--seed"},
    "kleisli-iso": {"--mod", "--dim", "--degree", "--samples", "--seed"},
    "yoneda": {"--mod", "--dim"},
    "presheaf": {"--mod", "--dim", "--degree", "--seed"},
}
UNREAD = [(suite, name) for suite in READS for name in FLAG_VALUES
          if name not in READS[suite]]


@pytest.mark.parametrize("suite, name", UNREAD, ids=[f"{s}{n}" for s, n in UNREAD])
def test_a_flag_the_suite_does_not_read_is_a_usage_error(capsys, suite, name):
    code, out, err = run(capsys, "check", suite, *SMALL_CHECKS[suite],
                         name, FLAG_VALUES[name], "--json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} ")


@pytest.mark.parametrize("suite", sorted(READS))
def test_every_flag_a_suite_reads_is_accepted_and_defaults_when_omitted(capsys, suite):
    # FLAG_VALUES holds the default of each flag this adds
    argv = ["check", suite, *SMALL_CHECKS[suite], "--json"]
    given = [a for name in sorted(READS[suite] - set(argv)) for a in (name, FLAG_VALUES[name])]
    omitted = run(capsys, *argv)
    assert omitted[0] == 0 and run(capsys, *argv, *given) == omitted


# ---------------------------------------------------------------------------
# fuzzing: any argv built from the real verbs, flags and map text exits 0, 1
# or 2 without a traceback.  Suite sizes stay at their smallest valid values
# (a size of -1 is the invalid draw), and faa-compose gets maps of degree at
# most 3: valid runs outside those bounds take seconds to minutes.  A check
# gives only flags its suite reads, except for one drawn unread flag, which
# must exit 2.

VARIABLES = ["x1", "x2", "x3"]
NUMBERS = ["0", "2", "7", "1/2"]
SOUP = VARIABLES + NUMBERS + ["x0", "x101", "+", "-", "*", "^", "(", ")", ";",
                              " ", "3000000", "[", "]"]
RIGS = ["int", "nat", "rat", "zmod:2", "zmod:5", "zmod:0", "zmod:x", "real"]


def polynomial(exponents, max_leaves):
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
            inner.map(lambda t: f"({t})"),
            *([st.tuples(inner, st.sampled_from(exponents)).map("".join)]
              if exponents else []))
    return st.recursive(st.sampled_from(VARIABLES + NUMBERS), grow,
                        max_leaves=max_leaves)


def map_text(exponents=("^2", "^3", "^3000000"), max_leaves=6):
    components = st.lists(polynomial(exponents, max_leaves), min_size=1, max_size=2)
    soup = st.lists(st.sampled_from(SOUP), max_size=12).map("".join)
    valid = components.map(lambda cs: "[" + "; ".join(cs) + "]")
    return st.one_of(valid, valid, soup.map(lambda t: f"[{t}]"), soup)


def size(valid):
    """Mostly a valid value, sometimes -1."""
    return st.integers(0, 5).map(lambda k: valid[k % len(valid)] if k else -1)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


# the values the fuzz draws for each check flag; SIZES are always given
# where the suite reads them
FUZZ_FLAGS = {"--mod": size((1, 2)), "--dim": size((1,)), "--samples": size((1, 2)),
              "--degree": size((0, 1)), "--maxdeg": size((0, 1, 2)),
              "--arity": size((1, 2)), "--seed": st.integers(0, 3),
              "--rig": st.sampled_from(RIGS)}
SIZES = {"--mod", "--dim", "--samples", "--degree"}


@st.composite
def cli_argv(draw):
    """(argv, whether it gives a check flag the suite does not read)."""
    verb = draw(st.sampled_from(["diff", "nderiv", "partial", "faa-compose",
                                 "check", "frobnicate"]))
    argv = [verb]
    refused = False
    if verb == "check":
        suite = draw(st.sampled_from(sorted(READS) + ["bogus"]))
        argv.append(suite)
        reads = READS.get(suite, set(FUZZ_FLAGS))
        # sizes always given: the defaults of kleisli-iso and cdc run for seconds
        for name, values in FUZZ_FLAGS.items():
            if name in reads:
                given = [name, str(draw(values))]
                argv += given if name in SIZES else draw(st.sampled_from([[], given]))
        unread = sorted(set(FUZZ_FLAGS) - reads)
        if unread and draw(st.integers(0, 3)) == 0:
            name = draw(st.sampled_from(unread))
            argv += [name, str(draw(FUZZ_FLAGS[name]))]
            refused = True
        argv += draw(st.sampled_from([[], ["--json"]]))
    elif verb != "frobnicate":
        argv += draw(flag("--rig", st.sampled_from(RIGS)))
        argv += draw(flag("--arity", st.sampled_from([3, 4, 0, -1, 101])))
        if verb == "nderiv":
            argv += ["--n", str(draw(size((1, 2, 3))))]
        if verb == "partial":
            argv += ["--i", str(draw(size((1, 2, 4))))]
        if verb == "faa-compose":
            argv += draw(flag("--maxdeg", st.integers(-1, 3)))
            argv += [draw(map_text((), 3)), draw(map_text((), 3))]
        else:
            argv.append(draw(map_text()))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ["--bogus", "--json", "--rig", "--n", "-1", "[x1]", ""])))
    return argv, refused


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(case):
    argv, refused = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in ((2,) if refused else (0, 1, 2)), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
