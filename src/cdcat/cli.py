"""Command-line front end.

Variable naming in derivative output: the original arguments print as
x1..xn, the first derivative block as v1..vn, the second as w1..wn, and
any further blocks as u3, u4, ... (numbered by block).  `partial` appends
a single direction variable printed v1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cdc, faa, suites
from .errors import CdcatError, InvalidArgument, ParseError, SizeLimit
from .poly import MAX_ARITY, parse_poly_map
from .reports import Report

EPILOG = """\
variable naming:
  map inputs are x1..xn; each derivative doubles the arguments, and the
  new blocks print as v1..vn (first derivative), w1..wn (second), then
  u3*, u4*, ... for deeper blocks.  `partial --i k` appends one direction
  variable, printed v1.

rigs: nat, int, rat, zmod:<m> (e.g. zmod:5).

exit codes: 0 all checks pass / computation ok; 1 a check failed
(counterexample printed); 2 usage or parse error, including a `check`
flag that the chosen suite does not read.

defaults for randomized suites: --seed 0, so runs are reproducible.
"""


def _block_namer(blocks):
    names = []
    for bi, size in enumerate(blocks):
        prefix = ("x", "v", "w")[bi] if bi < 3 else f"u{bi}"
        names.extend(f"{prefix}{i + 1}" for i in range(size))
    return lambda i: names[i]


def _parse_map(text, rig_name, arity):
    rig = suites.parse_rig(rig_name)
    if arity is None:
        arity = _infer_arity(text)
    return parse_poly_map(text, rig, arity), rig, arity


def _infer_arity(text) -> int:
    import re

    found = [int(m) for m in re.findall(r"x(\d+)", text)]
    return max(found, default=0)


def _print_report(report: Report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdcat",
        description="derivatives, Faa di Bruno families, and law-checking "
                    "suites for cartesian differential categories",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def map_flags(p):
        p.add_argument("--rig", default="int",
                       help="nat | int | rat | zmod:<m> (default int)")
        p.add_argument("--arity", type=int, default=None,
                       help="number of input variables (default: inferred)")

    p = sub.add_parser("diff", help="total derivative D(f), arity doubles")
    map_flags(p)
    p.add_argument("map", help="polynomial map, e.g. \"[x1^2; x1*x2]\"")

    p = sub.add_parser("nderiv", help="nth derivative f^(n), always in the "
                                      "first block")
    map_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("map")

    p = sub.add_parser("partial", help="partial derivative in variable i "
                                       "(1-based), one direction variable "
                                       "appended")
    map_flags(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("map")

    p = sub.add_parser("faa-compose", help="Faa di Bruno family of g after f")
    map_flags(p)
    p.add_argument("--maxdeg", type=int, default=3,
                   help="highest component printed (default 3)")
    p.add_argument("g")
    p.add_argument("f")

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite",
                   choices=["cdc", "modality", "kleisli-iso", "yoneda",
                            "presheaf"])
    # an omitted flag is None and takes the suite's default (SUITE_FLAGS)
    p.add_argument("--rig", help="cdc only: nat | int | rat | zmod:<m> "
                                 "(default: all four standard rigs)")
    p.add_argument("--mod", type=int,
                   help="modulus for the finite-carrier suites (default 2)")
    p.add_argument("--arity", type=int,
                   help="cdc: max arity of sampled maps (default 3)")
    p.add_argument("--seed", type=int,
                   help="seed for randomized checks (default 0)")
    p.add_argument("--samples", type=int,
                   help="sample count where sampling is used")
    p.add_argument("--maxdeg", type=int,
                   help="max degree of sampled maps / enumerated tails "
                        "(default 3)")
    p.add_argument("--degree", type=int,
                   help="Q truncation degree (kleisli-iso composite bound, "
                        "default 4; presheaf generator bound, default 2)")
    p.add_argument("--dim", type=int,
                   help="max module dimension / matrix size (default 2)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    # sampled maps in `check` need an input; constant maps elsewhere do not
    arity_least = 1 if args.verb == "check" else 0
    for flag, least in (("n", 0), ("arity", arity_least), ("maxdeg", 0),
                        ("degree", 0), ("samples", 1), ("dim", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            print(f"error: --{flag} must be at least {least}, got {value}",
                  file=sys.stderr)
            return 2

    try:
        if args.verb == "diff":
            f, rig, arity = _parse_map(args.map, args.rig, args.arity)
            backend = cdc.PolyBackend(rig)
            out = backend.D(f)
            print(out.to_str(_block_namer([arity, arity])))
            return 0

        if args.verb == "nderiv":
            f, rig, arity = _parse_map(args.map, args.rig, args.arity)
            # a constant map counts as arity 1, so that --n stays bounded too
            if max(arity, 1) * (args.n + 1) > MAX_ARITY:
                raise SizeLimit(f"--n {args.n} gives more than {MAX_ARITY} "
                                f"variables at arity {arity}")
            backend = cdc.PolyBackend(rig)
            out = cdc.nth_derivative(backend, f, arity, args.n)
            print(out.to_str(_block_namer([arity] * (args.n + 1))))
            return 0

        if args.verb == "partial":
            f, rig, arity = _parse_map(args.map, args.rig, args.arity)
            backend = cdc.PolyBackend(rig)
            out = cdc.partial_derivative(backend, f, [1] * arity, args.i)
            print(out.to_str(_block_namer([arity, 1])))
            return 0

        if args.verb == "faa-compose":
            f, rig, arity = _parse_map(args.f, args.rig, args.arity)
            g = parse_poly_map(args.g, rig, f.cod)
            backend = cdc.PolyBackend(rig)
            composite = faa.faa_compose(
                faa.coalgebra(backend, g), faa.coalgebra(backend, f)
            )
            top = min(max(composite.support, 0), args.maxdeg)
            for n in range(top + 1):
                comp = composite.component(n)
                namer = _block_namer([arity] * (n + 1))
                print(f"component {n}: {comp.to_str(namer)}")
            return 0

        if args.verb == "check":
            return _run_check(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        print("expected: '[' poly (';' poly)* ']' in variables x1..xn",
              file=sys.stderr)
        return 2
    except CdcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


# the flags each suite reads, with the value an omitted one takes
SUITE_FLAGS = {
    "cdc": {"rig": None, "arity": 3, "seed": 0, "samples": 200, "maxdeg": 3},
    "modality": {"mod": 2, "dim": 2, "maxdeg": 3, "seed": 0},
    "kleisli-iso": {"mod": 2, "dim": 2, "degree": 4, "samples": 25, "seed": 0},
    "yoneda": {"mod": 2, "dim": 2},
    "presheaf": {"mod": 2, "dim": 2, "degree": 2, "seed": 0},
}


def _run_check(args) -> int:
    suite, reads, given = args.suite, SUITE_FLAGS[args.suite], vars(args)
    for flag in sorted(set().union(*SUITE_FLAGS.values()) - set(reads)):
        if given[flag] is not None:
            raise InvalidArgument(f"--{flag} is not read by the {suite} suite")
    a = argparse.Namespace(**{flag: default if given[flag] is None else given[flag]
                              for flag, default in reads.items()})
    if suite == "cdc":
        rigs = [a.rig] if a.rig else ["nat", "int", "rat", "zmod:5"]
        rep = Report("cdc-axioms", {"rigs": rigs, "seed": a.seed, "samples": a.samples,
                                    "max_degree": a.maxdeg, "max_arity": a.arity})
        for rig_name in rigs:
            rep.extend(f"{rig_name}:", suites.cdc_suite(
                rig_name, seed=a.seed, samples=a.samples,
                max_degree=a.maxdeg, max_arity=a.arity))
    elif suite == "modality":
        rep = suites.modality_suite(a.mod, dim=a.dim, maxdeg=a.maxdeg, seed=a.seed)
    elif suite == "kleisli-iso":
        rep = suites.kleisli_suite(a.mod, max_dim=a.dim, degree_bound=a.degree,
                                   samples=a.samples, seed=a.seed)
    elif suite == "yoneda":
        rep = suites.yoneda_suite(a.mod, max_dim=a.dim)
    else:
        rep = suites.presheaf_suite(a.mod, max_dim=a.dim, q_bound=a.degree,
                                    seed=a.seed)
    return _print_report(rep, args.json)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
