"""One repetition of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N --mode run|trace|profile|bad

Imports cdcat from the `src/` directory next to this one, builds the
seeded inputs, then, by mode:

- run:     times the verdict (untraced, calibrated against host speed, see
           calib.py) and checks it against the known answer;
- setup:   stops after set-up, which every mode times;
- trace:   the same with every layer wrapped, plus per-layer numbers;
- profile: the same under cProfile, for the top self-time functions;
- bad:     installs the workload's sabotage (untimed) and reports whether
           the verdict caught it.

Prints one JSON object on the last line of standard output.  `run.py`
starts these one at a time and reads that line.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import pstats
import resource
import sys
import time
import types
from pathlib import Path

import calib
from tracing import Patcher, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("algebra", "cdc", "combinat", "dpsh", "errors", "faa", "matcat",
           "poly", "qmodality", "reports", "suites")


def load_cdcat():
    """The cdcat modules of this checkout, as one namespace."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    cd = types.SimpleNamespace()
    for name in MODULES:
        setattr(cd, name, importlib.import_module(f"cdcat.{name}"))
    origin = Path(cd.suites.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"cdcat was imported from {origin}, not from {src}")
    return cd


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def judge(reports, expected, input_checks):
    """Known-answer check: (checks attempted, wrong check names, instances)."""
    wrong, attempted, instances = [], 0, 0
    seen = set()
    for r in reports:
        for c in r.checks:
            key = (r.suite, c.name)
            seen.add(key)
            attempted += 1
            instances += c.checked
            if not c.passed or expected.get(key) != c.checked:
                wrong.append(f"{r.suite}/{c.name}: {'pass' if c.passed else 'fail'}"
                             f" {c.checked} (want pass {expected.get(key)})")
    for key in sorted(set(expected) - seen):
        attempted += 1
        wrong.append(f"{key[0]}/{key[1]}: missing")
    for name, got, want in input_checks:
        attempted += 1
        if got != want:
            wrong.append(f"input {name}: {got} (want {want})")
    return attempted, wrong, instances


def timed(cd, wl, inputs, expected, to_json):
    t0 = time.perf_counter()
    reports = wl.run(cd, inputs)
    texts = [to_json(r) for r in reports]
    attempted, wrong, instances = judge(reports, expected,
                                        inputs.get("input_checks", ()))
    t1 = time.perf_counter()
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return {"verdict_s": t1 - t0, "span": (t0, t1), "attempted": attempted,
            "wrong": wrong, "instances": instances, "digest": digest}


def layer_metrics(tracer):
    spans = tracer.self_times()
    calls = {n: c for n, (c, _) in spans.items()}
    self_s = {n: s for n, (_, s) in spans.items()}
    counts = {n: cell[0] for n, cell in tracer.counts.items()}
    counts.update(calls)

    def module_self(prefix):
        return sum((s for n, s in self_s.items() if n.startswith(prefix + ".")), 0.0)

    out = {}
    for name in ("algebra.elem_add", "algebra.elem_scale", "algebra.elem_eq",
                 "algebra.rig_op", "algebra.key_hash", "algebra.key_token"):
        out[f"{name}.calls"] = counts.get(name, 0)
    for fn in ("monoidal_mult", "q_map", "q_inject", "comult",
               "comonoid_comult", "storage", "deriving"):
        out[f"qmodality.{fn}.calls"] = counts.get(f"qmodality.{fn}", 0)
        out[f"qmodality.{fn}.self_s"] = self_s.get(f"qmodality.{fn}", 0.0)
    ratios = {
        "qmodality.on_basis.repeat_ratio": ("qmodality.on_basis",),
        "qmodality.comult.repeat_ratio": ("qmodality.comult",),
        "combinat.repeat_ratio": ("combinat.partitions", "combinat.partial_isos"),
        "poly.substitute.repeat_ratio": ("poly.substitute",),
        "dpsh.act.repeat_ratio": ("dpsh.act",),
    }
    bases = {}
    for metric, names in ratios.items():
        out[metric], bases[metric] = tracer.repeat_ratio(*names)
    for fn in ("arrange", "partial_isos", "partitions"):
        out[f"combinat.{fn}.calls"] = counts.get(f"combinat.{fn}", 0)
    out["combinat.self_s"] = module_self("combinat")
    for fn in ("substitute", "poly_D", "table_from_callable", "table_from_poly"):
        out[f"poly.{fn}.calls"] = counts.get(f"poly.{fn}", 0)
        out[f"poly.{fn}.self_s"] = self_s.get(f"poly.{fn}", 0.0)
    for fn in ("kleisli_compose", "faa_compose", "kleisli_D", "faa_D", "coalgebra"):
        out[f"faa.{fn}.calls"] = counts.get(f"faa.{fn}", 0)
        out[f"faa.{fn}.self_s"] = self_s.get(f"faa.{fn}", 0.0)
    out["matcat.compose.calls"] = counts.get("matcat.compose", 0)
    out["matcat.compose.self_s"] = self_s.get("matcat.compose", 0.0)
    for fn in ("pairing", "D", "all_maps"):
        out[f"matcat.{fn}.calls"] = counts.get(f"matcat.{fn}", 0)
    for fn in ("act", "diff"):
        out[f"dpsh.{fn}.calls"] = counts.get(f"dpsh.{fn}", 0)
        out[f"dpsh.{fn}.self_s"] = self_s.get(f"dpsh.{fn}", 0.0)
    out["dpsh.check_presheaf.self_s"] = self_s.get("dpsh.check_presheaf", 0.0)
    out["dpsh.full_fidelity.self_s"] = self_s.get("dpsh.full_fidelity", 0.0)
    out["cdc.check_axioms.self_s"] = self_s.get("cdc.check_axioms", 0.0)
    out["cdc.poly_compose.calls"] = counts.get("cdc.poly_compose", 0)
    out["cdc.nth_derivative.calls"] = counts.get("cdc.nth_derivative", 0)
    # the benchmark's own loops around the suites count as the suites residual
    out["suites.self_s"] = module_self("suites") + self_s.get("bench.workload", 0.0)
    out["reports.to_dict_s"] = self_s.get("reports.to_dict", 0.0)
    for module in ("qmodality", "poly", "faa", "matcat", "dpsh", "cdc"):
        out[f"{module}.self_s"] = module_self(module)
    # every span nests in bench.workload, so the self times add up to its length
    out["trace.verdict_s"] = sum(self_s.values())
    return out, bases


def top_functions(profile, limit=10):
    stats = pstats.Stats(profile)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    out = []
    for (path, line, func), (_, ncalls, tottime, cumtime, _) in rows[:limit]:
        where = f"{Path(path).name}:{line}" if line else path
        out.append({"function": f"{where}({func})", "calls": ncalls,
                    "self_s": round(tottime, 4), "cumulative_s": round(cumtime, 4)})
    return out


def known_bad(cd, wl, inputs):
    """Run the workload with its sabotage installed; restore it afterwards."""
    patcher = Patcher()
    caught, how = False, "no failing check"
    try:
        for owner, attr, value in wl.sabotage(cd):
            patcher.set(owner, attr, value)
        try:
            reports = wl.run(cd, inputs)
        except cd.errors.CdcatError as exc:
            caught, how = True, f"raised {type(exc).__name__}: {exc}"
        else:
            for r in reports:
                failing = [c for c in r.checks if not c.passed and c.counterexample]
                if failing:
                    c = failing[0]
                    caught, how = True, f"{r.suite}/{c.name}: {c.counterexample}"
                    break
    finally:
        patcher.restore()
    return {"caught": caught, "how": how[:300], "unrestored": patcher.verify()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace", "profile", "bad"),
                    default="run")
    ap.add_argument("--spans", help="file the trace mode writes its spans to")
    ap.add_argument("--started", type=float, required=True,
                    help="time.perf_counter() of the parent when it spawned this")
    args = ap.parse_args(argv)

    # the ticker runs through set-up and, in run mode only, the verdict;
    # in the other modes its reference would land inside the measured work
    ticker = calib.Ticker().start()
    cd = load_cdcat()
    wl = WORKLOADS[args.workload]
    inputs = wl.build(cd, args.seed)
    expected = wl.expected(args.seed)
    setup_done = time.perf_counter()
    if args.mode != "run":
        ticker.stop()
    out = dict(zip(("setup_wall_s", "setup_s", "setup_ticks"),
                   ticker.split(args.started, setup_done)))

    if args.mode == "setup":
        pass
    elif args.mode == "bad":
        out.update(known_bad(cd, wl, inputs))
    elif args.mode == "trace":
        tracer = Tracer()
        tracer.install(cd)
        try:
            body = tracer.span("bench.workload", timed)
            res = body(cd, wl, inputs, expected,
                       tracer.span("reports.to_dict", report_json))
        finally:
            out["unrestored"] = tracer.uninstall()
        out.update(res)
        out["layers"], out["repeat_bases"] = layer_metrics(tracer)
        out["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    elif args.mode == "profile":
        profile = cProfile.Profile()
        profile.enable()
        res = timed(cd, wl, inputs, expected, report_json)
        profile.disable()
        out.update(res)
        out["top"] = top_functions(profile)
    else:
        res = timed(cd, wl, inputs, expected, report_json)
        ticker.stop()
        res["wall_s"], res["verdict_s"], res["ticks"] = ticker.split(*res["span"])
        out.update(res)
    out.pop("span", None)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
