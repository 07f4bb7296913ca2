"""cdcat verdict benchmark.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all --seed N     # the four in sequence
    python3 bench/run.py --held-out ...              # use the held-out seed
    python3 bench/run.py --compare RESULTS_A RESULTS_B

Workloads (see workloads.py): modality, kleisli, poly, presheaf.

Closed loop, one caller, no threads: each repetition is a fresh child
interpreter (child.py), started only after the previous one has exited,
until --seconds have passed (at least three repetitions), then set-up-only
children until nine set-ups were timed.  A fresh
interpreter per repetition is what a `cdcat check` user pays, it makes
set-up time and peak memory per-run quantities, and no cache filled by one
repetition can serve the next.

--trace 0 reports the end-to-end metrics, measured untraced, each the
median over the run's repetitions:
  verdict_s    time of one verdict: first call into cdcat to the checked
               result, in idle-host seconds (calib.py: every 25 ms slice of
               wall time is scaled by a fixed reference computation timed at
               its ends, so contention from other jobs on the host cancels)
  laws_per_s   law instances decided / verdict_s
  setup_s      fresh interpreter through `import cdcat` to the generated
               inputs, timed from this process across the spawn, in
               idle-host seconds like verdict_s
  peak_rss_mb  ru_maxrss of the child that ran the verdict
The plain wall times are kept beside them in the result file.
Every verdict is checked against counts derived in workloads.py; the JSON
of the reports must be byte-identical across repetitions (same seed);
each run also installs the workload's sabotage once, untimed, and requires
a failing check or a CdcatError.  The share of wrong checks
(wrong_verdict_ratio) is printed and carried as failed / attempted.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans around every public cdcat
function, see tracing.py), trace.overhead_s, the repeat ratios with their
bases and the top-10 self-time functions from one cProfile repetition.

Every run writes a result file under .bench_out/; --compare takes two
result files or directories of them and prints one row per workload and
metric with each side's median and quartiles and the verdict against the
metric's bound.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
HELD_OUT_SEED = 982_451_653  # not used while the benchmark was tuned
MIN_REPS = 3
MIN_SETUPS = 9  # set-up is short: top the repetitions up with set-up-only children
CHILD_TIMEOUT_S = 150



class ChildFailed(Exception):
    pass


def spawn(workload, seed, mode, spans=None):
    """Run one child repetition; returns the JSON object it printed."""
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--started", repr(started)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "min": values[0], "max": values[-1]}


def machine():
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": os.cpu_count(), "usable_cpus": usable,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "loadavg_start": os.getloadavg()}


def run_workload(workload, seed, seconds, trace):
    """All repetitions of one workload; returns the full result record."""
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "machine": machine(), "problems": []}
    problems = record["problems"]
    plain, traced, setups = [], [], []
    start = time.monotonic()
    try:
        while True:
            plain.append(spawn(workload, seed, "run"))
            if trace:
                traced.append(spawn(workload, seed, "trace",
                                    OUT / f"spans-{workload}-s{seed}.bin"))
            # stop before a repetition that would end past --seconds
            elapsed = time.monotonic() - start
            if (len(plain) >= MIN_REPS
                    and elapsed * (len(plain) + 1) / len(plain) > seconds):
                break
        while len(plain) + len(setups) < MIN_SETUPS:
            setups.append(spawn(workload, seed, "setup"))
        if trace:
            record["top_functions"] = spawn(workload, seed, "profile")["top"]
        record["known_bad"] = spawn(workload, seed, "bad")
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        problems.append(f"child failed: {exc}")
    record["machine"]["loadavg_end"] = os.getloadavg()

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    wrong = [w for r in reps for w in r["wrong"]]
    record["attempted"] = max(attempted, 1)
    record["wrong"] = wrong
    record["wrong_verdict_ratio"] = len(wrong) / record["attempted"]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"report JSON differs across repetitions: {len(digests)} digests")
    for r in traced + [record.get("known_bad", {})]:
        if r.get("unrestored"):
            problems.append(f"bindings not restored: {r['unrestored']}")
    bad = record.get("known_bad")
    if bad is not None and not bad["caught"]:
        problems.append(f"sabotage not caught: {bad['how']}")
    record["failed"] = len(wrong) + len(problems)
    record["correct"] = record["failed"] == 0 and bool(plain)
    if not plain:
        return record

    record["samples"] = {
        "verdict_s": [r["verdict_s"] for r in plain],
        "laws_per_s": [r["instances"] / r["verdict_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain + setups],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in plain],
        "verdict_wall_s": [r["wall_s"] for r in plain],
        "setup_wall_s": [r["setup_wall_s"] for r in plain + setups],
    }
    record["instances"] = plain[0]["instances"]
    record["digest"] = plain[0]["digest"]
    record["end_to_end"] = {k: summary(v) for k, v in record["samples"].items()}
    for s in record["end_to_end"].values():
        s["value"] = s["median"]
    if traced:
        # every per-layer value comes from one repetition, the fastest traced
        # one, so the layer self times add up to its trace.verdict_s
        best = min(traced, key=lambda t: t["layers"]["trace.verdict_s"])
        layers = {k: dict(summary([t["layers"][k] for t in traced]), value=v)
                  for k, v in best["layers"].items()}
        # both sides plain wall time: the traced repetitions run without
        # the calibration ticker, whose reference would land inside spans
        overhead = (best["layers"]["trace.verdict_s"]
                    - record["end_to_end"]["verdict_wall_s"]["min"])
        layers["trace.overhead_s"] = {"value": overhead, "n": len(traced)}
        record["per_layer"] = layers
        record["repeat_bases"] = best["repeat_bases"]
        record["spans_per_rep"] = best["spans"]
    return record


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def print_record(rec, e2e, layer):
    m = rec["machine"]
    print(f"workload {rec['workload']}  seed {rec['seed']}"
          f"{' (held out)' if rec.get('held_out') else ''}  trace {rec['trace']}"
          f"  seconds {rec['seconds']}")
    print(f"machine: nproc {m['nproc']} (usable {m['usable_cpus']}), "
          f"{m['implementation']} {m['python']}, loadavg start "
          f"{' '.join(f'{x:.2f}' for x in m['loadavg_start'])} end "
          f"{' '.join(f'{x:.2f}' for x in m['loadavg_end'])}")
    for name, s in rec.get("end_to_end", {}).items():
        unit = e2e[name]["unit"] if name in e2e else "s (wall)"
        print(f"  {name:<14} median {s['median']:.6g} {unit}  "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]  n={s['n']}")
    print(f"  wrong_verdict_ratio {rec['wrong_verdict_ratio']:.6g} "
          f"({len(rec['wrong'])} of {rec['attempted']} checks)")
    for w in rec["wrong"][:10]:
        print(f"    wrong: {w}")
    bad = rec.get("known_bad")
    if bad:
        print(f"  known-bad: {'caught' if bad['caught'] else 'NOT caught'} - {bad['how']}")
    for p in rec["problems"]:
        print(f"  problem: {p}")
    if "per_layer" in rec:
        pl = rec["per_layer"]
        print(f"  per-layer (fastest of {pl['trace.verdict_s']['n']} traced repetitions, "
              f"{rec['spans_per_rep']} spans):")
        for name in layer:
            s = pl.get(name)
            if s is None:
                continue
            base = rec["repeat_bases"].get(name)
            extra = f"  (base: {base} calls)" if base is not None else ""
            print(f"    {name:<36} {s['value']:.6g} {layer[name]['unit']}{extra}")
        parts = ("qmodality", "poly", "faa", "matcat", "dpsh", "cdc", "combinat",
                 "suites")
        total = sum(pl[f"{p}.self_s"]["value"] for p in parts)
        total += pl["reports.to_dict_s"]["value"]
        print(f"    self-time accounting: sum of layers {total:.4f} s vs traced "
              f"verdict_s {pl['trace.verdict_s']['value']:.4f} s (algebra has "
              f"counts only; its time sits in its callers)")
        print("  top-10 self-time functions (cProfile, one repetition):")
        for row in rec.get("top_functions", []):
            print(f"    {row['self_s']:>8.3f} s  {row['calls']:>9} calls  {row['function']}")


def result_line(rec, e2e, layer):
    if "end_to_end" not in rec:
        metrics = {}
    elif rec["trace"]:
        metrics = {k: {"value": rec["per_layer"][k]["value"], "unit": v["unit"]}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": rec["end_to_end"][k]["value"], "unit": v["unit"]}
                   for k, v in e2e.items()}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# comparing two result sets

def load_set(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        if "workload" in rec:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def side_values(recs, section, metric):
    """One value per run, as the run reported it."""
    return [r[section][metric]["value"] for r in recs if metric in r.get(section, {})]


def compare_row(a, b, spec):
    sa, sb = summary(a), summary(b)
    lower = spec.get("better", "lower") == "lower"
    base = sa["median"]
    delta = (sb["median"] - base) / base if base else 0.0
    worse = delta if lower else -delta
    bound = spec.get("bound")
    if bound is None:
        verdict = "-"
    elif min(len(a), len(b)) < 2:
        verdict = "unresolved"  # one run gives no spread to judge against
    elif (max(b) < min(a)) if lower else (min(b) > max(a)):
        verdict = "better"
    elif (min(b) > max(a)) if lower else (max(b) < min(a)):
        verdict = "worse" if worse > bound else "unchanged"
    elif any(s["median"] and (s["q3"] - s["q1"]) / s["median"] > bound
             for s in (sa, sb)):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    elif worse < -bound:
        verdict = "better"
    else:
        verdict = "unchanged"
    return sa, sb, delta, verdict


def compare(path_a, path_b):
    e2e, layer = metric_specs()
    set_a, set_b = load_set(path_a), load_set(path_b)
    for wl in NAMES:
        digests = {}
        for rec in set_a.get(wl, []) + set_b.get(wl, []):
            digests.setdefault(rec["seed"], set()).add(rec.get("digest"))
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                print(f"{wl}: report JSON differs between runs of seed {seed}")
    print(f"{'workload':<9} {'metric':<34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'delta':>8} {'bound':>6}  verdict")
    for wl in NAMES:
        if wl not in set_a or wl not in set_b:
            continue
        for section, specs in (("end_to_end", e2e), ("per_layer", layer)):
            for name, spec in specs.items():
                a = side_values(set_a[wl], section, name)
                b = side_values(set_b[wl], section, name)
                if not a or not b:
                    continue
                sa, sb, delta, verdict = compare_row(a, b, spec)
                fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                bound = f"{spec['bound']:.2f}" if "bound" in spec else "-"
                print(f"{wl:<9} {name:<34} {fmt(sa):>32} {fmt(sb):>32} "
                      f"{delta:>+8.1%} {bound:>6}  {verdict}")


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--held-out", action="store_true",
                    help=f"ignore --seed and use the held-out seed {HELD_OUT_SEED}")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "cdcat" / "__init__.py").is_file():
        print(f"error: no cdcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e, layer = metric_specs()
    seed = HELD_OUT_SEED if args.held_out else args.seed
    OUT.mkdir(exist_ok=True)
    lines = {}
    for wl in (NAMES if args.workload == "all" else (args.workload,)):
        rec = run_workload(wl, seed, args.seconds, args.trace)
        rec["held_out"] = args.held_out
        (OUT / f"{wl}-s{seed}-t{args.trace}.json").write_text(
            json.dumps(rec, indent=1, sort_keys=True))
        print_record(rec, e2e, layer)
        lines[wl] = result_line(rec, e2e, layer)
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {"correct": all(x["correct"] for x in lines.values()),
                 "attempted": sum(x["attempted"] for x in lines.values()),
                 "failed": sum(x["failed"] for x in lines.values()),
                 "metrics": {f"{wl}.{k}": v for wl, x in lines.items()
                             for k, v in x["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
