#!/usr/bin/env python3
"""Builds and runs the SparDL host-time benchmark, checks its outputs, and
compares recorded runs.

One workload, one process, the metrics of BENCHMARK.json as the last
stdout line (the form benchmark harnesses consume):

  python3 benchmark/run.py --workload paper_p14_flat --seed 1 --trace 0

Every workload for BENCHMARK.json's run_seconds, every metric printed by
name and unit, outputs checked:

  python3 benchmark/run.py run [--seed N] [--trace DIR] [--repeat R]
                               [--record FILE]

  --trace DIR   also make one traced run per workload (per-layer metrics),
                writing its spans to DIR/<workload>.trace.json
  --repeat R    run every workload R times with the same seed and flag any
                drift in the metrics that must be bit-identical
  --record FILE append every untraced run to FILE, for `compare`

A/B comparison of two recordings whose runs were made in pairs:

  python3 benchmark/run.py compare PARENT.json CHANGE.json

Each workload runs in its own process with SPARDL_EXEC_BACKEND=fiber, so
all simulated workers share one OS thread. The benchmark is built from
the enclosing checkout into .bench_build/ at its root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "benchmark")
BINARY = os.path.join(BUILD_DIR, "spardl_benchmark")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Pure functions of the workload and seed: two runs of the same code must
# agree bit for bit.
DETERMINISTIC = [
    "sim_ms_per_update",
    "simnet.msgs_per_update",
    "simnet.words_per_update",
    "des.hops_per_update",
    "train_loss_final",
]
RUN_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchmarkError(f"no SparDL sources at {ROOT}: nothing to build")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "spardl_benchmark", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchmarkError("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace_out=None):
    """Runs one workload in its own process; returns its report dict."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, SPARDL_EXEC_BACKEND="fiber")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: no result in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    # Exit 1 means output checks failed, and the report says which.
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-4000:])
        raise BenchmarkError(
            f"{workload}: spardl_benchmark exited {proc.returncode}")
    return json.loads(lines[-1])


def check(report, names):
    """Output checks; returns the list of problems (empty when correct)."""
    problems = list(report["failures"])
    if report["failed"] and not problems:
        problems.append(f"{report['failed']} ops failed")
    if report["attempted"] < 1:
        problems.append("no op was attempted")
    metrics = report["metrics"]
    threads, cpus = metrics["threads_max"]["value"], metrics["nproc"]["value"]
    if threads > cpus:
        problems.append(f"{threads:.0f} threads > nproc {cpus:.0f}")
    for name in names:
        if name not in metrics:
            raise BenchmarkError(f"{report['workload']}: no metric {name}")
        if not math.isfinite(metrics[name]["value"]):
            problems.append(f"{name} is not finite")
    return problems


def contract_names(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def workload_main(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one workload.")
    parser.add_argument("--workload", required=True,
                        choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds or spec["run_seconds"]
    build()
    trace_out = None
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
    report = run_workload(args.workload, args.seed, seconds, trace_out)
    names = contract_names(spec, args.trace)
    problems = check(report, names)
    for problem in problems:
        log(f"{args.workload}: {problem}")
    metrics = {}
    for name, unit in names.items():
        measured = report["metrics"][name]
        if measured["unit"] != unit:
            raise BenchmarkError(
                f"{name}: spardl_benchmark reports {measured['unit']}, "
                f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": measured["value"], "unit": unit}
    print(json.dumps({"correct": not problems,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# `run`: every workload, printed for people.

def print_report(report, names):
    metrics = report["metrics"]
    print(f"{report['workload']}  (seed {report['seed']}, "
          f"{report['attempted']} ops checked, {report['failed']} failed)")
    for name in names:
        if name in metrics:
            m = metrics[name]
            print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
    print()


def layer_shares(report):
    m = report["metrics"]
    generate = m["dl.generate_ms"]["value"]
    update = generate + m["collective_ms"]["value"]
    return (f"  dl.generate share of an update: {100 * generate / update:.1f}%"
            f"  (collective {100 - 100 * generate / update:.1f}%)")


def record(path, reports):
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    runs.extend(reports)
    with open(path, "w") as f:
        json.dump({"runs": runs}, f, indent=1)


def run_main(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py run",
                                     description="Run every workload.")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--trace", metavar="DIR")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = workload_names(spec)
    build()
    e2e = list(contract_names(spec, 0)) + [
        "updates_per_s", "update_ms_p50", "update_ms_p75",
        "sim_ms_per_update", "train_loss_final", "threads_max"]
    failed = False
    reports = {w: [] for w in workloads}
    print(f"== end-to-end (untraced), {seconds:g} s per run, "
          f"seed {args.seed} ==\n")
    for rep in range(args.repeat):
        for w in workloads:
            report = run_workload(w, args.seed, seconds)
            reports[w].append(report)
            problems = check(report, contract_names(spec, 0))
            failed |= bool(problems)
            for problem in problems:
                print(f"  CHECK FAILED: {problem}")
            print_report(report, e2e)
        if args.record:
            record(args.record, [reports[w][-1] for w in workloads])

    if args.repeat > 1:
        print("== determinism across repeats ==")
        drift = False
        for w in workloads:
            for name in DETERMINISTIC:
                values = [r["metrics"][name]["value"] for r in reports[w]
                          if name in r["metrics"]]
                if len(set(values)) > 1:
                    drift = True
                    print(f"  DRIFT {w} {name}: {values}")
        print("" if drift else "  none: every repeat bit-identical\n")
        failed |= drift

    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        per_layer = contract_names(spec, 1)
        print(f"== per layer (traced), seed {args.seed} ==\n")
        for w in workloads:
            trace_out = os.path.join(os.path.abspath(args.trace),
                                     f"{w}.trace.json")
            report = run_workload(w, args.seed, seconds, trace_out)
            problems = check(report, per_layer)
            failed |= bool(problems)
            for problem in problems:
                print(f"  CHECK FAILED: {problem}")
            print_report(report, per_layer)
            print(layer_shares(report))
            print(f"  spans: {trace_out}\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# `compare`: A/B verdicts under the bounds of BENCHMARK.json.

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """improved / unchanged / regressed / unresolved, for paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse = sign * (c_med - p_med) / p_med
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    win_share = wins / len(parent)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse > bound:
        return "regressed", win_share
    if win_share >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", win_share
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def compare_main(argv):
    if len(argv) != 2:
        raise BenchmarkError("usage: run.py compare PARENT.json CHANGE.json")
    spec = load_spec()
    sides = []
    for path in argv:
        with open(path) as f:
            sides.append(json.load(f)["runs"])
    parent_runs, change_runs = sides
    print(f"{'workload':22s} {'metric':16s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>5s} {'bound':>6s}  verdict")
    regressed = False
    for w in workload_names(spec):
        parent = [r for r in parent_runs if r["workload"] == w]
        change = [r for r in change_runs if r["workload"] == w]
        pairs = min(len(parent), len(change))
        if pairs == 0:
            continue
        if any(p["seed"] != c["seed"] for p, c in zip(parent, change)):
            print(f"  note: {w} pairs runs with different seeds")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent[:pairs]]
            c = [r["metrics"][name]["value"] for r in change[:pairs]]
            result, win_share = verdict(p, c, m["better"], m["bound"])
            regressed |= result == "regressed"
            fmt = "{:9.4g} {:9.4g} {:9.4g}"
            print(f"{w:22s} {name:16s} {fmt.format(*quartiles(p)):>30s} "
                  f"{fmt.format(*quartiles(c)):>30s} {win_share:5.0%} "
                  f"{m['bound']:6.0%}  {result}")
        for name in DETERMINISTIC:
            for p, c in zip(parent, change):
                pv = p["metrics"].get(name, {}).get("value")
                cv = c["metrics"].get(name, {}).get("value")
                if p["seed"] == c["seed"] and pv != cv:
                    print(f"{w:22s} {name}: simulated output differs at "
                          f"seed {p['seed']} ({pv} vs {cv})")
    print("\n'won' is the share of pairs the change won (ties count for "
          "neither).")
    return 1 if regressed else 0


def main(argv):
    commands = {"run": run_main, "compare": compare_main}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return workload_main(argv)
    except BenchmarkError as error:
        log(f"run.py: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
