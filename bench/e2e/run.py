#!/usr/bin/env python3
"""End-to-end benchmark runner for ibchol.

Builds bench/e2e (and the library it links) from source, runs the workloads
in BENCHMARK.json, checks the results, and prints every metric by name with
its unit and sample count.

One workload (the last line of stdout is the JSON result):

    python3 bench/e2e/run.py --workload facade_small --seed 1 --seconds 10 --trace 0

Every workload, untraced then traced, with a full report:

    python3 bench/e2e/run.py --seed 1

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/, both
relative to the repository root. See bench/e2e/README.md for the metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
MIN_BEYOND = 10            # samples beyond a reported percentile
MAX_UNCOVERED = 0.05       # an op's child spans must cover 95% of it
MIN_COVERED_OPS = 0.95     # ...for at least 95% of ops: an interrupt can
                           # open a 5% gap in a 50 us operation
MAX_GEN_LATE_US = 1000.0   # generator p99 lateness at the reference step
RUN_TIMEOUT_S = 170
LIBRARY_LAYERS = ("core", "cpu", "layout", "svc", "tiled", "als")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def check_environment():
    """Variables that change what the library runs make a run invalid."""
    bad = sorted(k for k in os.environ
                 if k.startswith("OMP_") or k.startswith("IBCHOL_"))
    if bad:
        print("run.py: refusing to run with %s set; they change the program "
              "under test (IBCHOL_SERVICE=1, for one, reroutes the facade)"
              % ", ".join(bad), file=sys.stderr)
        sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    bdir = build_dir()
    steps = []
    # Written only when configuring and generating both succeeded.
    if not os.path.exists(os.path.join(bdir, "cmake_install.cmake")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "e2e_bench")


def run_binary(binary, workload, seed, seconds, trace):
    out = os.path.join(build_dir(), "e2e-out")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--json=" + stem + ".json"]
    if trace:
        cmd.append("--trace=" + stem + ".jsonl")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode not in (0, 1) or not os.path.exists(stem + ".json"):
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s exited with %d" % (workload, proc.returncode))
    with open(stem + ".json") as f:
        detail = json.load(f)
    detail["metrics"] = {m["name"]: m for m in detail["metrics"]}
    detail["trace_path"] = stem + ".jsonl" if trace else None
    return detail


def samples_beyond(count, pct):
    rank = math.ceil(pct / 100.0 * count - 1e-9)
    return count - min(rank, count)


def analyze_trace(path):
    """Self times per op from the spans: a span's self time is its duration
    minus the durations of its children (children never overlap: one thread
    records them in sequence)."""
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    child_sum = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_sum[s["parent"]] += s["end_ns"] - s["start_ns"]
    ops = {}
    for i, s in enumerate(spans):
        if s["op"] < 0:
            continue  # set-up calls, outside any timed op
        layer = s["name"].split(".")[0]
        self_ns = s["end_ns"] - s["start_ns"] - child_sum[i]
        op = ops.setdefault(s["op"], {"root": None, "layers": {}})
        if s["parent"] < 0:
            op["root"] = (s["end_ns"] - s["start_ns"], child_sum[i])
        else:
            op["layers"][layer] = op["layers"].get(layer, 0) + self_ns
    ops = [o for o in ops.values() if o["root"] and o["root"][0] > 0]
    if not ops:
        return None
    uncovered = [1.0 - covered / total for total, covered in
                 (o["root"] for o in ops)]
    layers = sorted({k for o in ops for k in o["layers"]})
    per_layer = {k: statistics.median(o["layers"].get(k, 0) / 1e3 for o in ops)
                 for k in layers}
    return {
        "ops": len(ops),
        "uncovered_pct": 100.0 * statistics.median(uncovered),
        "covered_ops": sum(u <= MAX_UNCOVERED for u in uncovered) / len(ops),
        "lib_self_us": statistics.median(
            sum(v for k, v in o["layers"].items() if k in LIBRARY_LAYERS) / 1e3
            for o in ops),
        "harness_self_us": statistics.median(
            o["layers"].get("harness", 0) / 1e3 for o in ops),
        "per_layer_self_us": per_layer,
    }


def validate(detail):
    """Problems that make a run invalid, as messages."""
    problems = ["incorrect: " + f for f in detail["failures"]]
    if not detail["correct"] and not detail["failures"]:
        problems.append("incorrect")
    for name, m in detail["metrics"].items():
        if m["value"] is None:
            problems.append("%s was not measured (non-finite)" % name)
        elif m["pct"] > 0 and samples_beyond(m["count"], m["pct"]) < MIN_BEYOND:
            problems.append("%s: p%g of %d samples has fewer than %d beyond it"
                            % (name, m["pct"], m["count"], MIN_BEYOND))
    late = detail["metrics"].get("svc.gen_late_p99_us.ref")
    if late and late["value"] is not None and late["value"] > MAX_GEN_LATE_US:
        problems.append("generator ran %.0f us late (p99) at the reference "
                        "step; the run measured the generator" % late["value"])
    trace = detail.get("trace")
    if trace is not None and trace["covered_ops"] < MIN_COVERED_OPS:
        problems.append("child spans cover only %.1f%% of ops within %d%%"
                        % (100 * trace["covered_ops"], 100 * MAX_UNCOVERED))
    return problems


def measure(binary, workload, seed, seconds, trace):
    detail = run_binary(binary, workload, seed, seconds, trace)
    if trace:
        t = analyze_trace(detail["trace_path"])
        if t is None:
            fail("%s: the trace holds no operation" % workload)
        detail["trace"] = t
        m = detail["metrics"]
        for name, value, unit in (
                ("trace.uncovered_pct", t["uncovered_pct"], "%"),
                ("trace.lib_self_p50_us", t["lib_self_us"], "us"),
                ("trace.harness_self_p50_us", t["harness_self_us"], "us")):
            m[name] = {"name": name, "value": value, "unit": unit,
                       "count": t["ops"], "pct": 0}
        for layer, us in t["per_layer_self_us"].items():
            name = "trace.self_p50_us." + layer
            m[name] = {"name": name, "value": us, "unit": "us",
                       "count": t["ops"], "pct": 0}
    return detail


def result_line(detail, names):
    metrics = {}
    for spec in names:
        m = detail["metrics"].get(spec["name"])
        if m is None or m["value"] is None:
            fail("%s did not report %s" % (detail["workload"], spec["name"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": bool(detail["correct"]),
            "attempted": int(detail["attempted"]),
            "failed": int(detail["failed"]), "metrics": metrics}


def print_detail(detail, label):
    print("== %s (%s, seed %d, %g s): attempted %d, failed %d, fail_ratio %g"
          % (detail["workload"], label, detail["seed"], detail["seconds"],
             detail["attempted"], detail["failed"],
             detail["failed"] / max(detail["attempted"], 1)))
    for name in sorted(detail["metrics"]):
        m = detail["metrics"][name]
        value = "n/a" if m["value"] is None else "%.6g" % m["value"]
        count = " (n=%d)" % m["count"] if m["count"] else ""
        print("  %-44s %14s %-8s%s" % (name, value, m["unit"], count))


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def print_host(detail):
    ctx = detail.get("context", {})
    print("host: nproc %s, OpenMP threads %s, SIMD tier %s, commit %s"
          % (ctx.get("nproc", "?"), ctx.get("omp_threads", "?"),
             ctx.get("simd_tier", "?"), git_commit()))


def run_one(spec, binary, args):
    detail = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    print_host(detail)
    print_detail(detail, "traced" if args.trace else "untraced")
    problems = validate(detail)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = result_line(detail, names)
    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    print(json.dumps(line))
    return 0 if not problems else 1


def run_all(spec, binary, args):
    start = time.time()
    problems = []
    e2e = [m["name"] for m in spec["end_to_end"]]
    for w in spec["workloads"]:
        plain = measure(binary, w["name"], args.seed, args.seconds, 0)
        traced = measure(binary, w["name"], args.seed, args.seconds, 1)
        if w is spec["workloads"][0]:
            print_host(plain)
        print_detail(plain, "untraced")
        print_detail(traced, "traced")
        before = plain["metrics"]["latency_p50_us"]["value"]
        after = traced["metrics"]["latency_p50_us"]["value"]
        print("  %-44s %14.6g %-8s" % ("trace.overhead_pct." + w["name"],
                                        100.0 * (after - before) / before, "%"))
        for d in (plain, traced):
            problems += ["%s: %s" % (w["name"], p) for p in validate(d)]
        missing = [n for n in e2e if n not in plain["metrics"]]
        problems += ["%s: missing %s" % (w["name"], n) for n in missing]
    print("\nend-to-end metrics: " + ", ".join(
        "%s [%s]" % (m["name"], m["unit"]) for m in spec["end_to_end"]))
    print("all workloads, untraced and traced, in %.0f s" % (time.time() - start))
    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_environment()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, ", ".join(names)))
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary = build()
    if args.workload is None:
        return run_all(spec, binary, args)
    return run_one(spec, binary, args)


if __name__ == "__main__":
    sys.exit(main())
