#!/usr/bin/env python3
"""Perf regression gate for the cross-PR bench summary (BENCH_cpu.json).

Usage: bench_gate.py RECORDED.json FRESH.json [--max-drop=0.15]

Compares the fresh micro_cpu summary against the recorded one and fails
(exit 1) when a gated metric drops by more than --max-drop at any matrix
size present in both files. Sizes only in one file are reported but never
fail the gate (the sweep grid may grow). The comparison is only meaningful
when both summaries measured the same layout; a mismatch fails loudly
rather than gating apples against oranges.

The gated lanes are the rows of LANES:

  * vec — vec_gflops of the fp32 executor (``summary`` rows), always gated.
  * precision — ``<prec>_gflops`` of the reduced-precision storage lane
    (micro_cpu --prec=bf16|fp16 rows carry ``storage_prec``).
  * large-n tiled — ``tiled_gflops`` of the task-parallel DAG path past the
    n = 64 ceiling (``large_summary`` rows from fig_large_tiled, merged in
    by scripts/check.sh --bench).
  * instant-tuning — ``probe_gflops``, the measured rate of the
    configuration the model-guided probe selected (``instant_summary`` rows
    from fig_instant_tune). Gating it pins the *selection quality* of the
    calibrated model + stratified top-K planner (DESIGN §14): a model change
    that starts picking bad configurations fails here even if every kernel
    is as fast as ever.

Every lane but vec is gated only when the recorded baseline carries it. A
fresh summary without such a lane is an environmental skip (exit 3), never
a pass — the caller should re-record with the lane's producer included.
Legacy baselines without a lane compare permissively, so the first
re-record upgrades them in place.

Exit codes:
  0 — no regression past the threshold
  1 — regression or layout mismatch (a real gate failure); a failure in
      any lane outranks every skip
  3 — environment mismatch: the recorded baseline was measured on a host
      with a different core count (``hardware_concurrency``) or SIMD tier
      (``simd_isa``), or carries a lane the fresh summary lacks.
      Absolute GF/s numbers from different hardware (or different storage
      lanes) are not comparable, so the gate declines to judge instead of
      reporting a false regression (or a false pass). The caller should
      re-record the baseline on the current host. Baselines from before
      these fields were recorded compare permissively (no skip) so the
      first re-record upgrades them in place.
"""

import json
import sys
from collections import namedtuple

MAX_DROP = 0.15

# Exit status for "environment differs from the baseline's; refusing to
# judge" — distinct from a perf failure (1) so callers can re-record
# instead of failing the build.
EXIT_ENV_SKIP = 3

# (json key, human name) pairs that pin a summary to its host environment.
ENV_KEYS = (("hardware_concurrency", "core count"), ("simd_isa", "SIMD tier"))

# One gated lane: its name, the summary key holding its per-n rows, the
# metric gated (``{prec}`` is the storage lane the summaries carry),
# whether it is gated even when the baseline lacks it, whether a failure
# prints the per-stage breakdown, and how to re-record a missing lane.
Lane = namedtuple("Lane", "name rows metric always stages advice")

LANES = (
    Lane("vec", "summary", "vec_gflops", True, True, None),
    Lane("precision", "summary", "{prec}_gflops", False, False,
         "with the matching --prec"),
    Lane("large-n tiled", "large_summary", "tiled_gflops", False, True,
         "with fig_large_tiled included"),
    Lane("instant-tuning", "instant_summary", "probe_gflops", False, False,
         "with fig_instant_tune included"),
)


def env_mismatch(recorded, fresh):
    """First environment field present in both docs but disagreeing, as a
    printable description — or None when the environments are comparable."""
    for key, name in ENV_KEYS:
        old = recorded.get(key)
        new = fresh.get(key)
        if old is not None and new is not None and old != new:
            return f"{name} ({key}: recorded {old!r}, fresh {new!r})"
    return None


def prec_lane(doc):
    """The reduced-precision storage lane a summary carries ("bf16" or
    "fp16"), or None when no row has one. A row belongs to a lane when it
    names its precision and carries the matching throughput field."""
    for row in doc.get("summary", []):
        prec = row.get("storage_prec")
        if prec and prec != "fp32" and f"{prec}_gflops" in row:
            return prec
    return None


def lane_rows(doc, lane, metric):
    """The lane's rows keyed by n: rows under its key carrying its metric
    (empty for summaries recorded before the lane existed)."""
    return {row["n"]: row for row in doc.get(lane.rows, []) if metric in row}


def stage_breakdown(old_row, new_row):
    """Lines attributing a failure to pipeline stages (pack / factor /
    write-back CPU seconds recorded by the observability layer). Summaries
    from IBCHOL_OBS=OFF builds or from before the layer existed carry no
    stages; say so instead of printing an empty table."""
    old_stages = old_row.get("stages") or {}
    new_stages = new_row.get("stages") or {}
    if not old_stages and not new_stages:
        return ["    (no per-stage data: summaries recorded without "
                "IBCHOL_OBS=ON)"]
    lines = []
    for stage in sorted(set(old_stages) | set(new_stages)):
        old_s = old_stages.get(stage)
        new_s = new_stages.get(stage)
        old_txt = f"{old_s * 1e3:9.3f} ms" if old_s is not None else "   (none)"
        new_txt = f"{new_s * 1e3:9.3f} ms" if new_s is not None else "   (none)"
        if old_s and new_s:
            ratio = f" ({new_s / old_s:5.2f}x)"
        else:
            ratio = ""
        lines.append(f"    stage {stage:>10}: {old_txt} -> {new_txt}{ratio}")
    return lines


def gate_lane(lane, recorded, fresh, max_drop):
    """Prints one lane's comparison. Returns (metric, failing sizes, skip
    reason or None)."""
    prec = prec_lane(recorded) or prec_lane(fresh)
    metric = lane.metric.format(prec=prec)
    old_rows = lane_rows(recorded, lane, metric)
    new_rows = lane_rows(fresh, lane, metric)
    failures = []
    if not lane.always:
        if not old_rows:
            if new_rows:
                print(f"bench gate: {lane.name} lane new in fresh summary "
                      "(no baseline to gate against)")
            return metric, failures, None
        if not new_rows:
            return metric, failures, (f"baseline carries {lane.name} rows "
                                      "but the fresh summary has none")
    label = metric.removesuffix("_gflops")
    for n in sorted(old_rows):
        if n not in new_rows:
            print(f"bench gate: {label} n={n} missing from fresh summary "
                  "(skipped)")
            continue
        old_gf = old_rows[n][metric]
        new_gf = new_rows[n][metric]
        if old_gf <= 0.0:
            continue
        ratio = new_gf / old_gf
        failed = ratio < 1.0 - max_drop
        print(f"bench gate: n={n:4d} {label} {old_gf:8.2f} -> {new_gf:8.2f} "
              f"GF/s ({ratio:5.2f}x) {'FAIL' if failed else 'ok'}")
        if failed:
            failures.append(n)
            if lane.stages:
                for line in stage_breakdown(old_rows[n], new_rows[n]):
                    print(line)
    for n in sorted(set(new_rows) - set(old_rows)):
        print(f"bench gate: {label} n={n} new in fresh summary")
    return metric, failures, None


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    max_drop = MAX_DROP
    for a in argv[1:]:
        if a.startswith("--max-drop="):
            max_drop = float(a.split("=", 1)[1])
    if len(args) != 2:
        sys.exit(__doc__)
    with open(args[0]) as f:
        recorded = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    mismatch = env_mismatch(recorded, fresh)
    if mismatch is not None:
        print(f"bench gate: environment mismatch: {mismatch}")
        print(
            "bench gate: baseline numbers are from different hardware; "
            "skipping the comparison — re-record BENCH_cpu.json on this "
            "host"
        )
        return EXIT_ENV_SKIP

    old_layout = recorded.get("layout", "chunked")
    new_layout = fresh.get("layout", "chunked")
    if old_layout != new_layout:
        print(
            f"bench gate: layout mismatch (recorded {old_layout!r}, "
            f"fresh {new_layout!r}); refusing to compare"
        )
        return 1

    results = [(lane, *gate_lane(lane, recorded, fresh, max_drop))
               for lane in LANES]
    failed = [(metric, sizes) for _, metric, sizes, _ in results if sizes]
    for metric, sizes in failed:
        print(f"bench gate: {metric} dropped more than {max_drop:.0%} at "
              f"n in {sizes}")
    if failed:
        return 1
    skips = [(lane, reason) for lane, _, _, reason in results if reason]
    for lane, reason in skips:
        print(f"bench gate: {reason}")
        print(f"bench gate: {lane.name} rows are not comparable; skipping "
              f"the {lane.name} lane — re-record BENCH_cpu.json "
              f"{lane.advice}")
    if skips:
        return EXIT_ENV_SKIP
    print("bench gate: no regression past the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
