#!/usr/bin/env python3
"""Benchmark runner: builds the driver, runs one workload, checks it, and
prints the metrics as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each iteration is a fresh driver process, so peak RSS and set-up cost are
per run. A run first replays the default seed once and compares its digest
with the one recorded below (this also warms the page cache), then measures
the given seed until --seconds have passed since the run began.

--trace 0  end-to-end metrics: medians over untraced iterations. The
           reference kernel (perfbench_reference) runs before the first
           iteration and after each one, and an iteration's times are
           scaled by REFERENCE_S over the mean of the two kernel times
           around it. On a shared host other guests slow every process for
           seconds to minutes at a time; the kernel slows with the driver,
           so the scaling cancels most of that.
--trace 1  per-layer metrics: one untraced iteration, then at least two
           iterations of the traced binary. Counts must repeat exactly, the
           traced digest must equal the untraced one, and each workload's
           self time must lead where the workload was chosen to stress.

The build goes to $CARGO_TARGET_DIR, or .bench_build at the repository root.
Human-readable notes go to stderr. Exit code 0 means every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("federation-2w", "whole-site-65k", "capped-fpp-queue")
DEFAULT_SEED = 42
# Digest of the result aggregates at DEFAULT_SEED. A change that alters any
# simulated result changes it; regenerate only for an intended change.
REFERENCE_DIGESTS = {
    "federation-2w": "430b0124b62608c1",
    "whole-site-65k": "539b22dcf5a6b47e",
    "capped-fpp-queue": "46435b4fe31f5d5e",
}
# The layer groups each workload was chosen to stress: outside sim.step,
# their self time together must exceed that of every other single group.
LEADERS = {
    "federation-2w": ("hwsim.set_demand", "hwsim.cap_write", "hwsim.sample",
                      "variorum"),
    "whole-site-65k": ("hwsim.sample", "monitor.store_push"),
    "capped-fpp-queue": ("dsp.find_period",),
}
# About the fastest time of perfbench_reference on a 4-vCPU Xeon guest at
# 2.1 GHz. Times are reported at the host speed this stands for; any value
# would do, as long as the runs being compared use the same one.
REFERENCE_S = 0.40
MIN_MEASURED = 4       # untraced iterations per --trace 0 run
MIN_TRACED = 2         # traced iterations per --trace 1 run
PROCESS_TIMEOUT_S = 150
MIB = 1024.0 * 1024.0


def note(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build incrementally (a no-op after the first run).
    Output goes to stderr."""
    out = build_dir()
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "3"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return out


def run_driver(binary, workload, seed):
    """One driver process. Returns (parsed JSON line, exit code, None), or
    (None, None, reason) when it timed out or printed no result."""
    name = os.path.basename(binary)
    try:
        proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, f"{name} seed {seed} exceeded {PROCESS_TIMEOUT_S} s"
    if proc.stderr:
        note(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode, None
    except (IndexError, ValueError):
        return None, None, (f"{name} seed {seed} printed no result "
                            f"(exit {proc.returncode})")


def reference_s(binary):
    """(seconds the reference kernel took, None), or (None, reason)."""
    try:
        proc = subprocess.run([binary], capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"reference kernel exceeded {PROCESS_TIMEOUT_S} s"
    try:
        return float(proc.stdout.split()[0]), None
    except (IndexError, ValueError):
        return None, f"reference kernel printed no time (exit {proc.returncode})"


def end_to_end(runs):
    """Medians over iterations, each time scaled to the reference host."""
    def med(value):
        return median([value(r) for r in runs])
    return {
        "wall_s": (med(lambda r: r["wall_s"] * r["scale"]), "s"),
        "setup_s": (med(lambda r: r["setup_s"] * r["scale"]), "s"),
        "sim_s_per_host_s": (med(lambda r: r["sim_s"] / (r["advance_s"] * r["scale"])),
                             "s/s"),
        "cpu_s": (med(lambda r: r["cpu_s"] * r["scale"]), "s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(plain, traced):
    """Counts from the traced runs (identical across them, checked by the
    caller), times as medians; query latency from the untraced run."""
    first = traced[0]
    m = {}
    for g, row in first["trace"]["groups"].items():
        m[g + ".calls"] = (row["calls"], "count")
        m[g + ".self_s"] = (median([t["trace"]["groups"][g]["self_s"]
                                    for t in traced]), "s")
        m[g + ".allocs"] = (row["allocs"], "count")
        m[g + ".alloc_mb"] = (row["alloc_bytes"] / MIB, "MB")
    counts = first["counts"]
    for name, value in counts.items():
        m[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    m["sim.barrier_wait_s"] = (median([t["trace"]["barrier_wait_s"]
                                       for t in traced]), "s")
    m["sim.events_per_s"] = (counts["sim.events"] /
                             median([p["advance_s"] for p in plain]), "1/s")
    m["monitor.query.count"] = (plain[0]["queries"], "count")
    m["monitor.query.p50_ms"] = (median([p["query_p50_ms"] for p in plain]), "ms")
    m["monitor.query.p90_ms"] = (median([p["query_p90_ms"] for p in plain]), "ms")
    m["monitor.query.partial"] = (plain[0]["queries_partial"], "count")
    m["trace.overhead_s"] = (median([t["wall_s"] for t in traced]) -
                             median([p["wall_s"] for p in plain]), "s")
    return m


def exact_counts(result):
    """Everything in a traced result that must repeat exactly."""
    groups = result["trace"]["groups"]
    return (result["digest"], result["counts"],
            {g: (v["calls"], v["allocs"], v["alloc_bytes"])
             for g, v in groups.items()})


def leader_failure(workload, traced):
    """None when the workload's chosen groups carry more self time (outside
    sim.step) than any other single group; otherwise why not."""
    self_s = {g: median([t["trace"]["groups"][g]["self_s"] for t in traced])
              for g in traced[0]["trace"]["groups"] if g != "sim.step"}
    total = sum(self_s.values()) or 1.0
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:4]
    note(f"{workload}: largest self time outside sim.step: " +
         ", ".join(f"{g} {100 * s / total:.0f}%" for g, s in top))
    leaders = LEADERS[workload]
    ours = sum(self_s[g] for g in leaders)
    rival, theirs = max(((g, s) for g, s in self_s.items() if g not in leaders),
                        key=lambda kv: kv[1])
    if ours > theirs:
        return None
    return (f"self time of {' + '.join(leaders)} ({ours:.3f} s) does not "
            f"exceed {rival} ({theirs:.3f} s)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build()
    plain_bin = os.path.join(out, "perfbench_driver")
    traced_bin = os.path.join(out, "perfbench_traced")
    kernel_bin = os.path.join(out, "perfbench_reference")
    failures = []
    start = time.monotonic()

    replay, rc, error = run_driver(plain_bin, args.workload, DEFAULT_SEED)
    if not error:
        if rc or replay["failures"]:
            failures += replay["failures"] or [f"seed {DEFAULT_SEED} run exited {rc}"]
        if replay["digest"] != REFERENCE_DIGESTS[args.workload]:
            failures.append(f"seed {DEFAULT_SEED} digest {replay['digest']} != "
                            f"recorded {REFERENCE_DIGESTS[args.workload]}")

    # Iterations start only while they are expected to end within
    # --seconds (judged by the earlier iterations of the same binary), once
    # the minimum count is met. A driver or kernel that prints no result
    # ends the run.
    plain, traced = [], []
    took = {plain_bin: [], traced_bin: []}
    kernel = []  # reference kernel times around the --trace 0 iterations
    if not error and not args.trace:
        seconds, error = reference_s(kernel_bin)
        kernel.append(seconds)
    while not error:
        if args.trace:
            binary, runs, least = ((traced_bin, traced, MIN_TRACED) if plain
                                   else (plain_bin, plain, 1))
        else:
            binary, runs, least = plain_bin, plain, MIN_MEASURED
        expected_end = time.monotonic() - start + (
            median(took[binary]) if took[binary] else 0.0)
        if len(runs) >= least and expected_end > args.seconds:
            break
        t0 = time.monotonic()
        result, rc, error = run_driver(binary, args.workload, args.seed)
        if not error and not args.trace:
            seconds, error = reference_s(kernel_bin)
            kernel.append(seconds)
        took[binary].append(time.monotonic() - t0)
        if error:
            break
        if rc or result["failures"]:
            failures += result["failures"] or [f"driver exited {rc}"]
        if not args.trace:
            result["scale"] = REFERENCE_S / ((kernel[-2] + kernel[-1]) / 2)
        runs.append(result)
    if error:
        failures.append(error)

    all_runs = plain + traced
    digests = {r["digest"] for r in all_runs}
    if len(digests) > 1:
        failures.append(f"seed {args.seed} gave differing digests {sorted(digests)}")
    metrics = {}
    if args.trace and plain and len(traced) >= MIN_TRACED:
        if any(exact_counts(t) != exact_counts(traced[0]) for t in traced):
            failures.append("traced counts differ between traced runs")
        if any(t["counts"] != plain[0]["counts"] for t in traced):
            failures.append("traced layer counts differ from the untraced run")
        reason = leader_failure(args.workload, traced)
        if reason:
            failures.append(reason)
        metrics = per_layer(plain, traced)
    elif not args.trace and plain:
        metrics = end_to_end(plain)

    # A driver that printed nothing still counts as one failed operation.
    attempted = max(1, sum(r["jobs"] + r["queries"] for r in all_runs))
    failed = sum(r["jobs_incomplete"] + r["queries_errored"] for r in all_runs)
    for f in failures:
        note(f"CHECK FAILED: {f}")
    if failures:
        failed = attempted
    jobs = f"{plain[0]['jobs']} jobs and {plain[0]['queries']} queries" if plain else "no result"
    note(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
         f"{len(traced)} traced iterations, each with {jobs}")
    if plain and not args.trace:
        note("  time scale per iteration (REFERENCE_S / kernel time): " +
             " ".join(f"{r['scale']:.3f}" for r in plain))
    for name, (value, unit) in metrics.items():
        note(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
