#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

A run builds the benchmark (CMake + Ninja, into $CARGO_TARGET_DIR/perfbench
or .bench_build/perfbench), takes a calibration probe (ALU and memory
kernels, one core and all cores), runs the workload, probes again, and
prints every metric by name with its unit and sample count. The last line
of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) report the per-layer metrics, write the spans as Chrome
trace-event JSON under .bench_out/, and print the tracing overhead against
the latest untraced run of the same workload. See perfbench/METRICS.md.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_steady", "locality_burst", "federated_saturated")
RUN_DEADLINE_S = 170  # probes and workload; the build is not counted
BUILD_TIMEOUT_S = 850
# A probe whose all-core ALU rate is below this share of threads x the
# one-core rate did not get its cores: the machine was contended.
PARALLEL_SHARE_WARN = 0.75


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "scheduler.h")):
        raise RuntimeError("scheduler sources not found under %s/src" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return out


def run_binary(binary, args, timeout):
    """Runs the benchmark binary; returns its stdout lines (raises on failure)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=max(1, timeout))
    if proc.returncode != 0:
        raise RuntimeError("%s %s exited with %d" % (binary, " ".join(args), proc.returncode))
    return proc.stdout.splitlines()


def probe(binary, tiny, timeout):
    args = ["--probe"] + (["--tiny"] if tiny else [])
    return json.loads(run_binary(binary, args, timeout)[-1])


def parse_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line: %s" % line)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("result attempted no work: %s" % line)
    return result


def print_overhead(out_dir, workload, seed, traced_file):
    """Traced figures minus the latest untraced run of the same workload."""
    candidates = sorted(glob.glob(os.path.join(out_dir, "%s-seed*-trace0.json" % workload)),
                        key=os.path.getmtime)
    same_seed = os.path.join(out_dir, "%s-seed%d-trace0.json" % (workload, seed))
    if os.path.isfile(same_seed):
        candidates.append(same_seed)
    if not candidates or not os.path.isfile(traced_file):
        print("tracing overhead: no untraced run of %s to compare with" % workload)
        return
    with open(candidates[-1]) as f:
        untraced = json.load(f)["end_to_end"]
    with open(traced_file) as f:
        traced = json.load(f)["per_layer"]
    print("tracing overhead (traced minus untraced, %s):" % os.path.basename(candidates[-1]))
    for name in ("place_p50_ms", "place_p90_ms", "round_p50_ms"):
        base = untraced[name]["value"]
        with_spans = traced["trace." + name]["value"]
        share = (with_spans - base) / base if base else float("nan")
        print("  %-14s untraced %10.4f  traced %10.4f  overhead %+9.4f ms (%+.1f%%)"
              % (name, base, with_spans, with_spans - base, 100 * share))


def run(args):
    binary = os.path.join(build(), "perfbench")
    started = time.monotonic()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    def left():
        return RUN_DEADLINE_S - (time.monotonic() - started)

    before = probe(binary, args.tiny, min(60, left()))
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.break_output:
        cmd.append("--break-output")
    lines = run_binary(binary, cmd, left() - 10)
    after = probe(binary, args.tiny, min(60, left()))
    if not lines:
        raise RuntimeError("the benchmark printed nothing")
    parse_result(lines[-1])
    for line in lines[:-1]:
        print(line)

    drift = max(abs(after[k] - before[k]) / before[k] for k in before
                if k != "threads" and before[k])
    parallel = min(p["alu_all_gops"] / (p["threads"] * p["alu_1c_gops"]) for p in (before, after))
    print("calibration (%d threads)        before       after" % before["threads"])
    for key in before:
        if key != "threads":
            print("  probe %-18s %11.4f %11.4f" % (key, before[key], after[key]))
    print("  probe drift %.3f, parallel share %.2f%s"
          % (drift, parallel, "  WARNING: the machine was contended during this run"
             if parallel < PARALLEL_SHARE_WARN else ""))
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if os.path.isfile(stem + ".json"):
        with open(stem + ".json") as f:
            record = json.load(f)
        record.update(probe_before=before, probe_after=after, probe_drift=drift,
                      probe_parallel_share=parallel)
        with open(stem + ".json", "w") as f:
            json.dump(record, f, indent=1)
    if args.trace:
        print("spans written to %s.trace.json (Chrome trace-event JSON; opens in Perfetto)"
              % stem)
        print_overhead(out_dir, args.workload, args.seed, stem + ".json")
    print(lines[-1], flush=True)


def selftest():
    """Unit tests of the benchmark's own code, then a tiny smoke run of every
    workload, traced and untraced, including one whose output is broken on
    purpose so the output checks must catch it."""
    out = build()
    failures = []
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([os.path.join(out, "perfbench_selftest"), out_dir], timeout=120)
    if proc.returncode != 0:
        failures.append("perfbench_selftest failed")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = json.loads(run_binary(os.path.join(out, "perfbench"), ["--list-metrics"], 30)[-1])
    for kind in ("end_to_end", "per_layer"):
        declared = [[m["name"], m["unit"]] for m in spec[kind]]
        if declared != listed[kind]:
            failures.append("BENCHMARK.json %s differs from the binary's list" % kind)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))

    for workload in WORKLOADS:
        for trace, broken in ((0, False), (1, False), (0, True)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            if broken:
                cmd.append("--break-output")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
            label = "%s trace=%d%s" % (workload, trace, " broken" if broken else "")
            failed_before = len(failures)
            try:
                result = parse_result(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError, RuntimeError) as err:
                failures.append("%s: no result (%s)" % (label, err))
                continue
            kind = "per_layer" if trace else "end_to_end"
            names = [m["name"] for m in spec[kind]]
            if broken:
                if result["correct"] or result["metrics"]:
                    failures.append("%s: the output checks missed a broken output" % label)
            elif not result["correct"]:
                failures.append("%s: output checks failed" % label)
            elif list(result["metrics"]) != names:
                failures.append("%s: metrics %s, expected %s"
                                % (label, list(result["metrics"]), names))
            print("smoke %-40s %s" % (label, "ok" if len(failures) == failed_before
                                       else "FAILED"))
    for failure in failures:
        print("FAILED:", failure)
    print("selftest %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--break-output", action="store_true",
                        help="corrupt the program state before the output checks")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None or args.seed is None or args.seconds is None \
                or args.trace is None:
            parser.error("--workload, --seed, --seconds and --trace are required")
        run(args)
        return 0
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as err:
        log("perfbench: %s" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
