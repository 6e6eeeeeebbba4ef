#!/usr/bin/env python3
"""The repository benchmark: build, run passes, check, report.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the pass program under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later calls only re-check the build.

Every pass is its own process (`perfbench_pass`), because users pay
calibration and memo-cache filling once per invocation: a warm in-process
repeat would time work no user sees, and peak RSS must stay a per-pass
number. Passes repeat until `--seconds` is used up (at least three), and
each metric is the median over them.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; traced passes write their spans to <build>/traces/.

A pass fails on an exception or a broken invariant. The run is correct only
if no pass failed, every pass (traced or not) printed the same digest, and
that digest matches perfbench/expected_digests.json when the seed is pinned
there. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only for a
correct run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["paper_sweep", "trace_1m", "k8s_100k", "graph_fattree"]
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure (first time) and build the pass program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_pass",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_pass")


def run_pass(binary, workload, seed, traced, spans_path):
    """One pass in a fresh process. setup_s runs from the spawn to the
    pass's first timed call, both stamped on CLOCK_MONOTONIC."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if spans_path:
        cmd += ["--spans", spans_path]
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S, check=False,
                              text=True)
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out", "duration_s": PASS_TIMEOUT_S}
    duration = time.monotonic() - spawned
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "pass printed no result (exit %d)" % done.returncode,
                "duration_s": duration}
    result["duration_s"] = duration
    result["setup_s"] = result["setup_end_s"] - spawned
    if done.returncode != 0 and not result.get("error"):
        result["error"] = "; ".join(result.get("violations") or
                                    ["exit code %d" % done.returncode])
    return result


def pinned_digest(workload, seed):
    path = os.path.join(BENCH_DIR, "expected_digests.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f).get(str(seed), {}).get(workload)


def run_workload(binary, workload, seed, seconds, trace, spans_dir):
    """Passes until the time budget is spent (at least MIN_PASSES), stopping
    before a further round would overrun it or at the first failed pass."""
    passes = []
    start = time.monotonic()
    kinds = [False, True] if trace else [False]
    rounds = 0
    while True:
        for traced in kinds:
            spans = None
            if traced:
                spans = os.path.join(spans_dir, "%s-seed%d-%d.json"
                                     % (workload, seed, rounds))
            passes.append(run_pass(binary, workload, seed, traced, spans))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if any(p.get("error") for p in passes):
            break
        if rounds * len(kinds) >= MIN_PASSES and elapsed + per_round > seconds:
            break
    return passes


def check(workload, seed, passes):
    """Correctness of one workload's passes: (ok, problems)."""
    problems = [p["error"] for p in passes if p.get("error")]
    digests = sorted({p.get("digest") for p in passes if not p.get("error")})
    digest = digests[0] if len(digests) == 1 else None
    if len(digests) > 1:
        problems.append("passes disagree on the digest: " + ", ".join(digests))
    expected = pinned_digest(workload, seed)
    if digest is not None and expected is not None and digest != expected:
        problems.append("digest %s != pinned %s" % (digest, expected))
    status = "none pinned" if expected is None else (
        "matches pinned" if digest == expected else "MISMATCH")
    print("digest %s seed=%d: %s (%s)" % (workload, seed, digest, status))
    return not problems, problems


def end_to_end(passes):
    ok = [p for p in passes if not p.get("error")]
    med = lambda key: statistics.median(key(p) for p in ok)
    return {
        "wall_s": med(lambda p: p["wall_s"]),
        "setup_s": med(lambda p: p["setup_s"]),
        "jobs_per_s": med(lambda p: p["jobs"] / p["wall_s"]),
        "pods_per_s": med(lambda p: p["placements"] / p["wall_s"]),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
    }


def per_layer(passes):
    ok = [p for p in passes if not p.get("error")]
    traced = [p for p in ok if p["traced"]]
    plain = [p for p in ok if not p["traced"]]
    out = {}
    for name in traced[0]["layer"]:
        out[name] = statistics.median(p["layer"][name] for p in traced)
    out["bench.trace_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) -
        statistics.median(p["wall_s"] for p in plain))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed > 0xFFFFFFFF:
        parser.error("--seed must fit in 32 bits")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError) as e:
        log("perfbench: " + str(e))
        return 2
    spans_dir = os.path.join(out_dir, "traces")
    os.makedirs(spans_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        passes = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace, spans_dir)
        attempted += len(passes)
        failed += sum(1 for p in passes if p.get("error"))
        ok, problems = check(workload, args.seed, passes)
        for problem in problems:
            print("FAIL %s: %s" % (workload, problem))
        correct = correct and ok
        if not ok:
            continue
        values = per_layer(passes) if args.trace else end_to_end(passes)
        if set(values) != set(units):
            print("FAIL %s: measured metrics differ from BENCHMARK.json: %s"
                  % (workload, sorted(set(values) ^ set(units))))
            correct = False
            continue
        print("%s: %d passes, seed %d" % (workload, len(passes), args.seed))
        for name in sorted(values):
            print("  %-28s %14.6g %s" % (name, values[name], units[name]))
            key = name if len(workloads) == 1 else workload + "." + name
            metrics[key] = {"value": values[name], "unit": units[name]}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
