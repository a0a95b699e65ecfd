#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 nomadbench/run.py --workload mf_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the nomadbench program
from nomadbench/ and src/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, generates the workload's ratings file from --seed, runs the
program on it and removes the generated files again. Everything the program
prints is passed through; the last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics;
the script checks the names and units against BENCHMARK.json. It exits 1,
without a result line, when the build, the input generation or that check
fails, and 1 after the result line when a correctness gate failed.

Workloads (see nomadbench/bench.cc for shapes and why each was chosen):
mf_dense, serve_live.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mf_dense", "serve_live")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "nomadbench")


def build(out_dir):
    """Configures and builds the program; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    os.makedirs(out_dir, exist_ok=True)
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            # Build output goes to stderr: stdout's last line is the result.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                log("build failed: " + " ".join(cmd))
                return None
    binary = os.path.join(out_dir, "nomadbench")
    return binary if os.path.isfile(binary) else None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns (result, problem): the parsed last line, or why it is bad."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, "unexpected keys %s" % sorted(result)
    want = expected_metrics(trace)
    got = result["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return None, "metric names differ: missing %s extra %s" % (missing,
                                                                    extra)
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            return None, "%s has unit %r, want %r" % (name, m.get("unit"), unit)
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return None, "%s has no finite value" % name
    return result, None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: a smaller shape, and injected faults that must trip
    # the correctness gates.
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--rmse-ceiling-frac", type=float)
    p.add_argument("--corrupt-model", action="store_true")
    args = p.parse_args()

    started = time.monotonic()
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    run_dir = os.path.join(out_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scale", repr(args.scale), "--dir", run_dir]
        r = subprocess.run([binary, "gen"] + common, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            log("input generation failed")
            return 1
        cmd = [binary, "run"] + common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--git-sha", git_sha()]
        if args.rmse_ceiling_frac is not None:
            cmd += ["--rmse-ceiling-frac", repr(args.rmse_ceiling_frac)]
        if args.corrupt_model:
            cmd.append("--corrupt-model")
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=max(10.0, remaining))
        except subprocess.TimeoutExpired as e:
            for part in (e.stdout, e.stderr):
                if part:
                    sys.stderr.write(part if isinstance(part, str)
                                     else part.decode(errors="replace"))
            log("nomadbench timed out")
            return 1
        sys.stderr.write(r.stderr)
        lines = r.stdout.rstrip("\n").split("\n")
        result, problem = check_result(lines[-1], args.trace)
        if problem is not None:
            sys.stdout.write(r.stdout)
            log("bad result: " + problem)
            return 1
        spans = os.path.join(run_dir, "spans.jsonl")
        if os.path.exists(spans):
            keep = os.path.join(out_dir, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.move(spans, os.path.join(
                keep, "%s-%d.jsonl" % (args.workload, args.seed)))
        print("\n".join(lines[:-1]))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] and r.returncode == 0 else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
