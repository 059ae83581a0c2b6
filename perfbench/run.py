#!/usr/bin/env python3
"""Builds the codar end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite_batch --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run (its spans go to
<build dir>/trace/<workload>-seed<N>.ndjson). --tiny shrinks every workload
for the benchmark's own test; --selftest checks that a routed circuit with
one gate dropped fails the output check.

The build goes to $CARGO_TARGET_DIR (default .bench_build). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every output check passed; it is 1 when a
check failed (the result line still prints) and when the build or the run
broke (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_batch", "grid_large", "serve_hot", "serve_cold")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_exact_counts(build_dir, binary, key, exact):
    """Exact counts must repeat across runs of one binary with one seed.
    Returns the names of counts that differ from an earlier run."""
    path = os.path.join(build_dir, "exact", key + ".json")
    digest = sha256(binary)
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record.get("binary") == digest:
            seen = record["exact"]
    drifted = sorted(k for k, v in exact.items() if k in seen and seen[k] != v)
    seen.update(exact)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"binary": digest, "exact": seen}, f, sort_keys=True)
    return drifted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    key = "%s-seed%d%s" % (args.workload, args.seed,
                           "-tiny" if args.tiny else "")
    work_dir = os.path.join(build_dir, "work", key)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, key + ".ndjson")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the benchmark binary exited with %d and no result" %
            proc.returncode)
        return 1

    correct = out["correct"] and proc.returncode == 0
    notes = list(out["notes"])
    declared = declared_metrics(args.trace)
    metrics = out["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        correct = False
        notes.append("FAIL: metric names or units differ from BENCHMARK.json")
    drifted = check_exact_counts(build_dir, binary, key, out["exact"])
    if drifted:
        correct = False
        notes.append("FAIL: exact counts differ from an earlier run with "
                     "this seed: " + ", ".join(drifted))

    for note in notes:
        print(note)
    for name, m in metrics.items():
        print("%-26s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
