#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload flat-point --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package into .bench_build/perfbench (the library sources
under src/ plus perfbench/serve_bench.cc); later runs rebuild only what
changed. The last line of standard output is the benchmark's JSON
result. With --trace 1 the span log is written under
.bench_build/perfbench-traces/.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("flat-point", "sharded-matrix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir):
    """Configures (once) and builds serve_bench; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode:
                log("perfbench: build step failed: " + " ".join(cmd))
                return None
    binary = os.path.join(build_dir, "serve_bench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        log("perfbench: no library sources at %s/src; nothing to benchmark" % root)
        return 2
    binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    if binary is None:
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            trace_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
