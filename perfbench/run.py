#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload serve_mixed|reject_scan|campaign_cluster|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the program and the benchmark from source into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench); later runs rebuild incrementally.
Each workload runs in its own pcbench process; its stdout is relayed,
and its last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Trace runs (--trace 1) also write their spans to
.bench_build/perfbench/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_mixed", "reject_scan", "campaign_cluster")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git(args, root):
    try:
        out = subprocess.run(["git", "-C", root] + args, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed ({' '.join(cmd)}); log in {log_path}")


def stop_group(proc):
    """Kill what is left of pcbench's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(args, workload, build_dir, commit, dirty):
    workdir = os.path.join(build_dir, "run", f"{workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "pcbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--trace-file", os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl"),
           "--commit", commit, "--dirty", dirty]
    # pcbench leads its own process group, so that nothing it started
    # (pcaused) outlives the run, even when pcbench is killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc, out = None, ""
    finally:
        stop_group(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if rc is None:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"{workload} exited with code {rc}")
    sys.stdout.write(out)
    sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/core/service.hh", "tools/pcaused.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    commit = git(["rev-parse", "HEAD"], root) or "unknown"
    status = git(["status", "--porcelain"], root)
    dirty = "unknown" if status is None else ("yes" if status else "no")

    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(args, w, build_dir, commit, dirty)


if __name__ == "__main__":
    main()
