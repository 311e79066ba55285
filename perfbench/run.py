#!/usr/bin/env python3
"""Wire-to-probe benchmark of the U-Filter server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload hot_checks --seconds S --rate R

Run from the repository root. Builds ufilter_server and the perfbench
driver in Release into .bench_build/ (configured from perfbench/, so no
repository build file changes), then runs one workload:

  --trace 0  end to end against ufilter_server child processes on loopback;
             prints the end-to-end metrics.
  --trace 1  the traced per-layer replay inside the driver process; prints
             the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --selftest starts a server with a different
--rows than the oracle assumes and exits 0 only if the oracle reports the
mismatches. --rate runs one point of an open-loop offered-load sweep instead
of the closed loops. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot_checks", "cold_checks", "large_view_deletes", "write_mix")
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
# The driver's own limit is 180 s per run; leave room for the build check.
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the two targets; returns the build dir."""
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "ufilter_server",
         "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def commit_of(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_driver(root, build_dir, workload, seed, seconds, trace, extra=(),
               capture=False):
    work_dir = os.path.join(root, RUN_DIR, "%s-%d" % (workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--server-bin", os.path.join(build_dir, "ufilter", "ufilter_server"),
           "--work-dir", work_dir] + list(extra)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, RUN_DIR))
        except OSError:
            pass


def selftest(root, build_dir):
    """A server seeded with 100 rows/level answered by the 200-row oracle."""
    proc = run_driver(root, build_dir, "hot_checks", 1, 2, False,
                      extra=("--server-rows", "100"), capture=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else {}
    detected = (proc.returncode == 0 and result.get("correct") is False
                and result.get("failed", 0) > 0)
    print("selftest: server --rows=100 against the 200-row oracle: "
          "%s of %s operations failed, correct=%s -> %s" % (
              result.get("failed"), result.get("attempted"),
              result.get("correct"), "mismatches detected" if detected else "NOT detected"))
    return 0 if detected else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--rate", type=float, default=0,
                    help="offered checks/s of an open-loop sweep point (check-only workloads)")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("perfbench: no U-Filter source tree at %s" % root)
        return 1
    try:
        build_dir = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.selftest:
        return selftest(root, build_dir)

    print("# stamp commit=%s nproc=%d build_type=Release workload=%s seed=%d trace=%d" % (
        commit_of(root), os.cpu_count() or 1, args.workload, args.seed, args.trace),
        flush=True)
    try:
        extra = ("--rate", str(args.rate)) if args.rate > 0 else ()
        proc = run_driver(root, build_dir, args.workload, args.seed, args.seconds,
                          bool(args.trace), extra=extra)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
