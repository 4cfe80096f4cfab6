#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the slc libraries, slc, slcd and the perfbench driver from the
sources of this checkout (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and passes the driver's output through.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. A failed build or a
missing source tree exits non-zero without printing a result; a failed
output check exits 3 after printing the result with "correct": false.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("corpus_cold", "registry_backends", "slcd_mixed", "native_cold")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def checkout_env(tmp):
    """The environment with temporary files kept inside the checkout."""
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(tmp))


def build(root, build_dir):
    """Configures and builds incrementally; False when the build fails."""
    os.makedirs(build_dir, exist_ok=True)
    env = checkout_env(os.path.join(build_dir, "tmp"))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "slc_tool", "slcd_tool"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log("build failed: " + " ".join(cmd))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    if not build(root, build_dir):
        return 1

    # Relative paths keep the slcd socket path short.
    work = os.path.join(target, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "slc_tools"),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(target, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The native oracle's host compiler writes temporaries to TMPDIR.
    env = checkout_env(os.path.join(work, "tmp"))
    env["SLC_NATIVE_CACHE_DIR"] = os.path.abspath(os.path.join(work, "codegen"))
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
