#!/usr/bin/env python3
"""Build and run the nisqpp throughput benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (libnisqpp from src/ plus
the perfbench executable, Release) into $CARGO_TARGET_DIR (default
.bench_build) under the repository root, then runs it with the
given arguments. Its last stdout line is the result object;
per-run detail files and traced-run chrome traces go to .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(argv):
    """Wall-clock limit of one run: twice --seconds plus 90 s of margin
    for the replay and the last repetition. perfbench rejects a malformed
    --seconds itself and runs 10 s without one."""
    seconds = 10
    if "--seconds" in argv[:-1]:
        value = argv[argv.index("--seconds") + 1]
        if value.isdigit():
            seconds = int(value)
    return 2 * seconds + 90


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def src_hash():
    """SHA-256 over the library sources (relative path + bytes)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail("cannot run cmake: %s" % err)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target)
    build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--reference", os.path.join(HERE, "reference.txt"),
        "--out-dir", out_dir,
        "--git-rev", git_rev(),
        "--src-hash", src_hash(),
    ]
    timeout = run_timeout_s(sys.argv[1:])
    try:
        done = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
