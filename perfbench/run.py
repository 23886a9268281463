#!/usr/bin/env python3
"""Builds and runs the SERD benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload release-cold --seed 1 --seconds 25 \
        --trace 0

Run from the repository root. The first call configures and builds a
Release tree of the library plus the runner under .bench_build/; later
calls rebuild only what changed. Build output goes to stderr; stdout is
the runner's report, whose last line is the JSON result. Exits non-zero
without a result line when the sources are missing, the build fails, the
runner crashes or times out, or its result does not carry exactly the
metrics BENCHMARK.json names for the mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "serd_perfbench")
WORKLOADS = ("release-cold", "release-large", "serve-mixed")
# A single run must end within 180 s; the runner gets what is left after
# the (normally no-op) incremental build.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr):
        fail("build failed")


def provenance():
    """Git revision when available (checkouts may not be repositories)
    plus a digest of every source file the benchmark is built from."""
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    # Only this checkout's own repository counts, not an enclosing one.
    top = git("rev-parse", "--show-toplevel")
    inside = top and os.path.realpath(top) == os.path.realpath(ROOT)
    rev = (git("rev-parse", "HEAD") if inside else "") or "none"
    paths = [os.path.join(ROOT, "perfbench", "CMakeLists.txt")]
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return rev, digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    rev, digest = provenance()
    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--rev", rev, "--source-digest", digest]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("runner exited with %d and no result" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    if (sorted(result) != ["attempted", "correct", "failed", "metrics"] or
            sorted(result["metrics"]) != sorted(want)):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result keys do not match BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
