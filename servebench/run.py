#!/usr/bin/env python3
"""Builds and runs the serve benchmark for one workload, or all of them.

Run from the repository root:

    python3 servebench/run.py --workload uniform_solve --seed 1 \
        --seconds 20 --trace 0

Builds the libraries, toprr_serve and the servebench program as a Release
build in .bench_build (or $CARGO_TARGET_DIR), refuses any other build
type, runs the program, and prints its metric lines, a provenance line and,
last, its one-line JSON result. Each result is also kept with its
provenance in .bench_work/results/. Exits non-zero when the build fails or
any check of the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("uniform_solve", "zipf_cached", "churn_durable")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds; returns the CMake cache entries."""
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "toprr_serve", "servebench"],
        stdout=sys.stderr, check=True)
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            name, sep, value = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[name.split(":")[0]] = value
    return cache


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    carry no git metadata."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name)
            for d, _, names in os.walk(path) for name in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def compiler(cache):
    path = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([path, "--version"], capture_output=True,
                                 text=True, check=True).stdout
        return version.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        cache = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    if cache.get("CMAKE_BUILD_TYPE", "") not in OPTIMISED_BUILD_TYPES:
        print("servebench: refusing to measure a '"
              f"{cache.get('CMAKE_BUILD_TYPE', '')}' build", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(workload, args, build_dir, cache))
    return status


def run_workload(workload, args, build_dir, cache):
    """Runs the servebench program for one workload; returns its exit status."""
    provenance = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "compiler": compiler(cache),
        "build_type": cache["CMAKE_BUILD_TYPE"],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{workload}-seed{args.seed}")
    command = [
        os.path.join(build_dir, "servebench"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "toprr", "toprr_serve"),
        "--work_dir", work_dir,
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: the run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        print("servebench: the run printed no result", file=sys.stderr)
        return run.returncode or 1
    provenance["loadavg_after"] = os.getloadavg()

    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"workload": workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "provenance": provenance, "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
