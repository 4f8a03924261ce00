#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload paper_mix|serve_ingest|adhoc_cold \
        --seed N --seconds S --trace 0|1

BENCHMARK.json lists paper_mix and serve_ingest. adhoc_cold runs the same
way but is not listed there: some seeds generate a case that exposes a
plan-A defect in the library (e2ebench/spec.json, known_failures).

Builds e2ebench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) with CMake in
Release mode, then runs one workload. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a human-readable table and the per-case breakdown.

Every run also leaves, under .bench_out/ in the checkout:
  results/<workload>-s<seed>-t<trace>-<n>.json  the full record (all metrics,
      breakdown rows), read by compare.py; E2EBENCH_RECORD_DIR overrides the
      directory;
  spans-<workload>.csv  the spans of the last traced run of that workload.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_mix", "serve_ingest", "adhoc_cold")


def build(root):
    source = os.path.join(root, "e2ebench")
    if not (os.path.isfile(os.path.join(source, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "CMakeLists.txt"))):
        sys.exit("run.py: no e2ebench/ and src/ sources under %s" % root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: corrupt one reference output")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("run.py: build failed: %s" % e)

    out = os.path.join(root, ".bench_out")
    records = os.environ.get("E2EBENCH_RECORD_DIR") or os.path.join(out, "results")
    os.makedirs(records, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    n = 0
    while os.path.exists(os.path.join(records, "%s-%d.json" % (stem, n))):
        n += 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--record", os.path.join(records, "%s-%d.json" % (stem, n)),
               "--work-dir", os.path.join(out, "work")]
    if args.trace:
        command += ["--spans", os.path.join(out, "spans-%s.csv" % args.workload)]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
