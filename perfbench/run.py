#!/usr/bin/env python3
"""Live-engine benchmark entry point.

Builds the engine and the benchmark program from source (CMake, Release,
into .bench_build/ or $CARGO_TARGET_DIR), prints a stamp line (host,
build, source revision, seed), then runs one workload:

    python3 perfbench/run.py --workload wordcount_acks --seed 1 \
        --seconds 10 --trace 0

The last line of stdout is the JSON result. Any failed build or
correctness check exits non-zero without printing a result.

    python3 perfbench/run.py --self-test    # builds and runs helper tests
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures once, then builds `target` (incremental)."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when run from a clone; otherwise a digest of the
    engine and benchmark sources, so results still name what they ran."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the reference tally; the run must fail")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests, then exit")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: engine sources (src/) not found next to perfbench/")
        return 2
    try:
        if args.self_test:
            out = build("perfbench_tests")
            return subprocess.run(
                [os.path.join(out, "perfbench_tests")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        out = build("heron_perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log("error: build failed: %s" % e)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": BUILD_TYPE,
        "revision": source_revision(),
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    cmd = [os.path.join(out, "heron_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        for line in lines:
            log(line)
        log("error: benchmark exited with %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("error: benchmark printed no result line")
        return 1
    if result.get("correct") is not True:
        log("error: benchmark reported an incorrect run")
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
