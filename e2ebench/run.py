#!/usr/bin/env python3
"""End-to-end benchmark of the PReCinCt simulator.

Run from the repository root:

    python3 e2ebench/run.py --workload mobile-320 --seed 1 --seconds 30 --trace 0

Builds the program and the runner from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
runner's result: the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 1 prints the per-layer
metrics instead of the end-to-end ones.  --selftest builds and runs the
benchmark's own tests instead of a workload.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(targets):
    """Configure once, then let the build tool bring targets up to date."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"program sources missing ({needed}); run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                fail(f"configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
        if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode:
            fail(f"build failed; see {log_path}")
    return out


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # build or runner it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.selftest:
        out = build(["e2ebench_test"])
        sys.exit(subprocess.run([os.path.join(out, "e2ebench_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    expected = expected_metrics(args.trace)
    out = build(["e2e_runner"])
    command = [os.path.join(out, "e2e_runner"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--pins", os.path.join(HERE, "pins")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("runner printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
