#!/usr/bin/env python3
"""Run one workload of the logcc benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cc-rmat --seed 1 --seconds 30 --trace 0

Run from the root of a logcc checkout. The script builds the benchmark
binary from the checkout's sources (into $CARGO_TARGET_DIR, default
.bench_build), generates the workload's inputs from --seed in a separate
process, measures, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a traced run also writes a Chrome trace-event
file under .bench_out/. The exit code is 0 only when every output was
checked correct. --size tiny and --corrupt-index exist for smoke_test.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Hang guards: a run must end within 180 s, the first one (which builds)
# within 900 s.
BUILD_TIMEOUT_S = 720
FIXTURE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 110


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no logcc source tree at {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "logcc_perfbench")


def sync_tree(path):
    """Flushes the fixture's files so their writeback does not overlap the
    measurement."""
    for parent, _, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(parent, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-index", action="store_true")
    args = ap.parse_args()

    cwd = os.getcwd()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    data_dir = os.path.join(cwd, ".bench_data",
                            f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(cwd, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--data-dir", data_dir,
              "--size", args.size]
    if args.corrupt_index:
        common.append("--corrupt-index")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure = [binary, "measure", "--seconds", str(args.seconds)] + common
    if args.trace:
        measure += ["--trace-out", os.path.join(out_dir, f"{tag}.trace.json")]
    try:
        fix = subprocess.run([binary, "fixture"] + common,
                             timeout=FIXTURE_TIMEOUT_S)
        if fix.returncode != 0:
            log(f"fixture failed with exit code {fix.returncode}")
            return 2
        sync_tree(data_dir)
        run = subprocess.run(measure, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    sys.stderr.write(run.stderr)
    with open(os.path.join(out_dir, f"{tag}.log"), "w") as f:
        f.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log(f"measure failed with exit code {run.returncode}")
        return 2
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"metric set differs from BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}, wrong unit {wrong}")
        return 2
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
