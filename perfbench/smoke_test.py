#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke_test.py

Run from the root of a logcc checkout. Checks that:
  * every workload (and cc-path), untraced and traced, prints each metric
    BENCHMARK.json names, with its unit, and a finite value, and exits 0;
  * a deliberately wrong index (--corrupt-index) makes the run report
    correct=false and failed/attempted > 0, and exit non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=None):
    p = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, cwd=cwd,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    # cc-path is runnable but not in BENCHMARK.json (see README.md).
    for name in [w["name"] for w in spec["workloads"]] + ["cc-path"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = run(["--workload", name, "--seed", "7",
                                  "--seconds", "2", "--trace", str(trace),
                                  "--size", "tiny"])
            label = f"{name} trace={trace}"
            expect(code == 0 and res is not None and res["correct"],
                   f"{label}: exit 0 and correct" +
                   ("" if code == 0 else f" (exit {code}: {err[-400:]})"))
            if res is None:
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       math.isfinite(got["value"]),
                       f"{label}: {m['name']} [{m['unit']}]")

        code, res, _ = run(["--workload", name, "--seed", "7", "--seconds",
                            "1", "--trace", "0", "--size", "tiny",
                            "--corrupt-index"])
        failed_frac = (res["failed"] / res["attempted"]) if res else 0.0
        expect(code != 0 and res is not None and not res["correct"] and
               failed_frac > 0,
               f"{name}: a wrong index gives failed_frac {failed_frac:.4f} > 0 "
               f"and exit {code} != 0")

    bare = os.path.join(ROOT, ".bench_data", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180,
            env={k: v for k, v in os.environ.items()
                 if k != "CARGO_TARGET_DIR"})
        expect(p.returncode != 0 and not p.stdout.strip(),
               "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
