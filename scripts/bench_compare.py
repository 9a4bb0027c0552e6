#!/usr/bin/env python3
"""Compare a cc_bench bench.json against the committed baseline trajectory.

Regression gate for CI: for every (algorithm, threads) cell present in both
documents, take the minimum algorithm seconds across reps (min-of-N is the
standard low-noise estimator for a runner that can only get slower, never
faster, by interference) and fail when the new minimum exceeds the baseline
minimum by more than --threshold (default 25%).

Robustness choices, deliberate:
  - min across reps, not mean: tolerant of one noisy rep per cell (run
    cc_bench with --reps=3 or more so the min is meaningful);
  - cells below --min-seconds (default 5 ms) are reported but never fail:
    at that scale the gate would measure the runner, not the code;
  - latency cells — algorithm names containing "p50", "p99", or "latency"
    (bench_serving's serve-query-p50/p99) — use --latency-min-seconds
    (default 50 us) as their noise floor instead: single-query latencies
    sit far below any throughput cell, so the 5 ms floor would blind the
    gate to them entirely while scheduler jitter makes sub-floor deltas
    meaningless;
  - cells present on only one side warn instead of failing, so adding an
    algorithm or thread count to the sweep never breaks the gate;
  - error cells — runs carrying a "rel_error" field (bench_sketch's
    error-vs-space curves) — are gated on MEAN rel_error across reps at
    fixed space, not on seconds: sketch build time is noise, the
    accuracy-per-byte contract is what must not regress. Their noise floor
    is --error-floor (default 0.5% absolute relative error: below that,
    which hash landed where dominates). Reps re-seed the sketch, so the
    mean is the estimator's actual expected error, and it is bit-stable
    for a fixed seed set — a genuine change in the curve is a code change;
  - a cell that is an error cell on one side and a seconds cell on the
    other warns and is skipped (the bench changed meaning; refresh the
    baseline);
  - hardware warnings never fail: when the documents' sweep
    .hardware_parallelism differ, every cell compares two hosts, so the
    gate warns once; and a REGRESSION or IMPROVED verdict on a cell whose
    thread count exceeds either document's hardware_parallelism is
    flagged, because an oversubscribed cell measures the host's
    scheduler, not the code. A document without the field takes no part
    in either check;
  - --update rewrites the baseline from the new document (commit the result
    to move the trajectory).

Exit status:
  0 = no regression,
  1 = regression,
  2 = usage/parse error,
  3 = no regression AND at least one cell improved by more than the
      threshold — success with a notice. CI must treat 3 as success; it
      signals the committed baseline is stale and should be refreshed with
      --update so later regressions are measured against the faster code.

Usage:
  bench_compare.py NEW_JSON BASELINE_JSON [--threshold 0.25]
                   [--min-seconds 0.005] [--latency-min-seconds 0.00005]
                   [--error-floor 0.005] [--update]
"""

import argparse
import json
import re
import shutil
import sys

LATENCY_CELL = re.compile(r"p50|p99|latency")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if doc.get("schema") != "logcc-bench-v1":
        sys.exit(f"bench_compare: {path}: unexpected schema "
                 f"{doc.get('schema')!r} (want logcc-bench-v1)")
    return doc


def metric_by_cell(doc, path="bench.json"):
    """{(algorithm, threads): ("seconds", min across reps) or
    ("error", mean rel_error across reps)}.

    A cell is an error cell iff any of its runs carries "rel_error"; a cell
    mixing both kinds of run within one document is a malformed bench and
    exits 2. A run missing its key fields (a hand-edited baseline, a bench
    driver that emitted a partial row) warns and is skipped rather than
    blowing up the gate with a KeyError — the per-cell "missing on one
    side" warnings then report anything that disappeared.
    """
    samples = {}
    for i, run in enumerate(doc.get("runs", [])):
        if "algorithm" not in run or "threads" not in run:
            print(f"bench_compare: warning: {path}: run #{i} has no "
                  f"algorithm/threads; skipped", file=sys.stderr)
            continue
        key = (run["algorithm"], run["threads"])
        kind = "error" if "rel_error" in run else "seconds"
        field = "rel_error" if kind == "error" else "seconds"
        try:
            value = float(run[field])
        except (KeyError, TypeError, ValueError):
            print(f"bench_compare: warning: {path}: cell {key} run #{i} "
                  f"has no usable {field!r} field; skipped", file=sys.stderr)
            continue
        prev_kind, values = samples.setdefault(key, (kind, []))
        if prev_kind != kind:
            sys.exit(f"bench_compare: cell {key} mixes rel_error and "
                     f"seconds runs within one document")
        values.append(value)
    cells = {}
    for key, (kind, values) in samples.items():
        if kind == "error":
            cells[key] = (kind, sum(values) / len(values))
        else:
            cells[key] = (kind, min(values))
    return cells


def hardware_parallelism(doc):
    """sweep.hardware_parallelism as an int, or None when not recorded."""
    value = (doc.get("sweep") or {}).get("hardware_parallelism")
    return value if isinstance(value, int) and value > 0 else None


def hardware_warnings(new_doc, base_doc, decided_cells):
    """Warning lines (never failures) about where the documents were
    recorded: a hardware_parallelism mismatch, and decided (regressed or
    improved) cells that ran more threads than a host had."""
    new_hw = hardware_parallelism(new_doc)
    base_hw = hardware_parallelism(base_doc)
    out = []
    if new_hw is not None and base_hw is not None and new_hw != base_hw:
        out.append(f"hardware_parallelism differs (new {new_hw}, baseline "
                   f"{base_hw}): every cell compares two hosts")
    known = [hw for hw in (new_hw, base_hw) if hw is not None]
    if known:
        hw = min(known)
        for alg, threads in decided_cells:
            if threads > hw:
                out.append(f"cell ({alg!r}, {threads}) ran {threads} threads "
                           f"on {hw} hardware thread(s): its verdict measures "
                           f"oversubscription")
    return out


def fmt(kind, value):
    if value is None:
        return "-"
    return f"{value:.3%}" if kind == "error" else f"{value:.4f}s"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("new_json")
    ap.add_argument("baseline_json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fail when new_min > base_min * (1 + threshold)")
    ap.add_argument("--min-seconds", type=float, default=0.005,
                    help="cells faster than this never fail (noise floor)")
    ap.add_argument("--latency-min-seconds", type=float, default=0.00005,
                    help="noise floor for latency cells (algorithm matches "
                         "p50/p99/latency) instead of --min-seconds")
    ap.add_argument("--error-floor", type=float, default=0.005,
                    help="noise floor for error cells (runs carrying "
                         "rel_error): mean errors below this never fail")
    ap.add_argument("--update", action="store_true",
                    help="copy NEW_JSON over BASELINE_JSON instead of comparing")
    args = ap.parse_args()

    if args.update:
        load(args.new_json)  # validate before overwriting the trajectory
        shutil.copyfile(args.new_json, args.baseline_json)
        print(f"bench_compare: baseline updated from {args.new_json}")
        return 0

    new_doc = load(args.new_json)
    base_doc = load(args.baseline_json)
    new_cells = metric_by_cell(new_doc, args.new_json)
    base_cells = metric_by_cell(base_doc, args.baseline_json)

    regressions = []
    improvements = []
    rows = []
    for key in sorted(new_cells):
        alg, threads = key
        kind, new_val = new_cells[key]
        if key not in base_cells:
            rows.append((alg, threads, kind, None, new_val,
                         "new cell (no baseline)"))
            continue
        base_kind, base_val = base_cells[key]
        if base_kind != kind:
            print(f"bench_compare: warning: cell {key} is a {kind} cell in "
                  f"the new run but a {base_kind} cell in the baseline; "
                  f"skipped (refresh the baseline)", file=sys.stderr)
            rows.append((alg, threads, kind, base_val, new_val,
                         "kind mismatch (skipped)"))
            continue
        ratio = new_val / base_val if base_val > 0 else float("inf")
        if kind == "error":
            floor = args.error_floor
        elif LATENCY_CELL.search(alg):
            floor = args.latency_min_seconds
        else:
            floor = args.min_seconds
        verdict = "ok"
        if new_val > base_val * (1.0 + args.threshold):
            if base_val < floor:
                verdict = "noise-floor (ignored)"
            else:
                verdict = "REGRESSION"
                regressions.append((alg, threads, kind, base_val, new_val,
                                    ratio))
        elif new_val < base_val * (1.0 - args.threshold):
            if base_val < floor:
                verdict = "noise-floor (ignored)"
            else:
                verdict = "IMPROVED"
                improvements.append((alg, threads, kind, base_val, new_val,
                                     ratio))
        rows.append((alg, threads, kind, base_val, new_val, verdict))
    for key in sorted(set(base_cells) - set(new_cells)):
        print(f"bench_compare: warning: baseline cell {key} missing from "
              f"new run", file=sys.stderr)
    decided = [(alg, threads) for alg, threads, *_ in regressions + improvements]
    for line in hardware_warnings(new_doc, base_doc, decided):
        print(f"bench_compare: warning: {line}", file=sys.stderr)

    # Per-cell summary; ratio = baseline/new, so >1.00x is faster (seconds
    # cells) or more accurate (error cells).
    print(f"{'algorithm':<20} {'threads':>7} {'baseline':>10} {'new':>10} "
          f"{'ratio':>8}  verdict")
    for alg, threads, kind, base_val, new_val, verdict in rows:
        ratio = (f"{base_val / new_val:7.2f}x"
                 if base_val and new_val > 0 else "       -")
        print(f"{alg:<20} {threads:>7} {fmt(kind, base_val):>10} "
              f"{fmt(kind, new_val):>10} {ratio:>8}  {verdict}")

    if regressions:
        print(f"\nbench_compare: {len(regressions)} regression(s) over "
              f"{args.threshold:.0%} threshold:", file=sys.stderr)
        for alg, threads, kind, base_val, new_val, ratio in regressions:
            print(f"  {alg} @ {threads}t: {fmt(kind, base_val)} -> "
                  f"{fmt(kind, new_val)} ({ratio:.2f}x)", file=sys.stderr)
        return 1
    if improvements:
        print(f"\nbench_compare: no regressions; {len(improvements)} cell(s) "
              f"improved by more than {args.threshold:.0%} — refresh the "
              f"baseline with --update")
        for alg, threads, kind, base_val, new_val, ratio in improvements:
            print(f"  {alg} @ {threads}t: {fmt(kind, base_val)} -> "
                  f"{fmt(kind, new_val)} ({base_val / new_val:.2f}x better)")
        return 3
    print("\nbench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
