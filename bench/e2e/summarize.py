#!/usr/bin/env python3
"""Aggregate and compare bench_e2e records (python3 standard library only).

bench_e2e --record FILE appends one JSON line per run. The line holds
every metric with its samples: one per input batch for the end-to-end
metrics, one per traced repetition for the per-layer ones. It also
holds the outcome fingerprint of every batch.

    summarize.py RECORDS.jsonl [...]
        Pool the samples of every (workload, metric) across records and
        print `workload/metric median unit q1 q3 n` rows. Exits 1 when
        the correctness gate fails.

    summarize.py --compare A.jsonl B.jsonl
        One verdict per (workload, metric), B against A: exact metrics
        must be equal; end-to-end metrics read better, same, worse or
        unresolved against the bounds in BENCHMARK.json. Per-layer
        timings have no bound and read "info". Exits 1 on any worse row
        or a failed gate.

The gate fails when a record is not correct, when two records of one
workload and seed disagree on the fingerprint (repetitions, traced
against untraced), when sweep_procs and sweep_mixed disagree at one
seed (worker processes against in-process threads), or when a record's
metrics are not the set BENCHMARK.json names for its mode.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# Workloads that run the same grid, so their outcomes must agree.
SAME_GRID = ("sweep_mixed", "sweep_procs")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            for n, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    sys.exit(f"{path}:{n}: not a JSON record ({e})")
    if not records:
        sys.exit("no records in " + ", ".join(paths))
    return records


def gate(records, benchmark):
    """Return the list of correctness failures (empty = pass)."""
    failures = []
    names = {
        0: {m["name"] for m in benchmark["end_to_end"]},
        1: {m["name"] for m in benchmark["per_layer"]},
    }
    fingerprints = {}
    for r in records:
        tag = f"{r['workload']} seed={r['seed']} trace={r['trace']}"
        if not r["correct"]:
            failures.append(f"{tag}: the run reported wrong outputs")
        if set(r["metrics"]) != names[r["trace"]]:
            failures.append(f"{tag}: metrics differ from BENCHMARK.json")
        grid = "sweep" if r["workload"] in SAME_GRID else r["workload"]
        for batch, fp in enumerate(r["fingerprints"]):
            key = (grid, r["seed"], r["smoke"], batch)
            seen = fingerprints.setdefault(key, (fp, tag))
            if seen[0] != fp:
                failures.append(
                    f"{tag}: batch {batch} fingerprint {fp} differs from "
                    f"{seen[0]} of {seen[1]}")
    return failures


def pooled(records):
    """(workload, metric) -> dict(samples, unit, better, exact, seeds)."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            row = out.setdefault((r["workload"], name), {
                "samples": [], "unit": m["unit"], "better": m["better"],
                "exact": m["exact"], "seeds": set()})
            row["samples"].extend(m["samples"])
            row["seeds"].add((r["seed"], r["smoke"]))
    return out


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def summarize(records):
    for (workload, name), row in sorted(pooled(records).items()):
        q1, med, q3 = quartiles(row["samples"])
        print(f"{workload}/{name} {med:.6g} {row['unit']} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(row['samples'])}"
              f"{' exact' if row['exact'] else ''}")


def verdict(a, b, bound):
    """Verdict of B against A for one bounded metric."""
    qa1, ma, qa3 = quartiles(a["samples"])
    qb1, mb, qb3 = quartiles(b["samples"])
    sign = 1 if a["better"] == "higher" else -1
    gain = sign * (mb - ma) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if spread > bound:
        better = (min(b["samples"]) > max(a["samples"]) if sign > 0
                  else max(b["samples"]) < min(a["samples"]))
        return ("better" if better else "unresolved"), gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > (qa3 - qa1) / ma and gain > 0:
        return "better", gain, spread
    return "same", gain, spread


def compare(base, change, benchmark):
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    rows_a, rows_b = pooled(base), pooled(change)
    worse = 0
    for key in sorted(set(rows_a) & set(rows_b)):
        workload, name = key
        a, b = rows_a[key], rows_b[key]
        _, ma, _ = quartiles(a["samples"])
        _, mb, _ = quartiles(b["samples"])
        if a["exact"]:
            if a["seeds"] != b["seeds"]:
                result, detail = "info", "seeds differ"
            else:
                same = set(a["samples"]) == set(b["samples"])
                result = "same" if same else "worse"
                detail = f"{ma:.6g} -> {mb:.6g}"
        elif name in bounds:
            result, gain, spread = verdict(a, b, bounds[name])
            detail = (f"{ma:.6g} -> {mb:.6g} {a['unit']} "
                      f"(gain {gain:+.2%}, spread {spread:.2%}, "
                      f"bound {bounds[name]:.0%})")
        else:
            result = "info"
            detail = f"{ma:.6g} -> {mb:.6g} {a['unit']}"
        worse += result == "worse"
        print(f"{workload}/{name} {result} {detail}")
    return worse


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("records", nargs="*", help="record files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare record file B against A")
    args = parser.parse_args()
    with open(BENCHMARK) as f:
        benchmark = json.load(f)

    if args.compare:
        base, change = load([args.compare[0]]), load([args.compare[1]])
        failures = gate(base + change, benchmark)
        worse = compare(base, change, benchmark)
        for failure in failures:
            print("GATE FAILED: " + failure, file=sys.stderr)
        return 1 if failures or worse else 0

    if not args.records:
        parser.error("give record files or --compare A B")
    records = load(args.records)
    summarize(records)
    failures = gate(records, benchmark)
    for failure in failures:
        print("GATE FAILED: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
