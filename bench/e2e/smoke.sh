#!/usr/bin/env bash
# Smoke test of bench_e2e (ctest bench_e2e_smoke): every workload,
# untraced and traced, at --smoke scale (2 grid workloads, 2
# injections). Each run must end with a well-formed, correct result
# line, and summarize.py's gate must pass over all of them: traced and
# untraced fingerprints agree, as do sweep_procs and sweep_mixed.
#
#   bench/e2e/smoke.sh path/to/bench_e2e
set -euo pipefail

bench="$1"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_e2e_smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT
export TMPDIR="$work"

for workload in sweep_mixed sweep_procs pilot_all15 campaign_deep; do
    for trace in 0 1; do
        "$bench" --smoke --workload "$workload" --trace "$trace" \
            --reps 1 --record "$work/records.jsonl" >"$work/out.txt"
        tail -n 1 "$work/out.txt" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0, r
for name, m in r["metrics"].items():
    assert set(m) == {"value", "unit"}, name
    assert isinstance(m["value"], (int, float)), name
'
    done
done
python3 "$here/summarize.py" "$work/records.jsonl" >/dev/null
echo "bench_e2e smoke: 4 workloads x 2 modes correct, gate passed"
