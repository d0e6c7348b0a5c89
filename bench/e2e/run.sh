#!/usr/bin/env bash
# Build bench_e2e from this checkout, then run it.
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one benchmark run; arguments go to bench_e2e (see bench_e2e.cc)
#   bench/e2e/run.sh --set OUT.jsonl [SEED]
#       one full set: every workload, 5 untraced repetitions plus one
#       traced pair, appended to OUT.jsonl and summarized
#
# Everything the build and the runs leave behind goes under
# .bench_build/ at the repository root: the build tree, temporary
# journals and traces (TMPDIR), the build log and the span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/src/core/study.hh" ]]; then
    echo "run.sh: no mbusim sources under $root" >&2
    exit 2
fi

out="$root/.bench_build"
build="$out/e2e"
mkdir -p "$out/tmp" "$out/spans"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
       cmake --build "$build" -j "$jobs"; } >"$out/build.log" 2>&1; then
    tail -n 40 "$out/build.log" >&2
    echo "run.sh: build failed (log: $out/build.log)" >&2
    exit 2
fi
bench="$build/bench_e2e"
export TMPDIR="$out/tmp"

if [[ "${1:-}" == "--set" ]]; then
    if [[ $# -lt 2 ]]; then
        echo "usage: run.sh --set OUT.jsonl [SEED]" >&2
        exit 2
    fi
    record="$2"
    seed="${3:-0x5eed}"
    for w in sweep_mixed sweep_procs pilot_all15 campaign_deep; do
        "$bench" --workload "$w" --seed "$seed" --trace 0 --reps 5 \
            --record "$record"
        "$bench" --workload "$w" --seed "$seed" --trace 1 --reps 1 \
            --record "$record" --spans-out "$out/spans/$w.jsonl"
    done
    exec python3 "$here/summarize.py" "$record"
fi

workload=""
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--workload" ]]; then workload="$arg"; fi
    prev="$arg"
done
exec "$bench" "$@" --spans-out "$out/spans/${workload:-unknown}.jsonl"
