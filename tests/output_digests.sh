#!/usr/bin/env bash
# Byte-identity check: regenerates the outputs every refactor promises to
# keep byte-identical and compares their sha256 digests against the
# committed tests/output_digests.sha256.
#
# Usage:
#   tests/output_digests.sh BUILD_DIR [OUT_FILE]
#
# Writes the fresh "<sha256>  <output>" lines to OUT_FILE (a temp file
# when omitted), then exits 0 when they equal the committed digests and
# 1 otherwise, naming every output that moved. Exits 2, writing nothing,
# when an output cannot be regenerated. Refresh the committed file
# only through `tests/refresh_goldens.sh --apply` and record the refresh
# in CHANGES.md.
#
# The outputs:
#   fig7_prefetch_cache.csv      reduced Figure-7 grid, --seed 3
#   fig4*.csv, fig5*.csv         reduced Figure-4 scatter and Figure-5
#                                curves, --seed 3
#   prefetch_only_iid.csv        prefetch_only sweep: iid rows, KP and
#                                SKP, three seeds
#   ci_netsim_shard*.csv         tools/specs/ci_netsim_shard.json, whole
#                                and as two shards merged back together
#   drivers_<driver>.csv         tools/specs/digest_drivers.json (markov1,
#                                ppm, lz78, depgraph at n = 100) through
#                                trace_replay, prefetch_cache, netsim_des,
#                                multi_client and scenario
#   <variant>.csv                oracle/learned rows through the fault,
#                                churn and sized-cache side paths, oracle
#                                LFU/DS rows of the two DES drivers, and
#                                scenario rows planned by the Figure-6
#                                slot planner (--pr)
#   golden_table.txt             DISABLED_PrintGoldenTable (297 rows)
#   equivalence_table.txt        DISABLED_PrintEquivalenceTable
#
# The digests were recorded with GCC; ctest registers the check for GNU
# builds only (clang output is unverified).
set -Eeuo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_DIR [OUT_FILE]" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"
committed="$root/tests/output_digests.sha256"

simctl="$build/tools/simctl"
for bin in "$simctl" "$build/bench/fig7_prefetch_cache" \
           "$build/bench/fig5_prefetch_only" "$build/bench/fig4_scatter" \
           "$build/tests/test_scenario_matrix" \
           "$build/tests/test_prefetch_cache_sim"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found — build first: cmake --build $1 -j" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'echo "error: regenerating the outputs failed" >&2; exit 2' ERR
out="$tmp/outputs"
mkdir -p "$out"

for fig in fig7_prefetch_cache fig5_prefetch_only fig4_scatter; do
  "$build/bench/$fig" --seed 3 --csv "$out" > /dev/null
done
"$simctl" run --driver prefetch_only --workload iid --n-items 10 \
  --policies kp,skp --seeds 1:3:1 --requests 2000 \
  --csv "$out/prefetch_only_iid.csv" > /dev/null

shard_spec="$root/tools/specs/ci_netsim_shard.json"
"$simctl" run --spec "$shard_spec" --csv "$out/ci_netsim_shard.csv" \
  > /dev/null
"$simctl" run --spec "$shard_spec" --shard 0/2 --csv "$tmp/s0.csv" \
  > /dev/null 2>&1
"$simctl" run --spec "$shard_spec" --shard 1/2 --csv "$tmp/s1.csv" \
  > /dev/null 2>&1
"$simctl" merge "$out/ci_netsim_shard_merged.csv" "$tmp/s1.csv" \
  "$tmp/s0.csv" > /dev/null

drivers_spec="$root/tools/specs/digest_drivers.json"
run_drivers() {  # NAME FLAGS...
  local name="$1"
  shift
  "$simctl" run --spec "$drivers_spec" "$@" --csv "$out/$name.csv" \
    > /dev/null
}
run_drivers drivers_trace_replay --driver trace_replay
run_drivers drivers_prefetch_cache --driver prefetch_cache
run_drivers drivers_netsim_des --driver netsim_des --predictor-warmup 32
run_drivers drivers_multi_client --driver multi_client --clients 3 \
  --predictor-warmup 32
run_drivers drivers_scenario --driver scenario --predictor-warmup 32 \
  --latency 2
# Side paths that move cache residents outside the plan: abandoned
# prefetches (faults), churn, and the byte-addressed cache.
run_drivers netsim_des_faults --driver netsim_des --predictors oracle,ppm \
  --predictor-warmup 32 --fail-rate 0.3 --retry 2
run_drivers multi_client_churn_faults --driver multi_client --clients 3 \
  --predictors oracle,lz78 --predictor-warmup 32 --fail-rate 0.3 \
  --retry 2 --churn-period 2000 --churn-downtime 50
run_drivers prefetch_cache_lfu_ds --driver prefetch_cache \
  --predictors oracle,markov1 --subs lfu,ds
run_drivers prefetch_cache_sized --driver prefetch_cache \
  --predictors oracle --sized-capacity 120 --subs none,ds
# Oracle LFU/DS rows of the DES drivers (plan memo on), and scenario rows
# that plan through the Figure-6 slot planner.
run_drivers netsim_des_lfu_ds --driver netsim_des --predictors oracle \
  --subs lfu,ds --requests 1000
run_drivers multi_client_lfu_ds --driver multi_client --clients 3 \
  --predictors oracle --subs lfu,ds --requests 1000
run_drivers scenario_pr --driver scenario --pr --predictor-warmup 32 \
  --latency 2

# gtest printers: keep the printed rows, drop the runner's banner and
# timing lines.
print_table() {  # BINARY FILTER OUT
  "$1" --gtest_also_run_disabled_tests --gtest_filter="$2" |
    grep -v -E '^(\[|Running main|Note: Google Test)' |
    grep -v -E '^\s*$' > "$3"
}
print_table "$build/tests/test_scenario_matrix" '*PrintGoldenTable*' \
  "$out/golden_table.txt"
print_table "$build/tests/test_prefetch_cache_sim" \
  '*PrintEquivalenceTable*' "$out/equivalence_table.txt"

fresh="${2:-$tmp/digests}"
(cd "$out" && sha256sum -- *) | sort -k2 > "$fresh"
trap - ERR

if [[ ! -f "$committed" ]]; then
  echo "error: $committed missing — create it with tests/refresh_goldens.sh --apply" >&2
  exit 1
fi
moved="$(join -1 2 -2 2 -a 1 -a 2 -e MISSING -o 0,1.1,2.1 \
           <(sort -k2 "$committed") "$fresh" |
         awk '$2 != $3 { print "  " $1 }')"
if [[ -z "$moved" ]]; then
  echo "output digests match ($(wc -l < "$fresh") outputs)"
  exit 0
fi
echo "outputs that moved against $committed:"
printf '%s\n' "$moved"
exit 1
