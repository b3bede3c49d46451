#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
# Also the determinism, panic, unsafe and suppression rules: the
# [workspace.lints] table, crates/clippy.toml and the result crates'
# root attributes (DESIGN.md §9).
cargo clippy --workspace --all-targets -- -D warnings

echo "== uniq-analyzer (lock order + observability hygiene) =="
# Hard gate: exits nonzero on any unsuppressed finding of the rules no
# compiler lint expresses.
cargo run -q -p uniq-analyzer -- check

echo "== cargo test (UNIQ_THREADS=1) =="
UNIQ_THREADS=1 cargo test -q --workspace

echo "== cargo test (UNIQ_THREADS=4) =="
UNIQ_THREADS=4 cargo test -q --workspace

echo "== release build (CLI + baseline gate binaries) =="
cargo build --release -q -p uniq-cli -p uniq-bench

echo "== record smoke (--record DIR writes every view + stage coverage) =="
ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT
target/release/uniq personalize --seed 6 --out "$ci_tmp/hrtf" \
  --anechoic --grid 15 --record "$ci_tmp/record" > "$ci_tmp/record.log"
grep -q "per-stage wall clock:" "$ci_tmp/record/report.txt"
target/release/baseline verify-profile "$ci_tmp/record/profile.json"
test -s "$ci_tmp/record/flame.folded"
# Retired observability flags are usage errors (exit 2), never ignored.
flag_rc=0
target/release/uniq personalize --seed 6 --profile-out "$ci_tmp/x" \
  >/dev/null 2>&1 || flag_rc=$?
[ "$flag_rc" -eq 2 ] || { echo "removed flag --profile-out exited $flag_rc, want 2" >&2; exit 1; }

echo "== allocation smoke (--record allocation attribution, 1 and 4 threads) =="
# A recorded run must attribute allocations to pipeline stages at any
# pool size: the stage table carries the alloc columns and the
# allocation table, and the profile JSON an alloc section.
for threads in 1 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
    --out "$ci_tmp/mp_hrtf" --anechoic --grid 15 \
    --record "$ci_tmp/alloc_$threads" > /dev/null
  grep -q "per-stage allocations:" "$ci_tmp/alloc_$threads/report.txt"
  grep -q "fusion" "$ci_tmp/alloc_$threads/report.txt"
  grep -q "alloc-b" "$ci_tmp/alloc_$threads/report.txt"
  grep -q '"alloc"' "$ci_tmp/alloc_$threads/profile.json"
done

echo "== allocator overhead (--record vs bare personalize, paired) =="
# Recording must be effectively free: a --record run (recorder, event
# log and counting allocator on) stays near the bare run (which pays one
# relaxed atomic load per allocation). Bare and recorded runs alternate
# in pairs (each pair's order flipped from the last), so machine drift
# lands on both sides of a pair; the gate reads the median of the
# per-pair recorded/bare ratios. The 5% target is warn-tier, 25% is the
# hard CI ceiling.
run_ns() {
  local t0 t1
  t0=$(date +%s%N)
  "$@" > /dev/null
  t1=$(date +%s%N)
  echo $((t1 - t0))
}
bare_run() {
  run_ns env UNIQ_THREADS=1 target/release/uniq personalize \
    --seed 6 --out "$ci_tmp/ov_hrtf" --anechoic --grid 15
}
recorded_run() {
  run_ns env UNIQ_THREADS=1 target/release/uniq personalize \
    --seed 6 --out "$ci_tmp/ov_hrtf" --anechoic --grid 15 --record "$ci_tmp/ov_record"
}
ratios=""
for pair in 1 2 3 4 5; do
  if [ $((pair % 2)) -eq 1 ]; then
    bare_ns=$(bare_run); rec_ns=$(recorded_run)
  else
    rec_ns=$(recorded_run); bare_ns=$(bare_run)
  fi
  ratios="$ratios $(awk -v b="$bare_ns" -v r="$rec_ns" 'BEGIN { printf "%.4f", r / b }')"
done
overhead_pct=$(printf '%s\n' $ratios | sort -g \
  | awk '{ r[NR] = $1 } END { printf "%.1f", (r[int((NR + 1) / 2)] - 1) * 100 }')
echo "allocator overhead: ${overhead_pct}% (median recorded/bare ratio of 5 pairs:${ratios})"
if ! awk -v o="$overhead_pct" 'BEGIN { exit !(o < 25.0) }'; then
  echo "allocator overhead ${overhead_pct}% exceeds the 25% CI ceiling" >&2
  exit 1
fi
awk -v o="$overhead_pct" 'BEGIN { exit !(o < 5.0) }' \
  || echo "warning: allocator overhead ${overhead_pct}% exceeds the 5% target"

echo "== fault-matrix smoke (every fault class, 1 and 4 threads) =="
# Each injectable fault class at its default (preset) intensity must
# degrade gracefully: the wrapped personalize completes with exit 0 and
# prints a populated degradation report, at both pool sizes.
fault_plans="drop@2 truncate:0.5@3 clip:0.35 snr:-12@4 \
  gyro-dropout:0.45:0.05 gyro-sat:12 jitter:0.05 dup@5 reorder@6"
for plan in $fault_plans; do
  for threads in 1 4; do
    UNIQ_THREADS=$threads target/release/uniq faults personalize --seed 6 \
      --anechoic --grid 15 --snr 45 --fault-plan "$plan" \
      > "$ci_tmp/faults.log"
    grep -q "degradation:" "$ci_tmp/faults.log"
  done
done
# A failing wrapped command must propagate its nonzero exit status.
if target/release/uniq faults personalize --seed 6 --anechoic \
  --fault-plan bogus-class >/dev/null 2>&1; then
  echo "faults wrapper swallowed a failure exit status" >&2
  exit 1
fi

echo "== trace-report smoke (causal tree reconstruction, 1 and 4 threads) =="
# A personalize run's JSONL trace must rebuild into a complete causal
# tree (exit 0 = no orphans) whose report names the critical path,
# regardless of pool size.
for threads in 1 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
    --out "$ci_tmp/trace_hrtf" --anechoic --grid 15 \
    --record "$ci_tmp/trace_$threads" > /dev/null
  target/release/uniq trace report "$ci_tmp/trace_$threads/trace.jsonl" \
    > "$ci_tmp/trace_report.log"
  grep -q "critical path:" "$ci_tmp/trace_report.log"
  grep -q "uniq_personalize_ns_count" "$ci_tmp/trace_$threads/telemetry.prom"
done

echo "== store smoke (put/get/verify round trip, 1 and 4 threads) =="
# The content-addressed store must round-trip the personalized HRTF
# bit-exactly: put at both pool sizes lands on the same content key
# (one blob + one dedup hit), get succeeds, verify walks every blob
# clean, and export/import closes the text-format loop.
UNIQ_THREADS=1 target/release/uniq store put --store "$ci_tmp/store" \
  --seed 6 --anechoic --grid 15 --snr 45 --history "$ci_tmp/history.jsonl" \
  > "$ci_tmp/store_put_1.log"
grep -q "^key " "$ci_tmp/store_put_1.log"
UNIQ_THREADS=4 target/release/uniq store put --store "$ci_tmp/store" \
  --seed 6 --anechoic --grid 15 --snr 45 --history "$ci_tmp/history.jsonl" \
  > "$ci_tmp/store_put_4.log"
grep -q "deduplicated" "$ci_tmp/store_put_4.log"
store_key="$(awk '/^key /{print $2}' "$ci_tmp/store_put_1.log")"
target/release/uniq store get --store "$ci_tmp/store" --key "$store_key" \
  --table "$ci_tmp/store_hrtf.uniqhrtf" > /dev/null
target/release/uniq store ls --store "$ci_tmp/store" | grep -q "$store_key"
target/release/uniq store verify --store "$ci_tmp/store"
target/release/uniq store export --store "$ci_tmp/store" --key "$store_key" \
  --out "$ci_tmp/store_export.uniqhrtf" > /dev/null
target/release/uniq store import --store "$ci_tmp/store" \
  --table "$ci_tmp/store_export.uniqhrtf" --seed 6 > /dev/null
# A missing key must be a typed failure (exit 1), not a crash.
if target/release/uniq store get --store "$ci_tmp/store" \
  --key 0000000000000000 >/dev/null 2>&1; then
  echo "store get succeeded on a key that does not exist" >&2
  exit 1
fi

echo "== serve smoke (live server + loadgen drain, 1 and 4 threads) =="
# A live sharded server must publish its ephemeral port, serve a seeded
# population through the closed-loop harness with zero fingerprint
# conflicts (loadgen exits nonzero on any), answer the repeat prefix
# from the result cache, drain on the shutdown request, and print the
# same population fingerprint at every pool size.
for threads in 1 4; do
  rm -f "$ci_tmp/serve_addr"
  UNIQ_THREADS=$threads target/release/uniq serve --addr 127.0.0.1:0 \
    --shards 2 --grid 15 --snr 45 --anechoic \
    --store "$ci_tmp/serve_store_$threads" \
    --addr-file "$ci_tmp/serve_addr" > "$ci_tmp/serve_$threads.log" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$ci_tmp/serve_addr" ] && break
    sleep 0.1
  done
  [ -s "$ci_tmp/serve_addr" ] || { echo "serve never published an address" >&2; exit 1; }
  UNIQ_THREADS=$threads target/release/uniq loadgen \
    --addr "$(cat "$ci_tmp/serve_addr")" --subjects 4 --clients 2 \
    --shutdown > "$ci_tmp/loadgen_$threads.log"
  wait "$serve_pid"
  grep -q "serve drained" "$ci_tmp/serve_$threads.log"
  grep -q " 2 cached," "$ci_tmp/loadgen_$threads.log"
  grep -q "loadgen.request" "$ci_tmp/loadgen_$threads.log"
done
# Determinism across pool sizes: both runs served the same population and
# must print the same fingerprint — with server and harness agreeing.
fp() { awk '/population fingerprint/{print $NF}' "$1" | head -1; }
[ "$(fp "$ci_tmp/loadgen_1.log")" = "$(fp "$ci_tmp/loadgen_4.log")" ] \
  || { echo "serve fingerprint differs across pool sizes" >&2; exit 1; }
[ "$(fp "$ci_tmp/serve_1.log")" = "$(fp "$ci_tmp/loadgen_1.log")" ] \
  || { echo "server and loadgen disagree on the population fingerprint" >&2; exit 1; }

echo "== baseline determinism (two runs, bit-identical quality) =="
target/release/baseline run --out "$ci_tmp/fresh_a.json" --history "$ci_tmp/history.jsonl"
target/release/baseline run --out "$ci_tmp/fresh_b.json" --history "$ci_tmp/history.jsonl"
target/release/baseline quality-identical "$ci_tmp/fresh_a.json" "$ci_tmp/fresh_b.json"

echo "== run-ledger gate (two baseline records: compare exact, trend warn-tier) =="
# Both baseline runs appended a ledger record; back-to-back runs on the
# same revision must compare clean (exit 0 — fingerprints and quality
# bit-identical).
target/release/uniq history compare "$ci_tmp/history.jsonl"
# The trend gate is warn-tier in CI: a latency warning (exit 1) is
# machine noise and tolerated; a quality regression (exit 2) is fatal.
trend_rc=0
target/release/uniq history trend "$ci_tmp/history.jsonl" || trend_rc=$?
if [ "$trend_rc" -ge 2 ]; then
  echo "history trend gate: quality regression (exit $trend_rc)" >&2
  exit 1
elif [ "$trend_rc" -eq 1 ]; then
  echo "history trend gate: latency warning tolerated (exit 1)"
fi

echo "== baseline compare vs BENCH_BASELINE.json (UNIQ_THREADS=1) =="
UNIQ_THREADS=1 target/release/baseline compare \
  --baseline BENCH_BASELINE.json --fresh "$ci_tmp/fresh_a.json"

echo "== baseline compare vs BENCH_BASELINE.json (UNIQ_THREADS=4) =="
UNIQ_THREADS=4 target/release/baseline compare --baseline BENCH_BASELINE.json

echo "CI green."
