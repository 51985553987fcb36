#!/usr/bin/env bash
# Tier-1 gate plus sanitizer pass for the process-supervision paths.
#
#   tools/check.sh            # full build + full ctest + bench gates +
#                             # costmodels kernel byte-compare +
#                             # serve smoke (incl. live stats polls), then
#                             # ASan+UBSan build +
#                             # `ctest -L "obs|orchestrator|serve|netdyn|topology"`,
#                             # then TSan build +
#                             # `ctest -L "obs|parallel|serve|netdyn"`
#   tools/check.sh --fast     # skip both sanitizer legs
#
# The orchestrator fork/exec/kill/heartbeat code is exactly the kind of
# code where a latent use-after-free or signed-overflow hides behind
# "the test passed": the sanitizer leg re-runs every orchestrator- and
# driver-labelled supervision test with ASan+UBSan enabled, plus the
# serve suite — its malformed-frame corpus and the chaos harness
# (slow-loris, RST aborts, drain storms against the live binary) only
# prove hardening if a byte-level parser bug actually crashes. The TSan leg covers the other
# risk pocket — the lock-free obs registry (sharded relaxed atomics),
# the parallel_for pool, and the serve daemon's RCU-style snapshot swap
# under concurrent reloads — where a data race would corrupt counters
# or tear a snapshot silently instead of crashing.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== tier-1: configure + build =="
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: full ctest =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo "== dp kernel: naive-vs-dc speedup gate =="
if command -v python3 >/dev/null 2>&1; then
  # Same machine, same binary, both kernels forced in turn: the
  # divide-and-conquer fill must beat naive by >= 3x on every quick
  # config (the full-mode acceptance number, 5x at n=50k, is recorded in
  # the committed baselines; the quick grid keeps this leg under a
  # minute). A trajectory compare against the committed dc baseline is
  # informational: cross-machine wall times are too noisy to gate on.
  dp_dir="$repo/build/dp_gate"
  mkdir -p "$dp_dir"
  "$repo/build/bench/bench_dp_scaling" --kernel naive > "$dp_dir/naive.log"
  "$repo/build/bench/bench_dp_scaling" --kernel dc > "$dp_dir/dc.log"
  python3 "$repo/tools/bench_diff.py" "$dp_dir/naive.log" "$dp_dir/dc.log" \
    --min-speedup 3
  python3 "$repo/tools/bench_diff.py" \
    "$repo/bench/baselines/dp_scaling_dc.quick.log" "$dp_dir/dc.log" || true
else
  echo "check.sh: python3 not found, skipping dp kernel gate"
fi

echo "== dp kernel: costmodels report byte-compare across kernels =="
# End-to-end kernel equality on the calibrated paper markets the grids
# run: the costmodels grid with each kernel forced in turn must write
# the same report bytes (the DP fills over equal-cost runs, so every
# kernel sees the same items).
kc_dir="$repo/build/dp_kernel_reports"
mkdir -p "$kc_dir"
for kernel in naive dc auto; do
  MANYTIERS_DP_KERNEL="$kernel" "$repo/build/src/manytiers_batch" \
    --grid costmodels --no-timing --out "$kc_dir/costmodels.$kernel.batch"
done
cmp "$kc_dir/costmodels.naive.batch" "$kc_dir/costmodels.dc.batch"
cmp "$kc_dir/costmodels.naive.batch" "$kc_dir/costmodels.auto.batch"
echo "check.sh: costmodels report byte-identical under naive, dc and auto"

echo "== netdyn: incremental-vs-naive speedup gate =="
if command -v python3 >/dev/null 2>&1; then
  # Same machine, same binary, both SSSP kernels in turn over identical
  # gentle reweigh streams: incremental repair must beat full
  # re-Dijkstra by >= 5x median per update on every gate config (the
  # acceptance number at <= 10% affected vertices). The compare against
  # the committed incremental baseline is informational only —
  # cross-machine wall times are too noisy to gate on.
  nd_dir="$repo/build/netdyn_gate"
  mkdir -p "$nd_dir"
  "$repo/build/bench/bench_netdyn" --kernel naive > "$nd_dir/naive.log"
  "$repo/build/bench/bench_netdyn" --kernel incremental > "$nd_dir/incr.log"
  python3 "$repo/tools/bench_diff.py" "$nd_dir/naive.log" "$nd_dir/incr.log" \
    --min-speedup 5
  python3 "$repo/tools/bench_diff.py" \
    "$repo/bench/baselines/netdyn_incremental.quick.log" "$nd_dir/incr.log" \
    || true
else
  echo "check.sh: python3 not found, skipping netdyn gate"
fi

echo "== serve: daemon smoke over a unix socket =="
# One query of every kind against a real daemon, then a clean SIGTERM
# shutdown: this is the exact start-then-query idiom EXPERIMENTS.md
# documents, so it stays exercised even when nobody runs the gtest E2Es.
serve_dir="$repo/build/serve_smoke"
rm -rf "$serve_dir" && mkdir -p "$serve_dir"
serve_sock="$serve_dir/mt.sock"
"$repo/build/src/manytiers_serve" --grid smoke --socket "$serve_sock" \
  --metrics "$serve_dir/metrics.json" --metrics-interval-ms 200 \
  > "$serve_dir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
quote() {
  "$repo/build/src/manytiers_quote" --socket "$serve_sock" --retry-ms 10000 \
    "$@" > /dev/null
}
# health first: the readiness probe a supervisor would use, and the
# check that an unconfigured daemon reports "ready".
"$repo/build/src/manytiers_quote" --socket "$serve_sock" --retry-ms 10000 \
  health | grep -q '"state":"ready"'
quote price --market "EU ISP/ced/linear" --strategy Optimal --q 120 --d 800
quote schedule --market "CDN/logit/linear" --strategy Profit-weighted
quote requote --market "Internet2/ced/linear" --strategy Optimal --flow 3
quote reload --seed 43
# Two stats polls with a priced query between them: counters must be
# monotone across polls and the request count must actually move — the
# live half of the streaming-observability contract.
"$repo/build/src/manytiers_quote" --socket "$serve_sock" --retry-ms 10000 \
  stats > "$serve_dir/stats1.json"
quote price --market "EU ISP/ced/linear" --strategy Optimal --q 60 --d 400
"$repo/build/src/manytiers_quote" --socket "$serve_sock" --retry-ms 10000 \
  stats > "$serve_dir/stats2.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$serve_dir/stats1.json" "$serve_dir/stats2.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["ok"] and b["ok"], "stats polls must answer ok"
assert a["version"] == b["version"] == "1.2", (a["version"], b["version"])
assert b["t_us"] >= a["t_us"], "stats capture time went backwards"
ca, cb = dict(a["counters"]), dict(b["counters"])
for name, value in ca.items():
    assert cb.get(name, 0) >= value, f"counter {name} went backwards"
assert cb["serve.requests"] > ca["serve.requests"], \
    "serve.requests did not advance across polls"
EOF
else
  grep -q '"kind":"stats"' "$serve_dir/stats2.json"
fi
kill -TERM "$serve_pid"
wait "$serve_pid"
trap - EXIT
grep -q '"serve.requests.price"' "$serve_dir/metrics.json"
grep -q '"kind":"tick"' "$serve_dir/metrics.series.json"
grep -q '"event":"drained"' "$serve_dir/serve.log"
echo "check.sh: serve smoke ok (health ready, stats monotone, series" \
  "stream, drained on SIGTERM, metrics)"

echo "== serve: overload regime p99-of-accepted gate =="
if command -v python3 >/dev/null 2>&1; then
  # 2x the measured knee against a deadline-armed in-process server.
  # Unlike the wall-time benches, p99-of-accepted here is bounded by the
  # request deadline — configuration, not machine speed — so the compare
  # against the committed baseline is a hard gate (latency-curve mode):
  # if p99-of-accepted regresses past the factor, shedding stopped
  # protecting the accepted requests.
  ov_dir="$repo/build/serve_overload"
  mkdir -p "$ov_dir"
  "$repo/build/bench/bench_serve_load" --overload > "$ov_dir/overload.log"
  python3 "$repo/tools/bench_diff.py" \
    "$repo/bench/baselines/serve_load.overload.log" "$ov_dir/overload.log"
else
  echo "check.sh: python3 not found, skipping serve overload gate"
fi

if [[ "$fast" == 1 ]]; then
  echo "check.sh: --fast given, skipping sanitizer leg"
  exit 0
fi

echo "== sanitizers: ASan+UBSan build =="
cmake -S "$repo" -B "$repo/build-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMANYTIERS_SANITIZE=ON
cmake --build "$repo/build-asan" -j "$jobs"

echo "== sanitizers: ctest -L \"obs|orchestrator|serve|netdyn|topology\" =="
# netdyn joins the leg because incremental-repair bookkeeping (cone
# resets, tombstone rows, matrix growth) is exactly where an
# out-of-bounds row index would hide behind a passing value check;
# topology rides along as its dependency surface. obs joins for the
# streaming layer: the hand-rolled series parser and the snapshotter's
# temp+rename writer are byte-level code ASan should see.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
ASAN_OPTIONS="detect_leaks=0" \
  ctest --test-dir "$repo/build-asan" \
    -L "obs|orchestrator|serve|netdyn|topology" \
    --output-on-failure -j "$jobs"

echo "== sanitizers: TSan build =="
cmake -S "$repo" -B "$repo/build-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMANYTIERS_TSAN=ON
# obs_smoke (labeled obs) drives the real batch + orchestrator binaries;
# the serve suite's E2E tests drive manytiers_serve/manytiers_quote.
cmake --build "$repo/build-tsan" -j "$jobs" \
  --target test_obs test_parallel manytiers_batch manytiers_orchestrate \
  test_serve test_serve_chaos manytiers_serve_bin manytiers_quote test_netdyn

echo "== sanitizers: ctest -L \"obs|parallel|serve|netdyn\" =="
# test_netdyn's grid sessions re-evaluate dirty cells on the shared
# parallel_for pool while clean cells are read back — the dirty-set
# bookkeeping the TSan leg exists to keep honest.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$repo/build-tsan" -L "obs|parallel|serve|netdyn" \
    --output-on-failure -j "$jobs"

echo "check.sh: all green"
