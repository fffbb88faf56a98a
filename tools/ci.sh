#!/usr/bin/env bash
# CI gate: tier-1 tests, a time-boxed chaos sweep, an ASan+UBSan test pass,
# a TSan pass over the multi-threaded real-mode suites, a real-deployment
# CLI smoke with a mid-run /metrics scrape under overload, a trace-export
# smoke, a sim-core bench smoke, and a perf gate diffing fresh benchmark
# runs against the committed BENCH_*.json baselines (skippable with
# IDEM_SKIP_PERF_GATE=1) plus a live-telemetry overhead guard.
#
# Usage: tools/ci.sh [--fast] [--coverage]
#   --fast      skip the chaos sweep and the sanitizer passes
#   --coverage  additionally build with IDEM_COVERAGE=ON, re-run the test
#               suite instrumented, and print a line-coverage summary
#               (gcovr when available, raw gcov totals otherwise)
#
# Build dirs: build/ (plain), build-api/ (isolated protocol-library builds),
# build-asan/ (address,undefined), build-tsan/ (thread), build-cov/
# (coverage). All are cmake-standard and safe to delete.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
COVERAGE=0
for arg in "$@"; do
  case "${arg}" in
    --fast) FAST=1 ;;
    --coverage) COVERAGE=1 ;;
    *) echo "unknown option: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "${JOBS}")

# Layering check for the replication core: protocol libraries are policy
# layers over src/core and must not reach into each other. Enforced two
# ways: an include grep (fast, catches header-only leaks) and an isolated
# build of each protocol target (its dependency closure is core + the
# shared lower layers only, so a stray cross-protocol dependency fails).
echo "== core_api_check: no cross-protocol includes =="
if grep -rn '#include "' src/idem src/paxos src/smart src/core \
    | grep -E '"(idem|paxos|smart)/' \
    | grep -vE 'src/idem/[^:]*:.*"idem/|src/paxos/[^:]*:.*"paxos/|src/smart/[^:]*:.*"smart/'; then
  echo "core_api_check FAILED: cross-protocol include found" >&2
  exit 1
fi

echo "== core_api_check: isolated protocol builds =="
cmake -B build-api -S . >/dev/null
for target in idem_replication idem_core idem_paxos idem_smart; do
  cmake --build build-api -j "${JOBS}" --target "${target}"
done

if [[ "${FAST}" -eq 0 ]]; then
  # Time-boxed randomized sweep: N fresh seeds per protocol, linearizability
  # + execution-log invariants checked on every run. The checked-in corpus
  # (tests/corpus/, replayed by ctest above) pins known-interesting seeds;
  # this stage keeps exploring new ones. Seeds rotate daily so a red run is
  # reproducible all day with tools/chaos_run --sweep/--seed.
  CHAOS_SEEDS="${CHAOS_SEEDS:-25}"
  CHAOS_BASE_SEED="${CHAOS_BASE_SEED:-$(( $(date +%Y%m%d) ))}"
  echo "== chaos: sweep ${CHAOS_SEEDS} seeds x 3 protocols (base ${CHAOS_BASE_SEED}) =="
  for proto in idem paxos smart; do
    ./build/tools/chaos_run --sweep "${CHAOS_SEEDS}" --protocol "${proto}" \
        --seed "${CHAOS_BASE_SEED}"
  done

  echo "== sanitizers: ASan+UBSan build =="
  cmake -B build-asan -S . -DIDEM_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "${JOBS}"

  echo "== sanitizers: ctest =="
  (cd build-asan && ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "${JOBS}")

  # TSan over the suites that actually spawn threads: the rpc event loop's
  # cross-thread post()/stop() and the whole real-mode runtime (one loop
  # thread per replica). Run serially — TSan-instrumented loopback clusters
  # are heavyweight enough that parallel suites time-box each other out.
  echo "== sanitizers: TSan build (rpc + real runtime) =="
  cmake -B build-tsan -S . -DIDEM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}"

  echo "== sanitizers: TSan ctest =="
  (cd build-tsan && TSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -R 'EventLoop|Framing|ParseAddress|TcpTransport|RealtimeIdem|RealRuntime|RealCluster|RealSmoke|MetricsTicker|TraceMerge|LiveMetrics|HttpAdmin|Storm|Shard|Deadline|Discipline')
fi

# Time-boxed storm smoke: ~1k connections ramped up (334 sessions x 3
# replicas, cluster hosted in a forked child so both fd budgets stay
# honest) plus a reconnect stampede through a leader crash. fig_storm
# asserts the scenario shapes itself and exits nonzero when they fail;
# the full 10k-connection suite runs in the perf gate below.
echo "== real mode: storm smoke (1k connections, reconnect stampede) =="
IDEM_STORM_SCENARIOS=ramp,stampede IDEM_STORM_SESSIONS=334 \
    IDEM_STORM_STAMPEDE_SESSIONS=334 IDEM_STORM_SECONDS=0.6 \
    IDEM_STORM_RAMP_SECONDS=1.5 IDEM_STORM_JSON=/dev/null \
    ./build/bench/fig_storm >/dev/null

echo "== real mode: CLI smoke =="
./build/tools/idem_server --help >/dev/null
./build/tools/idem_client --help >/dev/null
# A tight reject threshold (--rt 8) against 24 closed-loop clients keeps the
# leader's runtime queue saturated, so the mid-run /metrics scrape below must
# see proactive rejections with the rt-queue-full reason.
SMOKE_BASE=$(( 7300 + RANDOM % 500 ))
ADMIN_BASE=$(( SMOKE_BASE + 500 ))
for i in 0 1 2; do
  PEERS=()
  for j in 0 1 2; do
    [[ "${i}" -ne "${j}" ]] && PEERS+=(--peer "${j}=:$(( SMOKE_BASE + j ))")
  done
  ./build/tools/idem_server --replica-id "${i}" --listen ":$(( SMOKE_BASE + i ))" \
      "${PEERS[@]}" --rt 8 --admin-port "$(( ADMIN_BASE + i ))" --seconds 6 >/dev/null &
done
sleep 0.5
./build/tools/idem_client --replica ":${SMOKE_BASE}" --replica ":$(( SMOKE_BASE + 1 ))" \
    --replica ":$(( SMOKE_BASE + 2 ))" --clients 24 --seconds 3 --warmup 0.5 &
SMOKE_CLIENT=$!

echo "== real mode: live /metrics scrape under overload =="
sleep 2  # mid-run: past warm-up, load still applied
SMOKE_METRICS="$(curl -sf "http://127.0.0.1:${ADMIN_BASE}/metrics")"
echo "${SMOKE_METRICS}" | grep -q '^idem_reply_latency_p50_seconds ' || {
  echo "live scrape FAILED: no windowed reply-latency quantiles" >&2; exit 1; }
SMOKE_REJECTS="$(echo "${SMOKE_METRICS}" \
    | awk '/^idem_rejects_total\{reason="rt-queue-full"\}/ {print int($2)}')"
if [[ "${SMOKE_REJECTS:-0}" -le 0 ]]; then
  echo "live scrape FAILED: expected rt-queue-full rejections under overload" >&2
  exit 1
fi
echo "live scrape OK: ${SMOKE_REJECTS} rt-queue-full rejects visible mid-run"
curl -sf "http://127.0.0.1:${ADMIN_BASE}/stats" | grep -q '"requests_received"' || {
  echo "live scrape FAILED: /stats JSON missing" >&2; exit 1; }
# One duplex connection per pair of transports: each server holds one to
# each of its two peers plus one to the client process (24 clients share
# it), never a dial-back per client.
for i in 0 1 2; do
  CONNS="$(curl -sf "http://127.0.0.1:$(( ADMIN_BASE + i ))/stats" | sed -nE \
      's/.*"inbound_connections":([0-9]+),"outbound_connections":([0-9]+).*/\1 \2/p')" \
      || CONNS=""
  read -r CONNS_IN CONNS_OUT <<< "${CONNS:-x x}"
  if ! [[ "${CONNS_IN}" =~ ^[0-9]+$ ]] || (( CONNS_IN + CONNS_OUT > 3 )); then
    echo "connection scrape FAILED: server ${i} holds '${CONNS}' (in out) connections," \
        "expected at most 3 in total" >&2
    exit 1
  fi
  echo "server ${i}: ${CONNS_IN} accepted + ${CONNS_OUT} dialed connections"
done
wait "${SMOKE_CLIENT}"
wait

# Deadline smoke: the same 3-replica deployment with EDF scheduling and
# deadline-aware admission armed, driven by budget-stamped clients. The
# client report must show the deadline accounting line, and the /metrics
# scrape must export the idem_deadline_miss_total counter (the
# deadline-unmeetable reject reason appears in the same family once the
# estimator warms up — presence of the counter is the gate; its value
# depends on load luck).
echo "== real mode: EDF + deadline-aware smoke =="
DL_BASE=$(( 7000 + RANDOM % 200 ))
DL_ADMIN=$(( DL_BASE + 300 ))
for i in 0 1 2; do
  PEERS=()
  for j in 0 1 2; do
    [[ "${i}" -ne "${j}" ]] && PEERS+=(--peer "${j}=:$(( DL_BASE + j ))")
  done
  ./build/tools/idem_server --replica-id "${i}" --listen ":$(( DL_BASE + i ))" \
      "${PEERS[@]}" --rt 16 --discipline edf --deadline-aware \
      --admin-port "$(( DL_ADMIN + i ))" --seconds 5 >/dev/null &
done
sleep 0.5
DL_TMP="$(mktemp)"
./build/tools/idem_client --replica ":${DL_BASE}" \
    --replica ":$(( DL_BASE + 1 ))" --replica ":$(( DL_BASE + 2 ))" \
    --clients 24 --seconds 2.5 --warmup 0.5 \
    --deadline-ms 20 --deadline-jitter 10 > "${DL_TMP}" &
DL_CLIENT=$!
sleep 2
curl -sf "http://127.0.0.1:${DL_ADMIN}/metrics" \
    | grep -q '^idem_deadline_miss_total ' || {
  echo "deadline smoke FAILED: /metrics missing idem_deadline_miss_total" >&2; exit 1; }
wait "${DL_CLIENT}"
wait
grep -Eq 'deadlines +: [0-9]+/[1-9][0-9]* replies missed' "${DL_TMP}" || {
  echo "deadline smoke FAILED: client report missing the deadline line" >&2
  cat "${DL_TMP}" >&2; rm -f "${DL_TMP}"; exit 1; }
rm -f "${DL_TMP}"
echo "deadline smoke OK: EDF + deadline-aware cluster served budget-stamped load"

# Sharded deployment smoke: two 3-replica groups as separate server
# processes, a sharded client over real TCP, then the same client fed the
# two groups *swapped* via --map-file — every op must be healed by a
# wrong-shard redirect (one extra hop, nothing lost). The live /stats
# scrape must show the per-group shard section. Splits and per-group
# rejection independence run in tier-1 (shard_real_test) and in the
# fig_shard perf gate below.
echo "== real mode: shard smoke (2 groups, swapped-map redirect round-trip) =="
SHARD_BASE=$(( 7900 + RANDOM % 100 ))
SHARD_ADMIN=$(( SHARD_BASE + 50 ))
for g in 0 1; do
  GBASE=$(( SHARD_BASE + g * 10 ))
  for i in 0 1 2; do
    PEERS=()
    for j in 0 1 2; do
      [[ "${i}" -ne "${j}" ]] && PEERS+=(--peer "${j}=:$(( GBASE + j ))")
    done
    ADMIN=()
    [[ "${g}" -eq 0 && "${i}" -eq 0 ]] && ADMIN=(--admin-port "${SHARD_ADMIN}")
    ./build/tools/idem_server --replica-id "${i}" --listen ":$(( GBASE + i ))" \
        "${PEERS[@]}" --shard-group "${g}" --shard-count 2 "${ADMIN[@]}" \
        --seconds 9 >/dev/null &
  done
done
sleep 0.5
SHARD_REPLICAS=(--replica ":${SHARD_BASE}" --replica ":$(( SHARD_BASE + 1 ))"
    --replica ":$(( SHARD_BASE + 2 ))" --replica ":$(( SHARD_BASE + 10 ))"
    --replica ":$(( SHARD_BASE + 11 ))" --replica ":$(( SHARD_BASE + 12 ))")
SHARD_OUT="$(./build/tools/idem_client "${SHARD_REPLICAS[@]}" --shards 2 \
    --clients 8 --seconds 2 --warmup 0.5)" || {
  echo "shard smoke FAILED: fresh-map client run recorded no replies" >&2; exit 1; }
echo "${SHARD_OUT}" | grep -E 'routing +: 0 redirects' >/dev/null || {
  echo "shard smoke FAILED: fresh-map run was redirected" >&2
  echo "${SHARD_OUT}" >&2; exit 1; }
curl -sf "http://127.0.0.1:${SHARD_ADMIN}/stats" | grep -q '"shard"' || {
  echo "shard smoke FAILED: /stats missing the shard section" >&2; exit 1; }
SHARD_MAP_TMP="$(mktemp --suffix=.json)"
printf '{"epoch": 1, "ranges": [{"begin": 0, "group": 1}, {"begin": "9223372036854775808", "group": 0}]}\n' \
    > "${SHARD_MAP_TMP}"
# --client-id-base: the replicas' duplicate suppression remembers the
# first run's sequence numbers, so a second run must use fresh ids.
SHARD_OUT="$(./build/tools/idem_client "${SHARD_REPLICAS[@]}" --shards 2 \
    --map-file "${SHARD_MAP_TMP}" --client-id-base 100 \
    --clients 4 --seconds 1.5 --warmup 0.3)" || {
  echo "shard smoke FAILED: swapped-map client run recorded no replies" >&2; exit 1; }
rm -f "${SHARD_MAP_TMP}"
echo "${SHARD_OUT}" | grep -E 'routing +: [1-9][0-9]* redirects' >/dev/null || {
  echo "shard smoke FAILED: swapped map produced no redirects" >&2
  echo "${SHARD_OUT}" >&2; exit 1; }
echo "shard smoke OK: $(echo "${SHARD_OUT}" | grep -Eo '[0-9]+ redirects')" \
    "healed through wrong-shard rejections"
wait

echo "== obs: trace export smoke =="
TRACE_TMP="$(mktemp --suffix=.json)"
trap 'rm -f "${TRACE_TMP}"' EXIT
./build/tools/idem_load --protocol idem --clients 200 --seconds 2 --warmup 0.5 \
    --trace-out "${TRACE_TMP}" >/dev/null
./build/tools/trace_check "${TRACE_TMP}" --min-requests 1000

echo "== bench: sim-core smoke =="
IDEM_SIMCORE_SMOKE=1 IDEM_SIMCORE_JSON=/dev/null ./build/bench/micro_simcore

# Keeps the KV snapshot/checkpoint micro-benchmarks compiling and running.
echo "== bench: KV store micro-benchmarks smoke =="
./build/bench/micro_components --benchmark_filter=KvStore --benchmark_min_time=0.01

# Batching sweep: batch 1/4/16 load sweep writing BENCH_batching.json. The
# binary itself asserts the shape (batch >= 4 saturates higher than batch 1,
# rejects still appear at 4x load) and exits nonzero when it does not hold.
echo "== bench: fig6 batching sweep =="
IDEM_BENCH_SECONDS=1 IDEM_BENCH_WARMUP=0.3 IDEM_BATCHING_JSON=BENCH_batching.json \
    ./build/bench/fig6_batching

# Perf gate: rerun the committed benchmarks at the same settings their
# baselines were stamped with, then diff against the checked-in JSON.
# bench_compare fails (exit 1) when a throughput metric drops — or a gated
# latency metric rises — by more than the tolerance. On a machine that is
# legitimately slower than the one that stamped the baselines, skip with
# IDEM_SKIP_PERF_GATE=1 (and consider re-stamping: run the two benches
# without IDEM_*_JSON overrides and commit the refreshed files).
if [[ "${IDEM_SKIP_PERF_GATE:-0}" -eq 1 ]]; then
  echo "== perf gate: skipped (IDEM_SKIP_PERF_GATE=1) =="
else
  # Sim-core numbers repeat within ~5%, so 10% is a safe gate. The real
  # sweep measures wall-clock sockets: its under-saturated points (1-2
  # closed-loop clients sharing one core with three replica threads)
  # swing +-20% with scheduler luck, and host contention (this can run
  # in a VM with noisy neighbors) has been seen to halve a whole sweep
  # uniformly for minutes at a time — hence the wide band plus one
  # retry with a fresh run. 35% is still tight against the goodput
  # collapse (-99%) the gate exists to catch, and a genuine code
  # regression fails both runs anyway.
  PERF_TOLERANCE="${IDEM_PERF_TOLERANCE:-0.10}"
  PERF_TOLERANCE_REAL="${IDEM_PERF_TOLERANCE_REAL:-0.35}"
  PERF_TMP="$(mktemp -d)"
  trap 'rm -f "${TRACE_TMP}"; rm -rf "${PERF_TMP}"' EXIT

  # perf_gate <label> <tolerance> <extra-flags|-> <baseline> <fresh> <bench-cmd...>
  perf_gate() {
    local label="$1" tolerance="$2" extra="$3" baseline="$4" fresh="$5"
    shift 5
    local flags=()
    [[ "${extra}" != "-" ]] && read -ra flags <<< "${extra}"
    for attempt in 1 2; do
      "$@" >/dev/null
      if ./build/tools/bench_compare --label "${label}" --tolerance "${tolerance}" \
          "${flags[@]}" --baseline "${baseline}" --fresh "${fresh}"; then
        return 0
      fi
      [[ "${attempt}" -eq 1 ]] && \
          echo "perf gate ${label}: failed, retrying once with a fresh run"
    done
    return 1
  }

  echo "== perf gate: sim core vs BENCH_simcore.json =="
  perf_gate simcore "${PERF_TOLERANCE}" - BENCH_simcore.json "${PERF_TMP}/simcore.json" \
      env IDEM_SIMCORE_JSON="${PERF_TMP}/simcore.json" ./build/bench/micro_simcore

  # --throughput-only: absolute wall-clock latency inflates with host
  # contention independently of this codebase; fig6_real itself asserts
  # the latency *shape* (flat p50 below saturation) on every run.
  echo "== perf gate: real mode vs BENCH_real.json =="
  perf_gate real "${PERF_TOLERANCE_REAL}" --throughput-only \
      BENCH_real.json "${PERF_TMP}/real.json" \
      env IDEM_REAL_JSON="${PERF_TMP}/real.json" ./build/bench/fig6_real

  # Storm scenarios at full scale (10k-connection ramp, 4x flash crowd,
  # 1k-session stampede, slow loris): fig_storm asserts the scenario
  # shapes on every run; the gate only diffs the flash crowd's goodput
  # peak, the one stable throughput statistic in the suite (connect and
  # rejection tails swing with scheduler luck on a loaded host).
  echo "== perf gate: storm scenarios vs BENCH_storm.json =="
  perf_gate storm "${PERF_TOLERANCE_REAL}" "--peak reply_kops" \
      BENCH_storm.json "${PERF_TMP}/storm.json" \
      env IDEM_STORM_JSON="${PERF_TMP}/storm.json" ./build/bench/fig_storm

  # Sharded scale-out: fig_shard asserts its machine-independent shapes
  # on every run (per-group rejection independence, linearizable live
  # split, zero redirects on a fresh map); the gate diffs only the sweep's
  # peak reply throughput — per-point numbers on a core-starved host
  # measure the scheduler, not the sharding layer (EXPERIMENTS.md).
  echo "== perf gate: shard scale-out vs BENCH_shard.json =="
  perf_gate shard "${PERF_TOLERANCE_REAL}" "--peak reply_kops" \
      BENCH_shard.json "${PERF_TMP}/shard.json" \
      env IDEM_SHARD_JSON="${PERF_TMP}/shard.json" ./build/bench/fig_shard

  # Deadline-aware admission: fig_deadline asserts the cross-policy win
  # (deadline-aware beats tail-drop AND AQM on p99.9 + miss rate at >= 2x
  # overload) on every run; the gate additionally diffs against the
  # stamped baseline with --gate-tails, so the deadline-aware arm's
  # p999_ms and miss_pct become gated lower-is-better metrics. The sweep
  # runs in the deterministic sim harness, so the sim tolerance applies.
  echo "== perf gate: deadline admission vs BENCH_deadline.json =="
  perf_gate deadline "${PERF_TOLERANCE}" --gate-tails \
      BENCH_deadline.json "${PERF_TMP}/deadline.json" \
      env IDEM_DEADLINE_JSON="${PERF_TMP}/deadline.json" ./build/bench/fig_deadline

  # Live-telemetry overhead guard: the same sweep with the admin endpoint
  # and windowed metrics armed (IDEM_REAL_LIVE=1) must keep its saturation
  # peak within a few percent of the plain run the real gate just produced
  # on this same host. Only the peak is gated (--peak): the under-saturated
  # points swing with scheduler luck far beyond any telemetry cost, while
  # the peak is the stable summary statistic a hot-path tax would move.
  LIVE_TOLERANCE="${IDEM_LIVE_OVERHEAD_TOLERANCE:-0.02}"
  echo "== perf gate: live telemetry overhead (peak reply_kops) =="
  LIVE_OK=0
  for attempt in 1 2; do
    env IDEM_REAL_LIVE=1 IDEM_REAL_JSON="${PERF_TMP}/real_live.json" \
        ./build/bench/fig6_real >/dev/null
    if ./build/tools/bench_compare --label live-overhead \
        --tolerance "${LIVE_TOLERANCE}" --peak reply_kops \
        --baseline "${PERF_TMP}/real.json" --fresh "${PERF_TMP}/real_live.json"; then
      LIVE_OK=1
      break
    fi
    [[ "${attempt}" -eq 1 ]] && \
        echo "perf gate live-overhead: failed, retrying once with a fresh run"
  done
  [[ "${LIVE_OK}" -eq 1 ]]
fi

if [[ "${COVERAGE}" -eq 1 ]]; then
  echo "== coverage: instrumented build =="
  cmake -B build-cov -S . -DIDEM_COVERAGE=ON >/dev/null
  cmake --build build-cov -j "${JOBS}"
  (cd build-cov && ctest --output-on-failure -j "${JOBS}" >/dev/null)

  echo "== coverage: summary (src/) =="
  if command -v gcovr >/dev/null 2>&1; then
    gcovr --root . --filter 'src/' build-cov --print-summary
  else
    # gcov fallback: aggregate line totals over files under src/.
    find build-cov/src -name '*.gcda' -print0 | while IFS= read -r -d '' gcda; do
      gcov -n "${gcda}" 2>/dev/null
    done | awk -v root="$(pwd)/src/" '
      /^File/ { f=$2; gsub(/'\''/, "", f); ours = index(f, root) == 1 }
      /^Lines executed:/ && ours {
        split($0, m, /[:% ]+/); pct=m[3]; of=m[5];
        covered += of * pct / 100; total += of;
      }
      END {
        if (total > 0)
          printf "lines: %.1f%% (%d of %d)\n", 100 * covered / total, covered, total;
        else print "no coverage data found";
      }'
  fi
fi

echo "CI OK"
