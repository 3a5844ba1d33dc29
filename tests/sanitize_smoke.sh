#!/usr/bin/env bash
# Sanitizer smoke: build the test suite with ASan+UBSan (-DADTC_SANITIZE=ON)
# in a separate tree and run the lifetime-sensitive subset: the telemetry
# layer (collector owners dying before the registry, sampler callbacks
# outliving the sampler, event-ring linearisation), the fault-injected
# control plane and the TCSP runtime operations that ride it (retry
# closures capturing channel and fan-out state across simulated time,
# duplicated deliveries, chaos-driven teardown ordering), the
# chaos-containment suite (data-plane fault plans, router restarts and
# the compromised-NMS adversary from docs/fault_injection.md), the
# static-analysis layer (random-graph soundness harness), and the event
# engine's callback storage with its two lazy consumers (inline and boxed
# captures, slot reuse, Clear() destroying pending captures; the link
# drain and the server's half-open expiry queue) — without paying the
# sanitized build on every ctest invocation.
#
# A second phase rebuilds with ThreadSanitizer (-DADTC_SANITIZE_THREAD=ON)
# and runs the genuinely multi-threaded subset: the thread pool /
# ParallelFor plumbing, the batched datapath tests that ride on it, and
# the sharded-engine suite — the lock-step barrier exchange unit tests
# (inline callbacks crossing shards by value among them) plus the
# ShardStress world that drives cross-shard control channels,
# the sampler, and resync sweeps concurrently (docs/sharding.md).
# ASan/UBSan stays the default first phase; set ADTC_SKIP_TSAN=1 to skip
# the TSan phase (e.g. on toolchains without libtsan).
#
# Usage: tests/sanitize_smoke.sh [source-dir] [build-dir]
# Also registered with CTest when configured with -DADTC_SANITIZE_SMOKE=ON.
set -euo pipefail

SRC_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD_DIR="${2:-${SRC_DIR}/build-sanitize}"
FILTER="${ADTC_SANITIZE_FILTER:-Telemetry*:*Sampler*:MetricsRegistry*:Tracer*:Json*:EventBuffer*:EnumNames*:CounterTest*:ScopedWallTimer*:FaultInjector*:ControlChannel*:RetryPolicy*:WorseStatus*:DeploymentId*:*ChaosConvergence*:*ChaosContainment*:VerifierTest*:NetworkVerifierTest*:PlanSoundnessTest*:AnalysisSoundnessTest*:StaticAnalysisTest*:FlightRecorder*:TraceAnalyzer*:DurationPercentile*:*TraceReassembly*:SprtDetector*:EwmaDetector*:ClosedLoop*:DropAccounting*:RuntimeOps*:AdaptiveDeviceTest*:SimulatorTest*:ShardedSingleTest*:ShardedMultiTest*:NetworkTest*:ServerTest*}"
TSAN_FILTER="${ADTC_TSAN_FILTER:-ThreadPoolTest*:ParallelForTest*:NetworkTest*:AdaptiveDeviceTest*:AnalysisSoundnessTest*:NetworkVerifierTest*:PlanSoundnessTest*:FlightRecorder*:ShardedSingleTest*:ShardedMultiTest*:ShardStressTest*:ShardDeterminismTest*:*ChaosContainment*:SprtDetector*:ClosedLoop*:DropAccounting*:SimulatorTest*:ServerTest*}"

cmake -S "${SRC_DIR}" -B "${BUILD_DIR}" -DADTC_SANITIZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD_DIR}" --target adtc_tests -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
"${BUILD_DIR}/tests/adtc_tests" --gtest_filter="${FILTER}" \
    --gtest_brief=1
echo "sanitize smoke (asan+ubsan): OK"

if [[ "${ADTC_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
  cmake -S "${SRC_DIR}" -B "${TSAN_BUILD_DIR}" -DADTC_SANITIZE_THREAD=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" --target adtc_tests -j "$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      "${TSAN_BUILD_DIR}/tests/adtc_tests" --gtest_filter="${TSAN_FILTER}" \
      --gtest_brief=1
  echo "sanitize smoke (tsan): OK"
fi
echo "sanitize smoke: OK"
