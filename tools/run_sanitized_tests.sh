#!/usr/bin/env bash
# Configures, builds, and runs the full test suite under a sanitizer build
# (the ROCKHOPPER_SANITIZE option). Each sanitizer uses its own build
# directory so the regular build stays untouched.
#
# Usage: tools/run_sanitized_tests.sh [asan|tsan] [ctest-args...]
#   asan (default): AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan:           ThreadSanitizer — exercises the sharded service, the
#                   striped stores, the group-commit journal writer, the
#                   ThreadPool / experiment-runner tests (shutdown under
#                   load, concurrent ParallelFor, parallel arms), the
#                   QueryPlan stats cache's CAS publication, and the
#                   epoll front end (multi-thread event loop, session
#                   batching, admission sampling) via the serve → loadgen
#                   loopback section of the cli_smoke test
#
# The suite includes cli_smoke (tests/cli/cli_smoke.sh), so the sanitized
# CLI also runs its tiered-state serve (eviction, idle sweeps, online and
# offline compaction, recovery) and its loopback serve --listen → loadgen
# → SIGTERM → recover round trip.
#
# Sanitized builds compile with -DROCKHOPPER_SIM=ON so the Buggify fault
# sections (src/sim/buggify.h) are live: the suite's sim tests and the
# closing `rockhopper simulate` smoke sweep drive the injected journal /
# model-store / pipeline failure paths under the sanitizer.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="asan"
if [[ $# -gt 0 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  mode="$1"
  shift
fi

case "${mode}" in
  asan)
    build_dir="${ROCKHOPPER_SANITIZE_BUILD_DIR:-${repo_root}/build-asan}"
    sanitize_value="address"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    ;;
  tsan)
    build_dir="${ROCKHOPPER_SANITIZE_BUILD_DIR:-${repo_root}/build-tsan}"
    sanitize_value="thread"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
    ;;
esac

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DROCKHOPPER_SANITIZE="${sanitize_value}" \
  -DROCKHOPPER_SIM=ON \
  -DROCKHOPPER_BUILD_BENCHMARKS=OFF \
  -DROCKHOPPER_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"

# Transfer-tier smoke under the sanitizer: the HNSW build/search suite and
# the tier facade, rerun explicitly so the 8-thread concurrent
# insert+search test (TransferIndexTest.ConcurrentRegisterAndSearchIsSafe)
# is visibly part of the gate — it must be clean under TSan in particular.
echo "== ${mode}: transfer-tier HNSW build/search + concurrency =="
"${build_dir}/tests/rockhopper_ml_test" --gtest_filter='HnswIndexTest.*'
"${build_dir}/tests/rockhopper_core_test" \
  --gtest_filter='TransferIndexTest.*:TransferServiceTest.*'

# Simulation smoke sweep under the sanitizer: a handful of Buggify-armed
# whole-service runs (crash, torn tail, recovery) with every injected fault
# section live.
echo "== ${mode}: rockhopper simulate smoke sweep =="
"${build_dir}/tools/rockhopper" simulate --seeds=1..5 \
  --scratch="${build_dir}/sim-scratch"
