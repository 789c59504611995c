#!/usr/bin/env bash
# End-to-end smoke of the rockhopper CLI at tiny sizes: the offline
# flight → tune → report flow over one journal, a journaled serve that
# resumes from its own chain, offline compaction plus recovery, a torn
# journal tail that the next run compacts away, a tiered-state serve, a
# loopback serve --listen → loadgen → SIGTERM → recover round trip, one
# simulation seed, and the usage errors. Run against a sanitized build
# (tools/run_sanitized_tests.sh), the tiered-state and loopback sections
# race eviction, sweeping, compaction, the event loops and the group-commit
# writer under the sanitizer.
#
# Usage: tests/cli/cli_smoke.sh path/to/rockhopper
set -euo pipefail

cli="$1"
work="$(mktemp -d)"
serve_pid=""
cleanup() {
  if [[ -n "${serve_pid}" ]]; then kill "${serve_pid}" 2> /dev/null || true; fi
  rm -rf "${work}"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# --- flight, then tune and report over one journal ---------------------
"${cli}" flight --suite=tpch --configs=2 --out="${work}/run" > /dev/null
"${cli}" tune --suite=tpch --iters=4 --model-dir="${work}/run" \
  --journal="${work}/tune.journal" > "${work}/tune.out"
grep -q "sanitizer: 88 accepted" "${work}/tune.out" ||
  fail "tune did not accept 22 x 4 observations"
"${cli}" report --journal="${work}/tune.journal" > "${work}/report.out"
grep -q "journal ${work}/tune.journal: clean" "${work}/report.out" ||
  fail "report did not print the chain status"
[[ "$(grep -c -- '--- signature' "${work}/report.out")" == 22 ]] ||
  fail "report did not print one dashboard per signature"

# --- serve twice on one journal: the second run resumes ----------------
journal="${work}/serve.journal"
"${cli}" serve --suite=tpch --threads=1 --iters=6 --journal="${journal}" \
  --metrics-format=off > "${work}/serve1.out"
"${cli}" serve --suite=tpch --threads=1 --iters=4 --journal="${journal}" \
  --metrics-format=off > "${work}/serve2.out"
grep -q "recovered 22 signatures, 132 observations" "${work}/serve2.out" ||
  fail "the second serve did not report the recovered signatures"
# Journal records are "<crc> <signature> <iteration> ...": the first
# signature's iteration field continues across the restart.
signature="$(awk 'NR == 2 { print $2 }' "${journal}")"
iterations="$(awk -v s="${signature}" '$2 == s { printf "%s ", $3 }' \
  "${journal}")"
[[ "${iterations}" == "0 1 2 3 4 5 6 7 8 9 " ]] ||
  fail "journaled iterations of ${signature} are '${iterations}'"
"${cli}" recover --suite=tpch --journal="${journal}" > "${work}/recover1.out"
[[ "$(grep -c ': 10 iterations' "${work}/recover1.out")" == 22 ]] ||
  fail "recover did not restore 10 iterations per signature"

# --- offline compaction, then recovery of the compacted chain ----------
"${cli}" checkpoint --journal="${journal}" > "${work}/checkpoint.out"
[[ -f "${journal}.checkpoint" ]] || fail "checkpoint published no image"
"${cli}" recover --suite=tpch --journal="${journal}" > "${work}/recover2.out"
grep -q "journal ${journal}: clean" "${work}/recover2.out" ||
  fail "the compacted chain does not read clean"
grep -q "recovered 22 signatures, 220 observations" "${work}/recover2.out" ||
  fail "the compacted chain lost observations"

# --- a torn live tail is compacted away before the next run appends ----
torn="${work}/torn.journal"
"${cli}" serve --suite=tpch --threads=1 --iters=2 --journal="${torn}" \
  --metrics-format=off > /dev/null
truncate -s -5 "${torn}"  # tear the last record mid-line
"${cli}" serve --suite=tpch --threads=1 --iters=2 --journal="${torn}" \
  --metrics-format=off > "${work}/torn.out"
grep -q "recovered 22 signatures, 43 observations (1 dropped" \
  "${work}/torn.out" || fail "the torn record was not reported"
"${cli}" recover --suite=tpch --journal="${torn}" > "${work}/recover3.out"
grep -q "journal ${torn}: clean" "${work}/recover3.out" ||
  fail "the torn tail was not compacted away"
grep -q "recovered 22 signatures, 87 observations" "${work}/recover3.out" ||
  fail "records appended after a torn tail were lost"

# --- tiered state: eviction, idle sweeps, online and offline compaction -
# A multi-threaded serve with an eviction budget tight enough to churn the
# clock hand, a 5 ms idle sweeper and periodic checkpoints, then an offline
# checkpoint and a recovery of the resulting chain.
state="${work}/state"
mkdir -p "${state}"
"${cli}" serve --threads=8 --iters=12 --journal="${state}/smoke.journal" \
  --state-dir="${state}/store" --memory-budget=65536 \
  --checkpoint-interval=50 --idle-ttl=2 --sweep-interval-ms=5 \
  > "${work}/state_serve.out"
grep -q "^state tier: .* evictions" "${work}/state_serve.out" ||
  fail "the budgeted serve printed no state-tier report"
"${cli}" checkpoint --journal="${state}/smoke.journal" > /dev/null
"${cli}" recover --suite=tpcds --journal="${state}/smoke.journal" \
  > "${work}/state_recover.out"
accepted="$(sed -n 's/^sanitizer: \([0-9]*\) accepted.*/\1/p' \
  "${work}/state_serve.out")"
grep -q "recovered [0-9]* signatures, ${accepted} observations" \
  "${work}/state_recover.out" ||
  fail "the tiered chain does not recover the ${accepted} accepted"
# The same shape with no budget: the tier every service has (no cold
# store) checkpoints by its delta policy while 8 threads release states
# through the sizing path, and lazy recovery runs without a budget.
"${cli}" serve --threads=8 --iters=12 --journal="${state}/default.journal" \
  --checkpoint-interval=50 > /dev/null
"${cli}" recover --suite=tpcds --journal="${state}/default.journal" \
  --lazy-recovery=true > /dev/null

# --- loopback serve --listen -> loadgen -> SIGTERM -> recover ----------
# A real epoll server with two I/O threads takes loopback traffic from a
# multi-threaded loadgen (closed-loop workers plus an open-loop noisy
# tenant hammering the token buckets), compacts online, and drains on
# SIGTERM. The chain it leaves must recover every observation its exit
# report accepted.
net="${work}/net"
mkdir -p "${net}"
"${cli}" serve --listen=127.0.0.1:0 --io-threads=2 \
  --journal="${net}/serve.journal" --tenant-rate=500 \
  --checkpoint-interval=500 --metrics-format=off > "${net}/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "${net}/serve.log" | head -1)"
  [[ -n "${port}" ]] && break
  kill -0 "${serve_pid}" 2> /dev/null ||
    fail "serve --listen died during startup: $(cat "${net}/serve.log")"
  sleep 0.1
done
[[ -n "${port}" ]] || fail "serve --listen never bound"
"${cli}" loadgen --host=127.0.0.1 --port="${port}" --tenants=2 \
  --concurrency=2 --noisy-rate=2000 --duration-s=3 --propose-fraction=0.05 \
  --json=true > "${net}/loadgen.json"
kill -TERM "${serve_pid}"
status=0
wait "${serve_pid}" || status=$?
serve_pid=""
[[ "${status}" == 0 ]] ||
  fail "serve --listen exited ${status}: $(cat "${net}/serve.log")"
[[ -f "${net}/serve.journal.checkpoint" ]] ||
  fail "serve --checkpoint-interval published no checkpoint"
accepted="$(sed -n 's/^sanitizer: \([0-9]*\) accepted.*/\1/p' \
  "${net}/serve.log")"
[[ -n "${accepted}" ]] || fail "serve --listen printed no exit report"
"${cli}" recover --suite=tpcds --journal="${net}/serve.journal" \
  > "${net}/recover.log"
grep -q "recovered [0-9]* signatures, ${accepted} observations" \
  "${net}/recover.log" ||
  fail "recovery does not restore the ${accepted} accepted observations"

# --- one simulation seed -----------------------------------------------
"${cli}" simulate --seed=1 --scratch="${work}/sim" > "${work}/simulate.out"

# --- usage errors exit 2 -----------------------------------------------
expect_usage_error() {
  local status=0
  "${cli}" "$@" > /dev/null 2>&1 || status=$?
  [[ "${status}" == 2 ]] || fail "'$*' exited ${status}, want 2"
}
expect_usage_error serve --suite=nope
expect_usage_error chaos
expect_usage_error metrics

echo "cli smoke: ok"
