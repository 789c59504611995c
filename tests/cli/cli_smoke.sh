#!/usr/bin/env bash
# End-to-end smoke of the rockhopper CLI at tiny sizes: the offline
# flight → tune → report flow over one journal, a journaled serve that
# resumes from its own chain, offline compaction plus recovery, a torn
# journal tail that the next run compacts away, one simulation seed, and
# the usage errors.
#
# Usage: tests/cli/cli_smoke.sh path/to/rockhopper
set -euo pipefail

cli="$1"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

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
