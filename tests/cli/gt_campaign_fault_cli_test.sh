#!/bin/sh
# Fault-tolerance contract tests for gt_campaign, run by ctest:
#   * chaos campaign (one crashing point, one hanging point) finishes,
#     quarantines exactly the sick jobs, journals their status, reports
#     failed_jobs per point, and exits 3
#   * --isolate results for healthy jobs are byte-identical to a
#     non-isolated --jobs 1 run (CSV and journal)
#   * --resume skips quarantined records; --resume --retry-quarantined
#     re-runs exactly the failed jobs
#   * first SIGINT drains in-flight work, writes artifacts, exits 130
# Usage: gt_campaign_fault_cli_test.sh /path/to/gt_campaign
set -u

BIN=$1
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

fail() {
    echo "FAIL: $1" >&2
    [ -f "$TMP/err" ] && cat "$TMP/err" >&2
    fails=$((fails + 1))
}

# expect_exit <expected-code> <label> [args...]
expect_exit() {
    expected=$1; label=$2; shift 2
    "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
    actual=$?
    if [ "$actual" -ne "$expected" ]; then
        fail "$label: exit $actual, expected $expected"
    fi
}

SET="dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30"
COMMON="--grid traffic_ppm=30,120 --seeds 1,2 --quiet --set"

# ---- flag grammar ---------------------------------------------------------
expect_exit 2 "bad --job-timeout" $COMMON "$SET" --job-timeout 0
expect_exit 2 "negative --retries" $COMMON "$SET" --isolate --retries -1
expect_exit 2 "--retries without --isolate" $COMMON "$SET" --retries 2
expect_exit 2 "--job-timeout without --isolate" $COMMON "$SET" --job-timeout 5
# The child's deadline is a steady-clock instant: NaN, infinite, huge or
# sub-millisecond budgets are usage errors, not an undefined cast.
for bad in nan inf 1e300 1e-7 abc; do
    expect_exit 2 "--job-timeout $bad" $COMMON "$SET" --isolate --job-timeout $bad
    grep -q "job-timeout" "$TMP/err" || fail "--job-timeout $bad: stderr does not name the flag"
done
expect_exit 2 "--retry-quarantined without --resume" \
    $COMMON "$SET" --retry-quarantined
expect_exit 2 "--isolate with --telemetry-dir" \
    $COMMON "$SET" --isolate --telemetry-dir "$TMP/tele"

# ---- isolate byte-identity ------------------------------------------------
# Every field kind crosses the exec boundary off its default: the grid
# sweeps two scheduler aliases (the GT-TSCH point reads the bool, the
# e-MSF point moves the scheduler off its default), and --set moves the
# topology enum, an int, a double, a u16, a size, a bool, seconds, an
# exact-u64 seed and a generator trace kind. The load overflows the small
# queue, so dropping any of them from the envelope changes the results.
ISO="--grid scheduler=gt,e-msf --seeds 1,2 --quiet --jobs 1 --set"
ISO_SET="topology=line;topology_nodes=5;hop_distance=35;gt_slotframe_length=16"
ISO_SET="$ISO_SET;emsf_slotframe_length=16;queue_capacity=2;enforce_tx_margin=off"
ISO_SET="$ISO_SET;traffic_ppm=120;warmup_s=60.5;measure_s=30;trace_kind=random-walk"
ISO_SET="$ISO_SET;trace_seed=7;trace_movers=2;trace_speed_mps=3;trace_interval_s=5"
expect_exit 0 "plain run" $ISO "$ISO_SET" \
    --journal "$TMP/plain.jsonl" --out "$TMP/plain"
expect_exit 0 "isolated run" $ISO "$ISO_SET" --isolate \
    --journal "$TMP/iso.jsonl" --out "$TMP/iso"
cmp -s "$TMP/plain.csv" "$TMP/iso.csv" || fail "isolated CSV differs from plain CSV"
cmp -s "$TMP/plain.jsonl" "$TMP/iso.jsonl" || fail "isolated journal differs from plain journal"

# ---- chaos campaign -------------------------------------------------------
# traffic_ppm=30 crashes (SIGABRT) in the child; traffic_ppm=120 hangs and
# is SIGKILLed by the 2 s watchdog. Healthy points still complete.
CHAOS_GRID="--grid traffic_ppm=30,75,120 --seeds 1,2 --quiet --set"
GTTSCH_CHAOS_POINT="traffic_ppm=30:crash" \
    "$BIN" $CHAOS_GRID "$SET" --jobs 2 --isolate --job-timeout 30 \
    --journal "$TMP/chaos.jsonl" --out "$TMP/chaos" >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 3 ] || fail "chaos crash campaign: exit $code, expected 3"
grep -q '"status": "crashed"' "$TMP/chaos.jsonl" || fail "journal lacks crashed records"
grep -q '"attempts": ' "$TMP/chaos.jsonl" || fail "journal lacks attempt counts"
head -1 "$TMP/chaos.csv" | grep -q ",status,failed_jobs,failure_kinds," \
    || fail "CSV header lacks failure columns"
grep "^traffic_ppm=30," "$TMP/chaos.csv" | grep -q ",failed,2,crashed:2," \
    || fail "CSV lacks the all-failed point row"
grep "^traffic_ppm=75," "$TMP/chaos.csv" | grep -q ",ok,0,," \
    || fail "CSV lacks the healthy point row"
grep -q '"status": "failed"' "$TMP/chaos.json" || fail "JSON lacks status=failed"
grep -q '"failed_jobs": 2' "$TMP/chaos.json" || fail "JSON lacks failed_jobs"
grep -q "quarantined" "$TMP/err" || fail "no failure summary on stderr"

# Hanging jobs: a 2 s timeout SIGKILLs the sleeping child -> timeout records.
GTTSCH_CHAOS_POINT="traffic_ppm=75:hang" \
    "$BIN" $CHAOS_GRID "$SET" --jobs 2 --isolate --job-timeout 2 \
    --journal "$TMP/hang.jsonl" --out "$TMP/hang" >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 3 ] || fail "chaos hang campaign: exit $code, expected 3"
grep -q '"status": "timeout"' "$TMP/hang.jsonl" || fail "journal lacks timeout records"
grep "^traffic_ppm=75," "$TMP/hang.csv" | grep -q ",failed,2,timeout:2," \
    || fail "CSV lacks the timed-out point row"

# ---- resume semantics -----------------------------------------------------
# Plain resume: quarantined stays quarantined, zero jobs run, still exit 3.
"$BIN" $CHAOS_GRID "$SET" --jobs 1 --isolate --job-timeout 30 \
    --resume "$TMP/chaos.jsonl" >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 3 ] || fail "quarantined resume: exit $code, expected 3"
grep -q "resumed: 6 jobs from journal, 0 run now" "$TMP/err" \
    || fail "quarantined resume re-ran jobs"

# --retry-quarantined with the chaos hook cleared: exactly the 2 failed
# jobs re-run, succeed, and the campaign is clean (exit 0).
"$BIN" $CHAOS_GRID "$SET" --jobs 1 --isolate --job-timeout 30 \
    --resume "$TMP/chaos.jsonl" --retry-quarantined >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 0 ] || fail "retry-quarantined: exit $code, expected 0"
grep -q "resumed: 4 jobs from journal, 2 run now" "$TMP/err" \
    || fail "retry-quarantined did not re-run exactly the failed jobs"

# A further resume sees the ok re-runs (they supersede the quarantine).
"$BIN" $CHAOS_GRID "$SET" --jobs 1 --isolate --job-timeout 30 \
    --resume "$TMP/chaos.jsonl" >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 0 ] || fail "post-retry resume: exit $code, expected 0"
grep -q "resumed: 6 jobs from journal, 0 run now" "$TMP/err" \
    || fail "post-retry resume re-ran jobs"

# merge surfaces quarantined records with exit 3 too.
"$BIN" merge --out "$TMP/hangmerge" "$TMP/hang.jsonl" >"$TMP/out" 2>"$TMP/err"
code=$?
[ "$code" -eq 3 ] || fail "merge of quarantined journal: exit $code, expected 3"

# ---- SIGINT ---------------------------------------------------------------
# Hanging isolated jobs with a 3 s per-job timeout: SIGINT lands while the
# first job hangs; that in-flight job drains via its own timeout, no new
# job starts, artifacts are written, exit 130 (which outranks exit 3).
GTTSCH_CHAOS_POINT="traffic_ppm=30:hang" \
    "$BIN" --grid traffic_ppm=30 --seeds 1,2,3,4 --quiet --set "$SET" \
    --jobs 1 --isolate --job-timeout 3 \
    --journal "$TMP/int.jsonl" --out "$TMP/int" >"$TMP/out" 2>"$TMP/err" &
pid=$!
sleep 1
kill -INT "$pid"
wait "$pid"
code=$?
if [ "$code" -ne 130 ]; then
    fail "SIGINT: exit $code, expected 130"
else
    [ -f "$TMP/int.csv" ] || fail "SIGINT: partial artifacts not written"
    grep -q "interrupted" "$TMP/err" || fail "SIGINT: no interrupt notice"
fi

if [ "$fails" -ne 0 ]; then
    echo "$fails fault CLI check(s) failed" >&2
    exit 1
fi
echo "all fault CLI checks passed"
