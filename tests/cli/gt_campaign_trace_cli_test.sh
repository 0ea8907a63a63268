#!/bin/sh
# Golden CLI contract for trace-axis campaigns, run by ctest:
#   * sweeping a trace axis with --shard 2 + merge stays byte-identical
#     to the unsharded run
#   * resuming a trace campaign against a journal from a different
#     trace_seed is rejected by the campaign fingerprint (exit 2)
#   * the committed example trace files run end to end (the crashloop one
#     filling the recovery_* report columns), and malformed trace files
#     fail the spec naming the offending line
#   * `gt_campaign validate` vets every grid point's trace without
#     simulating: exit 0 when sound, exit 2 naming the offender otherwise
# Usage: gt_campaign_trace_cli_test.sh /path/to/gt_campaign example.trace crashloop.trace
set -u

BIN=$1
EXAMPLE_TRACE=$2
CRASHLOOP_TRACE=$3
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

# expect_exit <expected-code> <label> [args...]
expect_exit() {
    expected=$1; label=$2; shift 2
    "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
    actual=$?
    if [ "$actual" -ne "$expected" ]; then
        echo "FAIL: $label: exit $actual, expected $expected" >&2
        cat "$TMP/err" >&2
        fails=$((fails + 1))
    fi
}

# expect_stderr <substring> <label>  (checks the previous command's stderr)
expect_stderr() {
    if ! grep -q "$1" "$TMP/err"; then
        echo "FAIL: $2: stderr does not mention '$1'" >&2
        cat "$TMP/err" >&2
        fails=$((fails + 1))
    fi
}

# The sweepable surface includes every trace field.
expect_exit 0 "--list-fields" --list-fields
for field in trace trace_kind trace_seed trace_movers trace_speed_mps \
             trace_interval_s trace_fail_count trace_fail_at_s \
             trace_down_s trace_cycle_s; do
    if ! grep -qx "$field" "$TMP/out"; then
        echo "FAIL: --list-fields does not list $field" >&2
        fails=$((fails + 1))
    fi
done

# Bad trace values are usage errors naming the offender.
expect_exit 2 "unknown trace_kind" --set trace_kind=teleport-only
expect_stderr "trace_kind" "unknown trace_kind"
expect_exit 2 "missing trace file" --set "trace_kind=file;trace=$TMP/nope.trace"
expect_stderr "nope.trace" "missing trace file"
expect_exit 2 "file kind without path" --set "trace_kind=file"
expect_stderr "trace=PATH" "file kind without path"
# A path under any other kind would be ignored by the run: a spec error.
expect_exit 2 "path without file kind" --quiet --seeds 1 \
    --set "trace=$EXAMPLE_TRACE;dodag_count=1;nodes_per_dodag=5"
expect_stderr "trace=PATH requires trace_kind=file" "path without file kind"
expect_exit 2 "validate path without file kind" validate --seeds 1 \
    --set "trace=$EXAMPLE_TRACE;trace_kind=crashloop"
expect_stderr "trace=PATH requires trace_kind=file" "validate path without file kind"
expect_exit 2 "zero trace interval" --grid trace_interval_s=0,2
expect_stderr "trace_interval_s" "zero trace interval"

# A malformed trace file fails the spec with the offending line number.
printf '10 move 2 5 5\n9 wiggle 2\n' > "$TMP/bad.trace"
expect_exit 2 "malformed trace file" --set "trace_kind=file;trace=$TMP/bad.trace"
expect_stderr "line 2" "malformed trace file"

# A trace addressing nodes the topology lacks is caught per grid point,
# before any simulation runs.
printf '10 move 99 5 5\n' > "$TMP/ghost.trace"
expect_exit 2 "trace with unknown node" --quiet --seeds 1 \
    --set "dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30;trace_kind=file;trace=$TMP/ghost.trace"
expect_stderr "unknown node id 99" "trace with unknown node"

# `validate` vets the whole sweep's traces without running a single slot.
expect_exit 0 "validate sound crashloop grid" validate --seeds 1,2 \
    --grid trace_down_s=20,40 \
    --set "trace_kind=crashloop;trace_cycle_s=90;warmup_s=30;measure_s=60"
if ! grep -q "^validate: 2 points x 2 seeds OK" "$TMP/out"; then
    echo "FAIL: validate did not report the point/seed count" >&2
    cat "$TMP/out" >&2
    fails=$((fails + 1))
fi
expect_exit 2 "validate rejects bad crashloop params" validate \
    --set "trace_kind=crashloop;trace_down_s=200;trace_cycle_s=100"
expect_stderr "trace_cycle_s must exceed trace_down_s" \
    "validate rejects bad crashloop params"
printf '10 fail 2\n10 revive 2\n' > "$TMP/twice.trace"
expect_exit 2 "validate names the offending line" validate \
    --set "trace_kind=file;trace=$TMP/twice.trace"
expect_stderr "line 2" "validate names the offending line"
expect_stderr "strictly after" "validate names the offending line"

# Trace-axis sweep: shard 2 + merge is byte-identical to the unsharded run.
GRID="trace_kind=none,random-walk"
SET="dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30;trace_movers=2;trace_speed_mps=3;trace_interval_s=5;trace_seed=7"
COMMON="--grid $GRID --seeds 1,2 --quiet"
expect_exit 0 "unsharded trace sweep" $COMMON --set "$SET" --out "$TMP/full"
expect_exit 0 "trace shard 0/2" $COMMON --set "$SET" --shard 0/2 --journal "$TMP/s0.jsonl"
expect_exit 0 "trace shard 1/2" $COMMON --set "$SET" --shard 1/2 --journal "$TMP/s1.jsonl"
expect_exit 0 "merge trace shards" merge --out "$TMP/merged" "$TMP/s0.jsonl" "$TMP/s1.jsonl"
if ! cmp -s "$TMP/full.csv" "$TMP/merged.csv"; then
    echo "FAIL: merged trace-shard CSV differs from unsharded CSV" >&2
    fails=$((fails + 1))
fi

# Resuming against a journal from a different trace_seed: labels, grid and
# seeds all agree — only the campaign fingerprint (which covers every
# trace field) can tell them apart. It must refuse.
SET8=$(printf '%s' "$SET" | sed 's/trace_seed=7/trace_seed=8/')
expect_exit 2 "resume across trace_seed" $COMMON --set "$SET8" --shard 0/2 \
    --resume "$TMP/s0.jsonl"
expect_stderr "does not match this campaign" "resume across trace_seed"
# Same refusal for merging the two seeds' journals together.
expect_exit 0 "trace_seed=8 journal" $COMMON --set "$SET8" --shard 0/2 \
    --journal "$TMP/s8.jsonl"
expect_exit 2 "merge across trace_seed" merge "$TMP/s0.jsonl" "$TMP/s8.jsonl"
expect_stderr "different campaigns" "merge across trace_seed"

# Editing a trace *file* between runs is caught too: the fingerprint
# hashes the file's canonical content, not just its path.
printf '35 move 2 10 10\n' > "$TMP/evolving.trace"
FSET="dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30;trace_kind=file;trace=$TMP/evolving.trace"
expect_exit 0 "trace-file journal" --seeds 1 --quiet --set "$FSET" --journal "$TMP/file.jsonl"
printf '35 move 2 11 10\n' > "$TMP/evolving.trace"
expect_exit 2 "resume after trace file edit" --seeds 1 --quiet --set "$FSET" \
    --resume "$TMP/file.jsonl"
expect_stderr "does not match this campaign" "resume after trace file edit"

# Resume with the matching trace_seed finds every job and re-runs nothing.
expect_exit 0 "matching resume" $COMMON --set "$SET" --shard 0/2 --resume "$TMP/s0.jsonl"
expect_stderr "resumed: 2 jobs from journal, 0 run now" "matching resume"

# The committed example trace file runs end to end on its documented
# scenario (1x7 DODAG; ids 1..7).
expect_exit 0 "example trace file" --quiet --seeds 1 \
    --set "dodag_count=1;nodes_per_dodag=7;warmup_s=30;measure_s=30;trace_kind=file;trace=$EXAMPLE_TRACE"

# The committed crashloop example fills the recovery columns: both crashed
# leaves reboot and rejoin, so node_rejoins >= 1 and the rejoin latency is
# a real number, not a blank.
expect_exit 0 "crashloop example trace" --quiet --seeds 1 \
    --set "dodag_count=1;nodes_per_dodag=7;warmup_s=40;measure_s=80;trace_kind=file;trace=$CRASHLOOP_TRACE" \
    --out "$TMP/crash"
for col in recovery_rejoin_s_mean recovery_ttr_s_mean node_rejoins; do
    if ! head -1 "$TMP/crash.csv" | tr ',' '\n' | grep -qx "$col"; then
        echo "FAIL: crashloop report lacks column $col" >&2
        fails=$((fails + 1))
    fi
done
rejoins=$(awk -F, 'NR==1 { for (i = 1; i <= NF; i++) if ($i == "node_rejoins") c = i }
                   NR==2 { print $c }' "$TMP/crash.csv")
if [ "${rejoins:-0}" -lt 1 ]; then
    echo "FAIL: crashloop example recorded no rejoins (got '${rejoins:-}')" >&2
    fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
    echo "$fails trace CLI check(s) failed" >&2
    exit 1
fi
echo "all trace CLI checks passed"
