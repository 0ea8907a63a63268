#!/bin/sh
# CLI contract tests for gt_campaign, run by ctest (see CMakeLists.txt):
#   * every spec-validation error exits 2 and names the offending key
#   * stray positionals are usage errors, not silently-ignored typos
#   * the shard -> journal -> merge round trip reproduces the unsharded
#     CSV byte for byte
# Usage: gt_campaign_cli_test.sh /path/to/gt_campaign
set -u

BIN=$1
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

expect_exit 0 "--help" --help
expect_exit 0 "--list-fields" --list-fields
expect_exit 0 "--list-metrics" --list-metrics

expect_exit 2 "unknown --set key" --set warp_factor=9
expect_stderr "warp_factor" "unknown --set key"
expect_exit 2 "duplicate --set key" --set "alpha=1;alpha=2"
expect_stderr "alpha" "duplicate --set key"
expect_exit 2 "unparseable --set value" --set traffic_ppm=fast
expect_stderr "traffic_ppm" "unparseable --set value"
expect_exit 2 "out-of-range --grid value" --grid link_prr=0.5,1.5
expect_stderr "link_prr" "out-of-range --grid value"
expect_exit 2 "NaN seconds value" validate --set warmup_s=nan
expect_stderr "warmup_s" "NaN seconds value"
expect_exit 2 "malformed --grid" --grid "=30"
expect_exit 2 "duplicate seeds" --seeds 1,2,1
expect_exit 2 "bad shard" --shard 3/2
expect_stderr "out of range" "bad shard"
expect_exit 2 "bad metric" --ci-rel 0.1 --metric warp_speed
expect_stderr "warp_speed" "bad metric"
expect_exit 2 "metric without --ci-rel" --metric pdr_percent
expect_stderr "ci-rel" "metric without --ci-rel"
expect_exit 2 "bad ci-rel" --ci-rel -0.5
for bad in 0.5abc inf nan 0; do
    expect_exit 2 "--ci-rel $bad" --ci-rel $bad
    expect_stderr "ci-rel" "--ci-rel $bad"
done
expect_exit 2 "stray positional" frobnicate
expect_stderr "frobnicate" "stray positional"
expect_exit 2 "unknown flag" --frobnicate 1
expect_exit 2 "merge without journals" merge
expect_exit 2 "merge with missing journal" merge "$TMP/nope.jsonl"
expect_exit 2 "resume without path" --resume
expect_exit 2 "journal without path" --journal
expect_stderr "journal path" "journal without path"
expect_exit 2 "adaptive flag without --ci-rel" --max-seeds 50
expect_stderr "ci-rel" "adaptive flag without --ci-rel"
expect_exit 2 "negative max-seeds" --ci-rel 0.1 --max-seeds -1
expect_stderr "max-seeds" "negative max-seeds"
expect_exit 2 "non-numeric min-seeds" --ci-rel 0.1 --min-seeds abc
expect_stderr "min-seeds" "non-numeric min-seeds"
expect_exit 2 "non-numeric jobs" --jobs many
expect_stderr "jobs" "non-numeric jobs"
# Telemetry periods become whole microseconds: NaN, infinite and sub-µs
# values would reach an undefined cast or truncate to 0 ("no samples").
TELE="--set dodag_count=1;nodes_per_dodag=3;warmup_s=20;measure_s=10 --seeds 1 --jobs 1 --quiet --telemetry-dir $TMP/tele"
for bad in nan inf 1e-7 abc; do
    for flag in telemetry-period telemetry-probe-period; do
        expect_exit 2 "--$flag $bad" $TELE --$flag $bad
        expect_stderr "$flag" "--$flag $bad"
    done
done
for bad in abc -1 2147483648; do
    expect_exit 2 "--telemetry-probes $bad" $TELE --telemetry-probes $bad
    expect_stderr "telemetry-probes" "--telemetry-probes $bad"
done

# Runtime I/O failures are exit 1, not the usage code 2.
expect_exit 1 "unwritable journal" --grid traffic_ppm=30 --seeds 1 --quiet \
    --set "dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30" \
    --journal "$TMP/no/such/dir/j.jsonl"

# Functional round trip on a deliberately tiny scenario.
COMMON="--grid traffic_ppm=30,120 --seeds 1,2 --quiet"
SET="dodag_count=1;nodes_per_dodag=4;warmup_s=30;measure_s=30"
expect_exit 0 "unsharded run" $COMMON --set "$SET" --out "$TMP/full"
expect_exit 0 "shard 0/2" $COMMON --set "$SET" --shard 0/2 --journal "$TMP/s0.jsonl"
expect_exit 0 "shard 1/2" $COMMON --set "$SET" --shard 1/2 --journal "$TMP/s1.jsonl"
expect_exit 0 "merge shards" merge --out "$TMP/merged" "$TMP/s0.jsonl" "$TMP/s1.jsonl"
if ! cmp -s "$TMP/full.csv" "$TMP/merged.csv"; then
    echo "FAIL: merged shard CSV differs from unsharded CSV" >&2
    fails=$((fails + 1))
fi

# Merging journals from two different campaigns is rejected, not averaged.
expect_exit 0 "journal A" --grid traffic_ppm=30 --seeds 1 --quiet \
    --set "$SET" --journal "$TMP/ja.jsonl"
expect_exit 0 "journal B" --grid traffic_ppm=120 --seeds 2 --quiet \
    --set "$SET" --journal "$TMP/jb.jsonl"
expect_exit 2 "merge of mixed campaigns" merge "$TMP/ja.jsonl" "$TMP/jb.jsonl"
expect_stderr "different campaigns" "merge of mixed campaigns"
# ... and concatenating them into ONE file must not sneak past that check.
cat "$TMP/ja.jsonl" "$TMP/jb.jsonl" > "$TMP/jab.jsonl"
expect_exit 2 "merge of concatenated mixed campaigns" merge "$TMP/jab.jsonl"
expect_stderr "disagree" "merge of concatenated mixed campaigns"

# Same grid + seeds over a different --set base config: labels and seeds
# agree, so only the campaign fingerprint tells the journals apart.
expect_exit 0 "journal C (different base)" --grid traffic_ppm=30 --seeds 1 --quiet \
    --set "dodag_count=1;nodes_per_dodag=5;warmup_s=30;measure_s=30" \
    --journal "$TMP/jc.jsonl"
expect_exit 2 "merge of different base configs" merge "$TMP/ja.jsonl" "$TMP/jc.jsonl"
expect_stderr "different campaigns" "merge of different base configs"

# Resume finds every job in the journal and re-runs nothing (instant).
expect_exit 0 "full-journal resume" $COMMON --set "$SET" --resume "$TMP/s0.jsonl" --shard 0/2
expect_stderr "resumed: 2 jobs from journal, 0 run now" "full-journal resume"

if [ "$fails" -ne 0 ]; then
    echo "$fails CLI check(s) failed" >&2
    exit 1
fi
echo "all CLI checks passed"
