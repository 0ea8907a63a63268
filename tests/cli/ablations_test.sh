#!/bin/sh
# bench/ablations.sh end to end: each grid's CSV holds its header and one
# row per grid point, and GT-TSCH's two channel_alloc rows (the
# orchestra_channel_hash axis, which GT-TSCH ignores) agree in every
# column but the label and that coordinate.
#
#   sh tests/cli/ablations_test.sh ABLATIONS_SH GT_CAMPAIGN
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

sh "$1" "$2" "$TMP"

for name in scheduler_rules channel_alloc game_params; do
  lines=$(wc -l < "$TMP/$name.csv")
  if [ "$lines" -ne 5 ]; then
    echo "FAIL: $name.csv has $lines lines, expected a header and 4 rows" >&2
    exit 1
  fi
done

# Columns: label, scheduler, orchestra_channel_hash, then the metrics.
# Rows 2 and 3 are GT-TSCH (the first axis varies slowest).
gt0=$(sed -n 2p "$TMP/channel_alloc.csv" | cut -d, -f2,4-)
gt1=$(sed -n 3p "$TMP/channel_alloc.csv" | cut -d, -f2,4-)
case "$gt0" in
  gt-tsch,*) ;;
  *) echo "FAIL: channel_alloc row 2 is not GT-TSCH: $gt0" >&2; exit 1 ;;
esac
if [ "$gt0" != "$gt1" ]; then
  echo "FAIL: GT-TSCH rows differ across orchestra_channel_hash" >&2
  echo "  $gt0" >&2
  echo "  $gt1" >&2
  exit 1
fi
echo "ablations: 3 grids x 4 points; GT-TSCH channel_alloc rows identical"
