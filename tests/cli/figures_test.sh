#!/bin/sh
# One of the paper's Figs 8-10 from bench/figures.sh's output: the shapes
# this simulator reproduces, read from the grids' CSVs by column name.
#
#   * fig8 and fig9 hold 8 rows (2 schedulers x 4 points), each fig10 CSV 4.
#   * GT-TSCH delivers: pdr_percent_mean >= 99 at every point.
#   * Orchestra is separated from GT-TSCH: Orchestra's pdr_percent_mean +
#     ci95 is below GT-TSCH's mean - ci95, so the two 95% confidence
#     intervals do not overlap. This holds from 75 ppm up in Fig 8 (at
#     30 ppm both deliver nearly everything) and at every point of Figs 9
#     and 10, where Fig 10 pairs GT-TSCH's slotframe 4L with Orchestra's
#     unicast slotframe L.
#
# Each failure names the figure and the point.
#
#   sh bench/figures.sh GT_CAMPAIGN OUTDIR
#   sh tests/cli/figures_test.sh OUTDIR FIGURE     # FIGURE: 8, 9 or 10
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 OUTDIR FIGURE" >&2
  exit 2
fi
dir=$1
fig=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# rows CSV SCHEDULER AXIS DIVISOR: one "figure scheduler point mean ci95"
# line per CSV row. SCHEDULER empty reads the scheduler column; the point
# is the AXIS column divided by DIVISOR. Exits 1 on a missing column.
rows() {
  awk -F, -v fig="$fig" -v sched="$2" -v axis="$3" -v div="$4" '
    NR == 1 {
      for (i = 1; i <= NF; i++) col[$i] = i
      n = split("pdr_percent_mean pdr_percent_ci95 " axis \
                (sched == "" ? " scheduler" : ""), need, " ")
      for (i = 1; i <= n; i++) {
        if (!(need[i] in col)) {
          printf "FAIL: Fig %s: no column %s in %s\n", fig, need[i], FILENAME > "/dev/stderr"
          exit 1
        }
      }
      next
    }
    {
      s = sched == "" ? $col["scheduler"] : sched
      print fig, s, $col[axis] / div, $col["pdr_percent_mean"], $col["pdr_percent_ci95"]
    }' "$1"
}

# count CSV EXPECTED: the CSV holds a header and EXPECTED rows.
count() {
  if [ ! -f "$1" ]; then
    echo "FAIL: Fig $fig: no $1" >&2
    exit 1
  fi
  n=$(($(wc -l < "$1") - 1))
  if [ "$n" -ne "$2" ]; then
    echo "FAIL: Fig $fig: $(basename "$1") has $n rows, expected $2" >&2
    exit 1
  fi
}

case $fig in
  8)
    count "$dir/fig8.csv" 8
    rows "$dir/fig8.csv" "" traffic_ppm 1 > "$TMP/points" ;;
  9)
    count "$dir/fig9.csv" 8
    rows "$dir/fig9.csv" "" nodes_per_dodag 1 > "$TMP/points" ;;
  10)
    count "$dir/fig10_gt_tsch.csv" 4
    count "$dir/fig10_orchestra.csv" 4
    {
      rows "$dir/fig10_gt_tsch.csv" gt-tsch gt_slotframe_length 4
      rows "$dir/fig10_orchestra.csv" orchestra orchestra_unicast_length 1
    } > "$TMP/points" ;;
  *)
    echo "usage: $0 OUTDIR FIGURE (FIGURE is 8, 9 or 10)" >&2
    exit 2 ;;
esac

awk '
  BEGIN {
    axis[8] = "traffic_ppm"
    axis[9] = "nodes_per_dodag"
    axis[10] = "orchestra_unicast_length"
    separate_from[8] = 75
  }
  {
    key = $1 SUBSEP $3
    where = "Fig " $1 " at " axis[$1] "=" $3
    if ($1 == 10) where = where " (gt_slotframe_length=" 4 * $3 ")"
    name[key] = where
    if ($2 == "gt-tsch") {
      gt_mean[key] = $4; gt_ci[key] = $5
      if ($4 < 99) {
        printf "FAIL: %s: GT-TSCH pdr_percent_mean %s < 99\n", where, $4
        failed = 1
      }
    } else if ($2 == "orchestra") {
      or_mean[key] = $4; or_ci[key] = $5
    }
  }
  END {
    for (key in name) {
      if (!(key in gt_mean) || !(key in or_mean)) {
        printf "FAIL: %s: missing the GT-TSCH or the Orchestra row\n", name[key]
        failed = 1
        continue
      }
      split(key, part, SUBSEP)
      if (part[2] + 0 < separate_from[part[1]] + 0) continue
      if (!(or_mean[key] + or_ci[key] < gt_mean[key] - gt_ci[key])) {
        printf "FAIL: %s: Orchestra pdr_percent %s +%s is not below GT-TSCH %s -%s\n",
               name[key], or_mean[key], or_ci[key], gt_mean[key], gt_ci[key]
        failed = 1
      }
    }
    exit failed
  }' "$TMP/points" >&2

echo "Fig $fig: $(wc -l < "$TMP/points") rows; GT-TSCH PDR >= 99% and separated from Orchestra"
