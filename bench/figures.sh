#!/bin/sh
# The paper's evaluation (Section VIII, Figs 8-10) as gt_campaign grids:
# GT-TSCH against Orchestra at the default seeds, each grid written to
# OUTDIR/<name>.csv and .json next to gt_campaign's mean ±sd table on
# stdout.
#
#   bench/figures.sh GT_CAMPAIGN OUTDIR
#
# The base network is ScenarioConfig's defaults (2 DODAGs x 7 nodes,
# GT-TSCH slotframe 32, Orchestra unicast slotframe 8, 180 s warm-up,
# 300 s measured) at 120 ppm per node unless the figure sweeps the load.
# Each figure's six panels are the CSV columns pdr_percent (a),
# avg_delay_ms (b), loss_per_minute (c), duty_cycle_percent (d),
# queue_loss_per_node (e) and throughput_per_minute (f).
#
# fig8              Traffic load: 30, 75, 120 and 165 ppm per node.
# fig9              DODAG size: 6 to 9 nodes per DODAG (12 to 18 nodes).
# fig10_gt_tsch     Unicast slotframe length. By the paper's fairness rule
# fig10_orchestra   GT-TSCH's slotframe is 4x Orchestra's unicast
#                   slotframe, so GT-TSCH sweeps 32-80 where Orchestra
#                   sweeps 8-20, and row i of one CSV pairs with row i of
#                   the other. The two schedulers sweep different fields,
#                   hence two grids.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 GT_CAMPAIGN OUTDIR" >&2
  exit 2
fi
campaign=$1
out=$2
mkdir -p "$out"

echo "== fig8"
"$campaign" --quiet --out "$out/fig8" \
  --grid "scheduler=gt-tsch,orchestra;traffic_ppm=30,75,120,165"

echo "== fig9"
"$campaign" --quiet --out "$out/fig9" \
  --grid "scheduler=gt-tsch,orchestra;nodes_per_dodag=6,7,8,9" \
  --set traffic_ppm=120

echo "== fig10_gt_tsch"
"$campaign" --quiet --out "$out/fig10_gt_tsch" \
  --grid gt_slotframe_length=32,48,64,80 \
  --set "scheduler=gt-tsch;traffic_ppm=120"

echo "== fig10_orchestra"
"$campaign" --quiet --out "$out/fig10_orchestra" \
  --grid orchestra_unicast_length=8,12,16,20 \
  --set "scheduler=orchestra;traffic_ppm=120"
