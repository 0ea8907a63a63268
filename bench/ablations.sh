#!/bin/sh
# The GT-TSCH ablations as gt_campaign grids. Each grid runs at the bench
# seeds and writes OUTDIR/<name>.csv and .json next to gt_campaign's
# mean ±sd table on stdout.
#
#   bench/ablations.sh GT_CAMPAIGN OUTDIR
#
# scheduler_rules  Section V placement rules: GT-TSCH with the Tx>Rx margin
#                  and the Rx interleaving each switched off (2 DODAGs x 9
#                  nodes, 165 ppm, queue capacity 4 so bursts overflow).
#                  Compare pdr_percent, avg_delay_ms, queue_loss_per_node,
#                  loss_per_minute and throughput_per_minute.
# channel_alloc    Channel allocation vs collisions: GT-TSCH's three-hop-
#                  unique channels (Alg 1) against Orchestra with one fixed
#                  unicast channel offset and with hashed per-receiver
#                  offsets (1 DODAG x 9 nodes, 120 ppm). The collision share
#                  is medium_collision_losses / medium_transmissions.
#                  GT-TSCH ignores orchestra_channel_hash, so its two rows
#                  are identical.
# game_params      Payoff weights (Eq 8) in full simulation at alpha 4:
#                  balanced (beta 1, gamma 1), link-averse (beta 4) and
#                  queue-first (gamma 4), plus both raised (1 DODAG x 7
#                  nodes, 120 ppm). The analytic optimum l*_tx for any
#                  weights comes from game_playground, e.g.
#                  game_playground --alpha=1 --beta=0.5 --gamma=1 --etx=1
#                  --queue=14 --lrx=12.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 GT_CAMPAIGN OUTDIR" >&2
  exit 2
fi
campaign=$1
out=$2
mkdir -p "$out"
seeds=1000,1017,1034

echo "== scheduler_rules"
"$campaign" --quiet --seeds "$seeds" --out "$out/scheduler_rules" \
  --grid "enforce_tx_margin=1,0;enforce_interleave=1,0" \
  --set "scheduler=gt-tsch;dodag_count=2;nodes_per_dodag=9;traffic_ppm=165;queue_capacity=4;warmup_s=180;measure_s=240"

echo "== channel_alloc"
"$campaign" --quiet --seeds "$seeds" --out "$out/channel_alloc" \
  --grid "scheduler=gt-tsch,orchestra;orchestra_channel_hash=0,1" \
  --set "dodag_count=1;nodes_per_dodag=9;traffic_ppm=120;warmup_s=180;measure_s=240"

echo "== game_params"
"$campaign" --quiet --seeds "$seeds" --out "$out/game_params" \
  --grid "beta=1,4;gamma=1,4" \
  --set "scheduler=gt-tsch;alpha=4;dodag_count=1;nodes_per_dodag=7;traffic_ppm=120;warmup_s=180;measure_s=240"
