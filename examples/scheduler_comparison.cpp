// Side-by-side GT-TSCH vs Orchestra on the paper's 14-node network at a
// chosen traffic load — a one-command version of the Fig 8 experiment.
//
//   ./scheduler_comparison [--ppm=120] [--seeds=2]
#include <cstdio>

#include "campaign/runner.hpp"
#include "scenario/experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gttsch;
  using namespace gttsch::literals;

  Flags flags(argc, argv);
  const double ppm = flags.get_double("ppm", 120.0);
  const int n_seeds = static_cast<int>(flags.get_int("seeds", 2));

  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < n_seeds; ++i) seeds.push_back(7000 + 13ull * i);

  auto configure = [&](const std::string& kind) {
    ScenarioConfig c;
    c.scheduler = kind;
    c.dodag_count = 2;
    c.nodes_per_dodag = 7;
    c.traffic_ppm = ppm;
    c.warmup = 180_s;
    c.measure = 300_s;
    return c;
  };

  std::printf("Scheduler comparison: 14 nodes (2 DODAGs), %.0f ppm/node, %d seed(s)\n\n",
              ppm, n_seeds);
  const auto gt = campaign::run_point(configure("gt-tsch"), seeds);
  const auto orch = campaign::run_point(configure("orchestra"), seeds);

  TablePrinter t({"metric", "GT-TSCH", "Orchestra"});
  auto row = [&](const char* name, double a, double b, int prec) {
    t.add_row({name, TablePrinter::num(a, prec), TablePrinter::num(b, prec)});
  };
  row("PDR (%)", gt.mean.pdr_percent, orch.mean.pdr_percent, 1);
  row("avg delay (ms)", gt.mean.avg_delay_ms, orch.mean.avg_delay_ms, 0);
  row("packet loss (pkt/min)", gt.mean.loss_per_minute, orch.mean.loss_per_minute, 1);
  row("radio duty cycle (%)", gt.mean.duty_cycle_percent, orch.mean.duty_cycle_percent, 2);
  row("queue loss per node", gt.mean.queue_loss_per_node, orch.mean.queue_loss_per_node, 1);
  row("throughput (pkt/min)", gt.mean.throughput_per_minute, orch.mean.throughput_per_minute,
      0);
  t.print();

  const double pdr_gain = gt.mean.pdr_percent - orch.mean.pdr_percent;
  std::printf("\nGT-TSCH PDR advantage: %+.1f percentage points\n", pdr_gain);
  return 0;
}
