// Fully parameterised scenario runner: every knob of ScenarioConfig on the
// command line. The "do anything" CLI for exploring the design space.
//
//   ./custom_scenario --scheduler=gt --dodags=2 --nodes=7 --ppm=120 --slotframe=32
//   ./custom_scenario --orchestra-unicast=8 --alpha=4 --beta=1 --gamma=1 --queue=16
//   ./custom_scenario --warmup-s=180 --measure-s=300 --seeds=3 --drift-ppm=0
#include <cstdio>

#include "scenario/experiment.hpp"
#include "sixp/sf_registry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace gttsch;
  using namespace gttsch::literals;

  Flags flags(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "options: --scheduler=%s --dodags=N --nodes=N --ppm=R\n",
        SfRegistry::instance().names_joined("|").c_str());
    std::puts(
        "         --slotframe=M --orchestra-unicast=L --alpha --beta --gamma\n"
        "         --queue=N --range=M --interference=F --prr=P\n"
        "         --warmup-s=S --measure-s=S --seeds=N --seed0=N --drift-ppm=D\n"
        "         --no-tx-margin --no-interleave");
    return 0;
  }

  ScenarioConfig c;
  // Any registry key or alias ("gt" canonicalises to "gt-tsch").
  const std::string scheduler = flags.get("scheduler", "gt");
  const SfRegistry::Entry* sf_entry = SfRegistry::instance().find(scheduler);
  if (sf_entry == nullptr) {
    std::fprintf(stderr, "unknown --scheduler=%s (expected %s)\n", scheduler.c_str(),
                 SfRegistry::instance().names_joined(", ").c_str());
    return 2;
  }
  c.scheduler = sf_entry->key;
  c.dodag_count = static_cast<int>(flags.get_int("dodags", 2));
  c.nodes_per_dodag = static_cast<int>(flags.get_int("nodes", 7));
  c.traffic_ppm = flags.get_double("ppm", 120.0);
  c.gt_slotframe_length = static_cast<std::uint16_t>(flags.get_int("slotframe", 32));
  c.orchestra_unicast_length =
      static_cast<std::uint16_t>(flags.get_int("orchestra-unicast", 8));
  c.alpha = flags.get_double("alpha", 4.0);
  c.beta = flags.get_double("beta", 1.0);
  c.gamma = flags.get_double("gamma", 1.0);
  c.queue_capacity = static_cast<std::size_t>(flags.get_int("queue", 16));
  c.radio_range = flags.get_double("range", 40.0);
  c.interference_factor = flags.get_double("interference", 1.6);
  c.link_prr = flags.get_double("prr", 1.0);
  c.warmup = flags.get_int("warmup-s", 180) * 1_s;
  c.measure = flags.get_int("measure-s", 300) * 1_s;
  c.enforce_tx_margin = !flags.get_bool("no-tx-margin", false);
  c.enforce_interleave = !flags.get_bool("no-interleave", false);
  const double drift = flags.get_double("drift-ppm", 0.0);

  const int n_seeds = static_cast<int>(flags.get_int("seeds", 3));
  const std::uint64_t seed0 = static_cast<std::uint64_t>(flags.get_int("seed0", 1000));

  for (const std::string& unknown : flags.unknown())
    std::fprintf(stderr, "warning: unknown flag --%s\n", unknown.c_str());

  std::printf("%s | %d DODAG(s) x %d nodes | %.0f ppm/node | slotframe %u | %d seed(s)\n\n",
              scheduler_name(c.scheduler), c.dodag_count, c.nodes_per_dodag, c.traffic_ppm,
              c.gt_slotframe_length, n_seeds);

  TablePrinter t({"seed", "PDR %", "delay ms", "loss/min", "duty %", "qloss/node",
                  "thr/min", "formed"});
  RunMetrics sum;
  for (int i = 0; i < n_seeds; ++i) {
    c.seed = seed0 + 17ull * static_cast<std::uint64_t>(i);
    ScenarioRunOptions options;
    options.edit_node_config = [drift](NodeStackConfig& nc) { nc.max_drift_ppm = drift; };
    ScenarioRun run(c, options);
    run.start();
    const ExperimentResult r = run.finish();
    const RunMetrics& m = r.metrics;
    sum.pdr_percent += m.pdr_percent;
    sum.avg_delay_ms += m.avg_delay_ms;
    sum.loss_per_minute += m.loss_per_minute;
    sum.duty_cycle_percent += m.duty_cycle_percent;
    sum.queue_loss_per_node += m.queue_loss_per_node;
    sum.throughput_per_minute += m.throughput_per_minute;
    t.add_row({TablePrinter::num(static_cast<std::int64_t>(c.seed)),
               TablePrinter::num(m.pdr_percent, 1), TablePrinter::num(m.avg_delay_ms, 0),
               TablePrinter::num(m.loss_per_minute, 1),
               TablePrinter::num(m.duty_cycle_percent, 2),
               TablePrinter::num(m.queue_loss_per_node, 1),
               TablePrinter::num(m.throughput_per_minute, 0),
               r.fully_formed ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nmean: PDR %.1f%% | delay %.0f ms | duty %.2f%% | throughput %.0f/min\n",
              sum.pdr_percent / n_seeds, sum.avg_delay_ms / n_seeds,
              sum.duty_cycle_percent / n_seeds, sum.throughput_per_minute / n_seeds);
  return 0;
}
