// Figure 5b experiment: IMB Barrier latency whiskers per node count for
// all five combinations.  The headline result: the PARX configuration
// pays a constant-factor software penalty because the multi-LID bfo PML
// is far less tuned than ob1.  Every run is a row of the `runs` table,
// and the per-combination whiskers are the `whiskers` table.
#include <algorithm>
#include <limits>

#include "experiments/experiments.hpp"
#include "mpi/collectives.hpp"
#include "stats/gain.hpp"
#include "stats/summary.hpp"
#include "stats/units.hpp"
#include "workloads/imb.hpp"

namespace hxsim::bench {

namespace {

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t machine = system.num_nodes();

  std::vector<std::int32_t> node_counts =
      workloads::capability_node_counts(false, machine);
  if (options.quick) node_counts.assign({7, 14, 28});
  const std::int32_t runs = 10;  // the paper's ten repetitions

  report::ResultTable runs_table{
      "runs", {"config", "nodes", "run", "latency_us"}, {}};
  report::ResultTable whiskers{"whiskers",
                               {"config", "nodes", "min", "q25", "median",
                                "q75", "max", "gain_vs_baseline"},
                               {}};
  std::vector<std::vector<double>> best_per_config(system.configs().size());

  for (std::size_t cfg = 0; cfg < system.configs().size(); ++cfg) {
    const auto& config = system.configs()[cfg];
    for (const std::int32_t n : node_counts) {
      std::vector<double> lat_us;
      for (std::int32_t run = 0; run < runs; ++run) {
        const mpi::Placement placement =
            place(config, n, machine, options.seed + 7919 * run);
        mpi::Transport transport(*config.cluster, placement,
                                 options.seed + run);
        const double t = transport.execute(
            mpi::collectives::barrier_dissemination(n));
        lat_us.push_back(stats::to_us(t));
        runs_table.add_row({config.name, std::to_string(n),
                            std::to_string(run),
                            stats::format_fixed(stats::to_us(t), 3)});
      }
      const stats::Summary s = stats::summarize(lat_us);
      best_per_config[cfg].push_back(s.min);
      const double base = best_per_config[0][best_per_config[cfg].size() - 1];
      whiskers.add_row({config.name, std::to_string(n),
                        stats::format_fixed(s.min, 2),
                        stats::format_fixed(s.q25, 2),
                        stats::format_fixed(s.median, 2),
                        stats::format_fixed(s.q75, 2),
                        stats::format_fixed(s.max, 2),
                        stats::format_gain(stats::relative_gain(
                            base, s.min, stats::Direction::kLowerIsBetter))});
    }
  }

  // The headline: PARX/bfo (config 4) slowdown over the baseline, and
  // the spread of the four ob1 combinations, per node count.
  report::ResultTable& out =
      rs.table("penalty", {"nodes", "baseline min [us]", "PARX min [us]",
                           "PARX slowdown", "ob1 spread"});
  double slow_min = std::numeric_limits<double>::infinity();
  double slow_max = 0.0;
  double spread_max = 0.0;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const double base = best_per_config[0][i];
    const double parx = best_per_config[4][i];
    const double slowdown = parx / base;
    slow_min = std::min(slow_min, slowdown);
    slow_max = std::max(slow_max, slowdown);
    double ob1_min = std::numeric_limits<double>::infinity();
    double ob1_max = 0.0;
    for (std::size_t cfg = 0; cfg < 4; ++cfg) {
      ob1_min = std::min(ob1_min, best_per_config[cfg][i]);
      ob1_max = std::max(ob1_max, best_per_config[cfg][i]);
    }
    const double spread = ob1_max / ob1_min - 1.0;
    spread_max = std::max(spread_max, spread);
    out.add_row({std::to_string(node_counts[i]),
                 stats::format_fixed(base, 2), stats::format_fixed(parx, 2),
                 stats::format_fixed(slowdown, 2) + "x",
                 stats::format_fixed(spread * 100.0, 1) + "%"});
  }
  rs.set("parx_slowdown_min", slow_min);
  rs.set("parx_slowdown_max", slow_max);
  rs.set("ob1_spread_max", spread_max);
  rs.tables.push_back(std::move(runs_table));
  rs.tables.push_back(std::move(whiskers));
  return rs;
}

}  // namespace

report::Experiment fig5b_barrier_experiment() {
  return {"fig5b_barrier",
          "IMB Barrier latency whiskers; the PARX software penalty",
          "Fig. 5b", run};
}

}  // namespace hxsim::bench
