// Figure 6j-6l experiment: the x500 benchmarks -- HPL and HPCG compute
// performance [Gflop/s] and Graph500 traversal speed [GTEPS] -- per node
// count and combination (higher is better), each best value a row of the
// `scores` table.
#include <algorithm>

#include "experiments/experiments.hpp"
#include "stats/gain.hpp"
#include "stats/units.hpp"
#include "workloads/apps.hpp"
#include "workloads/imb.hpp"
#include "workloads/x500.hpp"

namespace hxsim::bench {

namespace {

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t machine = system.num_nodes();

  report::ResultTable scores{
      "scores", {"bench", "config", "nodes", "metric", "gain_vs_baseline"},
      {}};
  report::ResultTable& out =
      rs.table("x500", {"benchmark", "nodes", "baseline",
                        "max spread across configs"});

  for (const workloads::AppId id : workloads::x500_apps()) {
    const workloads::AppWorkload probe = workloads::make_app(id, 4);
    const bool is_graph = id == workloads::AppId::kGraph500;
    std::vector<std::int32_t> node_counts = workloads::capability_node_counts(
        probe.power_of_two_scaling, machine);
    if (options.quick) node_counts.resize(std::min<std::size_t>(
        node_counts.size(), 3));

    // Per node count: baseline metric and the config spread (max/min - 1
    // over all five combinations; the paper finds the x500 codes
    // compute-bound, so the spread stays within a few percent).
    std::vector<double> col_min(node_counts.size(), 0.0);
    std::vector<double> col_max(node_counts.size(), 0.0);
    std::vector<double> baseline_best;
    for (std::size_t cfg = 0; cfg < system.configs().size(); ++cfg) {
      const auto& config = system.configs()[cfg];
      const std::int32_t reps = reps_for(config, options);
      for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
        const std::int32_t n = node_counts[ni];
        const workloads::AppWorkload app = workloads::make_app(id, n);
        double best_metric = 0.0;
        for (std::int32_t rep = 0; rep < reps; ++rep) {
          const mpi::Placement placement =
              place(config, n, machine, options.seed + 307 * rep);
          mpi::Transport transport(*config.cluster, placement,
                                   options.seed + rep);
          const double t = workloads::run_workload(app, transport);
          if (t > workloads::kWalltimeLimit) continue;
          const double metric =
              is_graph ? workloads::gteps(app, t) : workloads::gflops(app, t);
          best_metric = std::max(best_metric, metric);
        }
        if (cfg == 0) baseline_best.push_back(best_metric);
        if (best_metric > 0.0) {
          col_min[ni] = col_min[ni] > 0.0 ? std::min(col_min[ni], best_metric)
                                          : best_metric;
          col_max[ni] = std::max(col_max[ni], best_metric);
        }
        const double gain = stats::relative_gain(
            baseline_best[ni], best_metric,
            stats::Direction::kHigherIsBetter);
        scores.add_row({probe.name, config.name, std::to_string(n),
                        stats::format_fixed(best_metric, 3),
                        stats::format_gain(gain)});
      }
    }

    const std::size_t top = node_counts.size() - 1;
    const double top_spread =
        col_min[top] > 0.0 ? col_max[top] / col_min[top] - 1.0 : 0.0;
    out.add_row({probe.name, std::to_string(node_counts[top]),
                 stats::format_fixed(baseline_best[top], 1) +
                     (is_graph ? " GTEPS" : " Gflop/s"),
                 stats::format_fixed(top_spread * 100.0, 1) + "%"});
    std::string key = is_graph ? "graph500" : (id == workloads::AppId::kHpl
                                                   ? "hpl" : "hpcg");
    rs.set(key + "_top_metric", baseline_best[top]);
    rs.set(key + "_top_spread", top_spread);
  }
  rs.tables.push_back(std::move(scores));
  return rs;
}

}  // namespace

report::Experiment fig6_x500_experiment() {
  return {"fig6_x500",
          "HPL/HPCG Gflops and Graph500 GTEPS over the combinations",
          "Fig. 6j-6l", run};
}

}  // namespace hxsim::bench
