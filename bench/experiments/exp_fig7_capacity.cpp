// Figure 7 experiment: capacity / system-throughput evaluation.
// Fourteen applications run concurrently on dedicated 32/56-node
// allocations (664 of 672 nodes, 98.8 % occupancy) for a simulated
// 3-hour window; the metric is completed runs per application (the
// `runs` table) and the total across the five combinations.
#include <span>
#include <vector>

#include "experiments/experiments.hpp"
#include "stats/gain.hpp"
#include "stats/units.hpp"
#include "workloads/apps.hpp"
#include "workloads/capacity.hpp"

namespace hxsim::bench {

namespace {

/// The paper's 664-node mix needs the full machine; the 96-node quick
/// system gets the same 14 apps on 6-node slices (84 nodes, same shape).
std::vector<workloads::CapacityJob> capacity_mix(
    std::span<const topo::NodeId> pool, mpi::PlacementKind kind,
    stats::Rng& rng, bool quick) {
  if (!quick) return workloads::paper_capacity_mix(pool, kind, rng);
  std::vector<workloads::CapacityJob> jobs;
  std::size_t offset = 0;
  constexpr std::size_t kQuickNodes = 6;
  for (const workloads::AppId id : workloads::capacity_apps()) {
    const std::span<const topo::NodeId> slice =
        pool.subspan(offset, kQuickNodes);
    offset += kQuickNodes;
    jobs.push_back(workloads::CapacityJob{
        id, mpi::Placement::make(kind, static_cast<std::int32_t>(kQuickNodes),
                                 slice, rng)});
  }
  return jobs;
}

/// Metric key per config index (fixed PaperSystem order).
const char* config_key(std::size_t cfg) {
  switch (cfg) {
    case 0: return "ft_ftree_linear";
    case 1: return "ft_sssp_clustered";
    case 2: return "hx_dfsssp_linear";
    case 3: return "hx_dfsssp_random";
    case 4: return "hx_parx_clustered";
  }
  return "?";
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const workloads::PaperSystem& system = shared_system(options.quick);

  workloads::CapacityOptions cap_opts;
  cap_opts.duration = options.quick ? 1800.0 : 3.0 * 3600.0;
  cap_opts.seed = options.seed;

  report::ResultTable runs{"runs", {"config", "app", "runs_completed"}, {}};
  std::vector<std::string> app_names;
  std::vector<std::vector<std::int32_t>> per_config_runs;
  std::int32_t baseline_total = 0;

  for (std::size_t cfg = 0; cfg < system.configs().size(); ++cfg) {
    const auto& config = system.configs()[cfg];
    stats::Rng rng(options.seed + cfg);
    const auto pool =
        mpi::Placement::whole_machine(system.num_nodes());
    const auto jobs =
        capacity_mix(pool, config.placement, rng, options.quick);
    const workloads::CapacityResult result =
        workloads::run_capacity(*config.cluster, jobs, cap_opts);

    if (cfg == 0) {
      app_names = result.app_names;
      baseline_total = result.total();
    }
    per_config_runs.push_back(result.runs_completed);
    for (std::size_t j = 0; j < result.app_names.size(); ++j)
      runs.add_row({config.name, result.app_names[j],
                    std::to_string(result.runs_completed[j])});
  }

  report::ResultTable& out =
      rs.table("totals", {"configuration", "completed runs",
                          "gain vs baseline"});
  // How many apps complete identical run counts across all five planes
  // (the compute-bound rows of the figure).
  std::int32_t identical = 0;
  for (std::size_t j = 0; j < app_names.size(); ++j) {
    bool same = true;
    for (const auto& config_runs : per_config_runs)
      same = same && config_runs[j] == per_config_runs[0][j];
    if (same) ++identical;
  }
  for (std::size_t cfg = 0; cfg < per_config_runs.size(); ++cfg) {
    std::int32_t sum = 0;
    for (std::int32_t r : per_config_runs[cfg]) sum += r;
    const double gain = stats::relative_gain(
        static_cast<double>(baseline_total), static_cast<double>(sum),
        stats::Direction::kHigherIsBetter);
    out.add_row({system.configs()[cfg].name, std::to_string(sum),
                 stats::format_gain(gain)});
    rs.set(std::string("total_") + config_key(cfg), sum);
    // MuPP is the communication-bound tail the figure highlights.
    for (std::size_t j = 0; j < app_names.size(); ++j)
      if (app_names[j] == "MuPP")
        rs.set(std::string("mupp_") + config_key(cfg),
               per_config_runs[cfg][j]);
  }
  rs.set("apps_identical_runs", identical);
  rs.tables.push_back(std::move(runs));
  return rs;
}

}  // namespace

report::Experiment fig7_capacity_experiment() {
  return {"fig7_capacity",
          "Capacity-mix completed runs across the five combinations",
          "Fig. 7", run};
}

}  // namespace hxsim::bench
