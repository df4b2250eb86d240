#include <algorithm>
#include <optional>

#include "experiments/experiments.hpp"

namespace hxsim::bench {

const workloads::PaperSystem& shared_system(bool small_scale) {
  static std::optional<workloads::PaperSystem> full;
  static std::optional<workloads::PaperSystem> small;
  std::optional<workloads::PaperSystem>& slot = small_scale ? small : full;
  if (!slot) {
    workloads::SystemOptions opts;
    opts.small_scale = small_scale;
    slot.emplace(opts);
  }
  return *slot;
}

std::vector<Demand> uniform_demands(std::int32_t nodes) {
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(nodes) *
                  static_cast<std::size_t>(nodes - 1));
  const double w = 1.0 / static_cast<double>(nodes - 1);
  for (topo::NodeId i = 0; i < nodes; ++i)
    for (topo::NodeId j = 0; j < nodes; ++j)
      if (i != j) demands.push_back(Demand{i, j, w});
  return demands;
}

double saturation_throughput(const mpi::Cluster& cluster,
                             std::span<const Demand> demands,
                             std::uint64_t seed) {
  std::vector<double> load(
      static_cast<std::size_t>(cluster.topo().num_channels()), 0.0);
  stats::Rng rng(seed);
  for (const Demand& d : demands) {
    const auto msg = cluster.route_message(d.src, d.dst, 1 << 20, rng);
    if (!msg) continue;
    for (topo::ChannelId ch : msg->path)
      load[static_cast<std::size_t>(ch)] += d.weight;
  }
  double worst = 0.0;
  for (double l : load) worst = std::max(worst, l);
  return worst > 0.0 ? std::min(1.0, 1.0 / worst) : 1.0;
}

void register_all_experiments(report::Registry& registry) {
  registry.add(fig1_mpigraph_experiment());
  registry.add(table1_rules_experiment());
  registry.add(fig4_collectives_experiment());
  registry.add(fig5a_baidu_allreduce_experiment());
  registry.add(fig5b_barrier_experiment());
  registry.add(fig5c_ebb_experiment());
  registry.add(fig6_apps_experiment());
  registry.add(fig6_x500_experiment());
  registry.add(fig7_capacity_experiment());
  registry.add(threshold_calibration_experiment());
  registry.add(topology_properties_experiment());
  registry.add(ablation_parx_experiment());
  registry.add(adaptive_routing_experiment());
  registry.add(uniform_random_throughput_experiment());
  registry.add(topology_comparison_experiment());
  registry.add(taper_study_experiment());
  registry.add(reroute_dirty_experiment());
  registry.add(pktsim_speedup_experiment());
  registry.add(flowsim_speedup_experiment());
  registry.add(online_resilience_experiment());
  registry.add(resilience_campaign_experiment());
  registry.add(exec_scaling_experiment());
}

report::Registry& global_registry() {
  static report::Registry registry = [] {
    report::Registry r;
    register_all_experiments(r);
    return r;
  }();
  return registry;
}

}  // namespace hxsim::bench
