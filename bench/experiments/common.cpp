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
