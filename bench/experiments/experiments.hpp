// Registry of the experiments (bench/experiments/exp_<id>.cpp): every
// paper figure/table plus the repo-level contracts, one measurement core
// each.  bench/repro_pipeline is the only runner: `--only <id>` runs one
// experiment, no --only runs them all in one process, folds the
// ResultSets into REPRO.json, checks the committed claims/ tables and
// regenerates EXPERIMENTS.md.
//
// An experiment only fills a structured ResultSet: metrics the claims
// bind to, and tables -- its figure data in long form, which the pipeline
// prints, stores, writes as CSV (--csv) and the renderer embeds in the
// docs.  It writes nothing to stdout or to files; --trace hands it a
// second ResultSet (report::Options::trace) to fill.  The repo-level
// experiments throw, naming the phase, when an identity contract breaks,
// so a run fails even without the claims check.
#pragma once

#include <span>

#include "bench_common.hpp"
#include "report/experiment.hpp"

namespace hxsim::bench {

/// One lazily built PaperSystem per scale, shared by every experiment in
/// the process (building the 972-switch tree's routings costs seconds;
/// the pipeline would otherwise pay it 10+ times).
[[nodiscard]] const workloads::PaperSystem& shared_system(bool small_scale);

/// A traffic-matrix entry: src sends `weight` of its unit injection to dst.
struct Demand {
  topo::NodeId src;
  topo::NodeId dst;
  double weight;
};

/// Uniform traffic over `nodes` nodes: every ordered pair of distinct
/// nodes, in (src, dst) order, at weight 1 / (nodes - 1).
[[nodiscard]] std::vector<Demand> uniform_demands(std::int32_t nodes);

/// Saturation throughput alpha = min(1, 1 / max channel load), channel
/// capacity being one unit: routes the demands in order
/// (route_message(src, dst, 1 MiB) drawing from Rng(seed)), adds each
/// weight to every channel of its path and skips unroutable demands.
[[nodiscard]] double saturation_throughput(const mpi::Cluster& cluster,
                                           std::span<const Demand> demands,
                                           std::uint64_t seed);

// One factory per experiment, defined in exp_<id>.cpp.
report::Experiment fig1_mpigraph_experiment();
report::Experiment table1_rules_experiment();
report::Experiment fig4_collectives_experiment();
report::Experiment fig5a_baidu_allreduce_experiment();
report::Experiment fig5b_barrier_experiment();
report::Experiment fig5c_ebb_experiment();
report::Experiment fig6_apps_experiment();
report::Experiment fig6_x500_experiment();
report::Experiment fig7_capacity_experiment();
report::Experiment threshold_calibration_experiment();
report::Experiment topology_properties_experiment();
report::Experiment ablation_parx_experiment();
report::Experiment adaptive_routing_experiment();
report::Experiment uniform_random_throughput_experiment();
report::Experiment topology_comparison_experiment();
report::Experiment taper_study_experiment();
// Repo-level experiments (claims about this implementation, not the
// paper): incremental-reroute savings, typed packet-engine and flow-solver
// identity and speedup, the online-fault contracts, the degraded-fabric
// campaign and thread scaling of route computation.
report::Experiment reroute_dirty_experiment();
report::Experiment pktsim_speedup_experiment();
report::Experiment flowsim_speedup_experiment();
report::Experiment online_resilience_experiment();
report::Experiment resilience_campaign_experiment();
report::Experiment exec_scaling_experiment();

/// Registers every experiment above.
void register_all_experiments(report::Registry& registry);

/// Process-wide registry, populated once on first use.
[[nodiscard]] report::Registry& global_registry();

}  // namespace hxsim::bench
